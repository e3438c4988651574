"""Network ops against loop oracles, plus trace and mode invariants."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emosent import nd
from emosent.model import (
    INIT_STD,
    MODES,
    ModelConfig,
    TASK_EMOTION,
    TASK_SENTIMENT,
    _dropout_masks,
    bilstm_forward,
    encode,
    forward,
    init_parameters,
    parameter_shapes,
    primary_attention,
    secondary_attention,
    task_heads,
)
from emosent.resources import EncodedExample
from emosent.rng import stage_rng, truncated_normal
from emosent.train import infer, joint_loss

from conftest import assert_gradients_clear_of_zero, gate_weights
from oracles import (
    affine_loops,
    dropout_mask,
    lstm_direction_loops,
    primary_attention_loops,
    secondary_attention_loops,
    truncated_normal_rescan,
)


def tiny_config(mode="M2", dropout=0.0, train_embeddings=False):
    return ModelConfig(
        mode=mode,
        embed_dim=5,
        lstm_hidden=4,
        context_dim=3,
        dt_k=2,
        dropout_rate=dropout,
        train_embeddings=train_embeddings,
    )


def tiny_example(n_tokens=3):
    return EncodedExample(
        id="x1",
        token_ids=[2, 5, 7][:n_tokens],
        candidate_ids=[[3, 4], [6], []][:n_tokens],
        sentiment="positive",
        emotions=np.array([1.0, 0, 0, 0, 1.0, 0, 0, 0]),
    )


class TestModelConfig:
    @pytest.mark.parametrize(
        "mode,tasks,primary",
        [
            ("S1", (TASK_SENTIMENT,), False),
            ("S2", (TASK_SENTIMENT,), True),
            ("E1", (TASK_EMOTION,), False),
            ("E2", (TASK_EMOTION,), True),
            ("M1", (TASK_SENTIMENT, TASK_EMOTION), False),
            ("M2", (TASK_SENTIMENT, TASK_EMOTION), True),
        ],
    )
    def test_mode_fixes_tasks_and_attention(self, mode, tasks, primary):
        config = tiny_config(mode)
        assert config.tasks == tasks
        assert config.primary_attention_enabled is primary

    def test_pooled_dim_follows_attention(self):
        assert tiny_config("M2").pooled_dim == 5 + 8
        assert tiny_config("M1").pooled_dim == 8

    def test_full_size_shapes(self):
        config = ModelConfig(mode="M2")
        shapes = parameter_shapes(config, vocab_size=11)
        assert shapes["sentiment/W_w"] == (600, 300)
        assert shapes["sentiment/b_w"] == (300,)
        assert shapes["emotion/W_s"] == (900, 150)
        assert shapes["emotion/u"] == (150,)
        assert shapes["sentiment/V"] == (900, 2)
        assert shapes["emotion/V"] == (900, 8)
        assert parameter_shapes(ModelConfig(mode="S1"), 11)["sentiment/V"] == (600, 2)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(mode="X9")

    @pytest.mark.parametrize("field, value, message", [
        ("train_embeddings", "no", "train_embeddings: expected bool, got 'no'"),
        ("embed_dim", 2.5, "embed_dim: expected int, got 2.5"),
        ("dt_k", 1.5, "dt_k: expected int, got 1.5"),
        ("lstm_hidden", True, "lstm_hidden: expected int, got True"),
        ("mode", 2, "mode: expected str, got 2"),
    ])
    def test_field_of_the_wrong_type_rejected(self, field, value, message):
        with pytest.raises(TypeError) as caught:
            ModelConfig(**{field: value})
        assert str(caught.value) == message

    def test_types_are_checked_ahead_of_ranges(self):
        with pytest.raises(TypeError, match="train_embeddings: expected bool"):
            ModelConfig(embed_dim=0, train_embeddings="no")

    def test_int_is_a_float_value(self):
        assert ModelConfig(dropout_rate=0).dropout_rate == 0

    def test_word_attention_params_only_when_enabled(self):
        assert "sentiment/W_w" not in parameter_shapes(ModelConfig(mode="S1"), 5)
        assert "sentiment/W_w" in parameter_shapes(ModelConfig(mode="S2"), 5)


class TestInitParameters:
    def test_seeded_truncated_normal(self):
        config = tiny_config()
        a = init_parameters(config, vocab_size=9, seed=4)
        b = init_parameters(config, vocab_size=9, seed=4)
        c = init_parameters(config, vocab_size=9, seed=5)
        for name in a:
            np.testing.assert_array_equal(a[name].data, b[name].data)
            assert np.all(np.abs(a[name].data) <= 0.2)
        assert not np.array_equal(a["sentiment/W_s"].data, c["sentiment/W_s"].data)

    @pytest.mark.parametrize("shape", [(), 1, (7,), (3, 4), (300, 1200)], ids=str)
    @pytest.mark.parametrize("std", [0.1, 0.02, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_truncated_normal_matches_rescan_oracle(self, shape, std, seed):
        got = truncated_normal(stage_rng(seed, "draw"), shape, std)
        want = truncated_normal_rescan(stage_rng(seed, "draw"), shape, std)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_gate_blocks_keep_the_per_gate_streams(self):
        params = init_parameters(tiny_config(), vocab_size=9, seed=6)
        for prefix in ("lstm_fw", "lstm_bw"):
            for name, shape in (("W", (5, 4)), ("U", (4, 4)), ("b", (4,))):
                blocks = np.split(params[f"{prefix}/{name}"].data, 4, axis=-1)
                for gate, block in zip("ifgo", blocks):
                    rng = stage_rng(6, f"init/{prefix}/{name}_{gate}")
                    np.testing.assert_array_equal(block, truncated_normal(rng, shape, INIT_STD))

    def test_pretrained_embeddings_frozen_by_default(self):
        rows = np.arange(45, dtype=np.float64).reshape(9, 5)
        params = init_parameters(tiny_config(), embedding_rows=rows)
        np.testing.assert_array_equal(params["embedding"].data, rows)
        assert params["embedding"].requires_grad is False
        assert params["sentiment/W_s"].requires_grad is True

    def test_embedding_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            init_parameters(tiny_config(), embedding_rows=np.zeros((4, 7)))


class TestBiLSTM:
    def test_zero_weights_zero_inputs_give_zero_states(self):
        config = tiny_config("M1")
        params = {
            name: nd.Tensor(np.zeros(shape))
            for name, shape in parameter_shapes(config, 3).items()
        }
        embeds = nd.Tensor(np.zeros((3, 5)))
        for h in bilstm_forward(embeds, params, config).data:
            np.testing.assert_array_equal(h, np.zeros(8))

    def test_length_one_concatenates_both_directions(self):
        config = tiny_config("M1")
        params = init_parameters(config, vocab_size=3, seed=1)
        x = params["embedding"].data[1]
        (h,) = bilstm_forward(nd.Tensor([x]), params, config).data
        fw = lstm_direction_loops([x.tolist()], gate_weights(params, "lstm_fw"), 4)
        bw = lstm_direction_loops([x.tolist()], gate_weights(params, "lstm_bw"), 4)
        np.testing.assert_allclose(h, fw[0] + bw[0], rtol=0, atol=1e-12)

    def test_length_three_matches_scalar_loop_oracle(self):
        config = tiny_config("M1")
        params = init_parameters(config, vocab_size=9, seed=2)
        rng = np.random.default_rng(3)
        xs = [rng.normal(size=5) for _ in range(3)]
        states = bilstm_forward(nd.Tensor(np.stack(xs)), params, config)
        fw = lstm_direction_loops([x.tolist() for x in xs], gate_weights(params, "lstm_fw"), 4)
        bw = lstm_direction_loops(
            [x.tolist() for x in reversed(xs)], gate_weights(params, "lstm_bw"), 4
        )
        bw.reverse()
        for t in range(3):
            diff = np.abs(states.data[t] - np.array(fw[t] + bw[t])).max()
            assert diff < 1e-12

    def test_empty_sequence_rejected(self):
        config = tiny_config("M1")
        params = init_parameters(config, vocab_size=3)
        with pytest.raises(nd.ShapeError, match=r"N>0"):
            bilstm_forward(nd.Tensor(np.zeros((0, 5))), params, config)

    def test_train_mode_requires_rng(self):
        config = tiny_config("M1", dropout=0.5)
        params = init_parameters(config, vocab_size=9)
        with pytest.raises(ValueError, match="dropout_rng"):
            forward(tiny_example(1), params, config, train_mode=True)


def attention_params(task=TASK_SENTIMENT):
    rng = np.random.default_rng(8)
    return {
        f"{task}/W_w": nd.Tensor(rng.integers(-2, 3, size=(8, 5)).astype(float)),
        f"{task}/b_w": nd.Tensor(rng.integers(-2, 3, size=5).astype(float)),
    }


def attend_one(h, candidates, params, task=TASK_SENTIMENT):
    """primary_attention on a length-1 sequence whose token has the given
    candidate rows, all unmasked: the weights and the token's hhat."""
    keys = np.asarray(candidates, dtype=np.float64).reshape(-1, 5)
    h = nd.Tensor([h])
    alpha, mix = primary_attention(h, nd.Tensor(keys), np.ones((1, len(keys)), bool), params, task)
    return alpha, hhat_of_one(h, mix, task)


def hhat_of_one(h, mix, task=TASK_SENTIMENT):
    """hhat = concat(mix, h) [1, 13] of a one-token sequence: the vector that
    `secondary_attention` pools it to, with its one weight of exactly 1."""
    alpha, pooled = secondary_attention(h, sentence_params(task, dim=13), task, mix=mix)
    assert alpha.tolist() == [1.0]
    return pooled


class TestPrimaryAttention:
    def test_single_candidate_gets_full_weight(self):
        params = attention_params()
        h = np.arange(8.0)
        v = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        alpha, hhat = attend_one(h, [v], params)
        np.testing.assert_array_equal(alpha[0], [1.0])
        np.testing.assert_array_equal(hhat.data[0, :5], v)
        np.testing.assert_array_equal(hhat.data[0, 5:], h)

    def test_equal_candidates_split_evenly(self):
        params = attention_params()
        h = np.arange(8.0)
        v = np.array([1.0, -1.0, 0.5, 2.0, 0.0])
        alpha, hhat = attend_one(h, [v, v], params)
        np.testing.assert_array_equal(alpha[0], [0.5, 0.5])
        np.testing.assert_array_equal(hhat.data[0, :5], v)

    def test_three_candidates_match_direct_formula(self):
        params = attention_params()
        h = np.array([1.0, 0.0, -1.0, 2.0, 1.0, 0.0, 1.0, -2.0])
        cands = np.array(
            [[1.0, 0, 1, 0, 1], [0, 1, 0, 1, 0], [1, 1, -1, -1, 0]]
        )
        alpha, hhat = attend_one(h, cands, params)
        exp_alpha, exp_mix = primary_attention_loops(
            h.tolist(),
            params["sentiment/W_w"].data.tolist(),
            params["sentiment/b_w"].data.tolist(),
            cands.tolist(),
        )
        assert np.abs(alpha[0] - exp_alpha).max() < 1e-12
        assert np.abs(hhat.data[0, :5] - exp_mix).max() < 1e-12

    def test_empty_candidate_set_mixes_zero(self):
        params = attention_params()
        h = nd.Tensor([np.arange(8.0)])
        # No key slots at all, or only masked-out padding slots; either way
        # the token owns no key rows.
        for width in (0, 2):
            alpha, mix = primary_attention(
                h, nd.Tensor(np.ones((0, 5))), np.zeros((1, width), bool),
                params, TASK_SENTIMENT,
            )
            hhat = hhat_of_one(h, mix)
            np.testing.assert_array_equal(alpha, np.zeros((1, width)))
            np.testing.assert_array_equal(hhat.data[0, :5], np.zeros(5))
            np.testing.assert_array_equal(hhat.data[0, 5:], h.data[0])


def sentence_params(task=TASK_SENTIMENT, dim=6):
    rng = np.random.default_rng(9)
    return {
        f"{task}/W_s": nd.Tensor(rng.normal(size=(dim, 3))),
        f"{task}/b_s": nd.Tensor(rng.normal(size=3)),
        f"{task}/u": nd.Tensor(rng.normal(size=3)),
    }


class TestSecondaryAttention:
    def test_length_one_passes_through(self):
        params = sentence_params()
        hh = np.arange(6.0)
        alpha, pooled = secondary_attention(nd.Tensor([hh]), params, TASK_SENTIMENT)
        np.testing.assert_array_equal(alpha, [1.0])
        np.testing.assert_array_equal(pooled.data, [hh])

    def test_identical_steps_split_evenly(self):
        params = sentence_params()
        hh = np.array([1.0, -2.0, 0.0, 3.0, 1.0, 1.0])
        alpha, pooled = secondary_attention(nd.Tensor([hh, hh]), params, TASK_SENTIMENT)
        np.testing.assert_array_equal(alpha, [0.5, 0.5])
        np.testing.assert_array_equal(pooled.data, [hh])

    def test_length_three_matches_direct_formula(self):
        params = sentence_params()
        rng = np.random.default_rng(10)
        vectors = [rng.normal(size=6) for _ in range(3)]
        alpha, pooled = secondary_attention(
            nd.Tensor(np.stack(vectors)), params, TASK_SENTIMENT
        )
        exp_alpha, exp_pooled = secondary_attention_loops(
            [v.tolist() for v in vectors],
            params["sentiment/W_s"].data.tolist(),
            params["sentiment/b_s"].data.tolist(),
            params["sentiment/u"].data.tolist(),
        )
        assert np.abs(alpha - exp_alpha).max() < 1e-12
        assert np.abs(pooled.data - exp_pooled).max() < 1e-12

    def test_consistent_permutation_preserves_output(self):
        params = sentence_params()
        rng = np.random.default_rng(11)
        vectors = np.stack([rng.normal(size=6) for _ in range(4)])
        perm = [2, 0, 3, 1]
        alpha, pooled = secondary_attention(nd.Tensor(vectors), params, TASK_SENTIMENT)
        alpha_p, pooled_p = secondary_attention(
            nd.Tensor(vectors[perm]), params, TASK_SENTIMENT
        )
        np.testing.assert_allclose(alpha_p, alpha[perm], rtol=0, atol=1e-12)
        np.testing.assert_allclose(pooled_p.data, pooled.data, rtol=0, atol=1e-12)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            secondary_attention(nd.Tensor(np.zeros((0, 6))), sentence_params(), TASK_SENTIMENT)


def zero_head_model(sentiment_bias=(0.0, 0.0)):
    """An M2 model whose heads ignore the pooled vector: the sentiment
    logits are `sentiment_bias` and the emotion logits 0."""
    config = tiny_config("M2")
    params = init_parameters(config, vocab_size=9, seed=0)
    for task, units in ((TASK_SENTIMENT, 2), (TASK_EMOTION, 8)):
        params[f"{task}/V"] = nd.Tensor(np.zeros((config.pooled_dim, units)))
        params[f"{task}/c"] = nd.Tensor(np.zeros(units))
    params["sentiment/c"] = nd.Tensor(sentiment_bias)
    return params, config


class TestTaskHeads:
    def test_zero_head_gives_half_probabilities_and_boundary_positives(self):
        params, config = zero_head_model()
        [(probs, decisions)] = infer([tiny_example()], params, config, threshold=0.5)
        np.testing.assert_array_equal(probs[TASK_EMOTION], np.full(8, 0.5))
        np.testing.assert_array_equal(probs[TASK_SENTIMENT], np.full(2, 0.5))
        np.testing.assert_array_equal(decisions[TASK_EMOTION], np.ones(8, dtype=np.int64))
        assert decisions[TASK_SENTIMENT] == 0

    def test_sentiment_argmax_index_order(self):
        for bias, index in (([2.0, -1.0], 0), ([-3.0, 0.5], 1)):
            params, config = zero_head_model(bias)
            [(_, decisions)] = infer([tiny_example()], params, config)
            assert decisions[TASK_SENTIMENT] == index

    def test_random_head_matches_loop_oracle(self):
        rng = np.random.default_rng(12)
        W = rng.normal(size=(6, 2))
        c = rng.normal(size=2)
        x = rng.normal(size=6)
        params = {"sentiment/V": nd.Tensor(W), "sentiment/c": nd.Tensor(c)}
        logits = task_heads({TASK_SENTIMENT: nd.Tensor(x[None])}, params)
        expected = affine_loops(x.tolist(), W.tolist(), c.tolist())
        assert np.abs(logits[TASK_SENTIMENT].data[0] - expected).max() < 1e-12


class TestForward:
    def test_single_task_modes_have_one_branch(self):
        config = tiny_config("S1")
        params = init_parameters(config, vocab_size=9, seed=0)
        trace = forward(tiny_example(), params, config)
        assert set(trace.logits) == {TASK_SENTIMENT}
        assert trace.logits[TASK_SENTIMENT].shape == (1, 2)
        assert trace.sentence_vector[TASK_SENTIMENT].shape == (1, 8)

    def test_joint_mode_has_both_branches_with_own_attention(self):
        config = tiny_config("M2")
        params = init_parameters(config, vocab_size=9, seed=0)
        trace = forward(tiny_example(), params, config)
        assert set(trace.logits) == {TASK_SENTIMENT, TASK_EMOTION}
        assert trace.logits[TASK_EMOTION].shape == (1, 8)
        assert trace.sentence_vector[TASK_SENTIMENT].shape == (1, 13)
        assert not np.array_equal(
            trace.sentence_alpha[TASK_SENTIMENT], trace.sentence_alpha[TASK_EMOTION]
        )

    def test_alpha_vectors_normalized(self):
        config = tiny_config("M2")
        params = init_parameters(config, vocab_size=9, seed=1)
        trace = forward(tiny_example(), params, config)
        for task in config.tasks:
            assert abs(trace.sentence_alpha[task].sum() - 1.0) <= 1e-9
            for t, alpha in enumerate(trace.primary_alpha[task]):
                if alpha.size:
                    assert abs(alpha.sum() - 1.0) <= 1e-9
                else:
                    assert tiny_example().candidate_ids[t] == []

    def test_deterministic_given_seed(self):
        config = tiny_config("M2")
        traces = [
            forward(tiny_example(), init_parameters(config, vocab_size=9, seed=6), config)
            for _ in range(2)
        ]
        for task in config.tasks:
            np.testing.assert_array_equal(
                traces[0].logits[task].data, traces[1].logits[task].data
            )

    def test_branches_do_not_leak_across_tasks(self):
        config = tiny_config("M2")
        params = init_parameters(config, vocab_size=9, seed=7)
        base = forward(tiny_example(), params, config)

        bumped = dict(params)
        bumped["emotion/W_s"] = nd.Tensor(params["emotion/W_s"].data + 1.0)
        t1 = forward(tiny_example(), bumped, config)
        np.testing.assert_array_equal(
            t1.sentence_vector[TASK_SENTIMENT].data,
            base.sentence_vector[TASK_SENTIMENT].data,
        )

        bumped = dict(params)
        bumped["sentiment/W_s"] = nd.Tensor(params["sentiment/W_s"].data + 1.0)
        t2 = forward(tiny_example(), bumped, config)
        np.testing.assert_array_equal(
            t2.sentence_vector[TASK_EMOTION].data,
            base.sentence_vector[TASK_EMOTION].data,
        )
        np.testing.assert_array_equal(
            encode(tiny_example(), bumped, config).data,
            encode(tiny_example(), params, config).data,
        )

    def test_token_order_matters_to_encoder(self):
        config = tiny_config("M1")
        params = init_parameters(config, vocab_size=9, seed=8)
        ex = tiny_example()
        swapped = EncodedExample(
            "x2", ex.token_ids[::-1], ex.candidate_ids[::-1], ex.sentiment, ex.emotions
        )
        a = forward(ex, params, config)
        b = forward(swapped, params, config)
        assert not np.array_equal(
            a.logits[TASK_SENTIMENT].data, b.logits[TASK_SENTIMENT].data
        )

    def test_no_attention_mode_equals_manual_identity_path(self):
        config = tiny_config("M1")
        params = init_parameters(config, vocab_size=9, seed=9)
        ex = tiny_example()
        trace = forward(ex, params, config)
        embeds = nd.take_rows(params["embedding"], ex.token_ids)
        h = bilstm_forward(embeds, params, config)
        for task in config.tasks:
            _, pooled = secondary_attention(h, params, task)
            logits = task_heads({task: pooled}, params)[task]
            np.testing.assert_array_equal(trace.logits[task].data, logits.data)

    def test_empty_example_rejected(self):
        config = tiny_config("M1")
        params = init_parameters(config, vocab_size=9)
        empty = EncodedExample("e", [], [], "other", np.zeros(8))
        with pytest.raises(ValueError, match="no tokens"):
            forward(empty, params, config)

    def test_train_mode_dropout_is_seeded(self):
        config = tiny_config("M2", dropout=0.5)
        params = init_parameters(config, vocab_size=9, seed=10)
        runs = [
            forward(
                tiny_example(), params, config, train_mode=True,
                dropout_rng=np.random.default_rng(55),
            )
            for _ in range(2)
        ]
        np.testing.assert_array_equal(
            runs[0].logits[TASK_EMOTION].data, runs[1].logits[TASK_EMOTION].data
        )
        eval_trace = forward(tiny_example(), params, config)
        assert not np.array_equal(
            runs[0].logits[TASK_EMOTION].data, eval_trace.logits[TASK_EMOTION].data
        )

    @pytest.mark.parametrize("mode", ["S1", "M2"])
    def test_batch_dropout_masks_equal_per_example_draws(self, mode):
        # One draw for the batch, cut per example into its state mask and
        # then one pooled mask per task: the `oracles.dropout_mask` sequence.
        config = tiny_config(mode, dropout=0.6)
        lengths = [3, 1, 5]
        batch_rng, rng = np.random.default_rng(8), np.random.default_rng(8)
        states, pooled = _dropout_masks(lengths, config, True, batch_rng)
        want_states, want_pooled = [], {task: [] for task in config.tasks}
        for n in lengths:
            want_states.append(dropout_mask((n, config.encoder_dim), 0.6, rng))
            for task in config.tasks:
                want_pooled[task].append(dropout_mask(config.pooled_dim, 0.6, rng))
        assert states.data.tobytes() == np.concatenate(want_states).tobytes()
        assert pooled.keys() == want_pooled.keys()
        for task, rows in want_pooled.items():
            assert pooled[task].data.tobytes() == np.stack(rows).tobytes()
        assert batch_rng.random() == rng.random()


def forward_loops(example, params, config):
    """The eval-mode forward pass composed position by position from the
    loop oracles: word weights per task, sentence weights and logits."""
    weights = {name: params[name].data.tolist() for name in params}
    rows = [weights["embedding"][tid] for tid in example.token_ids]
    fw = lstm_direction_loops(rows, gate_weights(params, "lstm_fw"), config.lstm_hidden)
    bw = lstm_direction_loops(rows[::-1], gate_weights(params, "lstm_bw"), config.lstm_hidden)
    states = [f + b for f, b in zip(fw, bw[::-1])]
    out = {}
    for task in config.tasks:
        word_alpha, hhats = [], states
        if config.primary_attention_enabled:
            hhats = []
            for h, ids in zip(states, example.candidate_ids):
                alpha, mix = [], [0.0] * config.embed_dim
                if ids:
                    alpha, mix = primary_attention_loops(
                        h, weights[f"{task}/W_w"], weights[f"{task}/b_w"],
                        [weights["embedding"][i] for i in ids],
                    )
                word_alpha.append(alpha)
                hhats.append(mix + h)
        sentence_alpha, pooled = secondary_attention_loops(
            hhats, weights[f"{task}/W_s"], weights[f"{task}/b_s"], weights[f"{task}/u"]
        )
        logits = affine_loops(pooled, weights[f"{task}/V"], weights[f"{task}/c"])
        out[task] = (word_alpha, sentence_alpha, logits)
    return out


class TestSequenceForwardOracle:
    """The whole-sequence forward pass equals the per-position loop oracles."""

    @given(
        mode=st.sampled_from(MODES),
        tokens=st.lists(
            st.tuples(st.integers(0, 8), st.lists(st.integers(0, 8), max_size=3)),
            min_size=1,
            max_size=8,
        ),
        seed=st.integers(0, 2**16),
    )
    @example(mode="M2", tokens=[(1, []), (4, []), (7, [])], seed=0)
    @example(mode="E2", tokens=[(3, [])], seed=1)
    @settings(max_examples=60, deadline=None)
    def test_matches_per_position_oracles(self, mode, tokens, seed):
        config = tiny_config(mode)
        params = init_parameters(config, vocab_size=9, seed=seed)
        ex = EncodedExample(
            "p", [t for t, _ in tokens], [c for _, c in tokens], "positive", np.zeros(8)
        )
        trace = forward(ex, params, config)
        expected = forward_loops(ex, params, config)
        for task, (word_alpha, sentence_alpha, logits) in expected.items():
            if config.primary_attention_enabled:
                assert len(trace.primary_alpha[task]) == len(word_alpha)
                for got, want in zip(trace.primary_alpha[task], word_alpha):
                    assert got.shape == (len(want),)
                    if want:
                        assert np.abs(got - want).max() < 1e-12
            else:
                assert task not in trace.primary_alpha
            assert np.abs(trace.sentence_alpha[task] - sentence_alpha).max() < 1e-12
            assert np.abs(trace.logits[task].data - logits).max() < 1e-12

    def test_tape_entries_do_not_grow_with_length(self):
        config = tiny_config("M2", dropout=0.6)
        params = init_parameters(config, vocab_size=9, seed=13)
        counts = []
        for n in (20, 40):
            rng = np.random.default_rng(n)
            ex = EncodedExample(
                "long",
                rng.integers(0, 9, size=n).tolist(),
                [rng.integers(0, 9, size=rng.integers(0, 3)).tolist() for _ in range(n)],
                "positive",
                np.zeros(8),
            )
            with nd.Tape() as tape:
                trace = forward(
                    ex, params, config, train_mode=True, dropout_rng=np.random.default_rng(0)
                )
                joint_loss(trace, ex, config)
            counts.append(len(tape.entries))
        assert counts[0] <= 40
        assert counts[1] == counts[0]


WORD_ATTENTION_MODES = ("M2", "S2", "E2")

# Ragged batches of 1-4 tweets of 1-5 tokens over a 9-word vocabulary, each
# token with 0 to dt_k = 2 candidates.
ragged_batches = st.lists(
    st.lists(st.tuples(st.integers(0, 8), st.lists(st.integers(0, 8), max_size=2)),
             min_size=1, max_size=5),
    min_size=1,
    max_size=4,
)

# A length-1 tweet without candidates, and tokens with 0, 1 and 2 of them.
MIXED_BATCH = [[(1, [2, 3]), (4, [])], [(5, [])], [(6, [7]), (8, [3, 2]), (2, [])]]


def word_attention_batch(tweets, bare=False):
    """Encoded examples from lists of (token, candidates); `bare` drops
    every candidate."""
    return [
        EncodedExample(f"w{i}", [t for t, _ in tokens], [[] if bare else c for _, c in tokens],
                       "positive", np.array([1.0, 0, 0, 1.0, 0, 0, 0, 0]))
        for i, tokens in enumerate(tweets)
    ]


def forward_seeing_word_attention(examples, params, config):
    """`forward`'s trace, and per task the states [N, 2H] that
    `primary_attention` took and the mix [embed_dim] it gave each row that
    has one, by row."""
    seen = {}

    def recording(h, keys, mask, p, task):
        alpha, (mix, rows) = primary_attention(h, keys, mask, p, task)
        seen[task] = (h.data, dict(zip(rows.tolist(), mix.data)))
        return alpha, (mix, rows)

    with mock.patch("emosent.model.primary_attention", recording):
        trace = forward(examples, params, config)
    return trace, seen


class TestWordAttentionEdges:
    """Word attention on ragged batches: length-1 tweets, tokens with 0 to
    dt_k candidates, and batches in which no token has one."""

    @given(mode=st.sampled_from(WORD_ATTENTION_MODES), tweets=ragged_batches,
           bare=st.booleans(), seed=st.integers(0, 2**16))
    @example(mode="M2", tweets=[[(3, [])]], bare=False, seed=0)
    @example(mode="S2", tweets=MIXED_BATCH, bare=False, seed=1)
    @example(mode="E2", tweets=MIXED_BATCH, bare=True, seed=2)
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_examples_and_oracle(self, mode, tweets, bare, seed):
        config = tiny_config(mode)
        params = init_parameters(config, vocab_size=9, seed=seed)
        examples = word_attention_batch(tweets, bare)
        trace, seen = forward_seeing_word_attention(examples, params, config)
        candidates = [ids for ex in examples for ids in ex.candidate_ids]
        embedding = params["embedding"].data
        for task in config.tasks:
            states, mixes = seen[task]
            W_w, b_w = (params[f"{task}/{n}"].data.tolist() for n in ("W_w", "b_w"))
            for t, ids in enumerate(candidates):
                alpha = trace.primary_alpha[task][t]
                if not ids:
                    assert alpha.shape == (0,)
                    assert t not in mixes
                    continue
                mix = mixes[t]
                want_alpha, want_mix = primary_attention_loops(
                    states[t].tolist(), W_w, b_w, embedding[ids].tolist()
                )
                assert np.abs(alpha - want_alpha).max() < 1e-12
                assert np.abs(mix - want_mix).max() < 1e-12
        start = 0
        for b, ex in enumerate(examples):
            single, stop = forward(ex, params, config), start + len(ex.token_ids)
            for task in config.tasks:
                for got, want in zip(trace.primary_alpha[task][start:stop],
                                     single.primary_alpha[task], strict=True):
                    assert got.shape == want.shape
                    assert np.all(np.abs(got - want) <= 1e-12)
                alpha = trace.sentence_alpha[task][start:stop]
                assert np.abs(alpha - single.sentence_alpha[task]).max() <= 1e-12
                logits = trace.logits[task].data[b]
                assert np.abs(logits - single.logits[task].data[0]).max() <= 1e-12
                # The mix half of hhat is exactly 0 on every token without
                # candidates, so a tweet without any pools a zero mix.
                if not any(ex.candidate_ids):
                    pooled_mix = trace.sentence_vector[task].data[b, : config.embed_dim]
                    assert np.array_equal(pooled_mix, np.zeros(config.embed_dim))
            start = stop

    @given(mode=st.sampled_from(WORD_ATTENTION_MODES), tweets=ragged_batches,
           seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_batch_without_candidates_leaves_projection_ungraded(self, mode, tweets, seed):
        config = tiny_config(mode, dropout=0.5, train_embeddings=True)
        params = init_parameters(config, vocab_size=9, seed=seed)
        examples = word_attention_batch(tweets, bare=True)
        with nd.Tape() as tape:
            trace = forward(examples, params, config, train_mode=True,
                            dropout_rng=np.random.default_rng(seed))
            loss = joint_loss(trace, examples, config)
        names = [f"{task}/{n}" for task in config.tasks for n in ("W_w", "b_w")]
        for name, grad in zip(names, tape.gradients(loss, [params[n] for n in names])):
            assert np.array_equal(grad, np.zeros(params[name].shape)), name

    @pytest.mark.parametrize("mode", WORD_ATTENTION_MODES)
    @pytest.mark.parametrize("trainable_keys", [False, True])
    def test_gradients_on_a_mixed_batch(self, mode, trainable_keys):
        # Five times the initial scale, at this seed, leaves every checked
        # coordinate at 0 or above 1e-7 (asserted), where the central
        # differences' rounding of about 1e-11 is a tenth of the 1e-3 check.
        config = tiny_config(mode, train_embeddings=trainable_keys)
        params = {
            name: nd.Tensor(5.0 * p.data, requires_grad=p.requires_grad)
            for name, p in init_parameters(config, vocab_size=9, seed=0).items()
        }
        checked = {name: p for name, p in params.items() if p.requires_grad}
        fixed = {name: p for name, p in params.items() if not p.requires_grad}
        examples = word_attention_batch(MIXED_BATCH)

        def loss_fn(p):
            return joint_loss(forward(examples, {**fixed, **p}, config), examples, config)

        assert_gradients_clear_of_zero(loss_fn, checked, 1e-7)
        report = nd.grad_check(loss_fn, checked)
        assert report.ok(1e-3), (
            f"worst {report.worst_param}{report.worst_index}: "
            f"{report.analytic_at_worst} vs {report.numeric_at_worst}"
        )


def model_loss_fn(example, config, fixed):
    import emosent.nd as ndm

    targets = {
        TASK_SENTIMENT: ndm.Tensor([[0.0, 1.0]]),
        TASK_EMOTION: ndm.Tensor([example.emotions]),
    }

    def loss_fn(checked):
        trace = forward(example, {**fixed, **checked}, config)
        loss = None
        for task in config.tasks:
            term = ndm.sigmoid_xent(trace.logits[task], targets[task])
            loss = term if loss is None else ndm.add(loss, term)
        return ndm.sum(loss)

    return loss_fn


class TestFullModelGradients:
    def test_joint_mode_with_trainable_embeddings(self):
        # At the initial scale most draws have coordinates below 1e-8, where
        # the loss's rounding decides the 1e-3 check. Five times that scale,
        # at this seed, leaves every coordinate at 0 or above 1e-6 (asserted).
        config = tiny_config("M2", train_embeddings=True)
        params = {
            name: nd.Tensor(5.0 * p.data, requires_grad=True)
            for name, p in init_parameters(config, vocab_size=9, seed=37).items()
        }
        loss_fn = model_loss_fn(tiny_example(), config, fixed={})
        assert_gradients_clear_of_zero(loss_fn, params, 1e-6)
        report = nd.grad_check(loss_fn, params)
        assert report.ok(1e-3), (
            f"worst {report.worst_param}{report.worst_index}: "
            f"{report.analytic_at_worst} vs {report.numeric_at_worst}"
        )

    def test_single_task_no_attention_mode(self):
        config = tiny_config("E1")
        params = init_parameters(config, vocab_size=9, seed=12)
        fixed = {"embedding": params.pop("embedding")}
        report = nd.grad_check(model_loss_fn(tiny_example(), config, fixed), params)
        assert report.ok(1e-3)
