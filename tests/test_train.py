"""Loss composition, training dynamics, determinism, and evaluation."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emosent import nd
from emosent import train as train_module
from emosent.model import (
    MODES,
    ForwardTrace,
    ModelConfig,
    TASK_EMOTION,
    TASK_SENTIMENT,
    forward,
    init_parameters,
    trainable_names,
)
from emosent.resources import EMOTIONS, EncodedExample
from emosent.train import ENCODE_CHUNK, TrainConfig, evaluate, infer, joint_loss, train

from conftest import small_config


def fake_trace(sent_logits=None, emo_logits=None):
    trace = ForwardTrace()
    if sent_logits is not None:
        trace.logits[TASK_SENTIMENT] = nd.Tensor([sent_logits])
    if emo_logits is not None:
        trace.logits[TASK_EMOTION] = nd.Tensor([emo_logits])
    return trace


def example_with(sentiment, emotions=(1, 1, 1, 1, 0, 0, 0, 0)):
    return EncodedExample("e", [1], [[]], sentiment, np.array(emotions, dtype=np.float64))


class TestTrainConfig:
    def test_defaults_are_sane(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 64 and cfg.lr == 0.001 and cfg.patience is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"epochs": 0},
            {"sentiment_loss_weight": -1.0},
            {"emotion_loss_weight": -1.0},
            {"patience": 0},
            {"lr": math.nan},
            {"lr": math.inf},
            {"lr": -0.5},
            {"seed": -1},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestJointLoss:
    def test_zero_logits_give_two_ln_two(self):
        trace = fake_trace([0.0, 0.0], [0.0] * 8)
        loss = joint_loss(trace, example_with("positive"), small_config("M2"))
        assert loss.item() == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_single_task_equals_its_term(self):
        trace = fake_trace([1.5, -0.5])
        expected = nd.sigmoid_xent(
            nd.Tensor([1.5, -0.5]), nd.Tensor([0.0, 1.0])
        ).item()
        loss = joint_loss(trace, example_with("positive"), small_config("S2"))
        assert loss.item() == expected

    def test_additive_over_branches(self, bundle):
        config = small_config("M2")
        params = init_parameters(config, embedding_rows=bundle.embedding_rows, seed=0)
        ex = bundle.train_examples[0]
        trace = forward(ex, params, config)
        sent_term = nd.sigmoid_xent(
            nd.Tensor(trace.logits[TASK_SENTIMENT].data[0]), nd.Tensor([0.0, 1.0])
        ).item()
        emo_term = nd.sigmoid_xent(
            nd.Tensor(trace.logits[TASK_EMOTION].data[0]), nd.Tensor(ex.emotions)
        ).item()
        assert joint_loss(trace, ex, config).item() == pytest.approx(
            sent_term + emo_term, abs=1e-12
        )

    def test_other_label_contributes_only_emotion(self):
        trace = fake_trace([3.0, -3.0], [0.0] * 8)
        loss = joint_loss(trace, example_with("other"), small_config("M2"))
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_other_label_in_sentiment_only_trace_is_zero(self):
        trace = fake_trace([3.0, -3.0])
        loss = joint_loss(trace, example_with("other"), small_config("S1"))
        assert loss.item() == 0.0

    def test_loss_weights_scale_terms(self):
        trace = fake_trace([0.0, 0.0], [0.0] * 8)
        loss = joint_loss(
            trace,
            example_with("negative"),
            small_config("M2"),
            sentiment_weight=0.5,
            emotion_weight=2.0,
        )
        assert loss.item() == pytest.approx(2.5 * math.log(2.0), abs=1e-12)


def quick_train_config(**overrides):
    settings = dict(batch_size=8, lr=0.01, epochs=3, seed=0)
    settings.update(overrides)
    return TrainConfig(**settings)


class TestTrain:
    def test_zero_learning_rate_keeps_parameters_bit_identical(self, bundle):
        config = small_config("M2")
        params = init_parameters(config, embedding_rows=bundle.embedding_rows, seed=1)
        before = {name: p.data.copy() for name, p in params.items()}
        trained, log = train(
            bundle.train_examples, params, quick_train_config(lr=0.0, epochs=2), config
        )
        assert len(log) == 2
        for name in params:
            np.testing.assert_array_equal(trained[name].data, before[name])

    def test_inputs_not_mutated(self, bundle):
        config = small_config("M1")
        params = init_parameters(config, embedding_rows=bundle.embedding_rows, seed=2)
        before = {name: p.data.copy() for name, p in params.items()}
        trained, _ = train(bundle.train_examples, params, quick_train_config(epochs=1), config)
        for name in params:
            np.testing.assert_array_equal(params[name].data, before[name])
        assert any(
            not np.array_equal(trained[name].data, before[name]) for name in params
        )

    def test_reruns_from_the_same_params_are_bit_identical(self, bundle):
        # The optimizer updates its own arena in place: neither the caller's
        # params nor the first run's result may move when training runs again.
        config = small_config("M2", dropout_rate=0.5)
        params = init_parameters(config, embedding_rows=bundle.embedding_rows, seed=12)
        before = {name: p.data.tobytes() for name, p in params.items()}
        runs = [
            train(bundle.train_examples, params, quick_train_config(seed=12), config)
            for _ in range(2)
        ]
        assert {name: p.data.tobytes() for name, p in params.items()} == before
        (first, first_log), (second, second_log) = runs
        assert first_log == second_log
        for name in params:
            assert first[name].data.tobytes() == second[name].data.tobytes(), name

    def test_same_seed_same_loss_log(self, bundle):
        config = small_config("M2")
        logs = []
        for _ in range(2):
            params = init_parameters(config, embedding_rows=bundle.embedding_rows, seed=3)
            _, log = train(bundle.train_examples, params, quick_train_config(seed=3), config)
            logs.append(log)
        assert logs[0] == logs[1]

    def test_different_seed_different_log(self, bundle):
        config = small_config("M2")
        logs = []
        for seed in (4, 5):
            params = init_parameters(config, embedding_rows=bundle.embedding_rows, seed=seed)
            _, log = train(
                bundle.train_examples, params, quick_train_config(seed=seed), config
            )
            logs.append(log)
        assert logs[0] != logs[1]

    def test_ragged_final_batch_accepted(self, bundle):
        config = small_config("E1")
        params = init_parameters(config, embedding_rows=bundle.embedding_rows, seed=6)
        _, log = train(
            bundle.train_examples, params, quick_train_config(batch_size=5, epochs=1), config
        )
        assert len(log) == 1

    def test_loss_falls_by_epoch_fifty(self, bundle):
        config = small_config("M2")
        params = init_parameters(config, embedding_rows=bundle.embedding_rows, seed=7)
        _, log = train(bundle.train_examples, params, quick_train_config(epochs=50), config)
        assert log[49] < log[0]

    def test_patience_stops_on_flat_loss(self, bundle):
        # A single example keeps the epoch loss bitwise flat under lr=0; with
        # several, the shuffled summation order perturbs the last float digit.
        config = small_config("E1")
        params = init_parameters(config, embedding_rows=bundle.embedding_rows, seed=8)
        _, log = train(
            bundle.train_examples[:1],
            params,
            quick_train_config(lr=0.0, epochs=10, patience=2),
            config,
        )
        assert len(log) == 3

    def test_nan_weight_stops_at_first_batch(self, bundle):
        config = small_config("M2")
        params = init_parameters(config, embedding_rows=bundle.embedding_rows, seed=10)
        poisoned = params["emotion/V"].data.copy()
        poisoned[0, 0] = np.nan
        params["emotion/V"] = nd.Tensor(poisoned, requires_grad=True)
        with pytest.raises(ValueError, match="non-finite loss .* in epoch 1, batch 1"):
            train(bundle.train_examples, params, quick_train_config(), config)

    def test_non_finite_gradient_stops_before_the_step(self, bundle, monkeypatch):
        config = small_config("E1")
        params = init_parameters(config, embedding_rows=bundle.embedding_rows, seed=11)
        gradients = nd.Tape.gradients

        def overflowing(tape, loss, wrt):
            return [np.full_like(g, np.inf) for g in gradients(tape, loss, wrt)]

        monkeypatch.setattr(nd.Tape, "gradients", overflowing)
        with pytest.raises(ValueError, match="non-finite gradient of .* in epoch 1, batch 1"):
            train(bundle.train_examples, params, quick_train_config(), config)

    def test_sentiment_only_mode_rejects_corpus_of_others(self, bundle):
        config = small_config("S1")
        params = init_parameters(config, embedding_rows=bundle.embedding_rows, seed=9)
        others = [ex for ex in bundle.train_examples if ex.sentiment == "other"]
        with pytest.raises(ValueError, match="no trainable"):
            train(others, params, quick_train_config(), config)


class TestEvaluate:
    def test_empty_corpus_rejected(self, bundle):
        config = small_config("M1")
        params = init_parameters(config, embedding_rows=bundle.embedding_rows, seed=0)
        with pytest.raises(ValueError, match="non-empty"):
            evaluate([], params, config)

    @pytest.mark.parametrize("threshold", [0.0, 1.0, -0.5, float("nan"), float("inf")])
    def test_threshold_outside_unit_interval_rejected(self, bundle, threshold):
        config = small_config("E1")
        params = init_parameters(config, embedding_rows=bundle.embedding_rows, seed=0)
        with pytest.raises(ValueError, match=r"threshold must be in \(0, 1\)"):
            evaluate(bundle.test_examples, params, config, threshold=threshold)

    @pytest.mark.parametrize("threshold", [0.3, 0.7])
    def test_emotion_counts_follow_predict_emotions(self, bundle, threshold):
        config = small_config("M2")
        params = init_parameters(config, embedding_rows=bundle.embedding_rows, seed=0)
        params, _ = train(bundle.train_examples, params, quick_train_config(epochs=20), config)
        report = evaluate(bundle.test_examples, params, config, threshold=threshold)
        counts = np.zeros((len(EMOTIONS), 2, 2), dtype=np.int64)
        labels = np.arange(len(EMOTIONS))
        for ex in bundle.test_examples:
            probs = forward(ex, params, config).probabilities[TASK_EMOTION][0]
            counts[labels, ex.emotions.astype(np.int64), (probs >= threshold).astype(int)] += 1
        confusions = [report.emotion.confusions[label] for label in EMOTIONS]
        np.testing.assert_array_equal(confusions, counts)
        # The counts differ from what the default 0.5 boundary gives.
        default = evaluate(bundle.test_examples, params, config)
        assert default.emotion.confusions != report.emotion.confusions

    def test_sentiment_only_mode_omits_emotion(self, bundle):
        config = small_config("S1")
        params = init_parameters(config, embedding_rows=bundle.embedding_rows, seed=0)
        report = evaluate(bundle.test_examples, params, config, seed=11, epoch=7)
        assert report.emotion is None
        assert report.mode == "S1" and report.seed == 11 and report.epoch == 7
        (tn, fp), (fn, tp) = report.sentiment.confusion
        assert tn + fp + fn + tp == 6

    def test_emotion_only_mode_omits_sentiment(self, bundle):
        config = small_config("E1")
        params = init_parameters(config, embedding_rows=bundle.embedding_rows, seed=0)
        report = evaluate(bundle.test_examples, params, config)
        assert report.sentiment is None
        for label, ((tn, fp), (fn, tp)) in report.emotion.confusions.items():
            assert tn + fp + fn + tp == len(bundle.test_examples)

    def test_joint_mode_scores_both(self, bundle):
        config = small_config("M2")
        params = init_parameters(config, embedding_rows=bundle.embedding_rows, seed=0)
        report = evaluate(bundle.test_examples, params, config)
        assert report.sentiment is not None and report.emotion is not None
        assert 0.0 <= report.sentiment.macro_f1 <= 1.0
        assert 0.0 <= report.emotion.micro.f1 <= 1.0


class TestInfer:
    @pytest.mark.parametrize("mode", MODES)
    def test_one_example_is_not_probed_and_equals_forward(self, bundle, monkeypatch, mode):
        def probe(*args):
            raise AssertionError("a lone example was probed")

        monkeypatch.setattr(nd, "bilstm_batch_invariant", probe)
        config = small_config(mode)
        params = init_parameters(config, embedding_rows=bundle.embedding_rows, seed=1)
        ex = bundle.test_examples[0]
        [(probs, decisions)] = infer([ex], params, config, threshold=0.4)
        expected = {task: p[0] for task, p in forward(ex, params, config).probabilities.items()}
        assert probs.keys() == decisions.keys() == expected.keys() == set(config.tasks)
        for task in expected:
            assert probs[task].tobytes() == expected[task].tobytes()
        if TASK_SENTIMENT in expected:
            sentiment = decisions[TASK_SENTIMENT]
            assert type(sentiment) is int
            assert sentiment == np.argmax(expected[TASK_SENTIMENT])
        if TASK_EMOTION in expected:
            emotions = (expected[TASK_EMOTION] >= 0.4).astype(np.int64)
            assert decisions[TASK_EMOTION].tobytes() == emotions.tobytes()

    @pytest.mark.parametrize("threshold", [0.0, 1.0, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, bundle, threshold):
        config = small_config("E1")
        params = init_parameters(config, embedding_rows=bundle.embedding_rows, seed=0)
        with pytest.raises(ValueError, match=r"threshold must be in \(0, 1\)"):
            infer(bundle.test_examples[:1], params, config, threshold=threshold)

    @pytest.mark.parametrize("name, value, task", [("sentiment/V", math.nan, "sentiment"),
                                                   ("emotion/c", math.inf, "emotion")])
    def test_non_finite_logit_names_the_example(self, bundle, name, value, task):
        config = small_config("M2")
        params = init_parameters(config, embedding_rows=bundle.embedding_rows, seed=0)
        results = infer(bundle.test_examples, params, config)
        assert all(np.isfinite(p).all() for probs, _ in results for p in probs.values())
        data = params[name].data.copy()
        data.flat[0] = value
        params[name] = nd.Tensor(data)
        ex = bundle.test_examples[0]
        with pytest.raises(ValueError, match=f"non-finite {task} logits for example '{ex.id}'"):
            infer(bundle.test_examples, params, config)


def tiny_batch_config(mode):
    return ModelConfig(
        mode=mode, embed_dim=5, lstm_hidden=4, context_dim=3, dt_k=2,
        dropout_rate=0.6, train_embeddings=True,
    )


tweets = st.lists(
    st.tuples(
        st.lists(
            st.tuples(st.integers(0, 8), st.lists(st.integers(0, 8), max_size=3)),
            min_size=1,
            max_size=8,
        ),
        st.sampled_from(["negative", "positive", "other"]),
        st.lists(st.integers(0, 1), min_size=8, max_size=8),
    ),
    min_size=1,
    max_size=7,
)


class TestBatchEquivalence:
    """One forward and backward pass over a packed batch equals the
    examples run one at a time on the same dropout stream."""

    @given(mode=st.sampled_from(MODES), rows=tweets, batch_size=st.integers(1, 4),
           seed=st.integers(0, 2**16))
    # Length-1 tweets, tokens and whole tweets without candidates, and a
    # ragged final batch; then an all-"other" batch in a joint mode.
    @example(mode="M2", rows=[([(3, [])], "positive", [1] * 8), ([(1, [2, 4]), (5, [])],
             "negative", [0] * 8), ([(7, [])], "other", [0, 1] * 4)], batch_size=2, seed=0)
    @example(mode="M1", rows=[([(2, [1]), (6, [])], "other", [1, 0] * 4),
             ([(4, [])], "other", [0] * 8)], batch_size=2, seed=1)
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_examples_one_at_a_time(self, mode, rows, batch_size, seed):
        config = tiny_batch_config(mode)
        params = init_parameters(config, vocab_size=9, seed=seed)
        names = trainable_names(params)
        examples = [
            EncodedExample(f"r{i}", [t for t, _ in tokens], [c for _, c in tokens], label,
                           np.array(bits, dtype=np.float64))
            for i, (tokens, label, bits) in enumerate(rows)
        ]
        batched_rng, single_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for start in range(0, len(examples), batch_size):
            batch = examples[start : start + batch_size]
            with nd.Tape() as tape:
                trace = forward(batch, params, config, train_mode=True, dropout_rng=batched_rng)
                loss = joint_loss(trace, batch, config, 0.5, 2.0)
            grads = tape.gradients(loss, [params[n] for n in names])
            summed = [np.zeros(params[n].shape) for n in names]
            for b, ex in enumerate(batch):
                with nd.Tape() as tape:
                    single = forward(ex, params, config, train_mode=True, dropout_rng=single_rng)
                    single_loss = joint_loss(single, ex, config, 0.5, 2.0)
                single_grads = tape.gradients(single_loss, [params[n] for n in names])
                for total, grad in zip(summed, single_grads):
                    total += grad
                assert abs(trace.losses[b] - single_loss.item()) <= 1e-12
                for task in config.tasks:
                    got, want = trace.logits[task].data[b], single.logits[task].data[0]
                    assert np.abs(got - want).max() <= 1e-12
            assert loss.item() == pytest.approx(np.mean(trace.losses), abs=1e-15)
            # Summation rounding scales with the summed terms, which can be
            # far larger than a cancelled total (a sentence of one repeated
            # token gives emotion/b_s a 2e-7 gradient from 1e-3 terms), hence
            # the absolute floor of a few ulps of an O(1) term.
            for name, grad, total in zip(names, grads, summed):
                error = np.abs(grad * len(batch) - total).max()
                assert error <= 1e-12 * np.abs(total).max() + 1e-15, name


PAPER = ModelConfig(mode="M2", embed_dim=300, lstm_hidden=300, context_dim=150, dt_k=4,
                    dropout_rate=0.6)
PAPER_PARAMS = init_parameters(PAPER, vocab_size=12, seed=4)


def paper_corpus(count, max_len, seed, labels):
    """`count` tweets of 1 to `max_len` tokens over a 12-word vocabulary,
    each token with 0 to 4 candidates, labelled from `labels`."""
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(count):
        tokens = rng.integers(0, 12, int(rng.integers(1, max_len + 1))).tolist()
        candidates = [rng.integers(0, 12, int(rng.integers(0, 5))).tolist() for _ in tokens]
        examples.append(EncodedExample(f"t{i}", tokens, candidates, str(rng.choice(labels)),
                                       rng.integers(0, 2, 8).astype(np.float64)))
    return examples


def evaluated_probabilities(examples):
    """Each example's probabilities as `evaluate` computes them, and the
    size of every batch it encodes."""
    forward_, encode_ = train_module.forward, train_module.encode
    seen, batches = [], []

    def capture(*args, **kwargs):
        trace = forward_(*args, **kwargs)
        seen.append(trace.probabilities)
        return trace

    def count(batch, *args, **kwargs):
        batches.append(len(batch))
        return encode_(batch, *args, **kwargs)

    train_module.forward, train_module.encode = capture, count
    try:
        evaluate(examples, PAPER_PARAMS, PAPER)
    finally:
        train_module.forward, train_module.encode = forward_, encode_
    return seen, batches


def assert_equal_to_predict(examples, seen):
    assert len(seen) == len(examples)
    for ex, evaluated in zip(examples, seen):
        predicted = forward(ex, PAPER_PARAMS, PAPER).probabilities
        assert predicted.keys() == evaluated.keys()
        for task in predicted:
            assert predicted[task].tobytes() == evaluated[task].tobytes(), (ex.id, task)


class TestEvaluateMatchesPredict:
    """At paper dims, `evaluate` gives each tweet the probabilities of a
    one-tweet forward (the predict path) bit for bit, whether it encodes
    tweets in chunks or one at a time."""

    @given(count=st.integers(1, 70), max_len=st.integers(1, 5), seed=st.integers(0, 2**16),
           labels=st.sampled_from([("negative", "positive", "other"), ("other",)]))
    # The chunk boundary, a ragged last chunk, all 1-token tweets, and an
    # all-"other" corpus.
    @example(count=ENCODE_CHUNK, max_len=3, seed=0, labels=("negative", "positive", "other"))
    @example(count=ENCODE_CHUNK + 1, max_len=2, seed=1, labels=("negative", "positive"))
    @example(count=70, max_len=1, seed=2, labels=("other",))
    @settings(max_examples=15, deadline=None)
    def test_probabilities_bit_equal_to_one_tweet_forward(self, count, max_len, seed, labels):
        examples = paper_corpus(count, max_len, seed, labels)
        seen, batches = evaluated_probabilities(examples)
        assert batches == [min(ENCODE_CHUNK, count - start)
                           for start in range(0, count, ENCODE_CHUNK)]
        assert_equal_to_predict(examples, seen)

    def test_failed_probe_encodes_one_tweet_at_a_time(self, monkeypatch):
        monkeypatch.setattr(nd, "bilstm_batch_invariant", lambda in_dim, hidden, rows: False)
        examples = paper_corpus(5, 4, 3, ("negative", "positive", "other"))
        seen, batches = evaluated_probabilities(examples)
        assert batches == [1] * 5
        assert_equal_to_predict(examples, seen)
