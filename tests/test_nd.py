"""Numeric-core op contracts: values, stability, errors, determinism."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emosent import nd
from emosent.nd import autodiff

from emosent.nd.adam import BLOCK
from conftest import pool_batches, pool_flags, pool_inputs, pool_rows
from oracles import (
    adam_step_per_tensor, dropout_mask, secondary_attention_loops, sigmoid_by_sign,
    sigmoid_xent_highprec, softmax_list,
)

finite_vectors = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=12
)


class TestLstm:
    @pytest.mark.parametrize(
        "xs,W,U,b",
        [
            ((3, 5), (4, 8), (2, 8), (8,)),
            ((3, 5), (5, 8), (2, 6), (8,)),
            ((3, 5), (5, 8), (2, 8), (6,)),
            ((5,), (5, 8), (2, 8), (8,)),
            ((0, 5), (5, 8), (2, 8), (8,)),
        ],
    )
    def test_mismatched_operands_rejected(self, xs, W, U, b):
        xs, *direction = (nd.Tensor(np.ones(s)) for s in (xs, W, U, b))
        with pytest.raises(nd.ShapeError, match="bilstm"):
            nd.bilstm(xs, direction, direction)

    def test_directions_must_match(self):
        xs, *fw = (nd.Tensor(np.ones(s)) for s in ((3, 5), (5, 8), (2, 8), (8,)))
        bw = [nd.Tensor(np.ones(s)) for s in ((5, 12), (3, 12), (12,))]
        with pytest.raises(nd.ShapeError, match="bilstm"):
            nd.bilstm(xs, fw, bw)

    @pytest.mark.parametrize("lengths", [[2, 2], [3, 0], [], [[3]]])
    def test_lengths_must_split_the_rows(self, lengths):
        xs, *direction = (nd.Tensor(np.ones(s)) for s in ((3, 5), (5, 8), (2, 8), (8,)))
        with pytest.raises(nd.ShapeError, match="bilstm"):
            nd.bilstm(xs, direction, direction, lengths)


@pytest.fixture
def fresh_probe_cache():
    """An empty probe cache, emptied again afterwards, for probes run
    under a patched `np.dot`."""
    autodiff._rows_invariant.cache_clear()
    yield
    autodiff._rows_invariant.cache_clear()


class TestBatchInvariance:
    @pytest.mark.parametrize("in_dim,hidden", [(300, 300), (16, 8)])
    def test_probe_finds_lstm_products_batch_invariant(self, in_dim, hidden, monkeypatch):
        for parallel in (False, True):
            monkeypatch.setattr(autodiff, "_run_directions_in_parallel", lambda h: parallel)
            assert nd.bilstm_batch_invariant(in_dim, hidden, 1000)

    def test_probe_fails_when_a_row_count_changes_the_bits(self, monkeypatch, fresh_probe_cache):
        dot = np.dot

        def drifting(a, b, out=None):
            product = dot(a, b)
            return np.nextafter(product, np.inf) if a.shape[0] == 40 else product

        monkeypatch.setattr(np, "dot", drifting)
        for depth in (1, 2):
            assert not autodiff._rows_invariant(7, 12, 128, None, depth)

    def test_probe_fails_when_strided_rows_change_the_bits(self, monkeypatch, fresh_probe_cache):
        # The serial schedule reads each direction's states in place, 2H
        # apart: the probe must read its rows the same way.
        dot = np.dot

        def drifting(a, b, out=None):
            product = dot(a, b)
            return product if a.flags.c_contiguous else np.nextafter(product, np.inf)

        monkeypatch.setattr(np, "dot", drifting)
        assert autodiff._rows_invariant(7, 12, 128, None, 1)
        assert not autodiff._rows_invariant(7, 12, 128, None, 2)
        for parallel in (True, False):
            monkeypatch.setattr(autodiff, "_run_directions_in_parallel", lambda h: parallel)
            assert nd.bilstm_batch_invariant(7, 3, 100) == parallel

    @pytest.mark.parametrize("in_dim,hidden", [(300, 300), (16, 8)])
    def test_sequence_states_equal_alone_and_in_a_batch(self, in_dim, hidden, monkeypatch):
        rng = np.random.default_rng(2)
        lengths = [1, 5, 3, 1, 7, 2]
        xs = rng.normal(size=(sum(lengths), in_dim))
        fw, bw = ([nd.Tensor(rng.normal(size=s) * 0.1)
                   for s in ((in_dim, 4 * hidden), (hidden, 4 * hidden), (4 * hidden,))]
                  for _ in range(2))
        for parallel in (False, True):
            monkeypatch.setattr(autodiff, "_run_directions_in_parallel", lambda h: parallel)
            batched = nd.bilstm(nd.Tensor(xs), fw, bw, lengths).data
            start = 0
            for n in lengths:
                alone = nd.bilstm(nd.Tensor(xs[start : start + n]), fw, bw).data
                assert alone.tobytes() == batched[start : start + n].tobytes()
                start += n


def pool_scores(scores, values=None, lengths=None):
    """`nd.affine_pool` scoring row n exactly `scores[n]`: h is the identity
    and W = 40·I, so tanh(z) is row n of I (tanh(40) rounds to 1.0), and u =
    `scores`. `values` [N, ·], when given, is every row's mix, so the pooled
    mix half is their weighted sum."""
    n = len(scores)
    e, mix, rows = 0, None, None
    if values is not None:
        e, mix, rows = np.shape(values)[1], nd.Tensor(values), np.arange(n)
    w = np.vstack([np.zeros((e, n)), 40.0 * np.eye(n)])
    return nd.affine_pool(nd.Tensor(np.eye(n)), nd.Tensor(w), nd.Tensor(np.zeros(n)),
                          nd.Tensor(scores), lengths, mix, rows)


class TestAttentionPool:
    """`nd.affine_pool`: additive attention pooling of rows [mix_t ; h_t]."""

    def test_segments_match_softmax_over_their_own_rows(self):
        rng = np.random.default_rng(6)
        scores, values = rng.normal(size=5), rng.normal(size=(5, 3))
        pooled, weights = pool_scores(scores, values, [2, 3])
        for row, seg in enumerate((slice(0, 2), slice(2, 5))):
            alpha = softmax_list(scores[seg].tolist())
            np.testing.assert_allclose(weights[seg], alpha, rtol=0, atol=1e-15)
            np.testing.assert_allclose(pooled.data[row, :3], np.dot(alpha, values[seg]),
                                       atol=1e-15)

    @pytest.mark.parametrize(
        "scores,values,lengths",
        [
            ((3,), (3, 2), [2, 2]),
            ((3,), (3, 2), [3, 0]),
            ((3,), (2, 2), None),
            ((0,), (0, 2), None),
        ],
    )
    def test_mismatched_operands_rejected(self, scores, values, lengths):
        # h has the shape `values`, and each score is a mix row on h's first
        # rows: one past h's last row does not fit.
        h, w, b, u = (nd.Tensor(np.ones(s)) for s in (values, (4, 1), (1,), (1,)))
        mix = nd.Tensor(np.ones((scores[0], 2)))
        with pytest.raises(nd.ShapeError, match="affine_pool"):
            nd.affine_pool(h, w, b, u, lengths, mix, np.arange(scores[0]))

    def test_wrong_shaped_context_rejected(self):
        h, w, b, u = (nd.Tensor(np.ones(s)) for s in ((3, 2), (2, 2), (2,), (3,)))
        shapes = r"affine_pool: .*\(3, 2\), \(2, 2\), \(2,\), \(3,\)"
        with pytest.raises(nd.ShapeError, match=shapes):
            nd.affine_pool(h, w, b, u)

    @pytest.mark.parametrize("rows", [[1, 0], [0, 0], [-1, 1], None])
    def test_mix_rows_must_ascend_within_h(self, rows):
        h, w, b, u = (nd.Tensor(np.ones(s)) for s in ((3, 2), (4, 1), (1,), (1,)))
        with pytest.raises(nd.ShapeError, match="affine_pool"):
            nd.affine_pool(h, w, b, u, mix=nd.Tensor(np.ones((2, 2))), rows=rows)

    @given(batch=pool_batches, seed=st.integers(0, 2**16))
    @example(batch=([[True]], True), seed=0)
    @example(batch=([[False, False], [False]], True), seed=1)
    @example(batch=([[True, False, True], [False], [False, True]], True), seed=2)
    @example(batch=([[False, True, False]], False), seed=3)
    @settings(max_examples=60, deadline=None)
    def test_matches_loop_oracle_on_ragged_batches(self, batch, seed):
        operands = pool_inputs(batch, seed)
        pooled, weights = nd.affine_pool(**operands)
        dense = pool_rows(operands)
        w, b, u = (operands[n].data.tolist() for n in ("W", "b", "u"))
        start = 0
        for row, n in enumerate(operands["lengths"]):
            alpha, want = secondary_attention_loops(dense[start : start + n].tolist(), w, b, u)
            assert np.abs(weights[start : start + n] - alpha).max() <= 1e-12
            assert np.abs(pooled.data[row] - want).max() <= 1e-12
            start += n

    @given(flags=pool_flags, seed=st.integers(0, 2**16))
    @example(flags=[[False]], seed=0)
    @example(flags=[[False, False], [True], [False]], seed=1)
    @settings(max_examples=60, deadline=None)
    def test_rows_without_mix_add_nothing(self, flags, seed):
        # A sequence none of whose rows has a mix pools an exactly zero mix
        # half, and a loss on such sequences alone reaches neither the mix
        # nor W's mix rows, W[:e]: their gradients are exactly 0.
        operands = pool_inputs((flags, True), seed, requires_grad=True)
        bare = np.array([not any(sequence) for sequence in flags])
        probe = np.random.default_rng(seed).normal(size=(len(flags), 2 + 3))
        probe[~bare] = 0.0
        with nd.Tape() as tape:
            pooled, _ = nd.affine_pool(**operands)
            loss = nd.sum(nd.mul(pooled, nd.Tensor(probe)))
        assert np.array_equal(pooled.data[bare, :2], np.zeros((bare.sum(), 2)))
        grad_w, grad_mix = tape.gradients(loss, [operands["W"], operands["mix"]])
        assert np.array_equal(grad_w[:2], np.zeros((2, 2)))
        assert np.array_equal(grad_mix, np.zeros(operands["mix"].shape))


def attend_identity(x, keys, mask):
    """`nd.affine_attend` with W = I and b = 0, so each row's query is the
    row itself."""
    d = np.shape(x)[-1]
    return nd.affine_attend(
        nd.Tensor(x), nd.Tensor(np.eye(d)), nd.Tensor(np.zeros(d)), nd.Tensor(keys), mask
    )


class TestAttend:
    def test_rows_match_softmax_over_their_own_keys(self):
        rng = np.random.default_rng(5)
        q = rng.normal(size=(2, 3))
        k = rng.normal(size=(6, 3))
        mask = np.array([[True, True, False], [True, False, True]])
        mix, weights = attend_identity(q, k, mask)
        for t in range(2):
            keys = k[3 * t : 3 * t + 3][mask[t]]
            alpha = softmax_list((keys @ q[t]).tolist())
            np.testing.assert_allclose(weights[t][mask[t]], alpha, rtol=0, atol=1e-15)
            np.testing.assert_array_equal(weights[t][~mask[t]], 0.0)
            np.testing.assert_allclose(mix.data[t], np.dot(alpha, keys), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("width", [0, 2])
    def test_row_without_keys_mixes_zeros(self, width):
        # The row owns no key rows, whatever the mask's width, and has no mix
        # row: `nd.affine_pool` reads its mix as zeros.
        mix, weights = attend_identity(np.ones((1, 3)), np.ones((0, 3)), np.zeros((1, width), bool))
        np.testing.assert_array_equal(mix.data, np.zeros((0, 3)))
        np.testing.assert_array_equal(weights, np.zeros((1, width)))

    def test_rows_with_keys_own_them_in_row_order(self):
        rng = np.random.default_rng(6)
        q, k = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        mask = np.array([[False, False], [True, True], [False, False], [True, False]])
        mix, weights = attend_identity(q, k, mask)
        alone = [attend_identity(q[[t]], k[2 * r : 2 * r + 2], mask[[t]])
                 for r, t in enumerate((1, 3))]
        # Rows 0 and 2 have no mix row: the mix holds rows 1 and 3, in order.
        np.testing.assert_array_equal(mix.data, [m.data[0] for m, _ in alone])
        np.testing.assert_array_equal(weights[[1, 3]], [w[0] for _, w in alone])
        np.testing.assert_array_equal(weights[[0, 2]], 0.0)

    def test_rows_without_keys_are_never_read(self):
        # NaN states on the rows without keys: a product that read them
        # would carry NaN into the mix or a gradient, since 0 * NaN is NaN.
        rng = np.random.default_rng(7)
        mask = np.array([[True, False], [False, False], [True, True], [False, False]])
        x = rng.normal(size=(4, 5))
        x[[1, 3]] = np.nan
        inputs = [nd.Tensor(v, requires_grad=True)
                  for v in (x, rng.normal(size=(5, 3)), rng.normal(size=3), rng.normal(size=(4, 3)))]
        with nd.Tape() as tape:
            mix, weights = nd.affine_attend(*inputs, mask)
        d_x, d_w, d_b, d_keys = tape.entries[0].backward(rng.normal(size=(2, 3)))
        for name, a in [("mix", mix.data), ("weights", weights), ("d_W", d_w), ("d_b", d_b),
                        ("d_keys", d_keys), ("d_x rows with keys", d_x[[0, 2]])]:
            assert np.all(np.isfinite(a)), name
        assert np.array_equal(d_x[[1, 3]], np.zeros((2, 5)))

    @pytest.mark.parametrize(
        "queries,keys,mask",
        [((2, 3), (4, 3), (2, 3)), ((2, 3), (4, 2), (2, 2)), ((3,), (2, 3), (1, 2))],
    )
    def test_mismatched_operands_rejected(self, queries, keys, mask):
        with pytest.raises(nd.ShapeError, match="affine_attend"):
            attend_identity(np.ones(queries), np.ones(keys), np.ones(mask, bool))

    @pytest.mark.parametrize(
        "W,b,keys",
        # W against x, b against W, then a key row for the row without keys.
        [((2, 2), (2,), (2, 2)), ((3, 2), (3,), (2, 2)), ((3, 2), (2,), (4, 2))],
    )
    def test_projection_and_key_count_checked(self, W, b, keys):
        mask = np.array([[True, True], [False, False]])
        x, W, b, keys = (nd.Tensor(np.ones(s)) for s in ((2, 3), W, b, keys))
        with pytest.raises(nd.ShapeError, match="affine_attend"):
            nd.affine_attend(x, W, b, keys, mask)


class TestAffineConcatShapes:
    @pytest.mark.parametrize(
        "x,W,b", [((4,), (3, 2), (2,)), ((2, 3), (3, 2), (3,)), ((3,), (3, 2), (2,))]
    )
    def test_affine_mismatch_rejected(self, x, W, b):
        with pytest.raises(nd.ShapeError, match="affine"):
            nd.affine(*(nd.Tensor(np.ones(s)) for s in (x, W, b)))


class TestSoftmax:
    """The max-subtracted softmax that `nd.affine_pool` normalizes each
    segment's scores with, read from the weights of one segment."""

    @staticmethod
    def softmax(scores):
        _, weights = pool_scores(np.asarray(scores, dtype=np.float64))
        return weights

    def test_symmetry(self):
        np.testing.assert_array_equal(self.softmax([0.0, 0.0]), [0.5, 0.5])

    @pytest.mark.parametrize("x", [-1000.0, -3.5, 0.0, 2.0, 1000.0])
    def test_singleton(self, x):
        np.testing.assert_array_equal(self.softmax([x]), [1.0])

    def test_large_scores_do_not_overflow(self):
        out = self.softmax([1000.0, 1000.0, 999.0])
        assert np.all(np.isfinite(out))
        assert abs(out.sum() - 1.0) <= 1e-12
        # Same values computed directly after subtracting the max.
        e = [math.exp(0.0), math.exp(0.0), math.exp(-1.0)]
        expected = np.array(e) / sum(e)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(nd.ShapeError):
            self.softmax([])

    @given(finite_vectors)
    @settings(max_examples=200, deadline=None)
    def test_sums_to_one_entries_in_unit_interval(self, scores):
        out = self.softmax(scores)
        assert abs(out.sum() - 1.0) <= 1e-12
        assert np.all(out > 0.0) and np.all(out <= 1.0)


class TestSigmoidValues:
    def inputs(self):
        rng = np.random.default_rng(19)
        scales = np.logspace(-3, np.log10(800), 12)
        edges = [0.0, -0.0, np.inf, -np.inf, 710.0, -710.0, 745.0, -745.0,
                 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-310, -1e-310]
        return np.concatenate([(rng.standard_normal((len(scales), 64)) * scales[:, None]).ravel(),
                               edges])

    def test_matches_the_split_by_sign_byte_for_byte(self):
        x = self.inputs()
        assert nd.sigmoid_values(x).tobytes() == sigmoid_by_sign(x).tobytes()
        rows = x[:64].reshape(8, 8)
        assert nd.sigmoid_values(rows).tobytes() == sigmoid_by_sign(rows).tobytes()

    def test_nan_stays_nan(self):
        out = nd.sigmoid_values(np.array([np.nan, -np.nan, 1.0]))
        assert np.isnan(out[:2]).all() and out[2] == sigmoid_by_sign(1.0)


class TestSigmoidXent:
    def test_logit_zero_target_one_is_ln2(self):
        loss = nd.sigmoid_xent(nd.Tensor([0.0]), nd.Tensor([1.0]))
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_saturated_correct_is_tiny(self):
        loss = nd.sigmoid_xent(nd.Tensor([50.0]), nd.Tensor([1.0]))
        assert 0.0 <= loss.item() < 1e-9

    def test_matches_high_precision_formula(self):
        loss = nd.sigmoid_xent(nd.Tensor([2.0, -1.0]), nd.Tensor([1.0, 0.0]))
        assert loss.item() == pytest.approx(
            sigmoid_xent_highprec([2.0, -1.0], [1, 0]), abs=1e-14
        )

    def test_shape_mismatch(self):
        with pytest.raises(nd.ShapeError):
            nd.sigmoid_xent(nd.Tensor([0.0, 0.0]), nd.Tensor([1.0]))

    def test_nonbinary_targets_rejected(self):
        with pytest.raises(ValueError):
            nd.sigmoid_xent(nd.Tensor([0.0]), nd.Tensor([0.5]))

    @given(finite_vectors)
    @settings(max_examples=100, deadline=None)
    def test_nonnegative_and_finite(self, logits):
        targets = nd.Tensor([float(i % 2) for i in range(len(logits))])
        loss = nd.sigmoid_xent(nd.Tensor(logits), targets).item()
        assert math.isfinite(loss) and loss >= 0.0


class TestAdam:
    def test_zero_gradient_is_identity(self):
        params = {"w": nd.Tensor(np.array([1.0, -2.0, 3.0]))}
        grads = {"w": np.zeros(3)}
        new_params, state = nd.adam_step(params, grads, nd.AdamState())
        np.testing.assert_array_equal(new_params["w"].data, params["w"].data)
        assert state.t == 1

    def test_first_step_moves_by_learning_rate(self):
        params = {"x": nd.Tensor(np.array(1.0))}
        new_params, _ = nd.adam_step(params, {"x": np.array(1.0)}, nd.AdamState())
        assert new_params["x"].item() == pytest.approx(0.999, abs=1e-6)

    def test_strictly_decreases_convex_quadratic(self):
        params = {"x": nd.Tensor(np.array(3.0))}
        state = nd.AdamState()
        values = [params["x"].item() ** 2]
        for _ in range(100):
            grad = {"x": np.array(2.0 * params["x"].item())}
            params, state = nd.adam_step(params, grad, state)
            values.append(params["x"].item() ** 2)
        assert all(b < a for a, b in zip(values, values[1:]))
        assert state.t == 100

    def test_moment_shapes_mirror_parameters(self):
        params = {"w": nd.Tensor(np.ones((2, 3)))}
        _, state = nd.adam_step(params, {"w": np.ones((2, 3))}, nd.AdamState())
        assert state.m["w"].shape == (2, 3) and state.v["w"].shape == (2, 3)

    def test_gradient_shape_mismatch_names_parameter(self):
        params = {"w": nd.Tensor(np.ones((2, 3)))}
        with pytest.raises(ValueError, match="'w'"):
            nd.adam_step(params, {"w": np.ones(5)}, nd.AdamState())


def adam_cases(rng):
    """Parameters and per-step gradients that reach the arena step's edges:
    a tensor over one block and not a multiple of it, a 0-d tensor, signed
    zeros, a non-contiguous gradient and a parameter with no gradient."""
    zeros = np.array([0.0, -0.0, 0.0, -0.0, 1.5])
    params = {
        "big": nd.Tensor(rng.normal(size=(3, BLOCK // 2 + 11)), requires_grad=True),
        "scalar": nd.Tensor(np.array(0.25), requires_grad=True),
        "zeros": nd.Tensor(zeros, requires_grad=True),
        "strided": nd.Tensor(rng.normal(size=(4, 6)), requires_grad=True),
        "frozen": nd.Tensor(rng.normal(size=3)),
    }

    def grads():
        return {
            "big": rng.normal(size=params["big"].shape),
            "scalar": np.array(rng.normal()),
            "zeros": np.array([0.0, -0.0, -0.0, 0.0, -0.0]),
            "strided": rng.normal(size=(4, 12))[:, ::2],
        }

    return params, grads


def same_bytes(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestAdamArena:
    def test_matches_per_tensor_oracle_byte_for_byte(self):
        params, grads = adam_cases(np.random.default_rng(11))
        initial = {name: p.data.copy() for name, p in params.items()}
        ref_p, ref_m, ref_v = initial, {}, {}
        state, current = nd.AdamState(), params
        for t in range(1, 7):
            step_grads = grads()
            if t == 4:
                # A step reads the parameters it is given, arena views or not.
                ref_p["strided"] = np.full((4, 6), -0.5)
                current = {**current, "strided": nd.Tensor(ref_p["strided"], requires_grad=True)}
            assert not step_grads["strided"].flags.c_contiguous
            current, state = nd.adam_step(current, step_grads, state, lr=0.01)
            ref_p, ref_m, ref_v = adam_step_per_tensor(ref_p, step_grads, ref_m, ref_v, t, lr=0.01)
            assert state.t == t
            assert current["frozen"] is params["frozen"]
            for name in step_grads:
                assert same_bytes(current[name].data, ref_p[name]), (t, name)
                assert same_bytes(state.m[name], ref_m[name]), (t, name)
                assert same_bytes(state.v[name], ref_v[name]), (t, name)
        for name, p in params.items():
            assert same_bytes(p.data, initial[name]), name

    def test_bad_gradient_raises_before_writing(self):
        rng = np.random.default_rng(12)
        params, grads = adam_cases(rng)
        state, current = nd.AdamState(), params
        for _ in range(2):
            current, state = nd.adam_step(current, grads(), state)
        arenas = [a.copy() for a in state.arenas]
        values = {name: p.data.copy() for name, p in current.items()}
        for bad, match in (
            ({"scalar": np.ones(2)}, "'scalar' has shape"),
            ({"frozen": np.ones(3)}, "no \\(3,\\) tensor 'frozen'"),
        ):
            # "big" comes first, so a step that wrote before checking would move it.
            with pytest.raises(ValueError, match=match):
                nd.adam_step(current, {**grads(), **bad}, state)
            assert state.t == 2
            for before, after in zip(arenas, state.arenas):
                assert same_bytes(before, after)
            for name, p in current.items():
                assert same_bytes(p.data, values[name]), name


class TestDropoutMask:
    def test_rate_zero_is_all_ones(self):
        np.testing.assert_array_equal(dropout_mask((4, 5), 0.0, 3), np.ones((4, 5)))

    def test_zero_fraction_near_rate(self):
        mask = dropout_mask((10000,), 0.6, 123)
        zero_fraction = float((mask == 0.0).mean())
        assert abs(zero_fraction - 0.6) <= 0.02
        kept = mask[mask != 0.0]
        np.testing.assert_array_equal(kept, np.full(kept.shape, 2.5))

    def test_same_seed_same_mask(self):
        a = dropout_mask((100,), 0.6, 42)
        b = dropout_mask((100,), 0.6, 42)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("rate", [1.0, 1.5, -0.1])
    def test_invalid_rate_rejected(self, rate):
        with pytest.raises(ValueError):
            dropout_mask((3,), rate, 0)
