"""Tape mechanics and gradient rules, verified against central differences."""
import zlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from emosent import nd

from conftest import (
    assert_gradients_clear_of_zero, corrupt_affine_pool_backward, near_zero_gradient, pool_batches,
    pool_inputs,
)


def param(values):
    return nd.Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


class TestTape:
    def test_sum_gives_ones(self):
        p = param([1.0, 2.0, 3.0])
        with nd.Tape() as tape:
            loss = nd.sum(p)
        (grad,) = tape.gradients(loss, [p])
        np.testing.assert_array_equal(grad, np.ones(3))

    def test_unused_parameter_gets_zero(self):
        p = param([1.0, 2.0])
        q = param([5.0])
        with nd.Tape() as tape:
            loss = nd.sum(p)
        (grad_q,) = tape.gradients(loss, [q])
        np.testing.assert_array_equal(grad_q, np.zeros(1))

    def test_non_scalar_loss_rejected(self):
        p = param([1.0, 2.0])
        with nd.Tape() as tape:
            out = nd.mul(p, p)
        with pytest.raises(ValueError, match="scalar"):
            tape.gradients(out, [p])

    def test_reused_input_accumulates(self):
        p = param([3.0, -1.5])
        with nd.Tape() as tape:
            loss = nd.sum(nd.mul(p, p))
        (grad,) = tape.gradients(loss, [p])
        np.testing.assert_allclose(grad, 2.0 * p.data, rtol=0, atol=1e-15)

    def test_entries_follow_execution_order(self):
        p = param([1.0])
        with nd.Tape() as tape:
            a = nd.scale(p, 0.5)
            b = nd.mul(a, a)
            loss = nd.sum(b)
        outputs = [entry.output.node_id for entry in tape.entries]
        assert outputs == sorted(outputs)
        inputs_seen = {p.node_id}
        for entry in tape.entries:
            assert all(t.node_id in inputs_seen or not t.requires_grad for t in entry.inputs)
            inputs_seen.add(entry.output.node_id)
        assert loss.node_id == outputs[-1]

    def test_nothing_recorded_without_active_tape(self):
        p = param([1.0])
        with nd.Tape() as tape:
            pass
        nd.scale(p, 2.0)
        assert tape.entries == []

    def test_constants_not_differentiated(self):
        p = param([1.0, 2.0])
        c = nd.Tensor([10.0, 20.0])
        with nd.Tape() as tape:
            loss = nd.sum(nd.mul(p, c))
        grad_p, grad_c = tape.gradients(loss, [p, c])
        np.testing.assert_array_equal(grad_p, c.data)
        np.testing.assert_array_equal(grad_c, np.zeros(2))

    @given(
        st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=8),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_gradient_of_dot_is_other_operand(self, values, seed):
        rng = np.random.default_rng(seed)
        a = param(values)
        b = nd.Tensor(rng.normal(size=len(values)))
        with nd.Tape() as tape:
            loss = nd.sum(nd.mul(a, b))
        (grad,) = tape.gradients(loss, [a])
        np.testing.assert_array_equal(grad, b.data)


def check_against_central_differences(loss_fn, params, tol=1e-6):
    report = nd.grad_check(loss_fn, params)
    assert report.ok(tol), (
        f"worst {report.worst_param}{report.worst_index}: "
        f"analytic {report.analytic_at_worst} vs numeric {report.numeric_at_worst}"
    )


RNG = np.random.default_rng(2024)
PROBE = {n: nd.Tensor(RNG.normal(size=s)) for n, s in [("p3", 3), ("p4", 4), ("p6", 6)]}


@pytest.fixture(autouse=True)
def own_draws(request):
    """Each test draws its data from a stream seeded by its own name, so
    which tests ran before it (a `-k` selection, an added or deleted test)
    cannot change what it checks."""
    global RNG
    RNG = np.random.default_rng(zlib.crc32(request.node.name.encode("utf-8")))


def weighted(out, probe):
    """Reduce an op output to a scalar with fixed weights."""
    return nd.sum(nd.mul(out, nd.Tensor(probe.data.reshape(out.shape))))


class TestGradientRules:
    """Each primitive's backward rule against the finite-difference oracle."""

    def test_add_sub_neg(self):
        b = nd.Tensor(RNG.normal(size=4))
        check_against_central_differences(
            lambda p: weighted(nd.add(nd.add(p["a"], b), p["a"]), PROBE["p4"]),
            {"a": nd.Tensor(RNG.normal(size=4), requires_grad=True)},
        )

    def test_mul_scale(self):
        check_against_central_differences(
            lambda p: weighted(nd.scale(nd.mul(p["a"], p["b"]), 1.7), PROBE["p4"]),
            {
                "a": nd.Tensor(RNG.normal(size=4), requires_grad=True),
                "b": nd.Tensor(RNG.normal(size=4), requires_grad=True),
            },
        )

    def test_sigmoid_xent(self):
        targets = nd.Tensor([1.0, 0.0, 1.0])
        check_against_central_differences(
            lambda p: nd.sigmoid_xent(p["z"], targets),
            {"z": nd.Tensor(RNG.normal(size=3), requires_grad=True)},
        )
        # A matrix gives one loss per row.
        rows = nd.Tensor([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        check_against_central_differences(
            lambda p: weighted(nd.sigmoid_xent(p["z"], rows), nd.Tensor([0.7, -1.3])),
            {"z": nd.Tensor(RNG.normal(size=(2, 3)), requires_grad=True)},
        )

    @pytest.mark.parametrize("x_shape", [(1, 3), (4, 3)])
    def test_affine(self, x_shape):
        probe = nd.Tensor(RNG.normal(size=int(np.prod(x_shape[:-1])) * 2))
        check_against_central_differences(
            lambda p: weighted(nd.affine(p["x"], p["W"], p["b"]), probe),
            {
                "x": nd.Tensor(RNG.normal(size=x_shape), requires_grad=True),
                "W": nd.Tensor(RNG.normal(size=(3, 2)), requires_grad=True),
                "b": nd.Tensor(RNG.normal(size=2), requires_grad=True),
            },
        )

    def test_attend(self):
        # Row 0 attends over 2 of its 3 keys, row 1 over all 3, row 2 over
        # none, so it owns no key rows and forms no query.
        mask = np.array([[True, False, True], [True, True, True], [False, False, False]])
        probe = nd.Tensor(RNG.normal(size=4))

        def loss_fn(p):
            mix, _ = nd.affine_attend(p["x"], p["W"], p["b"], p["k"], mask)
            return weighted(mix, probe)

        params = {
            name: nd.Tensor(RNG.normal(size=shape), requires_grad=True)
            for name, shape in [("x", (3, 4)), ("W", (4, 2)), ("b", (2,)), ("k", (6, 2))]
        }
        check_against_central_differences(loss_fn, params)
        with nd.Tape() as tape:
            loss = loss_fn(params)
        grad_x, grad_k = tape.gradients(loss, [params["x"], params["k"]])
        padded = ~mask[:2].reshape(-1)
        assert np.all(grad_k[padded] == 0.0)
        assert np.all(grad_k[~padded] != 0.0)
        assert np.all(grad_x[2] == 0.0) and np.all(grad_x[:2] != 0.0)

    def test_take_rows_with_duplicate_index(self):
        probe = nd.Tensor(RNG.normal(size=9))
        check_against_central_differences(
            lambda p: weighted(nd.take_rows(p["m"], [0, 2, 0]), probe),
            {"m": nd.Tensor(RNG.normal(size=(3, 3)), requires_grad=True)},
        )

    @staticmethod
    def lstm_params(rows, width=3, hidden=2, rng=None):
        rng = RNG if rng is None else rng
        shapes = {"xs": (rows, width), "W": (width, 4 * hidden), "U": (hidden, 4 * hidden),
                  "b": (4 * hidden,)}
        return {
            f"{d}/{n}" if n != "xs" else n: nd.Tensor(rng.normal(size=s), requires_grad=True)
            for d in ("fw", "bw") for n, s in shapes.items()
        }

    @staticmethod
    def bilstm(p, lengths=None):
        fw, bw = ([p[f"{d}/{n}"] for n in "WUb"] for d in ("fw", "bw"))
        return nd.bilstm(p["xs"], fw, bw, lengths)

    @pytest.mark.parametrize("steps", [1, 4])
    def test_lstm(self, steps):
        # Of 300 seeded draws of this probe and these parameters, 25 failed
        # the 1e-6 check at 4 steps, each on a gradient of 3.6e-8 to 6.3e-6.
        # This draw leaves every coordinate at 0 or above 1e-4 (asserted), so
        # the check reads about 1e-9 whatever the rounding order.
        rng = np.random.default_rng(72)
        probe = nd.Tensor(rng.normal(size=steps * 4))
        params = self.lstm_params(steps, rng=rng)
        loss_fn = lambda p: weighted(self.bilstm(p), probe)  # noqa: E731
        assert_gradients_clear_of_zero(loss_fn, params, 1e-4)
        check_against_central_differences(loss_fn, params)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_lstm_ragged_sequences(self, reverse):
        # Three sequences back to back, one of length 1.
        lengths = [3, 1, 4]
        probe = nd.Tensor(RNG.normal(size=8 * 4))
        params = self.lstm_params(8)
        check_against_central_differences(
            lambda p: weighted(self.bilstm(p, lengths), probe), params
        )
        # A loss on one sequence's forward (or backward) states reaches no
        # row of the others, and neither weight of the other direction.
        only_last = np.zeros((8, 4))
        columns = slice(2, 4) if reverse else slice(0, 2)
        only_last[4:, columns] = RNG.normal(size=(4, 2))
        with nd.Tape() as tape:
            loss = weighted(self.bilstm(params, lengths), nd.Tensor(only_last))
        other = "fw" if reverse else "bw"
        grad_xs, *grad_other = tape.gradients(
            loss, [params["xs"]] + [params[f"{other}/{n}"] for n in "WUb"]
        )
        assert np.all(grad_xs[:4] == 0.0)
        assert np.all(grad_xs[4:] != 0.0)
        assert all(np.all(g == 0.0) for g in grad_other)

    def test_attention_pool(self):
        # `nd.affine_pool` over three sequences, rows 0, 3 and 4 with a mix.
        lengths, rows = [2, 1, 3], [0, 3, 4]
        probe = nd.Tensor(RNG.normal(size=3 * 6))

        def pool(p):
            pooled, _ = nd.affine_pool(p["h"], p["W"], p["b"], p["u"], lengths, p["mix"], rows)
            return pooled

        params = {
            name: nd.Tensor(RNG.normal(size=shape), requires_grad=True)
            for name, shape in [("h", (6, 4)), ("mix", (3, 2)), ("W", (6, 3)), ("b", (3,)),
                                ("u", (3,))]
        }
        check_against_central_differences(lambda p: weighted(pool(p), probe), params)
        # A loss on the first sequence's pooled row reaches none of the others.
        only_first = np.zeros((3, 6))
        only_first[0] = RNG.normal(size=6)
        with nd.Tape() as tape:
            loss = weighted(pool(params), nd.Tensor(only_first))
        grad_h, grad_mix = tape.gradients(loss, [params["h"], params["mix"]])
        assert np.all(grad_h[2:] == 0.0) and np.all(grad_mix[1:] == 0.0)
        assert np.all(grad_h[:2] != 0.0) and np.all(grad_mix[:1] != 0.0)

    def test_attention_pool_scores_keys_against_context(self):
        # The score path alone: h and the mix are constant, so every gradient
        # flows through the scores u · tanh(z), z = [mix ; h] @ W + b.
        h, mix = nd.Tensor(RNG.normal(size=(2, 4))), nd.Tensor(RNG.normal(size=(1, 2)))
        probe = nd.Tensor(RNG.normal(size=6))

        def pool(p):
            pooled, _ = nd.affine_pool(h, p["W"], p["b"], p["u"], mix=mix, rows=[1])
            return pooled

        params = {
            "W": nd.Tensor(RNG.normal(size=(6, 3)), requires_grad=True),
            "b": nd.Tensor(RNG.normal(size=3), requires_grad=True),
            "u": nd.Tensor(RNG.normal(size=3), requires_grad=True),
        }
        check_against_central_differences(lambda p: weighted(pool(p), probe), params)
        # For the softmax's gradient d_scores, u's gradient is tanh(z).T @
        # d_scores, and z's is d_scores ⊗ u times tanh's slope: b's gradient
        # is its column sums and W's is [mix ; h].T @ it.
        with nd.Tape() as tape:
            loss = weighted(pool(params), probe)
        grad_w, grad_b, grad_u = tape.gradients(loss, list(params.values()))
        w, b, u = (params[n].data for n in ("W", "b", "u"))
        rows = np.hstack([[[0.0, 0.0], mix.data[0]], h.data])
        a = np.tanh(rows @ w + b)
        weights = np.exp(a @ u) / np.exp(a @ u).sum()
        d_weights = rows @ probe.data
        d_scores = weights * (d_weights - d_weights @ weights)
        dz = np.outer(d_scores, u) * (1.0 - a * a)
        np.testing.assert_allclose(grad_u, a.T @ d_scores, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(grad_b, dz.sum(axis=0), rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(grad_w, rows.T @ dz, rtol=1e-12, atol=1e-15)

    @given(batch=pool_batches, seed=st.integers(0, 2**16))
    @example(batch=([[True]], True), seed=0)
    @example(batch=([[False, False], [False]], True), seed=1)
    @example(batch=([[True, False, True], [False], [False, True]], True), seed=2)
    @example(batch=([[False, True, False]], False), seed=3)
    @settings(max_examples=40, deadline=None)
    def test_affine_pool_on_ragged_batches(self, batch, seed):
        # Draws with a coordinate that is neither 0 nor above 1e-7 are set
        # aside: there the central differences' rounding of about 1e-11
        # would decide the 1e-3 check.
        operands = pool_inputs(batch, seed, requires_grad=True)
        lengths, rows = operands.pop("lengths"), operands.pop("rows")
        params = {name: t for name, t in operands.items() if t is not None}
        probe = nd.Tensor(np.random.default_rng(seed).normal(
            size=(len(lengths), params["W"].shape[0])))

        def loss_fn(p):
            pooled, _ = nd.affine_pool(p["h"], p["W"], p["b"], p["u"], lengths, p.get("mix"),
                                       rows)
            return weighted(pooled, probe)

        assume(near_zero_gradient(loss_fn, params, 1e-7) is None)
        check_against_central_differences(loss_fn, params, tol=1e-3)

    def test_one_layer_model_loss(self):
        x = nd.Tensor(RNG.normal(size=(1, 5)))
        targets = nd.Tensor([[1.0, 0.0]])

        def loss_fn(p):
            return nd.sum(nd.sigmoid_xent(nd.affine(x, p["W"], p["b"]), targets))

        check_against_central_differences(
            loss_fn,
            {
                "W": nd.Tensor(RNG.normal(size=(5, 2)), requires_grad=True),
                "b": nd.Tensor(RNG.normal(size=2), requires_grad=True),
            },
        )


class TestGradCheck:
    def test_square_at_three(self):
        report = nd.grad_check(
            lambda p: nd.sum(nd.mul(p["x"], p["x"])),
            {"x": nd.Tensor([3.0], requires_grad=True)},
        )
        assert report.max_rel_err < 1e-9
        assert report.analytic_at_worst == pytest.approx(6.0, abs=1e-9)

    def test_constant_function(self):
        report = nd.grad_check(
            lambda p: nd.sum(nd.Tensor(np.zeros(3))),
            {"x": nd.Tensor([1.0, 2.0], requires_grad=True)},
        )
        assert report.max_rel_err == 0.0

    def test_relative_error_floor(self):
        assert nd.relative_error(0.0, 0.0) == 0.0
        assert nd.relative_error(1e-12, -1e-12) == pytest.approx(2e-4)

    def test_detects_corrupted_backward_rule(self, monkeypatch):
        params = {"h": nd.Tensor(RNG.normal(size=(4, 3)) + 1.0, requires_grad=True)}
        W, b, u = (nd.Tensor(RNG.normal(size=s)) for s in ((3, 2), (2,), (2,)))
        loss_fn = lambda p: nd.sum(nd.affine_pool(p["h"], W, b, u, [3, 1])[0])
        assert nd.grad_check(loss_fn, params).ok(1e-3)
        corrupt_affine_pool_backward(monkeypatch)
        assert not nd.grad_check(loss_fn, params).ok(1e-3)
