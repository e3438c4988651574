"""Dense float64 tensors and a record/replay tape for reverse-mode gradients.

Everything here is deliberately small: 1-D and 2-D arrays, the handful of
primitives the sequence model needs (among them fused ops for an affine
layer, masked attention and an LSTM direction, each one tape entry for a
whole sequence), and a tape that records ops in execution order (which is
already a topological order) and replays them backwards.
"""
from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Callable, NamedTuple, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not fit an operation's contract."""


_node_counter = itertools.count()


class Tensor:
    """A C-contiguous float64 array plus autodiff bookkeeping.

    Treat instances as immutable values: ops return fresh tensors and the
    optimizer produces new ones rather than writing in place.
    """

    __slots__ = ("data", "requires_grad", "node_id")

    def __init__(self, data, requires_grad: bool = False):
        # asarray keeps 0-d scalars 0-d; ascontiguousarray would promote them.
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.requires_grad = requires_grad
        self.node_id = next(_node_counter)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape))


class TapeEntry(NamedTuple):
    inputs: tuple[Tensor, ...]
    output: Tensor
    backward: Callable[[np.ndarray], tuple]


_tape_stack: list["Tape"] = []

# Test hook: name of the op whose backward rule is deliberately corrupted.
# Used by the gradient-check CLI to prove the checker catches bad rules.
_backward_fault: str | None = None


@contextmanager
def inject_backward_fault(op_name: str):
    """Corrupt one op's backward rule inside the block (test hook only)."""
    global _backward_fault
    _backward_fault = op_name
    try:
        yield
    finally:
        _backward_fault = None


class Tape:
    """Execution-ordered record of differentiable ops.

    Ops register themselves while a tape is active (``with tape:``) and at
    least one input requires gradients. Entry order is the execution order,
    so every entry's inputs precede it and one reverse sweep visits each
    node exactly once.
    """

    def __init__(self):
        self.entries: list[TapeEntry] = []

    def __enter__(self) -> "Tape":
        _tape_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _tape_stack.pop()
        assert popped is self

    def __len__(self) -> int:
        return len(self.entries)

    def gradients(self, loss: Tensor, wrt: Sequence[Tensor]) -> list[np.ndarray]:
        """Gradients of a scalar loss for each tensor in `wrt`.

        Tensors not reachable from the loss get zero gradients.
        """
        if loss.shape != ():
            raise ValueError(
                f"loss must be a scalar, got shape {loss.shape}"
            )
        grads: dict[int, np.ndarray] = {loss.node_id: np.array(1.0)}
        for entry in reversed(self.entries):
            g_out = grads.get(entry.output.node_id)
            if g_out is None:
                continue
            for tensor, g_in in zip(entry.inputs, entry.backward(g_out)):
                if g_in is None or not tensor.requires_grad:
                    continue
                seen = grads.get(tensor.node_id)
                grads[tensor.node_id] = g_in if seen is None else seen + g_in
        out = []
        for p in wrt:
            g = grads.get(p.node_id)
            out.append(np.zeros_like(p.data) if g is None else np.asarray(g, dtype=np.float64))
        return out


def _record(out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    if _tape_stack and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _tape_stack[-1].entries.append(TapeEntry(inputs, out, backward_fn))
    return out


def _require_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes differ, {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("add", a, b)
    out = Tensor(a.data + b.data)

    def bwd(g):
        return g, g

    return _record(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shaped tensors."""
    _require_same_shape("mul", a, b)
    out = Tensor(a.data * b.data)

    def bwd(g):
        return g * b.data, g * a.data

    return _record(out, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a plain (non-differentiated) scalar."""
    c = float(c)
    out = Tensor(a.data * c)

    def bwd(g):
        return (g * c,)

    return _record(out, (a,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix/vector product with numpy dot rules for 1-D and 2-D operands."""
    if a.data.ndim not in (1, 2) or b.data.ndim not in (1, 2):
        raise ShapeError(f"matmul: only 1-D/2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    out = Tensor(np.dot(ad, bd))

    def bwd(g):
        if ad.ndim == 2 and bd.ndim == 2:
            return g @ bd.T, ad.T @ g
        if ad.ndim == 1 and bd.ndim == 2:
            return bd @ g, np.outer(ad, g)
        if ad.ndim == 2 and bd.ndim == 1:
            return np.outer(g, bd), ad.T @ g
        return g * bd, g * ad

    return _record(out, (a, b), bwd)


def affine(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """x @ W + b for one vector x or each row of a matrix x, as one tape entry."""
    if x.data.ndim not in (1, 2) or W.data.ndim != 2 or (x.shape[-1], *b.shape) != W.shape:
        raise ShapeError(f"affine: need x [.., in], W [in, out], b [out], got {x, W, b}")
    xd, wd = x.data, W.data
    out = Tensor(np.dot(xd, wd) + b.data)

    def bwd(g):
        if xd.ndim == 1:
            return wd @ g, np.outer(xd, g), g
        return g @ wd.T, xd.T @ g, g.sum(axis=0)

    return _record(out, (x, W, b), bwd)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y)

    def bwd(g):
        ga = g * (1.0 - y * y)
        if _backward_fault == "tanh":
            ga = ga * 1.01
        return (ga,)

    return _record(out, (a,), bwd)


def sigmoid_values(x) -> np.ndarray:
    """Plain-array logistic function, split on sign so exp never overflows."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(scores: Tensor) -> Tensor:
    """Normalized exponentials of a vector, max-subtracted for overflow safety."""
    if scores.data.ndim != 1 or scores.size == 0:
        raise ShapeError(f"softmax: need a non-empty vector, got shape {scores.shape}")
    shifted = scores.data - scores.data.max()
    e = np.exp(shifted)
    y = e / e.sum()
    out = Tensor(y)

    def bwd(g):
        return (y * (g - np.dot(g, y)),)

    return _record(out, (scores,), bwd)


def attend(queries: Tensor, keys: Tensor, mask) -> tuple[Tensor, np.ndarray]:
    """Masked dot-product attention of each query over its own K keys.

    Row t of `queries` [T, d] scores rows t*K .. t*K+K-1 of `keys` [T*K, d]
    where the boolean `mask` [T, K] is set, normalizes those scores with a
    max-subtracted softmax and mixes the keys with the weights. A row with
    no unmasked key mixes in zeros, and masked keys get exactly zero weight
    and zero gradient. Returns the mix [T, d] as one tape entry and the
    weights [T, K] as a plain array.
    """
    mask = np.asarray(mask, dtype=bool)
    fits = queries.data.ndim == mask.ndim == 2 and mask.shape[0] == queries.shape[0]
    if not fits or keys.shape != (mask.size, queries.shape[1]):
        raise ShapeError(f"attend: need queries [T, d], keys [T*K, d], mask [T, K], got "
                         f"{queries.shape}, {keys.shape}, {mask.shape}")
    steps, width = mask.shape
    q = queries.data
    k = keys.data.reshape(steps, width, q.shape[1])
    scores = np.matmul(k, q[:, :, None])[:, :, 0]
    top = np.max(scores, axis=1, keepdims=True, initial=-np.inf, where=mask)
    e = np.exp(scores - top, out=np.zeros_like(scores), where=mask)
    total = e.sum(axis=1, keepdims=True)
    weights = np.divide(e, total, out=np.zeros_like(e), where=total > 0.0)
    out = Tensor(np.matmul(weights[:, None, :], k)[:, 0, :])

    def bwd(g):
        d_weights = np.matmul(k, g[:, :, None])[:, :, 0]
        d_scores = weights * (d_weights - (d_weights * weights).sum(axis=1, keepdims=True))
        d_queries = np.matmul(d_scores[:, None, :], k)[:, 0, :]
        d_keys = weights[:, :, None] * g[:, None, :] + d_scores[:, :, None] * q[:, None, :]
        return d_queries, d_keys.reshape(keys.shape)

    return _record(out, (queries, keys), bwd), weights


def sigmoid_xent(logits: Tensor, targets: Tensor) -> Tensor:
    """Mean binary cross-entropy of sigmoid(logits) against 0/1 targets.

    Uses the fused log-sum-exp form, so saturated logits stay finite.
    """
    _require_same_shape("sigmoid_xent", logits, targets)
    t = targets.data
    if not np.all((t == 0.0) | (t == 1.0)):
        raise ValueError("sigmoid_xent: targets must be 0 or 1")
    z = logits.data
    per_unit = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    n = z.size
    out = Tensor(per_unit.sum() / n)

    def bwd(g):
        return g * (sigmoid_values(z) - t) / n, None

    return _record(out, (logits, targets), bwd)


def sum(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum())

    def bwd(g):
        return (np.full(a.shape, float(g)),)

    return _record(out, (a,), bwd)


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Join tensors along their last axis: vectors end to end, or matrices
    with the same row count side by side."""
    parts = tuple(parts)
    if not parts or parts[0].data.ndim not in (1, 2) or len({p.shape[:-1] for p in parts}) != 1:
        raise ShapeError(f"concat: need vectors or equal-height matrices, got {parts}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=-1))
    offsets = np.cumsum([0] + [p.shape[-1] for p in parts])

    def bwd(g):
        return tuple(g[..., offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return _record(out, parts, bwd)


def take_rows(m: Tensor, indices: Sequence[int]) -> Tensor:
    """Gather rows of a matrix; duplicate indices accumulate on backward."""
    if m.data.ndim != 2:
        raise ShapeError(f"take_rows: need a matrix, got shape {m.shape}")
    idx = np.asarray(list(indices), dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= m.shape[0]):
        raise IndexError(f"take_rows: index out of range for {m.shape[0]} rows")
    out = Tensor(m.data[idx])

    def bwd(g):
        gm = np.zeros_like(m.data)
        np.add.at(gm, idx, g)
        return (gm,)

    return _record(out, (m,), bwd)


def lstm(xs: Tensor, W: Tensor, U: Tensor, b: Tensor) -> Tensor:
    """One LSTM direction over the rows of `xs` [T, in], from a zero state.

    The gates (i, f, g, o) are consecutive H-column blocks of W [in, 4H],
    U [H, 4H] and b [4H], the gate-stacked layout of Appleyard et al.
    (arXiv:1604.01946). The input projection is one GEMM hoisted out of the
    recurrence, and backpropagation through time forms each weight gradient
    as one GEMM over all steps. Returns the states [T, H] as one tape entry.
    """
    if (
        xs.data.ndim != 2
        or U.data.ndim != 2
        or xs.shape[0] == 0
        or U.shape[1] != 4 * U.shape[0]
        or W.shape != (xs.shape[1], U.shape[1])
        or b.shape != (U.shape[1],)
    ):
        raise ShapeError(
            "lstm: need xs [T>0, in], W [in, 4H], U [H, 4H], b [4H], got "
            f"{xs.shape}, {W.shape}, {U.shape}, {b.shape}"
        )
    x, w, u = xs.data, W.data, U.data
    steps, hidden = x.shape[0], u.shape[0]
    cand = slice(2 * hidden, 3 * hidden)
    x_proj = x @ w + b.data
    acts = np.empty((steps, 4 * hidden))
    cells = np.empty((steps, hidden))
    tanh_cells = np.empty((steps, hidden))
    states = np.empty((steps, hidden))
    h = c = np.zeros(hidden)
    for t in range(steps):
        z = x_proj[t] + h @ u
        a = sigmoid_values(z)
        a[cand] = np.tanh(z[cand])
        i, f, g, o = np.split(a, 4)
        c = f * c + i * g
        tanh_cells[t] = np.tanh(c)
        h = o * tanh_cells[t]
        acts[t], cells[t], states[t] = a, c, h
    out = Tensor(states)

    def bwd(d_states):
        prev_cells = np.vstack([np.zeros(hidden), cells[:-1]])
        prev_states = np.vstack([np.zeros(hidden), states[:-1]])
        # Derivative of each activation with respect to its pre-activation.
        slopes = acts * (1.0 - acts)
        slopes[:, cand] = 1.0 - acts[:, cand] ** 2
        dz = np.empty_like(acts)
        dh = np.zeros(hidden)
        dc = np.zeros(hidden)
        for t in reversed(range(steps)):
            i, f, g, o = np.split(acts[t], 4)
            dh = d_states[t] + dh
            dc = dc + dh * o * (1.0 - tanh_cells[t] ** 2)
            dz[t] = np.concatenate([dc * g, dc * prev_cells[t], dc * i, dh * tanh_cells[t]])
            dz[t] *= slopes[t]
            dc = dc * f
            dh = u @ dz[t]
        return dz @ w.T, x.T @ dz, prev_states.T @ dz, dz.sum(axis=0)

    return _record(out, (xs, W, U, b), bwd)


def dropout_mask(shape, rate: float, rng) -> Tensor:
    """Inverted-dropout mask: zeros with probability `rate`, else 1/(1-rate).

    `rng` is a numpy Generator or an integer seed; the same seed always
    yields the same mask. Masks are constants (never recorded on a tape).
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    if rate == 0.0:
        return Tensor(np.ones(shape))
    keep = rng.random(shape) >= rate
    return Tensor(np.where(keep, 1.0 / (1.0 - rate), 0.0))
