"""Dense float64 tensors and a record/replay tape for reverse-mode gradients.

Everything here is deliberately small: 1-D and 2-D arrays, the handful of
primitives the sequence model needs (among them fused ops for an affine
layer, masked attention over affine queries formed only for the rows that
have keys, additive attention pooling that reads a mix only on those rows,
and a bidirectional LSTM, each one tape entry for a whole batch of
sequences), and a tape that records ops in execution order (which is
already a topological order) and replays them backwards. Ops record on
the calling thread only; `bilstm`, the backward passes of `affine`,
`affine_attend` and `affine_pool` and `adam_step` may hand half their work to a
thread started for that hand-off (see `_both`), but each op records one
entry. One kernel, `_run_directions`, runs `bilstm`'s LSTM directions on
either schedule: both as one interleaved stack on the calling thread, or
one per thread.
"""
from __future__ import annotations

import ctypes
import functools
import itertools
import os
import threading
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not fit an operation's contract."""


_node_counter = itertools.count()


class Tensor:
    """A C-contiguous float64 array plus autodiff bookkeeping.

    Treat instances as immutable values: ops return fresh tensors. The one
    exception is `adam_step`: it returns fresh tensors that view its state's
    parameter arena, so the next step on the same state overwrites them (the
    caller's initial parameters are never written).
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


class TapeEntry(NamedTuple):
    inputs: tuple[Tensor, ...]
    output: Tensor
    backward: Callable[[np.ndarray], tuple]


_tape_stack: list["Tape"] = []


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

    def gradients(self, loss: Tensor, wrt: Sequence[Tensor]) -> list[np.ndarray]:
        """Gradients of a scalar loss for each tensor in `wrt`.

        Tensors not reachable from the loss get zero gradients. A backward
        rule may return None for an input that needs no gradient (one whose
        `requires_grad` is false), and that input is skipped.
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


def affine(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """x @ W + b for each row of a matrix x [N, in], as one tape entry.

    When x needs a gradient and rows·in·out is at least
    AFFINE_PARALLEL_MIN_WORK, the backward pass forms g @ W.T on a second
    thread while the calling thread forms x.T @ g, under the rule of
    `_two_threads`. Both are the same GEMMs on either schedule, written into
    arrays the calling thread allocated, so the results are bit-identical.
    x's gradient is formed even when x needs none; the tape drops it.
    """
    if x.data.ndim != 2 or W.data.ndim != 2 or (x.shape[1], *b.shape) != W.shape:
        raise ShapeError(f"affine: need x [N, in], W [in, out], b [out], got {x, W, b}")
    xd, wd = x.data, W.data
    out = Tensor(np.dot(xd, wd) + b.data)

    def bwd(g):
        work = xd.shape[0] * wd.size
        parallel = x.requires_grad and _two_threads(work, AFFINE_PARALLEL_MIN_WORK)
        d_x, d_w = np.empty_like(xd), np.empty_like(wd)
        _both(lambda: np.matmul(g, wd.T, out=d_x), lambda: np.matmul(xd.T, g, out=d_w), parallel)
        return d_x, d_w, g.sum(axis=0)

    return _record(out, (x, W, b), bwd)


def sigmoid_values(x) -> np.ndarray:
    """Plain-array logistic function; exp(-|x|) never overflows."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def affine_attend(x: Tensor, W: Tensor, b: Tensor, keys: Tensor,
                  mask) -> tuple[Tensor, np.ndarray]:
    """Masked dot-product attention of each row's query x_t @ W + b over its
    own K keys, as one tape entry.

    The R rows of `x` [N, in] whose row of the boolean `mask` [N, K] has a
    set entry own K rows of `keys` [R*K, out] each, in row order. Only those
    rows form a query, as one GEMM, score their keys where the mask is set,
    normalize the scores with a max-subtracted softmax and mix the keys with
    the weights. Every other row has no mix row and zero weights, and masked
    keys get exactly zero weight and zero gradient. Returns the R rows' mix
    [R, out], in row order, and the weights [N, K] as a plain array. The
    backward pass forms the gradients of W and b and x's rows from the R rows
    alone, x's other rows get zeros, and its two GEMMs run under the rule of
    `affine`'s; it forms no key gradient (None) when `keys` needs none.
    """
    mask = np.asarray(mask, dtype=bool)
    xd, wd = x.data, W.data
    fits = xd.ndim == wd.ndim == mask.ndim == 2 and mask.shape[0] == xd.shape[0]
    rows = np.flatnonzero(mask.any(axis=1)) if fits else None
    if not fits or (xd.shape[1], *b.shape) != wd.shape or keys.shape != (
            rows.size * mask.shape[1], wd.shape[1]):
        raise ShapeError("affine_attend: need x [N, in], W [in, out], b [out], mask [N, K] and "
                         f"keys [R*K, out], got {x, W, b, keys}, mask {mask.shape}")
    x_r, set_r = xd[rows], mask[rows]
    q = np.dot(x_r, wd) + b.data
    k = keys.data.reshape(rows.size, mask.shape[1], wd.shape[1])
    scores = np.matmul(k, q[:, :, None])[:, :, 0]
    top = np.max(scores, axis=1, keepdims=True, initial=-np.inf, where=set_r)
    e = np.exp(scores - top, out=np.zeros_like(scores), where=set_r)
    w = e / e.sum(axis=1, keepdims=True)
    weights = np.zeros(mask.shape)
    weights[rows] = w
    mix = np.matmul(w[:, None, :], k)[:, 0, :]

    def bwd(g):
        d_weights = np.matmul(k, g[:, :, None])[:, :, 0]
        d_scores = w * (d_weights - (d_weights * w).sum(axis=1, keepdims=True))
        d_q = np.matmul(d_scores[:, None, :], k)[:, 0, :]
        parallel = x.requires_grad and _two_threads(rows.size * wd.size, AFFINE_PARALLEL_MIN_WORK)
        d_x_r, d_w = np.empty_like(x_r), np.empty_like(wd)
        _both(lambda: np.matmul(d_q, wd.T, out=d_x_r), lambda: np.matmul(x_r.T, d_q, out=d_w),
              parallel)
        d_x = np.zeros_like(xd)
        d_x[rows] = d_x_r
        if not keys.requires_grad:
            return d_x, d_w, d_q.sum(axis=0), None
        d_keys = w[:, :, None] * g[:, None, :] + d_scores[:, :, None] * q[:, None, :]
        return d_x, d_w, d_q.sum(axis=0), d_keys.reshape(keys.shape)

    return _record(Tensor(mix), (x, W, b, keys), bwd), weights


def _split_lengths(op: str, lengths, rows: int) -> np.ndarray:
    """Checked lengths of the back-to-back sequences that make up `rows`
    rows; None means one sequence of all of them."""
    lengths = np.asarray([rows] if lengths is None else lengths, dtype=np.intp)
    if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1 or lengths.sum() != rows:
        raise ShapeError(f"{op}: lengths {lengths.tolist()} do not split {rows} rows "
                         "into non-empty sequences")
    return lengths


def affine_pool(h: Tensor, W: Tensor, b: Tensor, u: Tensor, lengths=None,
                mix: Tensor | None = None, rows=None) -> tuple[Tensor, np.ndarray]:
    """Additive attention pooling of rows [mix_t ; h_t] per sequence, as one
    tape entry.

    `lengths` splits the N rows of `h` [N, in] into back-to-back sequences
    (default: one sequence of all N). The R rows listed, ascending, in `rows`
    carry the R rows of `mix` [R, e]; every other row's mix is zero and never
    formed, and without `mix` the rows are `h`'s alone (R = e = 0). Row t is
    scored u · tanh([mix_t ; h_t] @ W + b) for W [e + in, C], b and u [C]:
    h @ W[e:] + b for every row, plus mix @ W[:e] on the R rows. Each
    sequence's scores are normalized with a max-subtracted softmax and its
    rows pooled with those weights as [Σ w·mix | Σ w·h], one [B, R] x [R, e]
    and one [B, N] x [N, in] product. Returns the pooled rows [B, e + in] and
    the weights [N] as a plain array. The backward pass forms the gradients
    of h (also when h needs none; the tape drops it), of mix's R rows, of
    both halves of W, of b and of u as whole products and reductions, and
    runs its two GEMM pairs (h's and mix's gradients, W's halves) under the
    rule of `affine`'s, with rows·in·out counted over h's and mix's rows.
    """
    hd, wd = h.data, W.data
    md = np.zeros((0, 0)) if mix is None else mix.data  # no mix: R = e = 0
    rows = np.asarray([] if rows is None else rows, dtype=np.intp)
    fits = (hd.ndim == wd.ndim == md.ndim == 2 and b.shape == u.shape == wd.shape[1:]
            and rows.shape == md.shape[:1] and (rows.size == 0 or (
                rows[0] >= 0 and rows[-1] < hd.shape[0] and np.all(np.diff(rows) > 0))))
    if not fits or wd.shape[0] != md.shape[1] + hd.shape[1]:
        raise ShapeError(
            "affine_pool: need h [N, in], W [e + in, C], b [C], u [C] and, for mix [R, e], "
            f"R ascending rows, got {h.shape}, {W.shape}, {b.shape}, {u.shape}, "
            f"{None if mix is None else mix.shape}, rows {rows.tolist()}")
    lengths = _split_lengths("affine_pool", lengths, hd.shape[0])
    starts = np.cumsum(lengths) - lengths
    segment = np.repeat(np.arange(lengths.size), lengths)
    e, ud = md.shape[1], u.data
    w_mix, w_h = wd[:e], wd[e:]
    a = np.dot(hd, w_h)
    a += b.data
    if mix is not None:
        a[rows] += np.dot(md, w_mix)
    np.tanh(a, out=a)
    s = np.dot(a, ud)
    ex = np.exp(s - np.maximum.reduceat(s, starts)[segment])
    weights = ex / np.add.reduceat(ex, starts)[segment]
    spread = np.zeros((lengths.size, hd.shape[0]))
    spread[segment, np.arange(hd.shape[0])] = weights
    spread_r = spread[:, rows]
    pooled = np.dot(spread, hd)
    if mix is not None:
        pooled = np.concatenate([np.dot(spread_r, md), pooled], axis=1)

    def bwd(g):
        g_mix, g_h = g[:, :e], g[:, e:]
        d_weights = np.einsum("np,np->n", hd, g_h[segment])
        d_weights[rows] += np.einsum("re,re->r", md, g_mix[segment[rows]])
        d_scores = weights * (d_weights - np.add.reduceat(d_weights * weights, starts)[segment])
        dz = np.outer(d_scores, ud)
        dz *= 1.0 - a * a
        dz_r = dz[rows]

        def input_grads():
            return (np.dot(dz, w_h.T) + np.dot(spread.T, g_h),
                    np.dot(dz_r, w_mix.T) + np.dot(spread_r.T, g_mix))

        def weight_grads():
            d_w = np.empty_like(wd)
            np.matmul(hd.T, dz, out=d_w[e:])
            np.matmul(md.T, dz_r, out=d_w[:e])
            return d_w

        work = (hd.size + md.size) * wd.shape[1]
        (d_h, d_mix), d_w = _both(input_grads, weight_grads,
                                  h.requires_grad and _two_threads(work, AFFINE_PARALLEL_MIN_WORK))
        return (d_h, d_w, dz.sum(axis=0), np.dot(a.T, d_scores), d_mix)[: len(inputs)]

    inputs = (h, W, b, u) if mix is None else (h, W, b, u, mix)
    return _record(Tensor(pooled), inputs, bwd), weights


def sigmoid_xent(logits: Tensor, targets: Tensor) -> Tensor:
    """Mean binary cross-entropy of sigmoid(logits) against 0/1 targets,
    over the last axis: a scalar for a vector, one value per row [B] for a
    matrix [B, units].

    Uses the fused log-sum-exp form, so saturated logits stay finite.
    """
    _require_same_shape("sigmoid_xent", logits, targets)
    t = targets.data
    if not np.all((t == 0.0) | (t == 1.0)):
        raise ValueError("sigmoid_xent: targets must be 0 or 1")
    z = logits.data
    per_unit = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    n = z.shape[-1]
    out = Tensor(per_unit.sum(axis=-1) / n)

    def bwd(g):
        return np.expand_dims(g, -1) * (sigmoid_values(z) - t) / n, None

    return _record(out, (logits, targets), bwd)


def sum(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum())

    def bwd(g):
        return (np.full(a.shape, float(g)),)

    return _record(out, (a,), bwd)


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


def _sequence_layout(lengths: np.ndarray):
    """Time-major layout of back-to-back sequences with the given (checked)
    lengths, shared by both LSTM directions.

    Sequences are sorted by length, longest first (stably), so the ones still
    running at step t are a prefix of those running at t - 1. The layout has
    `batch` rows of zero initial state, then each step's running sequences.
    Returns the packed row that each step row reads, as a (forward,
    backward) pair, the layout row of every row's previous step (a state row
    is its own) and one (start, previous start, count) per step.
    """
    rows, batch = int(lengths.sum()), lengths.size
    order = np.argsort(-lengths, kind="stable")
    lens = lengths[order]
    first = (np.cumsum(lengths) - lengths)[order]
    step = np.arange(lens[0])[:, None]
    running = step < lens
    reads = (first + step)[running], (first + lens - 1 - step)[running]
    at = np.empty((lens[0] + 1, batch), dtype=np.intp)
    at[0] = np.arange(batch)
    at[1:][running] = batch + np.arange(rows)
    counts = running.sum(axis=1)
    starts = (batch + np.cumsum(counts) - counts).tolist()
    blocks = list(zip(starts, [0] + starts[:-1], counts.tolist()))
    return reads, np.concatenate([at[0], at[:-1][running]]), blocks


def _run_directions(x_all, stack, prev, blocks, h):
    """Run a stack of D LSTM directions over the packed rows `x_all` [N, in]
    in the layout `_sequence_layout` gives, and write each one's states into
    its columns of `h` [N, 2H]. Each entry of `stack` is one direction's
    (W, U, b, read, columns): its parameter arrays, its read order and the
    slice of columns of `h` it owns. Returns the BPTT closure, which maps the
    gradient of `h` to (d_xs, [dW, dU, db of each direction]), d_xs None
    unless its `input_grad` argument is true.

    The stack is stored interleaved: row r of acts [batch+N, D, 4H] and of
    cells, tanh-cells and states [batch+N, D, H] holds row r of every
    direction, so each step's elementwise work for all D directions is one
    numpy call on a contiguous slab (Appleyard et al., arXiv:1604.01946).
    Only the products are per direction: the input projection
    [N, in] x [in, 4H] and each step's [n, H] x [H, 4H], which reads the
    direction's states in place, D*H apart. The gates (i, f, g, o) are
    consecutive H-column blocks of W [in, 4H], U [H, 4H] and b [4H]. Plain
    arrays in and out, no tape: `bilstm` runs one stack of both directions,
    or one stack of one direction on each of two threads.

    BLAS gives a row of a GEMM the same bits whatever the GEMM's row count,
    from two rows up (see `bilstm_batch_invariant`); numpy sends a one-row
    product to gemv, whose bits differ. So a one-row product runs as the top
    row of a two-row GEMM, and a sequence gets the same states in a batch of
    any size.
    """
    depth, rows, hidden = len(stack), x_all.shape[0], stack[0][1].shape[0]
    batch = blocks[0][2]
    # sigmoid(z) = 0.5 * tanh(z / 2) + 0.5, so one tanh over all four gate
    # blocks of z * half, scaled by half and shifted, gives every activation.
    # Both are tiled to a step's full slab, so each product is one
    # contiguous loop rather than a broadcast.
    half = np.full((max(batch, 2), depth, 4 * hidden), 0.5)
    half[..., 2 * hidden : 3 * hidden] = 1.0
    shift = np.where(half == 0.5, 0.5, 0.0)
    acts = np.zeros((batch + rows, depth, 4 * hidden))
    xs = [x_all[read] for _, _, _, read, _ in stack]
    for d, (x, (w, _, _, _, _)) in enumerate(zip(xs, stack)):
        # A lone direction's rows are contiguous, so its GEMM writes them in
        # place; interleaved ones are copied in from the GEMM's own array.
        if rows > 1 and depth == 1:
            np.dot(x, w, out=acts[batch:, 0])
        else:
            padded = np.vstack([x, np.zeros_like(x)]) if rows == 1 else x
            acts[batch:, d] = np.dot(padded, w)[:rows]
    acts[batch:] += [bias for _, _, bias, _, _ in stack]
    cells = np.zeros((batch + rows, depth, hidden))
    tanh_cells = np.zeros_like(cells)
    states = np.zeros_like(cells)
    i, f, g, o = (acts[..., k * hidden : (k + 1) * hidden] for k in range(4))
    product = np.empty((depth, max(batch, 2), 4 * hidden))
    step_product = product.swapaxes(0, 1)
    # Each direction's GEMM operands: U, the states it reads, its product.
    gemms = [(u, states[:, d], product[d]) for d, (_, u, _, _, _) in enumerate(stack)]
    for start, before, n in blocks:
        stop = start + n
        a = acts[start:stop]
        # The first step reads the zero initial state, whose product is zero.
        # A one-row step multiplies one more layout row, the next step's
        # (still zero) or another sequence's, and drops its product.
        if before:
            m = max(n, 2)
            for u, read_states, out in gemms:
                np.dot(read_states[before : before + m], u, out=out[:m])
            a += step_product[:n]
        half_n = half[:n]
        a *= half_n
        np.tanh(a, out=a)
        a *= half_n
        a += shift[:n]
        c, tanh_c = cells[start:stop], tanh_cells[start:stop]
        np.multiply(f[start:stop], cells[before : before + n], out=c)
        c += i[start:stop] * g[start:stop]
        np.tanh(c, out=tanh_c)
        np.multiply(o[start:stop], tanh_c, out=states[start:stop])
    for d, (_, _, _, read, columns) in enumerate(stack):
        h[read, columns] = states[batch:, d]

    def bwd(d_h, input_grad):
        # A step's dz is [dc, dc, dc, dh] times these factors of its rows
        # (product rule, then each activation's slope), formed for all rows.
        slopes = acts * (1.0 - acts)
        slopes[..., 2 * hidden : 3 * hidden] = 1.0 - g * g
        factors = np.stack([g, cells[prev], i, tanh_cells], axis=2)
        factors *= slopes.reshape(-1, depth, 4, hidden)
        del slopes  # freed before the BPTT buffers below are allocated
        state_to_cell = o * (1.0 - tanh_cells * tanh_cells)
        dh = np.zeros_like(cells)
        for d, (_, _, _, read, columns) in enumerate(stack):
            dh[batch:, d] = d_h[read, columns]
        dc = np.zeros_like(cells)
        dz = np.zeros((batch + rows, depth, 4, hidden))
        dz_rows = dz.reshape(batch + rows, depth, 4 * hidden)
        carried = np.empty((depth, batch, hidden))
        step_carried = carried.swapaxes(0, 1)
        # Views sliced once, so each step takes one slice of each.
        dc_gates, dz_cell, dz_out = dc[:, :, None], dz[:, :, :3], dz[:, :, 3]
        cell_factors, out_factors = factors[:, :, :3], factors[:, :, 3]
        gemms = [(u.T, dz_rows[:, d], carried[d]) for d, (_, u, _, _, _) in enumerate(stack)]
        for start, before, n in reversed(blocks):
            stop = start + n
            dh_t, dc_t = dh[start:stop], dc[start:stop]
            dc_t += dh_t * state_to_cell[start:stop]
            np.multiply(dc_gates[start:stop], cell_factors[start:stop], out=dz_cell[start:stop])
            np.multiply(dh_t, out_factors[start:stop], out=dz_out[start:stop])
            np.multiply(dc_t, f[start:stop], out=dc[before : before + n])
            if before:  # the zero initial state's gradient goes unused
                for u_t, dz_d, out in gemms:
                    np.matmul(dz_d[start:stop], u_t, out=out[:n])
                dh[before : before + n] += step_carried[:n]
        d_xs = np.empty_like(x_all) if input_grad else None
        grads = []
        for d, (x, (w, _, _, read, _)) in enumerate(zip(xs, stack)):
            dz_d = dz_rows[batch:, d]
            if input_grad:
                # One direction's term, then the other's added to it.
                if d:
                    d_xs[read] += dz_d @ w.T
                else:
                    d_xs[read] = dz_d @ w.T
            grads += [x.T @ dz_d, states[prev[batch:], d].T @ dz_d, dz_d.sum(axis=0)]
        return d_xs, grads

    return bwd


# Smallest hidden size at which the two directions run on two threads. Below
# it each step's numpy calls are too short to overlap: the two threads take
# turns holding the interpreter lock instead. The bound was measured before
# the serial schedule became one interleaved stack. Against that stack at
# paper dims (embed 300, H=300), single-thread BLAS, 2-vCPU x86 host,
# medians of 30, serial against two threads: a one-tweet forward 10.0
# against 10.4 ms, a 16-tweet forward and backward 109 against 88 ms, and a
# 48-tweet forward 113 against 57 ms.
PARALLEL_MIN_HIDDEN = 128

# Smallest rows·in·out at which `affine`'s backward forms its two GEMMs on
# two threads. Below it the hand-off to a second thread costs more than the
# second core saves. One backward pass, single-thread BLAS, 2-vCPU x86 host,
# median of 41, serial -> two threads: rows·in·out 1.3e5 30 -> 180 us,
# 2.1e6 300 -> 420 us, 4e6 to 1.8e7 either side of even from run to run,
# 4.05e7 (300x900x150) 6.1 -> 4.7 ms, 5.4e7 (300x600x300) 7.2 -> 5.1 ms.
AFFINE_PARALLEL_MIN_WORK = 1 << 24

def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas_function(name: str, argtypes: tuple, restype):
    """A function of the OpenBLAS bundled with numpy, or None when there is
    no such library (numpy built against another BLAS) or it lacks `name`."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
            "libscipy_openblas64_-*.so")):
        try:
            function = getattr(ctypes.CDLL(str(path)), name)
        except (OSError, AttributeError):
            continue
        function.argtypes, function.restype = list(argtypes), restype
        return function
    return None


def _blas_threads() -> int | None:
    """How many threads BLAS runs one product on, or None if unknown."""
    getter = _openblas_function("scipy_openblas_get_num_threads64_", (), ctypes.c_int)
    return None if getter is None else getter()


def set_blas_threads(count: int) -> int | None:
    """Have numpy's bundled OpenBLAS run each product on `count` threads;
    returns the count it ran before, or None (and changes nothing) when
    that library or its setter is missing."""
    setter = _openblas_function("scipy_openblas_set_num_threads64_", (ctypes.c_int,), None)
    before = _blas_threads()
    if setter is None or before is None:
        return None
    setter(count)
    return before


def _two_threads(work: int, floor: int) -> bool:
    """The rule every two-thread schedule in `nd` follows: hand half the work
    to a second thread only when the work is at least `floor`, this
    process may run on two CPUs, and BLAS runs one thread (or its thread
    count is unknown). A multi-threaded BLAS already spreads each product
    over the cores, and another thread would compete with them: under two
    BLAS threads a paper-dims M2 `train()` on 32 tweets took 358 ms serial
    and 371 ms on this schedule (README, Threads)."""
    return work >= floor and _usable_cpus() >= 2 and _blas_threads() in (None, 1)


def _run_directions_in_parallel(hidden: int) -> bool:
    """Whether `bilstm` runs its directions on two threads: directions at
    least PARALLEL_MIN_HIDDEN wide, under the rule of `_two_threads`."""
    return _two_threads(hidden, PARALLEL_MIN_HIDDEN)


# `bilstm_batch_invariant` checks every GEMM row count from 2 to this, the
# most sequences `train.evaluate` encodes at once, then a ladder of counts
# up to its row bound; each count at every offset of PROBE_OFFSETS.
PROBE_ROWS = 64
PROBE_OFFSETS = (0, 1, 5)


def bilstm_batch_invariant(in_dim: int, hidden: int, rows: int) -> bool:
    """Whether `bilstm` gives a sequence the same states, bit for bit, alone
    and in any batch of up to `rows` rows, under the current BLAS thread
    count and schedule; probed once per shape, row bound, thread count and
    stack depth.

    `bilstm` forms its products as GEMMs of two or more rows (see
    `_run_directions`): the input projection [N, in] x [in, 4H] of
    contiguous rows, and each step's [n, H] x [H, 4H], whose rows it reads in
    place from its stack's interleaved states: contiguous for the one
    direction per thread of the two-thread schedule, 2H apart for the two
    directions of the serial one. A sequence's states are then the same in
    every batch when BLAS gives a GEMM row the same bits whatever the GEMM's
    row count, the row's place in it and the stride between its rows.
    OpenBLAS does at the LSTM shapes, but not at every shape (at 600 x 300 a
    row's bits change with the row count), so the property is probed rather
    than assumed (He and Thinking Machines Lab, "Defeating Nondeterminism in
    LLM Inference", 2025).
    """
    bound = max(PROBE_ROWS, 1 << (rows - 1).bit_length())
    threads = _blas_threads()
    depth = 1 if _run_directions_in_parallel(hidden) else 2
    return _rows_invariant(in_dim, 4 * hidden, bound, threads, 1) and _rows_invariant(
        hidden, 4 * hidden, bound, threads, depth
    )


@functools.cache
def _rows_invariant(inner: int, cols: int, bound: int, threads: int | None, depth: int) -> bool:
    """Whether the rows of [m, inner] x [inner, cols] GEMMs equal the same
    rows of one larger GEMM: every m from 2 to PROBE_ROWS and a ladder of m
    up to `bound`, at each of PROBE_OFFSETS. The rows are read in place from
    a [rows, depth, inner] slab at each of its `depth` places, as
    `_run_directions` reads a stack's states. `threads`, the BLAS thread
    count, keys the cache."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((bound + max(PROBE_OFFSETS), inner))
    b = rng.standard_normal((inner, cols))
    reference = np.dot(a, b)
    slab = np.repeat(a[:, None], depth, axis=1)
    counts = list(range(2, PROBE_ROWS + 1))
    while counts[-1] < bound:
        counts.append(min(bound, counts[-1] * 3 // 2))
    return all(
        np.array_equal(np.dot(slab[offset : offset + m, d], b), reference[offset : offset + m])
        for m in counts
        for offset in PROBE_OFFSETS
        for d in range(depth)
    )


def _both(first: Callable, second: Callable, parallel: bool) -> tuple:
    """(first(), second()); in parallel, `first` runs on a new thread, joined
    before this returns or raises, while the calling thread runs `second`. If
    both fail, `first`'s error is raised with `second`'s as its context."""
    if not parallel:
        return first(), second()
    done = {}

    def run():
        try:
            done["result"] = first()
        except BaseException as exc:  # raised again on the calling thread
            done["error"] = exc

    worker = threading.Thread(target=run, name="nd-half")
    worker.start()
    try:
        other = second()
    finally:
        worker.join()
        if "error" in done:
            raise done["error"]
    return done["result"], other


def bilstm(xs: Tensor, fw: Sequence[Tensor], bw: Sequence[Tensor], lengths=None) -> Tensor:
    """Bidirectional LSTM over the rows of `xs` [N, in], one sequence or
    several back to back.

    `lengths` splits the rows into sequences (default: one sequence of all
    N), each run from a zero state by both directions: `fw` reads it in row
    order and `bw` in reverse, and the output row of each input row is
    concat(forward state, backward state) after reading it, [N, 2H]. Each
    direction is a (W [in, 4H], U [H, 4H], b [4H]) triple whose gates
    (i, f, g, o) are consecutive H-column blocks, the gate-stacked layout of
    Appleyard et al. (arXiv:1604.01946). The input projection is one GEMM
    hoisted out of the recurrence, step t runs one [n_t, H] x [H, 4H] GEMM
    over the n_t sequences longer than t, and backpropagation through time
    forms each weight gradient as one GEMM over all rows. Returns the states
    as one tape entry whose backward gives the gradients of xs, then of fw's
    and bw's W, U and b; that of xs is None, and its two [N, 4H] x [4H, in]
    GEMMs are skipped, when `xs` needs no gradient.

    Every product is a GEMM of two or more rows, a one-row one run as the top
    row of a two-row GEMM, so when `bilstm_batch_invariant` holds a sequence
    gets the same states, bit for bit, alone and in any batch.

    The directions share no state. Serial, they run as one stack of two
    (`_run_directions`), stored interleaved so that each step's elementwise
    work for both is one numpy call, with one GEMM per direction. From
    H = PARALLEL_MIN_HIDDEN up, under the rule of `_two_threads` (two usable
    CPUs, single-threaded BLAS), the forward direction runs as a stack of
    one on a second thread while the calling thread runs the backward one,
    in both passes. Each direction does the same arithmetic on either
    schedule, so the results are bit-identical.
    """
    fw, bw = tuple(fw), tuple(bw)
    if (
        xs.data.ndim != 2
        or xs.shape[0] == 0
        or len(fw) != 3
        or [p.shape for p in fw] != [q.shape for q in bw]
        or fw[1].data.ndim != 2
        or fw[1].shape[1] != 4 * fw[1].shape[0]
        or fw[0].shape != (xs.shape[1], fw[1].shape[1])
        or fw[2].shape != (fw[1].shape[1],)
    ):
        raise ShapeError(
            "bilstm: need xs [N>0, in] and per direction W [in, 4H], U [H, 4H], b [4H], got "
            f"{xs.shape}, {[p.shape for p in fw]}, {[p.shape for p in bw]}"
        )
    lengths = _split_lengths("bilstm", lengths, xs.shape[0])
    hidden = fw[1].shape[0]
    h = np.empty((xs.shape[0], 2 * hidden))
    reads, prev, blocks = _sequence_layout(lengths)
    stack = [(*(p.data for p in fw), reads[0], slice(0, hidden)),
             (*(p.data for p in bw), reads[1], slice(hidden, 2 * hidden))]
    parallel = _run_directions_in_parallel(hidden)
    if parallel:
        fw_bwd, bw_bwd = _both(lambda: _run_directions(xs.data, stack[:1], prev, blocks, h),
                               lambda: _run_directions(xs.data, stack[1:], prev, blocks, h), True)
    else:
        stack_bwd = _run_directions(xs.data, stack, prev, blocks, h)
    out = Tensor(h)

    def bwd(g):
        input_grad = xs.requires_grad
        if not parallel:
            d_xs, grads = stack_bwd(g, input_grad)
            return (d_xs, *grads)
        (d_xs, d_fw), (d_xs_bw, d_bw) = _both(
            lambda: fw_bwd(g, input_grad), lambda: bw_bwd(g, input_grad), True
        )
        return (d_xs if d_xs is None else d_xs + d_xs_bw, *d_fw, *d_bw)

    return _record(out, (xs, *fw, *bw), bwd)
