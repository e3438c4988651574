"""Dense float64 tensors and a record/replay tape for reverse-mode gradients.

Everything here is deliberately small: 1-D and 2-D arrays, the handful of
primitives the sequence model needs (among them fused ops for an affine
layer, masked attention, attention pooling and a bidirectional LSTM, each
one tape entry for a whole batch of sequences), and a tape that records
ops in execution order (which is already a topological order) and replays
them backwards. Ops record on the calling thread only; `bilstm`, the
backward pass of `affine` and `adam_step` may hand half their work to one
worker thread (see `_two_threads`), but each op records one entry.
"""
from __future__ import annotations

import ctypes
import functools
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
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

    def __len__(self) -> int:
        return len(self.entries)

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
    """x @ W + b for one vector x or each row of a matrix x, as one tape entry.

    When x is a matrix that needs a gradient and rows·in·out is at least
    AFFINE_PARALLEL_MIN_WORK, the backward pass forms g @ W.T on the worker
    thread while the calling thread forms x.T @ g, under the rule of
    `_two_threads`. Both are the same GEMMs on either schedule, written into
    arrays the calling thread allocated, so the results are bit-identical.
    """
    if x.data.ndim not in (1, 2) or W.data.ndim != 2 or (x.shape[-1], *b.shape) != W.shape:
        raise ShapeError(f"affine: need x [.., in], W [in, out], b [out], got {x, W, b}")
    xd, wd = x.data, W.data
    out = Tensor(np.dot(xd, wd) + b.data)

    def bwd(g):
        if xd.ndim == 1:
            return wd @ g, np.outer(xd, g), g
        if x.requires_grad and _two_threads(xd.shape[0] * wd.size, AFFINE_PARALLEL_MIN_WORK):
            d_x, d_w = np.empty_like(xd), np.empty_like(wd)
            _both(lambda: np.matmul(g, wd.T, out=d_x), lambda: np.matmul(xd.T, g, out=d_w), True)
            return d_x, d_w, g.sum(axis=0)
        return g @ wd.T, xd.T @ g, g.sum(axis=0)

    return _record(out, (x, W, b), bwd)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y)

    def bwd(g):
        return (g * (1.0 - y * y),)

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


def attend(queries: Tensor, keys: Tensor, mask) -> tuple[Tensor, np.ndarray]:
    """Masked dot-product attention of each query over its own K keys.

    Row t of `queries` [T, d] scores rows t*K .. t*K+K-1 of `keys` [T*K, d]
    where the boolean `mask` [T, K] is set, normalizes those scores with a
    max-subtracted softmax and mixes the keys with the weights. A row with
    no unmasked key mixes in zeros, and masked keys get exactly zero weight
    and zero gradient. Returns the mix [T, d] as one tape entry and the
    weights [T, K] as a plain array. The backward pass forms no key gradient
    (None) when `keys` needs none.
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
        if not keys.requires_grad:
            return d_queries, None
        d_keys = weights[:, :, None] * g[:, None, :] + d_scores[:, :, None] * q[:, None, :]
        return d_queries, d_keys.reshape(keys.shape)

    return _record(out, (queries, keys), bwd), weights


def _split_lengths(op: str, lengths, rows: int) -> np.ndarray:
    """Checked lengths of the back-to-back sequences that make up `rows`
    rows; None means one sequence of all of them."""
    lengths = np.asarray([rows] if lengths is None else lengths, dtype=np.intp)
    if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1 or lengths.sum() != rows:
        raise ShapeError(f"{op}: lengths {lengths.tolist()} do not split {rows} rows "
                         "into non-empty sequences")
    return lengths


def attention_pool(scores: Tensor, values: Tensor, lengths=None) -> tuple[Tensor, np.ndarray]:
    """Softmax-weighted sum of each segment of rows.

    `lengths` splits the rows of `scores` [N] and `values` [N, P] into
    back-to-back segments (default: one segment of all N). Each segment's
    scores are normalized with a max-subtracted softmax and its rows of
    `values` are mixed with those weights. Returns the pooled rows [B, P]
    as one tape entry and the weights [N] as a plain array.
    """
    if scores.data.ndim != 1 or values.data.ndim != 2 or values.shape[0] != scores.size:
        raise ShapeError(
            "attention_pool: need scores [N] and values [N, P], got "
            f"{scores.shape}, {values.shape}"
        )
    lengths = _split_lengths("attention_pool", lengths, scores.size)
    starts = np.cumsum(lengths) - lengths
    segment = np.repeat(np.arange(lengths.size), lengths)
    s, v = scores.data, values.data
    e = np.exp(s - np.maximum.reduceat(s, starts)[segment])
    weights = e / np.add.reduceat(e, starts)[segment]
    out = Tensor(np.add.reduceat(weights[:, None] * v, starts, axis=0))

    def bwd(g):
        g_rows = g[segment]
        d_weights = np.einsum("np,np->n", v, g_rows)
        centred = d_weights - np.add.reduceat(d_weights * weights, starts)[segment]
        return weights * centred, weights[:, None] * g_rows

    return _record(out, (scores, values), bwd), weights


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


def _sequence_layout(lengths: np.ndarray, reverse: bool):
    """Time-major layout of back-to-back sequences with the given (checked)
    lengths.

    Sequences are sorted by length, longest first (stably), so the ones still
    running at step t are a prefix of those running at t - 1. The layout has
    `batch` rows of zero initial state, then each step's running sequences.
    Returns the packed row that each step row reads, the layout row of every
    row's previous step (a state row is its own) and one (start, previous
    start, count) per step.
    """
    rows, batch = int(lengths.sum()), lengths.size
    order = np.argsort(-lengths, kind="stable")
    lens = lengths[order]
    first = (np.cumsum(lengths) - lengths)[order]
    step = np.arange(lens[0])[:, None]
    running = step < lens
    read = first + (lens - 1 - step if reverse else step)
    at = np.empty((lens[0] + 1, batch), dtype=np.intp)
    at[0] = np.arange(batch)
    at[1:][running] = batch + np.arange(rows)
    counts = running.sum(axis=1)
    starts = (batch + np.cumsum(counts) - counts).tolist()
    blocks = list(zip(starts, [0] + starts[:-1], counts.tolist()))
    return read[running], np.concatenate([at[0], at[:-1][running]]), blocks


def _run_direction(x_all, w, u, bias, lengths, reverse, out):
    """Run one LSTM direction over the packed rows `x_all` [N, in] and write
    its states into `out` [N, H]; returns the BPTT closure, which maps the
    states' gradient [N, H] to (d_xs, dW, dU, db), d_xs None unless its
    `input_grad` argument is true.

    The gates (i, f, g, o) are consecutive H-column blocks of w [in, 4H],
    u [H, 4H] and bias [4H]. Plain arrays in and out, no tape: `bilstm`
    runs two of these, possibly on two threads.
    """
    rows, hidden = x_all.shape[0], u.shape[0]
    read, prev, blocks = _sequence_layout(lengths, reverse)
    batch = blocks[0][2]
    # sigmoid(z) = 0.5 * tanh(z / 2) + 0.5, so one tanh over all four gate
    # blocks of z * half, scaled by half and shifted, gives every activation.
    half = np.full(4 * hidden, 0.5)
    half[2 * hidden : 3 * hidden] = 1.0
    shift = np.where(half == 0.5, 0.5, 0.0)
    x = x_all[read]
    acts = np.zeros((batch + rows, 4 * hidden))
    acts[batch:] = x @ w + bias
    cells = np.zeros((batch + rows, hidden))
    tanh_cells = np.zeros_like(cells)
    states = np.zeros_like(cells)
    for start, before, n in blocks:
        stop = start + n
        a = acts[start:stop]
        a += states[before : before + n] @ u
        a *= half
        np.tanh(a, out=a)
        a *= half
        a += shift
        c = cells[start:stop]
        np.multiply(a[:, hidden : 2 * hidden], cells[before : before + n], out=c)
        c += a[:, :hidden] * a[:, 2 * hidden : 3 * hidden]
        np.tanh(c, out=tanh_cells[start:stop])
        np.multiply(a[:, 3 * hidden :], tanh_cells[start:stop], out=states[start:stop])
    out[read] = states[batch:]

    def bwd(d_out, input_grad):
        i, f, g, o = (acts[:, k * hidden : (k + 1) * hidden] for k in range(4))
        # A step's dz is [dc, dc, dc, dh] times these factors of its rows
        # (product rule, then each activation's slope), formed for all rows.
        slopes = acts * (1.0 - acts)
        slopes[:, 2 * hidden : 3 * hidden] = 1.0 - g * g
        factors = np.stack([g, cells[prev], i, tanh_cells], axis=1)
        factors *= slopes.reshape(-1, 4, hidden)
        state_to_cell = o * (1.0 - tanh_cells * tanh_cells)
        dh = np.zeros_like(cells)
        dh[batch:] = d_out[read]
        dc = np.zeros_like(cells)
        dz = np.zeros((batch + rows, 4, hidden))
        for start, before, n in reversed(blocks):
            stop = start + n
            dh_t, dc_t = dh[start:stop], dc[start:stop]
            dc_t += dh_t * state_to_cell[start:stop]
            np.multiply(dc_t[:, None, :], factors[start:stop, :3], out=dz[start:stop, :3])
            np.multiply(dh_t, factors[start:stop, 3], out=dz[start:stop, 3])
            np.multiply(dc_t, f[start:stop], out=dc[before : before + n])
            dh[before : before + n] += dz[start:stop].reshape(n, 4 * hidden) @ u.T
        dz = dz[batch:].reshape(rows, 4 * hidden)
        d_xs = None
        if input_grad:
            d_xs = np.empty_like(x_all)
            d_xs[read] = dz @ w.T
        return d_xs, x.T @ dz, states[prev[batch:]].T @ dz, dz.sum(axis=0)

    return bwd


# Smallest hidden size at which the two directions run on two threads. Below
# it each step's numpy calls are too short to overlap: the two threads take
# turns holding the interpreter lock instead. Forward plus backward of one
# 40-token sequence, single-thread BLAS, 2-vCPU x86 host, serial -> parallel:
# H=64 6.4 -> 8.1 ms (embed 100), H=80..112 within noise of even, H=128
# 11.5 -> 10.2 ms (embed 100) and 16.1 -> 13.8 ms (embed 300). A 16-sequence
# batch gains from H=64 on, so one sequence sets the bound.
PARALLEL_MIN_HIDDEN = 128

# Smallest rows·in·out at which `affine`'s backward forms its two GEMMs on
# two threads. Below it the hand-off to the worker costs more than the
# second core saves. One backward pass, single-thread BLAS, 2-vCPU x86 host,
# median of 41, serial -> two threads: rows·in·out 1.3e5 30 -> 180 us,
# 2.1e6 300 -> 420 us, 4e6 to 1.8e7 either side of even from run to run,
# 4.05e7 (300x900x150) 6.1 -> 4.7 ms, 5.4e7 (300x600x300) 7.2 -> 5.1 ms.
AFFINE_PARALLEL_MIN_WORK = 1 << 24

# The one worker thread, started on first use.
_worker: ThreadPoolExecutor | None = None
_worker_lock = threading.Lock()


def _forget_worker() -> None:
    """A forked child has no worker thread; it starts its own on first use."""
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _blas_thread_getter():
    """The thread-count getter of the OpenBLAS bundled with numpy, or None
    when there is no such library (numpy built against another BLAS)."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
            "libscipy_openblas64_-*.so")):
        try:
            getter = ctypes.CDLL(str(path)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.argtypes, getter.restype = [], ctypes.c_int
        return getter
    return None


def _blas_threads() -> int | None:
    """How many threads BLAS runs one product on, or None if unknown."""
    getter = _blas_thread_getter()
    return None if getter is None else getter()


def _two_threads(work: int, floor: int) -> bool:
    """The rule every two-thread schedule in `nd` follows: hand half the work
    to the worker thread only when the work is at least `floor`, this
    process may run on two CPUs, and BLAS runs one thread (or its thread
    count is unknown). A multi-threaded BLAS already spreads each product
    over the cores, and a worker would compete with its threads."""
    return work >= floor and _usable_cpus() >= 2 and _blas_threads() in (None, 1)


def _run_directions_in_parallel(hidden: int) -> bool:
    """Whether `bilstm` runs its directions on two threads: directions at
    least PARALLEL_MIN_HIDDEN wide, under the rule of `_two_threads`."""
    return _two_threads(hidden, PARALLEL_MIN_HIDDEN)


def _both(first: Callable, second: Callable, parallel: bool) -> tuple:
    """(first(), second()); in parallel, `first` runs on the worker thread
    while the calling thread runs `second`."""
    if not parallel:
        return first(), second()
    global _worker
    with _worker_lock:
        if _worker is None:
            _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="nd-bilstm")
        pending = _worker.submit(first)
    try:
        other = second()
    finally:
        # Wait for the worker even when this thread failed, so no direction
        # is still running once bilstm returns or raises.
        result = pending.result()
    return result, other


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

    The directions share no state. From H = PARALLEL_MIN_HIDDEN up, under
    the rule of `_two_threads` (two usable CPUs, single-threaded BLAS), the
    forward direction runs on the worker thread while the calling thread
    runs the backward one, in both passes. Each direction does the same
    arithmetic on either schedule, so the results are bit-identical.
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
    parallel = _run_directions_in_parallel(hidden)
    h = np.empty((xs.shape[0], 2 * hidden))

    def run(direction, reverse):
        w, u, bias = (p.data for p in direction)
        columns = h[:, hidden:] if reverse else h[:, :hidden]
        return _run_direction(xs.data, w, u, bias, lengths, reverse, columns)

    fw_bwd, bw_bwd = _both(lambda: run(fw, False), lambda: run(bw, True), parallel)
    out = Tensor(h)

    def bwd(g):
        input_grad = xs.requires_grad
        (d_xs, *d_fw), (d_xs_bw, *d_bw) = _both(
            lambda: fw_bwd(g[:, :hidden], input_grad),
            lambda: bw_bwd(g[:, hidden:], input_grad),
            parallel,
        )
        return (d_xs if d_xs is None else d_xs + d_xs_bw, *d_fw, *d_bw)

    return _record(out, (xs, *fw, *bw), bwd)


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
