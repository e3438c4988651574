"""Adam optimizer over named parameter dicts, its state in three flat arenas.

`AdamState` owns one contiguous float64 vector each for the parameters it
updates and for their first and second moments, and every tensor is a
shaped view into its arena. A step walks each tensor in blocks of BLOCK
elements, so all the elementwise passes over a block run while it is in
cache instead of streaming the whole parameter set through memory once per
pass. The first step reads the caller's tensors and fills fresh arenas;
later steps update the arenas in place. A step returns fresh `Tensor`
objects that view the parameter arena: the caller's initial parameters are
never written, but each step overwrites the tensors that the previous step
on the same state returned.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import autodiff
from .autodiff import Tensor

# Elements per block. A steady-state step on the 2.08M paper-dims (M2)
# trainable values, 2-vCPU Xeon with 2 MB of L2 per core, single-thread
# BLAS: on one thread 4,096 30 ms, 8,192 to 65,536 24-27 ms, whole-tensor
# passes 38 ms; split over two threads (medians of 42) 20-22.6 ms at
# 16,384 and 15-20 ms at 65,536, where each thread takes the interpreter
# lock a quarter as often.
BLOCK = 65_536


@dataclass
class AdamState:
    """First/second moment accumulators, the shared step counter and the
    arenas (parameters, m, v) that hold them after the first step.

    `m[name]` and `v[name]` are shaped views into their arenas, and
    `slots[name]` is the tensor's place in all three. The first step fixes
    which tensors the state holds.
    """

    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict, init=False)
    v: dict[str, np.ndarray] = field(default_factory=dict, init=False)
    arenas: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(default=None, init=False)
    slots: dict[str, slice] = field(default_factory=dict, init=False)


def _checked_gradients(params, grads, state: AdamState) -> dict[str, np.ndarray]:
    """The gradients as float64 arrays, once every one fits its parameter and
    the state; raises ValueError naming the first tensor that does not."""
    checked = {}
    for name, grad in grads.items():
        g = np.asarray(grad, dtype=np.float64)
        shape = params[name].shape
        if g.shape != shape:
            raise ValueError(f"gradient for '{name}' has shape {g.shape}, parameter is {shape}")
        if state.arenas is not None and (name not in state.m or state.m[name].shape != shape):
            raise ValueError(f"optimizer state holds no {shape} tensor '{name}'")
        checked[name] = g
    return checked


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float = 0.001,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[dict[str, Tensor], AdamState]:
    """One bias-corrected Adam update (Kingma & Ba, arXiv:1412.6980) for
    every parameter named in `grads`; returns the new parameters and
    `state`, advanced in place.

    Per element, with c1 = 1 - beta1**t and c2 = 1 - beta2**t:
    m = beta1·m + (1-beta1)·g, v = beta2·v + ((1-beta2)·g)·g and
    p - (lr·(m/c1)) / (sqrt(v/c2) + eps), the moments starting from 0.0.

    The tensors are walked in blocks of BLOCK elements. From 2·BLOCK values
    up, under the rule of `autodiff._two_threads` (two usable CPUs,
    single-threaded BLAS), the blocks are cut into two runs of nearly equal
    element counts, and the worker thread updates one run while the calling
    thread updates the other, each with its own scratch. Every element gets
    the same arithmetic on either schedule, so the results are bit-identical.

    Every gradient's shape is checked before anything is written. The new
    parameters are fresh tensors viewing the state's parameter arena;
    parameters without a gradient entry are carried over as the same
    objects. The caller's initial parameters are never written, but this
    step overwrites the tensors that the previous step on `state` returned.
    """
    checked = _checked_gradients(params, grads, state)
    first = state.arenas is None
    if first:
        total = 0
        for name, g in checked.items():
            state.slots[name] = slice(total, total + g.size)
            total += g.size
        state.arenas = tuple(np.empty(total) for _ in range(3))
        for name, g in checked.items():
            state.m[name] = state.arenas[1][state.slots[name]].reshape(g.shape)
            state.v[name] = state.arenas[2][state.slots[name]].reshape(g.shape)
    t = state.t + 1
    c1, c2 = 1.0 - beta1**t, 1.0 - beta2**t
    # What the first step adds to (1-beta)·g: beta·0.0, as the moments start at 0.0.
    m0, v0 = beta1 * 0.0, beta2 * 0.0
    p_arena, m_arena, v_arena = state.arenas
    pieces = []
    for name, grad in checked.items():
        g, source = grad.reshape(-1), params[name].data.reshape(-1)
        start = state.slots[name].start
        pieces += [(g[lo : lo + BLOCK], source[lo : lo + BLOCK],
                    slice(start + lo, start + min(lo + BLOCK, g.size)))
                   for lo in range(0, g.size, BLOCK)]

    def update(run, scratch, step):
        for gb, pb, at in run:
            a, b = scratch[: gb.size], step[: gb.size]
            m, v = m_arena[at], v_arena[at]
            np.multiply(gb, 1.0 - beta1, out=a)
            if first:
                np.add(a, m0, out=m)
            else:
                m *= beta1
                m += a
            np.multiply(gb, 1.0 - beta2, out=a)
            a *= gb
            if first:
                np.add(a, v0, out=v)
            else:
                v *= beta2
                v += a
            np.divide(v, c2, out=a)
            np.sqrt(a, out=a)
            a += eps
            np.divide(m, c1, out=b)
            b *= lr
            b /= a
            np.subtract(pb, b, out=p_arena[at])

    # Two runs of nearly equal element counts, cut between pieces; on the
    # serial schedule they run one after the other with the same scratch.
    sizes = [gb.size for gb, _, _ in pieces]
    ends = list(itertools.accumulate(sizes, initial=0))
    cut = min(range(len(ends)), key=lambda i: abs(2 * ends[i] - ends[-1]))
    parallel = autodiff._two_threads(ends[-1], 2 * BLOCK)
    scratch = np.empty((4 if parallel else 2, max(sizes, default=0)))
    autodiff._both(
        lambda: update(pieces[:cut], scratch[0], scratch[1]),
        lambda: update(pieces[cut:], scratch[-2], scratch[-1]),
        parallel,
    )
    new_params = dict(params)
    for name, grad in checked.items():
        new_params[name] = Tensor(
            p_arena[state.slots[name]].reshape(grad.shape),
            requires_grad=params[name].requires_grad,
        )
    state.t = t
    return new_params, state
