"""Central-difference verification of tape gradients."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .autodiff import Tape, Tensor

EPS = 1e-5  # the central-difference step


@dataclass
class GradCheckReport:
    """Worst-case agreement between analytic and numeric gradients."""

    max_rel_err: float
    per_param: dict[str, float]
    worst_param: str
    worst_index: tuple[int, ...]
    analytic_at_worst: float
    numeric_at_worst: float

    def ok(self, tol: float = 1e-3) -> bool:
        return self.max_rel_err < tol


def relative_error(g_ad: float, g_fd: float) -> float:
    """|g_ad - g_fd| over their combined magnitude, floored at 1e-8."""
    return abs(g_ad - g_fd) / max(1e-8, abs(g_ad) + abs(g_fd))


def grad_check(
    loss_fn: Callable[[dict[str, Tensor]], Tensor],
    params: dict[str, Tensor],
) -> GradCheckReport:
    """Compare tape gradients of `loss_fn` against central differences.

    `loss_fn` must build a scalar loss from the given parameter dict and be
    deterministic, so the two perturbed evaluations per coordinate differ
    only through the perturbation.
    """
    names = list(params)
    with Tape() as tape:
        loss = loss_fn(params)
    analytic = dict(zip(names, tape.gradients(loss, [params[n] for n in names])))

    worst = (-1.0, "", (), 0.0, 0.0)
    per_param: dict[str, float] = {}
    for name in names:
        base = params[name].data
        g_ad = analytic[name]
        worst_here = 0.0
        for idx in np.ndindex(base.shape):
            bumped = base.copy()
            bumped[idx] = base[idx] + EPS
            plus = loss_fn({**params, name: Tensor(bumped)}).item()
            bumped[idx] = base[idx] - EPS
            minus = loss_fn({**params, name: Tensor(bumped)}).item()
            g_fd = (plus - minus) / (2.0 * EPS)
            err = relative_error(float(g_ad[idx]), g_fd)
            worst_here = max(worst_here, err)
            if err > worst[0]:
                worst = (err, name, idx, float(g_ad[idx]), g_fd)
        per_param[name] = worst_here
    return GradCheckReport(worst[0], per_param, worst[1], worst[2], worst[3], worst[4])
