"""Deterministic random streams, fanned out per named stage.

Every stochastic piece of the system (each parameter tensor, the shuffle,
each dropout site) draws from its own stream derived from the run seed and
a stage name, so adding or reordering one consumer never shifts another.
"""
from __future__ import annotations

import zlib

import numpy as np


def stage_rng(seed: int, stage: str) -> np.random.Generator:
    """Generator for one named stage of a seeded run."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), zlib.crc32(stage.encode("utf-8"))])
    )


def truncated_normal(rng: np.random.Generator, shape, std: float = 0.1) -> np.ndarray:
    """Normal(0, std) samples redrawn until within two standard deviations.

    Each round redraws the positions still out of range, in C order, and
    checks only the new draws."""
    out = rng.normal(0.0, std, size=shape)
    flat = out.reshape(-1)
    bad = np.flatnonzero(np.abs(flat) > 2.0 * std)
    while bad.size:
        redraw = rng.normal(0.0, std, size=bad.size)
        flat[bad] = redraw
        bad = bad[np.abs(redraw) > 2.0 * std]
    return out
