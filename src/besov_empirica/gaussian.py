"""Brownian motion and bridge on dyadic grids via midpoint displacement.

Synthesis is coefficient first: the level coefficients are drawn i.i.d.
standard normal, the value at 1 is a further standard normal draw, and the
path is rebuilt by midpoint refinement.  The added midpoint term at level
``j`` has variance ``2**-j / 4``, exactly the conditional variance of a
Brownian midpoint given its endpoints, so the grid marginals are exactly
Brownian and the drawn coefficients are the path's true second-difference
coefficients by construction.

The bridge subtracts the line ``t * W(1)``; second differences annihilate
affine functions, so a bridge shares its level coefficients with the
motion that generated it (the synthesis triangle carries that identity
exactly; re-extraction from floating-point path values reproduces it to
rounding noise).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import CoefficientTriangle, DyadicPathValues, reconstruct_path
from .errors import ParameterError
from .sampling import GAUSSIAN_STREAM, SeedSpec, sample_gaussian

#: Synthesis cap: 2**J + 1 path values must stay desk-scale.
MAX_SYNTH_LEVEL = 24

KIND_MOTION = "motion"
KIND_BRIDGE = "bridge"


@dataclass(frozen=True)
class GaussianPath:
    """A synthesized Gaussian path plus the exact triangle that built it."""

    kind: str
    path: DyadicPathValues
    seed: SeedSpec
    triangle: CoefficientTriangle

    def __post_init__(self):
        if self.kind not in (KIND_MOTION, KIND_BRIDGE):
            raise ParameterError("kind", f"unknown path kind {self.kind!r}")


def _gaussian_seed(seed: SeedSpec) -> SeedSpec:
    if seed.substream_label != GAUSSIAN_STREAM:
        return SeedSpec(seed.master_seed, seed.stream_index, GAUSSIAN_STREAM)
    return seed


def brownian_motion(J: int, seed: SeedSpec) -> GaussianPath:
    """Brownian values on the level-``J`` dyadic grid, ``1 <= J <= 24``.

    Draw layout: one vector of ``2**J`` standard normals per stream; entry
    0 is W(1), entries ``[2**j, 2**(j+1))`` are level ``j`` for
    ``j = 0..J-1``.
    """
    if not (1 <= J <= MAX_SYNTH_LEVEL):
        raise ParameterError("J", f"synthesis level must be in [1, {MAX_SYNTH_LEVEL}] (got {J})")
    seed = _gaussian_seed(seed)
    draws = sample_gaussian(1 << J, seed)
    levels = tuple(draws[1 << j : 1 << (j + 1)] for j in range(J))
    triangle = CoefficientTriangle(J=J - 1, mu0=0.0, mu1=float(draws[0]), levels=levels)
    return GaussianPath(
        kind=KIND_MOTION, path=reconstruct_path(triangle), seed=seed, triangle=triangle
    )


def brownian_bridge(motion: GaussianPath) -> GaussianPath:
    """Tie down a motion: ``b(t) = W(t) - t * W(1)`` on the same grid."""
    if motion.kind != KIND_MOTION:
        raise ParameterError("kind", "bridge construction needs a motion path")
    values = motion.path.values
    n = 1 << motion.path.J
    t = np.arange(n + 1, dtype=np.float64) / n
    bridged = values - t * values[-1]
    triangle = CoefficientTriangle(
        J=motion.triangle.J, mu0=0.0, mu1=0.0, levels=motion.triangle.levels
    )
    return GaussianPath(
        kind=KIND_BRIDGE,
        path=DyadicPathValues(J=motion.path.J, values=bridged),
        seed=motion.seed,
        triangle=triangle,
    )
