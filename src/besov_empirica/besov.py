"""Level statistics, the sequence-space sup norm, vanishing-tail
diagnostics, the L^p modulus of continuity, and power-mean comparisons.

The level statistic of a coefficient triangle at level ``j`` is

    L_j = 2**(-j * e(alpha, p)) * (sum_k |c_jk|**p) ** (1/p)

with weight exponent ``e(alpha, p) = alpha + 1/p - 1/2``.  At
``alpha = 1/2`` the weight collapses to ``2**-j`` inside the p-th root,
making ``L_j = (2**-j * sum |c|**p) ** (1/p)`` exactly; the implementation
computes that expression directly so the identity holds bit for bit.

The norm is the sup of the boundary pair magnitudes and all level
statistics.  Membership in the separable (little-o) subspace corresponds
to ``L_j -> 0``; at finite resolution the proxy reported here is the
minimum over the last ``ceil(J/3)`` levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import CoefficientTriangle, DyadicPathValues
from .errors import ParameterError


@dataclass(frozen=True)
class BesovParams:
    """Integrability ``p >= 1`` and smoothness ``alpha`` in (0, 1]."""

    p: float
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "alpha", float(self.alpha))
        if not (self.p >= 1.0 and math.isfinite(self.p)):
            raise ParameterError("p", f"must be >= 1 (got {self.p})")
        if not (0.0 < self.alpha <= 1.0):
            raise ParameterError("alpha", f"must lie in (0, 1] (got {self.alpha})")

    @property
    def weight_exponent(self) -> float:
        """``e(alpha, p) = alpha + 1/p - 1/2``; level weight is 2**(-j*e)."""
        return self.alpha + 1.0 / self.p - 0.5


def _weighted_power_sum_exponent(params: BesovParams) -> float:
    # p * e(alpha, p) arranged as (alpha - 1/2) * p + 1 so that alpha = 1/2
    # yields exactly 1.0 and the level weight inside the root is exactly 2**-j.
    return (params.alpha - 0.5) * params.p + 1.0


def level_statistic(coeffs: CoefficientTriangle, j: int, params: BesovParams) -> float:
    """Weighted per-level l^p statistic ``L_j`` of a triangle."""
    if not 0 <= j <= coeffs.J:
        raise ParameterError("j", f"level must be in [0, {coeffs.J}] (got {j})")
    # Huge coefficients overflow to inf, which ``besov_norm`` reports.
    with np.errstate(over="ignore"):
        power_sum = float(np.sum(np.abs(coeffs.levels[j]) ** params.p))
    weight = 2.0 ** (-j * _weighted_power_sum_exponent(params))
    return (weight * power_sum) ** (1.0 / params.p)


def level_statistics(coeffs: CoefficientTriangle, params: BesovParams) -> np.ndarray:
    """All ``L_j`` for ``j = 0..J`` as one array."""
    return np.array(
        [level_statistic(coeffs, j, params) for j in range(coeffs.J + 1)]
    )


def besov_norm(coeffs: CoefficientTriangle, params: BesovParams) -> float:
    """Sup of ``|mu0|``, ``|mu1|`` and every level statistic; raises
    ``ParameterError`` when it overflows float64."""
    best = max(abs(coeffs.mu0), abs(coeffs.mu1))
    for j in range(coeffs.J + 1):
        best = max(best, level_statistic(coeffs, j, params))
    if not math.isfinite(best):
        raise ParameterError("coeffs", "its Besov norm overflows float64")
    return best


@dataclass(frozen=True)
class LevelProfile:
    """Per-level statistics plus running extremes.

    ``running_sup[j]`` is the sup of ``L_0..L_j``; ``suffix_min[j]`` the
    minimum of ``L_j..L_J``.  The tail window is the last ``ceil(J/3)``
    levels, so ``tail_min == suffix_min[tail_start]``.
    """

    levels: np.ndarray
    running_sup: np.ndarray
    suffix_min: np.ndarray
    tail_start: int

    @property
    def sup(self) -> float:
        return float(self.running_sup[-1])

    @property
    def tail_min(self) -> float:
        return float(self.suffix_min[self.tail_start])


def tail_window_start(J: int) -> int:
    """First level of the finite-resolution tail window (last ceil(J/3))."""
    return J - (-(-J // 3)) + 1


def profile_from_levels(values: np.ndarray, min_levels: int = 7) -> LevelProfile:
    values = np.asarray(values, dtype=np.float64)
    J = len(values) - 1
    if len(values) < min_levels:
        raise ParameterError("J", f"need max level >= {min_levels - 1} for a tail window (got {J})")
    if np.any(~np.isfinite(values)) or np.any(values < 0.0):
        raise ParameterError("levels", "level statistics must be finite and nonnegative")
    running_sup = np.maximum.accumulate(values)
    suffix_min = np.minimum.accumulate(values[::-1])[::-1]
    return LevelProfile(
        levels=values,
        running_sup=running_sup,
        suffix_min=suffix_min,
        tail_start=tail_window_start(J),
    )


def little_o_profile(coeffs: CoefficientTriangle, params: BesovParams) -> LevelProfile:
    """Level statistics with sup and tail-min summaries; needs ``J >= 6``."""
    if coeffs.J < 6:
        raise ParameterError("J", f"need max level >= 6 for a meaningful tail (got {coeffs.J})")
    return profile_from_levels(level_statistics(coeffs, params))


def modulus_of_continuity(
    path: DyadicPathValues, t: float, p: float, grid_refinement: int = 16
) -> float:
    """Approximate ``w_p(f, t)``: the sup over shifts ``0 < h <= t`` of the
    L^p norm of ``f(. - h) - f(.)`` over the overlap ``[h, 1]``.

    The shift grid is ``h = t * i / grid_refinement``; each integral uses
    the composite midpoint rule with ``2**J`` cells and linear
    interpolation of the path between dyadic grid points, which is exact
    for the piecewise-linear paths produced in this package, so the only
    approximation is the h search.
    """
    if path.J < 4:
        raise ParameterError("path", "modulus estimation needs level >= 4")
    if not 0.0 < t < 1.0:
        raise ParameterError("t", f"shift bound must lie in (0, 1) (got {t})")
    if p < 1.0:
        raise ParameterError("p", f"must be >= 1 (got {p})")
    if grid_refinement < 1:
        raise ParameterError("grid_refinement", "need at least one shift value")
    npts = 1 << path.J
    xs = np.arange(npts + 1, dtype=np.float64) / npts
    v = path.values
    best = 0.0
    for i in range(1, grid_refinement + 1):
        h = t * (i / grid_refinement)
        width = (1.0 - h) / npts
        x = h + (np.arange(npts) + 0.5) * width
        diff = np.interp(x - h, xs, v) - np.interp(x, xs, v)
        integral = float(np.sum(np.abs(diff) ** p)) * width
        best = max(best, integral ** (1.0 / p))
    return best


def p_monotonicity_check(coeffs: CoefficientTriangle, p1: float, p2: float) -> bool:
    """Check the power-mean ordering between ``p1 <= p2`` on every level.

    Verifies ``(2**-j sum |c|**p1)**(1/p1) <= (2**-j sum |c|**p2)**(1/p2)``
    level by level, a finite witness that membership statements at ``p2``
    extend down to smaller ``p``.  These are the level statistics at
    ``alpha = 1/2``.  Always true mathematically; a relative slack of 1e-12
    absorbs rounding at near-equality.
    """
    if not 1.0 <= p1 <= p2:
        raise ParameterError("p1", f"need 1 <= p1 <= p2 (got p1={p1}, p2={p2})")
    low, high = BesovParams(p=p1, alpha=0.5), BesovParams(p=p2, alpha=0.5)
    for j in range(coeffs.J + 1):
        m1, m2 = level_statistic(coeffs, j, low), level_statistic(coeffs, j, high)
        if m1 > m2 * (1.0 + 1e-12) + 1e-300:
            return False
    return True
