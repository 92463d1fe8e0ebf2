"""Empirical distribution functions, their continuous version, and the
dyadic coefficients of the associated empirical processes.

The step function ``F(s)`` is the fraction of sample points ``<= s``
(right continuous).  Its continuous version interpolates linearly through
the nodes ``((U_k + U_{k+1}) / 2, k / n)`` for ``k = 1..n-1`` plus the
boundary nodes (0, 0) and (1, 1); the two functions are uniformly within
``1/n`` of each other, and that supremum is computed exactly here.

Coefficients of the step empirical process come from signed half-cell
counts: splitting the level-``j`` cell ``[(k-1)/2**j, k/2**j)`` at its
midpoint, each observation scores +1 in the left half, -1 in the right
half, 0 outside, and the coefficient is ``2**(j/2)/sqrt(n)`` times the
total score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import CoefficientTriangle, DyadicPathValues, extract_coefficients
from .errors import ParameterError
from .sampling import EmpiricalSample


def _check_unit_interval(s) -> np.ndarray:
    arr = np.asarray(s, dtype=np.float64)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ParameterError("s", "evaluation points must lie in [0, 1]")
    return arr


def ecdf_eval(sample: EmpiricalSample, s):
    """Step empirical CDF at ``s`` (scalar or array), right continuous."""
    arr = _check_unit_interval(s)
    counts = np.searchsorted(sample.sorted_values, arr, side="right")
    out = counts / sample.n
    return float(out) if np.isscalar(s) or arr.ndim == 0 else out


@dataclass(frozen=True)
class ContinuousEcdf:
    """Piecewise-linear version of the step CDF of a sample of size >= 2.

    ``xs``/``ys`` hold the interpolation nodes: (0, 0), then the midpoints
    of consecutive order statistics carrying heights ``k / n``, then (1, 1).
    """

    sample: EmpiricalSample
    xs: np.ndarray
    ys: np.ndarray


def continuous_ecdf(sample: EmpiricalSample) -> ContinuousEcdf:
    n = sample.n
    if n < 2:
        raise ParameterError("n", "the continuous version needs a sample of size >= 2")
    u = sample.sorted_values
    xs = np.empty(n + 1, dtype=np.float64)
    xs[0] = 0.0
    xs[1:n] = (u[:-1] + u[1:]) / 2.0
    xs[n] = 1.0
    ys = np.arange(n + 1, dtype=np.float64) / n
    for arr in (xs, ys):
        arr.setflags(write=False)
    return ContinuousEcdf(sample=sample, xs=xs, ys=ys)


def continuous_ecdf_eval(ecdf: ContinuousEcdf, s):
    """Continuous-version CDF at ``s`` (scalar or array)."""
    arr = _check_unit_interval(s)
    out = np.interp(arr, ecdf.xs, ecdf.ys)
    return float(out) if np.isscalar(s) or arr.ndim == 0 else out


def sup_distance(ecdf: ContinuousEcdf) -> float:
    """Exact ``sup |F_continuous - F_step|`` over [0, 1].

    Both functions are affine between consecutive breakpoints (the node
    abscissae together with the jump points), so the supremum is attained
    at a breakpoint, evaluating the step function from both sides at
    jumps.  The result never exceeds ``1/n``.
    """
    u = ecdf.sample.sorted_values
    n = ecdf.sample.n
    bp = np.unique(np.concatenate((ecdf.xs, u)))
    fn = np.interp(bp, ecdf.xs, ecdf.ys)
    step_right = np.searchsorted(u, bp, side="right") / n
    step_left = np.searchsorted(u, bp, side="left") / n
    return float(
        max(np.abs(fn - step_right).max(), np.abs(fn - step_left).max())
    )


def empirical_process_eval(sample: EmpiricalSample, s, version: str = "step"):
    """``sqrt(n) * (F(s) - s)`` for the step or continuous CDF version."""
    arr = _check_unit_interval(s)
    if version == "step":
        cdf = ecdf_eval(sample, arr)
    elif version == "continuous":
        cdf = continuous_ecdf_eval(continuous_ecdf(sample), arr)
    else:
        raise ParameterError("version", f"unknown CDF version {version!r}")
    out = math.sqrt(sample.n) * (np.asarray(cdf) - arr)
    return float(out) if np.isscalar(s) or arr.ndim == 0 else out


def halfcell_counts(sample: EmpiricalSample, J: int) -> np.ndarray:
    """Observation counts in the half-open intervals of width ``2**-(J+1)``.

    These are the half cells of level ``J``; pairwise sums give every
    coarser resolution, so one pass serves all levels ``j <= J``.
    """
    m = 1 << (J + 1)
    edges = np.arange(m + 1, dtype=np.float64) / m
    cum = np.searchsorted(sample.sorted_values, edges, side="left")
    return np.diff(cum).astype(np.int64)


def signed_sums_by_level(counts: np.ndarray, J: int) -> list:
    """Per-level signed half-cell sums ``S[j][k-1]`` from the finest counts.

    ``S[j][k-1]`` is the integer score sum over the sample for cell
    ``(j, k)``; it equals left-half count minus right-half count.
    """
    sums = [None] * (J + 1)
    c = counts
    for j in range(J, -1, -1):
        sums[j] = c[0::2] - c[1::2]
        c = c[0::2] + c[1::2]
    return sums


def step_coefficient_scale(j: int, n: int) -> float:
    """The factor ``2**(j/2) / sqrt(n)`` multiplying integer score sums."""
    return 2.0 ** (0.5 * j) / math.sqrt(n)


def empirical_coefficients(
    sample: EmpiricalSample, J: int, source: str = "step"
) -> CoefficientTriangle:
    """Dyadic coefficients of the empirical process up to level ``J``.

    ``source="step"`` uses the closed form: integer signed half-cell
    counts scaled by ``2**(j/2)/sqrt(n)``, one pass per level.
    ``source="continuous"`` samples the continuous-version process at the
    level-``J+1`` dyadic points and extracts second differences.  Both
    boundary coefficients vanish because the process is 0 at 0 and 1.
    """
    if sample.n < 2:
        raise ParameterError("n", "need a sample of size >= 2")
    if J < 1:
        raise ParameterError("J", f"need max level >= 1 (got {J})")
    if source == "step":
        sums = signed_sums_by_level(halfcell_counts(sample, J), J)
        levels = tuple(
            sums[j].astype(np.float64) * step_coefficient_scale(j, sample.n)
            for j in range(J + 1)
        )
        return CoefficientTriangle(J=J, mu0=0.0, mu1=0.0, levels=levels)
    if source == "continuous":
        ecdf = continuous_ecdf(sample)
        m = 1 << (J + 1)
        t = np.arange(m + 1, dtype=np.float64) / m
        alpha = math.sqrt(sample.n) * (np.interp(t, ecdf.xs, ecdf.ys) - t)
        return extract_coefficients(DyadicPathValues(J=J + 1, values=alpha))
    raise ParameterError("source", f"unknown coefficient source {source!r}")
