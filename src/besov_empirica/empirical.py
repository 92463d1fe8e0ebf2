"""Empirical distribution functions, their continuous version, and the
dyadic coefficients of the associated empirical processes.

The step function ``F(s)`` is the fraction of sample points ``<= s``
(right continuous).  Its continuous version interpolates linearly through
the nodes ``((U_k + U_{k+1}) / 2, k / n)`` for ``k = 1..n-1`` plus the
boundary nodes (0, 0) and (1, 1); the two functions are uniformly within
``1/n`` of each other, and that supremum is computed exactly here.

Both processes have their dyadic coefficients from one per-level cell
reduction, ``level_cells``: a level-``j`` coefficient is ``2**(j/2)/sqrt(n)``
times a cell value, the integer score sum for the step process (+1 per
observation in the cell's left half, -1 in its right half).  It reads
samples as the integers ``k`` of the ``k / 2**53`` lattice that
``sampling.uniform_samples`` draws.  The batched chunk kernels of
``montecarlo`` sum its output; ``empirical_coefficients``, the one place
where a float sample becomes a lattice, scatters it into a triangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import CoefficientTriangle
# Reference-only: no code path here calls it; it stays importable from this
# module because perfbench/tracing.py wraps it as this module's attribute.
from .dyadic import extract_coefficients  # noqa: F401
from .errors import ParameterError
from .sampling import LATTICE_BITS, EmpiricalSample


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


# Reference-only, called by no code path: the per-sample form of the step values
# of ``level_cells`` for the tests, resolved by name by perfbench/tracing.py.
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
    """The factor ``2**(j/2) / sqrt(n)`` from a cell value to its coefficient."""
    return 2.0 ** (0.5 * j) / math.sqrt(n)


def level_cells(lattice: np.ndarray, J: int, source: str):
    """The occupied cells of levels ``0..J``, samples stacked one replicate a row.

    ``lattice`` is a ``(count, n)`` int64 matrix of sorted samples ``k``, each
    standing for ``k / 2**53``.  Yields, level by level, ``(first, cells,
    values)``: every row's occupied cell indices in row order, their values,
    and where in ``cells`` each row starts.  A cell's coefficient is its value
    times ``step_coefficient_scale(j, n)``; other cells are 0.  The points
    (knots) of a row that share a cell form a run, summed by
    ``np.add.reduceat``: O(count * n) per level, each run and row on its own.

    ``"step"``: the integer score sum ``S``.  The lattice is the finest grid:
    a point's level-``j`` cell is ``k >> (53 - j)``, its half the next bit.
    ``"continuous"``: ``n * d``, ``d = 2 F(mid) - F(l) - F(r)``, nonzero only
    on cells holding a knot ``(U_i + U_{i+1}) / 2`` of ``continuous_ecdf``.
    With fewer cells than sample points it is read from ``n * F`` at the
    cell's three points (knots below a point plus its fraction of a
    segment), elsewhere from the tent sum ``-sum_i n * D_i * min(x_i - l, r -
    x_i)`` (``D_i`` the slope jump at knot ``x_i``): each form where its
    terms do not cancel.  Knots are the float midpoints, ``fl(k_i + k_{i+1})``
    in units of ``2**-54``; they, the gaps and tent heights are exact integers.
    """
    count, n = lattice.shape
    if source == "step":
        bits, fine = LATTICE_BITS, lattice
    else:
        # Knots in units of 2**-54: int64 -> float64 rounds k_i + k_{i+1} as
        # the float sum of two draws does.
        bits = LATTICE_BITS + 1
        fine = (lattice[:, :-1] + lattice[:, 1:]).astype(np.float64).astype(np.int64)
        ends = np.zeros((count, 1), dtype=np.int64)
        nodes = np.concatenate((ends, fine, ends + (1 << bits)), axis=1)
        gaps = np.diff(nodes, axis=1)
        # -n * D_i = 1/gap_{i-1} - 1/gap_i, with no cancellation.
        jump = ((gaps[:, 1:] - gaps[:, :-1]) / (gaps[:, :-1] * gaps[:, 1:].astype(np.float64))).ravel()
        nodes, gaps = nodes.ravel(), gaps.ravel()
    m, fine = fine.shape[1], fine.ravel()
    row_starts = np.arange(0, count * m, m)
    new_run = np.empty(count * m, dtype=bool)
    for j in range(J + 1):
        shift = bits - j
        half = 1 << (shift - 1)
        cell = fine >> shift
        np.not_equal(cell[1:], cell[:-1], out=new_run[1:])
        # Every row starts a run (row_starts[0] = 0 starts the first).
        new_run[row_starts] = True
        runs = np.flatnonzero(new_run)
        occupied = cell[runs]
        if source == "step":
            # +1 in a cell's left half, -1 in its right half.
            values = np.add.reduceat(1 - 2 * ((fine >> (shift - 1)) & 1), runs)
        elif 1 << j < n:
            # n * F at the cell's three points.  A run starting at within-row
            # knot p of row r covers nodes p + 1 .. p + size; node p + i is
            # nodes[runs + 2r + i] and the gap after it gaps[runs + r + i].
            row = runs // m
            size = np.diff(runs, append=count * m)
            left = np.add.reduceat(1 - ((fine >> (shift - 1)) & 1), runs)
            lo = occupied << shift

            def fraction(point, i):
                return (point - nodes[runs + 2 * row + i]) / gaps[runs + row + i]

            values = (2 * left - size) + (
                2.0 * fraction(lo + half, left) - fraction(lo, 0) - fraction(lo + 2 * half, size)
            )
        else:
            offset = fine & (2 * half - 1)
            values = np.add.reduceat(jump * np.minimum(offset, 2 * half - offset), runs)
        yield np.searchsorted(runs, row_starts), occupied, values


def empirical_coefficients(
    sample: EmpiricalSample, J: int, source: str = "step"
) -> CoefficientTriangle:
    """Dyadic coefficients of the empirical process up to level ``J``.

    The occupied cells of ``level_cells`` scattered into a zero triangle:
    ``source="step"`` scales the integer score sums, ``source="continuous"``
    the second differences ``n * d`` of the continuous version, which must
    be drawn on the ``k / 2**53`` lattice for its knots to be exact.  The
    sample becomes that lattice here: ``floor(u * 2**53)`` is exact for any
    double, so the step source bins as ``halfcell_counts`` does.  Both
    boundary coefficients vanish because the process is 0 at 0 and 1.
    """
    if sample.n < 2:
        raise ParameterError("n", "need a sample of size >= 2")
    if J < 1:
        raise ParameterError("J", f"need max level >= 1 (got {J})")
    if source not in ("step", "continuous"):
        raise ParameterError("source", f"unknown coefficient source {source!r}")
    fraction, lattice = np.modf(sample.sorted_values * float(1 << LATTICE_BITS))
    if source == "continuous" and np.any(fraction):
        raise ParameterError("sample", "the continuous source needs values on the k / 2**53 lattice")
    lattice = lattice.astype(np.int64)[np.newaxis]
    levels = []
    for j, (_, cells, values) in enumerate(level_cells(lattice, J, source)):
        level = np.zeros(1 << j)
        level[cells] = values * step_coefficient_scale(j, sample.n)
        levels.append(level)
    return CoefficientTriangle(J=J, mu0=0.0, mu1=0.0, levels=tuple(levels))
