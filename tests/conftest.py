import bisect
import csv
import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from besov_empirica.errors import ParameterError
from besov_empirica.oracle import OracleMoments

settings.register_profile(
    "repo",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repo")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_triangle(rng, J, scale=1.0):
    """Random coefficient triangle used across property tests."""
    from besov_empirica.dyadic import CoefficientTriangle

    return CoefficientTriangle(
        J=J,
        mu0=float(rng.normal() * scale),
        mu1=float(rng.normal() * scale),
        levels=tuple(rng.normal(size=1 << j) * scale for j in range(J + 1)),
    )


def z_indicator(u: float, j: int, k: int) -> int:
    """Signed half-cell indicator for the level-``j`` cell ``k``.

    +1 on ``[(k-1)/2**j, (k-1/2)/2**j)``, -1 on ``[(k-1/2)/2**j, k/2**j)``,
    0 elsewhere; interval ends are half open exactly as written.  The
    reference the closed-form step coefficients are tested against.
    """
    if not 1 <= k <= (1 << j):
        raise ParameterError("k", f"cell index must be in [1, 2**{j}] (got {k})")
    cell = 1 << j
    left = (k - 1) / cell
    mid = (2 * k - 1) / (2 * cell)
    right = k / cell
    if left <= u < mid:
        return 1
    if mid <= u < right:
        return -1
    return 0


class ReachedDraws(Exception):
    """Raised in place of a run's first chunk: every pre-draw check passed."""


def reach_draws(name, cfg):
    """A ``montecarlo.run_chunked`` stand-in that stops a run at its first draw."""
    raise ReachedDraws(name)


def read_report_csv(path) -> list:
    """Any CSV the CLI emits, as a list of row dicts."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def exact_cell_values(sample, J):
    """``n * d`` for every cell of levels ``0..J`` of the continuous version.

    ``d = 2 F(mid) - F(l) - F(r)`` in rational arithmetic, ``F`` interpolating
    the nodes of ``continuous_ecdf`` read as exact fractions.  ``F`` is affine
    on a cell with no knot inside, so only cells holding a knot are evaluated.
    """
    from besov_empirica.empirical import continuous_ecdf

    n = sample.n
    xs = [Fraction(x) for x in continuous_ecdf(sample).xs]

    def cdf(t):
        i = bisect.bisect_right(xs, t) - 1
        return Fraction(1) if i == n else (i + (t - xs[i]) / (xs[i + 1] - xs[i])) / n

    out = []
    for j in range(J + 1):
        cells = 1 << j
        level = [Fraction(0)] * cells
        for k in {math.floor(x * cells) for x in xs[1:-1]}:
            mid, left, right = Fraction(2 * k + 1, 2 * cells), Fraction(k, cells), Fraction(k + 1, cells)
            level[k] = n * (2 * cdf(mid) - cdf(left) - cdf(right))
        out.append(level)
    return out


def dense_continuous_coefficients(sample, J):
    """The continuous version's coefficients from a dense grid.

    The process ``sqrt(n) (F(t) - t)`` is interpolated at the ``2**(J+1) + 1``
    points of level ``J + 1`` and second-differenced by
    ``extract_coefficients``.  An independent reference for the sparse cells
    of ``level_cells``; it rounds each grid value before the difference, so it
    is off by a few ``eps * sqrt(n)`` per value.
    """
    from besov_empirica.dyadic import DyadicPathValues, extract_coefficients
    from besov_empirica.empirical import continuous_ecdf

    ecdf = continuous_ecdf(sample)
    m = 1 << (J + 1)
    t = np.arange(m + 1, dtype=np.float64) / m
    alpha = math.sqrt(sample.n) * (np.interp(t, ecdf.xs, ecdf.ys) - t)
    return extract_coefficients(DyadicPathValues(J=J + 1, values=alpha))


def _compositions(total: int, parts: int):
    """All nonnegative integer vectors of length ``parts`` summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


@functools.lru_cache(maxsize=None)
def grouped_reference(n: int, j: int) -> OracleMoments:
    """Exact moments for ``n`` points over the level-``j`` half cells, by
    enumeration: the reference the closed-form oracle is tested against.

    Assignments of points to the ``2**(j+1)`` half cells are enumerated as
    count vectors weighted by multinomial coefficients, which groups the
    ``(2**(j+1))**n`` equiprobable labeled outcomes without approximation.
    """
    m = 1 << (j + 1)
    cells = 1 << j
    factorials = [math.factorial(i) for i in range(n + 1)]
    n_fact = factorials[n]

    w_total = 0
    w_h = 0
    w_h2 = 0
    w_hh = 0
    w_sum_h = 0
    w_sum_h_sq = 0
    w_dev = 0
    for counts in _compositions(n, m):
        weight = n_fact
        for c in counts:
            weight //= factorials[c]
        s0 = counts[0] - counts[1]
        h0 = s0 * s0
        sum_h = sum(
            (counts[2 * k] - counts[2 * k + 1]) ** 2 for k in range(cells)
        )
        w_total += weight
        w_h += weight * h0
        w_h2 += weight * h0 * h0
        if cells >= 2:
            h1 = (counts[2] - counts[3]) ** 2
            w_hh += weight * h0 * h1
        w_sum_h += weight * sum_h
        w_sum_h_sq += weight * sum_h * sum_h
        # |2**-j * sum G - 1| >= 1/2  <=>  2*sum_h <= n or 2*sum_h >= 3n
        if 2 * sum_h <= n or 2 * sum_h >= 3 * n:
            w_dev += weight
    assert w_total == m**n

    e_h = Fraction(w_h, w_total)
    e_h2 = Fraction(w_h2, w_total)
    g_scale = Fraction(1 << j, n)
    e_sum_h = Fraction(w_sum_h, w_total)
    e_sum_h_sq = Fraction(w_sum_h_sq, w_total)
    return OracleMoments(
        n=n,
        j=j,
        e_h=e_h,
        e_h2=e_h2,
        var_g=g_scale**2 * (e_h2 - e_h**2),
        e_hh=Fraction(w_hh, w_total) if cells >= 2 else None,
        e_sum_g=g_scale * e_sum_h,
        var_sum_g=g_scale**2 * (e_sum_h_sq - e_sum_h**2),
        prob_deviation_ge_half=Fraction(w_dev, w_total),
    )
