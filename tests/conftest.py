import bisect
import csv
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from besov_empirica.errors import ParameterError

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
