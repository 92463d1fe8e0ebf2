import csv

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
