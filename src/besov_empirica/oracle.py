"""Exact moments of the signed half-cell statistics, in closed form.

At level ``j`` there are ``K = 2**j`` cells of two equiprobable halves.
Each of ``n`` sample points adds +1, -1 or 0 to the score sum ``S_k`` of
cell ``k``, with probabilities ``1/2K``, ``1/2K`` and ``1 - 1/K``.  With
``H_k = S_k**2`` and ``G_k = (K / n) * H_k``, in exact rational arithmetic:

    E[H] = n/K,  E[H**2] = n/K + 3n(n-1)/K**2,  E[H_k H_k'] = n(n-1)/K**2,
    Var(G),  E[sum_k G_k] = K,  Var(sum_k G_k) = 2K(1 - 1/n),

and ``P(|2**-j sum_k G_k - 1| >= 1/2)`` from the exact integer law of
``sum_k S_k**2``.  The tests pin every value to an enumeration of outcomes.

The concentration bound is calibrated to a nominal variance
``Var(sum_k G_k) = 2**(2j) * eps(n, j)`` with ``eps = (3 - 3/n) / 2**j``,
above the exact value (leading constant 3 rather than 2).  Reports flag
the gap at every level; the nominal value upper-bounds the exact one, so
the Chebyshev argument built on it stays valid.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError

#: Cap on the labeled outcomes ``(2**(j+1))**n`` of an instance: it sets which
#: report levels carry an oracle block, since the closed forms need no cap.
MAX_OUTCOMES = 20_000_000


@dataclass(frozen=True)
class OracleMoments:
    """Exact rational moments for one ``(n, j)`` instance."""

    n: int
    j: int
    e_h: Fraction
    e_h2: Fraction
    var_g: Fraction
    e_hh: Fraction | None
    e_sum_g: Fraction
    var_sum_g: Fraction
    prob_deviation_ge_half: Fraction

    @property
    def epsilon(self) -> Fraction:
        """``(3 - 3/n) / 2**j``, the concentration rate behind the bound."""
        return Fraction(3 * (self.n - 1), self.n * (1 << self.j))

    @property
    def nominal_var_sum_g(self) -> Fraction:
        """``2**(2j) * epsilon``, the variance the bound is calibrated to."""
        return nominal_sum_variance(self.n, self.j)

    @property
    def var_sum_g_matches_nominal(self) -> bool:
        return self.var_sum_g == self.nominal_var_sum_g

    def as_dict(self) -> dict:
        def frac(x):
            return None if x is None else {"fraction": str(x), "value": float(x)}

        return {
            "n": self.n,
            "j": self.j,
            "e_h": frac(self.e_h),
            "e_h2": frac(self.e_h2),
            "var_g": frac(self.var_g),
            "e_hh": frac(self.e_hh),
            "e_sum_g": frac(self.e_sum_g),
            "var_sum_g": frac(self.var_sum_g),
            "prob_deviation_ge_half": frac(self.prob_deviation_ge_half),
            "nominal_var_sum_g": frac(self.nominal_var_sum_g),
            "var_sum_g_matches_nominal": self.var_sum_g_matches_nominal,
        }


def _level_law(n: int, j: int) -> Counter:
    """Value of ``sum_k S_k**2`` -> how many of the ``(2**(j+1))**n`` labeled
    outcomes give it, by binomial splitting; ``law[m]`` is the law of ``m`` points.

    One cell holding ``m`` points has ``S = 2b - m`` in ``C(m, b)`` ways (``b``
    and ``m - b`` give one ``S**2``, so their ways add).  Doubling the cells,
    the first half holds ``a`` points in ``C(m, a)`` ways and the sums add.
    """
    law = []
    for m in range(n + 1):
        one = Counter()
        for b in range(m + 1):
            one[(2 * b - m) ** 2] += math.comb(m, b)
        law.append(one)
    for _ in range(j):
        doubled = []
        for m in range(n + 1):
            both = Counter()
            for a in range(m + 1):
                ways = math.comb(m, a)
                for x, count_x in law[a].items():
                    for y, count_y in law[m - a].items():
                        both[x + y] += ways * count_x * count_y
            doubled.append(both)
        law = doubled
    assert sum(law[n].values()) == (2 << j) ** n
    return law[n]


def enumeration_oracle(n: int, j: int) -> OracleMoments:
    """Exact moments for ``n`` points over the level-``j`` half cells (named
    for the enumeration of outcomes the tests check it against)."""
    if n < 1:
        raise ParameterError("n", f"need n >= 1 (got {n})")
    if j < 0:
        raise ParameterError("j", f"need j >= 0 (got {j})")
    if not oracle_applicable(n, j):
        raise ParameterError(
            "n", f"instance too large: (2**{j + 1})**{n} outcomes exceed {MAX_OUTCOMES}"
        )
    cells = 1 << j
    e_h = Fraction(n, cells)
    e_h2 = e_h + Fraction(3 * n * (n - 1), cells * cells)
    # |2**-j * sum G - 1| >= 1/2  <=>  2*sum_h <= n or 2*sum_h >= 3n
    law = _level_law(n, j)
    deviating = sum(count for v, count in law.items() if 2 * v <= n or 2 * v >= 3 * n)
    return OracleMoments(
        n=n,
        j=j,
        e_h=e_h,
        e_h2=e_h2,
        var_g=Fraction(cells, n) ** 2 * (e_h2 - e_h**2),
        e_hh=Fraction(n * (n - 1), cells * cells) if cells >= 2 else None,
        e_sum_g=Fraction(cells),
        var_sum_g=sum_variance(n, j),
        prob_deviation_ge_half=Fraction(deviating, (2 * cells) ** n),
    )


def sum_variance(n: int, j: int) -> Fraction:
    """``Var(sum_k G_k) = 2**(j+1) (1 - 1/n)``, exact for every ``n`` and ``j``."""
    return (2 << j) * (1 - Fraction(1, n))


def nominal_sum_variance(n: int, j: int) -> Fraction:
    """``2**(2j) * (3 - 3/n) / 2**j = 3 * 2**j (1 - 1/n)``, the calibration of the bound."""
    return (3 << j) * (1 - Fraction(1, n))


def oracle_applicable(n: int, j: int) -> bool:
    return n >= 1 and j >= 0 and (1 << (j + 1)) ** n <= MAX_OUTCOMES
