import numpy as np
import pytest

from besov_empirica.besov import (
    BesovParams,
    besov_norm,
    level_statistic,
    level_statistics,
    little_o_profile,
    modulus_of_continuity,
    p_monotonicity_check,
    profile_from_levels,
    tail_window_start,
)
from besov_empirica.dyadic import CoefficientTriangle, DyadicPathValues, dyadic_grid, scale_triangle
from besov_empirica.errors import ParameterError
from besov_empirica.gaussian import brownian_motion
from besov_empirica.sampling import SeedSpec

from conftest import random_triangle


def constant_level_triangle(J, value):
    return CoefficientTriangle(
        J=J, mu0=0.0, mu1=0.0, levels=tuple(np.full(1 << j, value) for j in range(J + 1))
    )


def add_triangles(a, b):
    return CoefficientTriangle(
        J=a.J,
        mu0=a.mu0 + b.mu0,
        mu1=a.mu1 + b.mu1,
        levels=tuple(a.levels[j] + b.levels[j] for j in range(a.J + 1)),
    )


class TestParams:
    def test_rejects_small_p(self):
        with pytest.raises(ParameterError):
            BesovParams(p=0.5, alpha=0.5)

    def test_rejects_alpha_out_of_range(self):
        with pytest.raises(ParameterError):
            BesovParams(p=2.0, alpha=0.0)
        with pytest.raises(ParameterError):
            BesovParams(p=2.0, alpha=1.5)

    def test_weight_exponent(self):
        assert BesovParams(p=2.0, alpha=0.5).weight_exponent == 0.5
        assert BesovParams(p=1.0, alpha=0.5).weight_exponent == pytest.approx(1.0)


class TestLevelStatistic:
    def test_all_ones_is_one(self):
        tri = constant_level_triangle(6, 1.0)
        params = BesovParams(p=2.0, alpha=0.5)
        for j in range(7):
            assert level_statistic(tri, j, params) == 1.0

    def test_zero_level(self):
        tri = constant_level_triangle(4, 0.0)
        assert level_statistic(tri, 3, BesovParams(2.0, 0.5)) == 0.0

    def test_weighted_l1_mean(self):
        tri = CoefficientTriangle(
            J=2,
            mu0=0.0,
            mu1=0.0,
            levels=(np.zeros(1), np.zeros(2), np.array([1.0, -1.0, 2.0, 0.0])),
        )
        assert level_statistic(tri, 2, BesovParams(p=1.0, alpha=0.5)) == 1.0

    def test_out_of_range(self, rng):
        with pytest.raises(ParameterError):
            level_statistic(random_triangle(rng, 3), 4, BesovParams(2.0, 0.5))

    def test_half_alpha_anchor_bitwise(self, rng):
        # At alpha = 1/2 the statistic is exactly (2**-j sum |c|**p)**(1/p),
        # computed with the same floating-point operations.
        tri = random_triangle(rng, 8)
        for p in (1.0, 2.0, 3.0, 4.5):
            params = BesovParams(p=p, alpha=0.5)
            for j in range(9):
                direct = (2.0**-j * float(np.sum(np.abs(tri.levels[j]) ** p))) ** (1.0 / p)
                assert level_statistic(tri, j, params) == direct


class TestNorm:
    def test_zero_triangle(self):
        assert besov_norm(constant_level_triangle(5, 0.0), BesovParams(2.0, 0.5)) == 0.0

    def test_boundary_dominates(self):
        tri = CoefficientTriangle(
            J=1, mu0=5.0, mu1=0.0, levels=(np.array([1e-3]), np.array([1e-3, 1e-3]))
        )
        assert besov_norm(tri, BesovParams(2.0, 0.5)) == 5.0

    def test_homogeneity(self, rng):
        params = BesovParams(p=2.0, alpha=0.5)
        for _ in range(200):
            tri = random_triangle(rng, 5)
            c = float(rng.normal() * 3.0)
            scaled = besov_norm(scale_triangle(tri, c), params)
            assert scaled == pytest.approx(abs(c) * besov_norm(tri, params), rel=1e-12)

    def test_triangle_inequality(self, rng):
        params = BesovParams(p=2.0, alpha=0.5)
        for _ in range(200):
            a = random_triangle(rng, 5)
            b = random_triangle(rng, 5)
            lhs = besov_norm(add_triangles(a, b), params)
            rhs = besov_norm(a, params) + besov_norm(b, params)
            assert lhs <= rhs * (1 + 1e-12)

    def test_truncation_monotonicity(self, rng):
        tri = random_triangle(rng, 8)
        params = BesovParams(p=2.0, alpha=0.5)
        sups = np.maximum.accumulate(level_statistics(tri, params))
        assert np.all(np.diff(sups) >= 0)
        partial_norms = [
            besov_norm(
                CoefficientTriangle(J=J, mu0=tri.mu0, mu1=tri.mu1, levels=tri.levels[: J + 1]),
                params,
            )
            for J in range(9)
        ]
        assert np.all(np.diff(partial_norms) >= 0)


class TestProfile:
    def test_geometric_decay_tail(self):
        for J in (9, 12):
            levels = 2.0 ** -np.arange(J + 1)
            profile = profile_from_levels(levels)
            assert profile.tail_min < 0.01
            assert profile.tail_min == levels[-1]

    def test_all_ones(self):
        tri = constant_level_triangle(8, 1.0)
        profile = little_o_profile(tri, BesovParams(2.0, 0.5))
        assert profile.sup == 1.0
        assert profile.tail_min == 1.0
        assert np.all(profile.levels == 1.0)

    def test_tail_window(self):
        assert tail_window_start(14) == 10  # last ceil(14/3) = 5 levels
        assert tail_window_start(9) == 7
        assert tail_window_start(6) == 5

    def test_running_and_suffix(self, rng):
        tri = random_triangle(rng, 9)
        profile = little_o_profile(tri, BesovParams(2.0, 0.5))
        assert profile.sup == profile.levels.max()
        assert profile.tail_min == profile.levels[profile.tail_start :].min()
        assert np.all(np.diff(profile.running_sup) >= 0)
        assert np.all(np.diff(profile.suffix_min) >= 0)

    def test_needs_enough_levels(self, rng):
        with pytest.raises(ParameterError):
            little_o_profile(random_triangle(rng, 5), BesovParams(2.0, 0.5))


class TestModulus:
    def test_constant_path(self):
        path = DyadicPathValues(J=5, values=np.full(33, 2.5))
        for p in (1.0, 2.0):
            for t in (0.05, 0.3):
                assert modulus_of_continuity(path, t, p) == 0.0

    def test_identity_path_closed_form(self):
        # f(x) = x, p = 1: integral over [h, 1] of h is h*(1-h), maximal on
        # the shift grid at h = t.
        grid = dyadic_grid(8)
        path = DyadicPathValues(J=8, values=grid.copy())
        w = modulus_of_continuity(path, 0.1, 1.0, grid_refinement=10)
        assert w == pytest.approx(0.09, rel=1e-12)

    def test_monotone_on_nested_shift_grids(self):
        # Doubling t together with the refinement keeps the shift grid
        # nested, so the estimate cannot decrease.
        path = brownian_motion(8, SeedSpec(3, 0, 1)).path
        w1 = modulus_of_continuity(path, 0.05, 2.0, grid_refinement=8)
        w2 = modulus_of_continuity(path, 0.1, 2.0, grid_refinement=16)
        assert w1 <= w2

    def test_monotone_generic(self):
        path = brownian_motion(8, SeedSpec(4, 0, 1)).path
        values = [
            modulus_of_continuity(path, t, 2.0, grid_refinement=32)
            for t in (0.02, 0.05, 0.1, 0.2)
        ]
        for a, b in zip(values, values[1:]):
            assert a <= b * (1 + 1e-9)

    def test_refinement_stability_on_brownian_path(self):
        path = brownian_motion(10, SeedSpec(5, 0, 1)).path
        t = 1.0 / 16.0
        coarse = modulus_of_continuity(path, t, 2.0, grid_refinement=16)
        fine = modulus_of_continuity(path, t, 2.0, grid_refinement=32)
        assert abs(fine - coarse) <= 0.05 * fine

    def test_validation(self):
        path = DyadicPathValues(J=5, values=np.zeros(33))
        with pytest.raises(ParameterError):
            modulus_of_continuity(path, 0.0, 1.0)
        with pytest.raises(ParameterError):
            modulus_of_continuity(path, 0.1, 0.5)
        with pytest.raises(ParameterError):
            modulus_of_continuity(DyadicPathValues(J=3, values=np.zeros(9)), 0.1, 1.0)


class TestPMonotonicity:
    def test_equal_exponents(self, rng):
        assert p_monotonicity_check(random_triangle(rng, 4), 2.0, 2.0)

    def test_hand_example(self):
        tri = CoefficientTriangle(
            J=2,
            mu0=0.0,
            mu1=0.0,
            levels=(np.zeros(1), np.zeros(2), np.array([1.0, -1.0, 2.0, 0.0])),
        )
        # level means: 1 at p=1 versus sqrt(6)/2 ~ 1.2247 at p=2
        assert p_monotonicity_check(tri, 1.0, 2.0)

    def test_thousand_random_instances(self, rng):
        for _ in range(1000):
            tri = random_triangle(rng, int(rng.integers(2, 6)))
            assert p_monotonicity_check(tri, 1.0, 2.0)

    def test_varied_exponent_pairs(self, rng):
        for _ in range(200):
            p1 = float(rng.uniform(1.0, 3.0))
            p2 = p1 + float(rng.uniform(0.0, 3.0))
            assert p_monotonicity_check(random_triangle(rng, 4), p1, p2)

    def test_rejects_descending_pair(self, rng):
        with pytest.raises(ParameterError):
            p_monotonicity_check(random_triangle(rng, 3), 2.0, 1.0)
