import math

import numpy as np
import pytest
from scipy import stats

from besov_empirica.dyadic import DyadicPathValues, extract_coefficients
from besov_empirica.errors import ParameterError
from besov_empirica.gaussian import GaussianPath, brownian_bridge, brownian_motion
from besov_empirica.sampling import SeedSpec

SEED = 42


def _motions(J, count, master=SEED):
    return [brownian_motion(J, SeedSpec(master, r, 1)) for r in range(count)]


class TestBrownianMotion:
    def test_starts_at_zero(self):
        for r in range(20):
            gp = brownian_motion(6, SeedSpec(SEED, r, 1))
            assert gp.path.values[0] == 0.0

    def test_deterministic_per_seed(self):
        a = brownian_motion(8, SeedSpec(SEED, 3, 1))
        b = brownian_motion(8, SeedSpec(SEED, 3, 1))
        np.testing.assert_array_equal(a.path.values, b.path.values)

    def test_level_bounds(self):
        with pytest.raises(ParameterError):
            brownian_motion(0, SeedSpec(SEED))
        with pytest.raises(ParameterError):
            brownian_motion(25, SeedSpec(SEED))

    def test_terminal_variance(self):
        w1 = np.array([gp.path.values[-1] for gp in _motions(3, 10_000)])
        assert 0.94 <= w1.var(ddof=1) <= 1.06

    def test_extraction_recovers_draws(self):
        gp = brownian_motion(10, SeedSpec(SEED, 0, 1))
        ext = extract_coefficients(gp.path)
        assert ext.mu0 == 0.0
        assert ext.mu1 == pytest.approx(gp.triangle.mu1, rel=1e-12)
        for j in range(10):
            np.testing.assert_allclose(
                ext.levels[j], gp.triangle.levels[j], rtol=1e-12, atol=1e-12
            )

    def test_extracted_cell_moments(self):
        # Coefficient (j, k) = (3, 5) across replicates: standard normal.
        g = np.array(
            [
                extract_coefficients(gp.path).levels[3][4]
                for gp in _motions(4, 10_000)
            ]
        )
        assert abs(g.mean()) <= 0.03
        assert 0.94 <= g.var(ddof=1) <= 1.06

    def test_extracted_coefficient_normality_ks(self):
        g = np.array([gp.triangle.levels[3][4] for gp in _motions(4, 10_000)])
        assert stats.kstest(g, "norm").pvalue > 0.01

    def test_independence_proxy(self):
        reps = _motions(5, 10_000)
        a = np.array([gp.triangle.levels[3][1] for gp in reps])
        b = np.array([gp.triangle.levels[3][6] for gp in reps])
        c = np.array([gp.triangle.levels[4][2] for gp in reps])
        bound = 3.0 / math.sqrt(len(reps))
        assert abs(np.corrcoef(a, b)[0, 1]) <= bound
        assert abs(np.corrcoef(a, c)[0, 1]) <= bound
        assert abs(np.corrcoef(b, c)[0, 1]) <= bound

    def test_increment_variance_scaling(self):
        # Var(W(1/2)) = 1/2 within Monte Carlo tolerance.
        mid = np.array([gp.path.values[(1 << 3) // 2] for gp in _motions(3, 10_000)])
        assert mid.var(ddof=1) == pytest.approx(0.5, rel=0.1)


class TestBrownianBridge:
    def test_tied_down(self):
        for r in range(20):
            br = brownian_bridge(brownian_motion(6, SeedSpec(SEED, r, 1)))
            assert br.path.values[0] == 0.0
            assert br.path.values[-1] == 0.0

    def test_direct_formula(self):
        # W(0) = 0, W(1/2) = 1.3, W(1) = 2 gives b(1/2) = 0.3.
        values = np.array([0.0, 1.3, 2.0])
        motion = GaussianPath(
            kind="motion",
            path=DyadicPathValues(J=1, values=values),
            seed=SeedSpec(SEED),
            triangle=extract_coefficients(DyadicPathValues(J=1, values=values)),
        )
        br = brownian_bridge(motion)
        assert br.path.values[1] == pytest.approx(0.3, abs=1e-15)

    def test_requires_motion(self):
        br = brownian_bridge(brownian_motion(5, SeedSpec(SEED, 0, 1)))
        with pytest.raises(ParameterError):
            brownian_bridge(br)

    def test_shares_synthesis_triangle_exactly(self):
        motion = brownian_motion(9, SeedSpec(SEED, 7, 1))
        br = brownian_bridge(motion)
        assert br.triangle.mu0 == 0.0 and br.triangle.mu1 == 0.0
        for j in range(9):
            np.testing.assert_array_equal(br.triangle.levels[j], motion.triangle.levels[j])

    def test_extracted_levels_match_motion_to_rounding(self):
        # Second differences annihilate the subtracted line t * W(1); in
        # floating point the agreement is at rounding-noise scale.
        motion = brownian_motion(9, SeedSpec(SEED, 11, 1))
        br = brownian_bridge(motion)
        em = extract_coefficients(motion.path)
        eb = extract_coefficients(br.path)
        span = np.max(np.abs(motion.path.values)) + 1.0
        for j in range(9):
            atol = 2.0 ** (0.5 * j) * 64 * np.finfo(float).eps * span
            np.testing.assert_allclose(eb.levels[j], em.levels[j], atol=atol, rtol=0)


class TestGaussianCoefficients:
    def test_affine_path_has_zero_levels(self):
        values = 2.0 * np.arange(9) / 8.0
        gp = GaussianPath(
            kind="motion",
            path=DyadicPathValues(J=3, values=values),
            seed=SeedSpec(SEED),
            triangle=extract_coefficients(DyadicPathValues(J=3, values=values)),
        )
        tri = extract_coefficients(gp.path)
        for lev in tri.levels:
            assert np.max(np.abs(lev)) <= 1e-14


class TestLevelStatisticLaw:
    def test_roynette_band_pooled_frequency(self):
        # (2**-j sum g**2)**(1/2) in [0.9, 1.1], pooled over j = 8..12 and
        # replicates, with frequency at least 99 percent.
        R = 10_000
        hits = 0
        total = 0
        for r in range(R):
            tri = brownian_motion(13, SeedSpec(SEED, r, 1)).triangle
            for j in range(8, 13):
                stat = math.sqrt(float(np.sum(tri.levels[j] ** 2)) / (1 << j))
                hits += 0.9 <= stat <= 1.1
                total += 1
        assert hits / total >= 0.99
