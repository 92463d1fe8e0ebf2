import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from besov_empirica.dyadic import DyadicPathValues, extract_coefficients
from besov_empirica.empirical import (
    continuous_ecdf,
    continuous_ecdf_eval,
    ecdf_eval,
    empirical_coefficients,
    empirical_process_eval,
    halfcell_counts,
    signed_sums_by_level,
    step_coefficient_scale,
    sup_distance,
)
from besov_empirica.errors import ParameterError
from besov_empirica.sampling import SeedSpec, order_statistics, sample_uniform

from conftest import exact_cell_values, z_indicator


def _seeded_sample(i):
    return sample_uniform(40, SeedSpec(17, i, 0)).sorted_values


def _seeded_examples(test):
    """Pin the ten seeded samples at ``J = 5`` as examples of ``test``."""
    for i in range(10):
        test = example(values=_seeded_sample(i), J=5)(test)
    return test


@pytest.fixture
def four_points():
    return order_statistics([0.1, 0.2, 0.6, 0.8])


class TestStepEcdf:
    def test_below_first_order_statistic(self, four_points):
        assert ecdf_eval(four_points, 0.05) == 0.0

    def test_at_or_above_last(self, four_points):
        assert ecdf_eval(four_points, 0.8) == 1.0
        assert ecdf_eval(four_points, 0.95) == 1.0

    def test_midpoint_count(self, four_points):
        assert ecdf_eval(four_points, 0.5) == 0.5

    def test_right_continuous_closed_at_sample_point(self, four_points):
        # The (-infinity, s] convention counts the observation at s itself.
        assert ecdf_eval(four_points, 0.2) == 0.5

    def test_rejects_outside_unit_interval(self, four_points):
        with pytest.raises(ParameterError):
            ecdf_eval(four_points, 1.5)


class TestContinuousEcdf:
    def test_nodes_are_midpoints(self):
        smp = order_statistics([0.2, 0.4, 0.8])
        ecdf = continuous_ecdf(smp)
        np.testing.assert_allclose(ecdf.xs, [0.0, 0.3, 0.6, 1.0])
        np.testing.assert_allclose(ecdf.ys, [0.0, 1 / 3, 2 / 3, 1.0])

    def test_value_at_midpoint_node(self, rng):
        smp = sample_uniform(50, SeedSpec(1, 0, 0))
        ecdf = continuous_ecdf(smp)
        u = smp.sorted_values
        for k in (1, 10, 49):
            m = (u[k - 1] + u[k]) / 2
            assert continuous_ecdf_eval(ecdf, m) == pytest.approx(k / 50, abs=1e-15)

    def test_boundaries(self):
        ecdf = continuous_ecdf(order_statistics([0.2, 0.4, 0.8]))
        assert continuous_ecdf_eval(ecdf, 0.0) == 0.0
        assert continuous_ecdf_eval(ecdf, 1.0) == 1.0

    def test_hand_interpolation(self):
        # Nodes (0.3, 1/3) and (0.6, 2/3); s = 0.45 sits halfway.
        ecdf = continuous_ecdf(order_statistics([0.2, 0.4, 0.8]))
        assert continuous_ecdf_eval(ecdf, 0.45) == pytest.approx(0.5, abs=1e-15)

    def test_needs_two_points(self):
        with pytest.raises(ParameterError):
            continuous_ecdf(order_statistics([0.5]))

    def test_monotone_and_continuous_at_nodes(self):
        smp = sample_uniform(200, SeedSpec(3, 0, 0))
        ecdf = continuous_ecdf(smp)
        assert np.all(np.diff(ecdf.xs) > 0)
        assert np.all(np.diff(ecdf.ys) >= 0)
        values = continuous_ecdf_eval(ecdf, ecdf.xs)
        np.testing.assert_allclose(values, ecdf.ys, atol=1e-15)


class TestSupDistance:
    def test_ten_points_within_tenth(self):
        for i in range(5):
            smp = sample_uniform(10, SeedSpec(7, i, 0))
            assert sup_distance(continuous_ecdf(smp)) <= 0.1

    def test_two_point_exact_quarter(self):
        # Sample (1/4, 3/4) makes the continuous version the identity, so
        # the distance to the two-step CDF is exactly 1/4.
        smp = order_statistics([0.25, 0.75])
        ecdf = continuous_ecdf(smp)
        np.testing.assert_allclose(
            continuous_ecdf_eval(ecdf, [0.1, 0.5, 0.9]), [0.1, 0.5, 0.9], atol=1e-15
        )
        assert sup_distance(ecdf) == 0.25

    def test_thousand_points(self):
        smp = sample_uniform(1000, SeedSpec(11, 0, 0))
        assert sup_distance(continuous_ecdf(smp)) <= 1e-3

    def test_bound_holds_across_sizes(self):
        for i, n in enumerate([2, 3, 10, 100, 1000]):
            smp = sample_uniform(n, SeedSpec(13, i, 0))
            assert sup_distance(continuous_ecdf(smp)) <= 1.0 / n


class TestProcessEval:
    @pytest.mark.parametrize("version", ["step", "continuous"])
    def test_vanishes_at_endpoints(self, four_points, version):
        assert empirical_process_eval(four_points, 0.0, version) == 0.0
        assert empirical_process_eval(four_points, 1.0, version) == 0.0

    def test_step_value(self, four_points):
        assert empirical_process_eval(four_points, 0.5, "step") == 0.0

    def test_unknown_version(self, four_points):
        with pytest.raises(ParameterError):
            empirical_process_eval(four_points, 0.5, "smooth")


class TestZIndicator:
    def test_left_half(self):
        assert z_indicator(0.1, 1, 1) == 1

    def test_right_half(self):
        assert z_indicator(0.3, 1, 1) == -1

    def test_outside(self):
        assert z_indicator(0.7, 1, 1) == 0

    def test_half_open_edges(self):
        assert z_indicator(0.0, 1, 1) == 1  # closed left edge
        assert z_indicator(0.25, 1, 1) == -1  # midpoint starts the right half
        assert z_indicator(0.5, 1, 1) == 0  # right edge belongs to the next cell
        assert z_indicator(0.5, 1, 2) == 1

    def test_cell_index_range(self):
        with pytest.raises(ParameterError):
            z_indicator(0.5, 2, 5)
        with pytest.raises(ParameterError):
            z_indicator(0.5, 2, 0)

    def test_cell_law(self):
        # Frequencies of {+1, -1, 0} approach (2**-(j+1), 2**-(j+1), 1 - 2**-j)
        # and the score variance approaches 2**-j.
        j, k, n = 3, 5, 200_000
        u = sample_uniform(n, SeedSpec(5, 0, 0)).sorted_values
        z = np.array([z_indicator(x, j, k) for x in u])
        p_half = 2.0 ** -(j + 1)
        assert np.mean(z == 1) == pytest.approx(p_half, abs=4 * math.sqrt(p_half / n))
        assert np.mean(z == -1) == pytest.approx(p_half, abs=4 * math.sqrt(p_half / n))
        assert np.mean(z == 0) == pytest.approx(1 - 2.0**-j, abs=4 * math.sqrt(2.0**-j / n))
        assert z.var() == pytest.approx(2.0**-j, rel=0.05)


class TestEmpiricalCoefficients:
    def test_all_points_in_right_half(self):
        n = 16
        values = 0.5 + (np.arange(n) + 0.5) / (2 * n)  # inside [1/2, 1)
        smp = order_statistics(values)
        tri = empirical_coefficients(smp, 4, source="step")
        assert tri.levels[0][0] == pytest.approx(-math.sqrt(n), rel=1e-14)

    def test_two_point_cancellation(self):
        smp = order_statistics([0.1, 0.3])
        tri = empirical_coefficients(smp, 1, source="step")
        assert tri.levels[1][0] == 0.0  # +1 and -1 scores cancel in cell (1, 1)

    def test_boundary_coefficients_vanish(self):
        smp = sample_uniform(50, SeedSpec(2, 0, 0))
        for source in ("step", "continuous"):
            tri = empirical_coefficients(smp, 6, source=source)
            assert tri.mu0 == 0.0
            assert tri.mu1 == 0.0

    @settings(max_examples=40)
    @given(
        values=st.one_of(
            st.integers(0, 9).map(_seeded_sample),
            st.lists(
                st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
                # The double just below a level-23 point: rounding instead of
                # flooring would bin it in the next cell.
                | st.integers(1, 2**23 - 1).map(lambda k: math.nextafter(k / 2**23, 0.0)),
                min_size=2, max_size=12, unique=True,
            ),
        ),
        J=st.integers(1, 23),
    )
    # Doubles below 2**-53 floor to lattice point 0, the largest below 1 to
    # 2**53 - 1; the smallest subnormal is 2**-1074.
    @example(
        values=[2.0**-1074, 2.0**-60, 0.75 * 2.0**-53, math.nextafter(0.25, 0.0), 0.5,
                1 - 2.0**-53],
        J=23,
    )
    @_seeded_examples
    def test_step_matches_brute_force_scores_bitwise(self, values, J):
        # Independent oracles: per-point signed indicator sums and the dense
        # half-cell counts of ``halfcell_counts``, then the same scaling
        # expression.  Equality is exact, not approximate: the float sample
        # becomes a lattice in ``empirical_coefficients``, and its floor must
        # bin every double as ``floor(u * 2**(J+1))`` does.
        smp = order_statistics(values)
        tri = empirical_coefficients(smp, J, source="step")
        sums = signed_sums_by_level(halfcell_counts(smp, J), J)
        for j in range(J + 1):
            scale = step_coefficient_scale(j, smp.n)
            assert tri.levels[j].tobytes() == (sums[j] * scale).tobytes(), j
            # A cell holding no point scores 0, so the nonzero cells must be
            # among the occupied ones, and each occupied one must score as
            # the indicators sum.
            occupied = {math.floor(Fraction(u) * (1 << j)) + 1 for u in smp.sorted_values}
            assert set((np.flatnonzero(tri.levels[j]) + 1).tolist()) <= occupied
            for k in occupied:
                score = sum(z_indicator(u, j, k) for u in smp.sorted_values)
                assert tri.levels[j][k - 1] == float(score) * scale

    def test_scores_match_count_second_differences_exactly(self):
        # The score sum of cell (j, k) equals the integer second difference
        # 2*N(mid) - N(left) - N(right) of the counting function N(t) = #{u <= t}.
        J = 6
        smp = sample_uniform(100, SeedSpec(19, 0, 0))
        sums = signed_sums_by_level(halfcell_counts(smp, J), J)
        u = smp.sorted_values
        for j in range(J + 1):
            cell = 1 << j
            for k in range(1, cell + 1):
                left = np.searchsorted(u, (k - 1) / cell, side="right")
                mid = np.searchsorted(u, (2 * k - 1) / (2 * cell), side="right")
                right = np.searchsorted(u, k / cell, side="right")
                assert sums[j][k - 1] == 2 * int(mid) - int(left) - int(right)

    def test_step_matches_second_differences_of_step_cdf(self):
        # Scaled check against sqrt(n) * second differences of the step CDF
        # sampled on the dyadic grid.
        J = 6
        smp = sample_uniform(75, SeedSpec(23, 0, 0))
        m = 1 << (J + 1)
        t = np.arange(m + 1) / m
        cdf_path = DyadicPathValues(J=J + 1, values=ecdf_eval(smp, t))
        oracle = extract_coefficients(cdf_path)
        tri = empirical_coefficients(smp, J, source="step")
        for j in range(J + 1):
            np.testing.assert_allclose(
                tri.levels[j],
                math.sqrt(smp.n) * oracle.levels[j],
                rtol=1e-12,
                atol=1e-12 * math.sqrt(smp.n),
            )

    def test_continuous_source_discrepancy_bound(self):
        # Level-j entries of the two sources differ by at most
        # 4 * 2**(j/2) * sqrt(n) * sup|F_cont - F_step|.
        J = 8
        for i in range(5):
            smp = sample_uniform(60, SeedSpec(29, i, 0))
            sup = sup_distance(continuous_ecdf(smp))
            step = empirical_coefficients(smp, J, source="step")
            cont = empirical_coefficients(smp, J, source="continuous")
            for j in range(J + 1):
                gap = np.max(np.abs(step.levels[j] - cont.levels[j]))
                bound = 4.0 * 2.0 ** (0.5 * j) * math.sqrt(smp.n) * sup
                assert gap <= bound * (1 + 1e-9) + 1e-12
                assert gap <= 4.0 * 2.0 ** (0.5 * j) / math.sqrt(smp.n) * (1 + 1e-9)

    @pytest.mark.parametrize("n", [2, 3, 5, 20, 100])
    def test_continuous_signed_coefficients_match_rational_arithmetic(self, n):
        # Exact zeros off the knots' cells; elsewhere c = n * d * 2**(j/2) /
        # sqrt(n), with n * d off by a few eps (the CDF form's rounding).
        J = 8
        for i in range(5):
            smp = sample_uniform(n, SeedSpec(31, i, 0))
            tri = empirical_coefficients(smp, J, source="continuous")
            for j, level in enumerate(exact_cell_values(smp, J)):
                scale = step_coefficient_scale(j, n)
                for k, nd in enumerate(level):
                    want = float(nd) * scale
                    got = tri.levels[j][k]
                    assert abs(got - want) <= 1e-12 * abs(want) + 2.0**-46 * scale, (i, j, k)
                    assert (got == 0) == (nd == 0), (i, j, k)

    def test_continuous_level_statistics_match_rational_arithmetic(self):
        # A dense grid rounds sqrt(n) (F(t) - t) before the second difference
        # and missed these by up to 5e-8 relative.  Level 0 of seed 38 (one
        # knot 3.6e-5 from 1/2, statistic 1e-8) is the worst here: 1.3e-12.
        for seed in range(40):
            smp = sample_uniform(2, SeedSpec(seed, 0, 0))
            tri = empirical_coefficients(smp, 12, source="continuous")
            for j, level in enumerate(exact_cell_values(smp, 12)):
                exact = sum(v * v for v in level) / 2
                got = float(np.sum(tri.levels[j] ** 2)) / (1 << j)
                assert abs(Fraction(got) - exact) <= 1e-11 * exact, (seed, j)

    def test_continuous_rejects_values_off_the_lattice(self):
        # Knots of such values are not multiples of 2**-54, so the sparse
        # cells would be wrong; the step source bins any double exactly.
        smp = order_statistics([1e-17, 2e-17, 0.5])
        with pytest.raises(ParameterError) as err:
            empirical_coefficients(smp, 2, source="continuous")
        assert err.value.key == "sample"
        tri = empirical_coefficients(smp, 2, source="step")
        assert tri.levels[0][0] == 1 / math.sqrt(3)  # scores +1, +1, -1

    def test_validation(self):
        smp = sample_uniform(10, SeedSpec(1, 0, 0))
        with pytest.raises(ParameterError):
            empirical_coefficients(smp, 0, source="step")
        with pytest.raises(ParameterError):
            empirical_coefficients(smp, 4, source="smoothed")
