from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from besov_empirica.errors import ParameterError
from besov_empirica.oracle import enumeration_oracle, oracle_applicable

from conftest import grouped_reference

#: Every instance the oracle accepts at levels 0..4: n <= 24, 12, 8, 6, 4.
REFERENCE_INSTANCES = [(n, j) for j in range(5) for n in range(1, 25) if oracle_applicable(n, j)]


def labeled_brute_force(n, j):
    """Independent oracle: enumerate all labeled assignments of n points to
    the 2**(j+1) equiprobable half cells and average exactly."""
    m = 1 << (j + 1)
    cells = 1 << j
    acc = {"h": 0, "h2": 0, "hh": 0, "sum_h": 0, "sum_h_sq": 0, "dev": 0, "total": 0}
    for assign in product(range(m), repeat=n):
        counts = [0] * m
        for a in assign:
            counts[a] += 1
        h = [(counts[2 * k] - counts[2 * k + 1]) ** 2 for k in range(cells)]
        sum_h = sum(h)
        acc["total"] += 1
        acc["h"] += h[0]
        acc["h2"] += h[0] * h[0]
        if cells >= 2:
            acc["hh"] += h[0] * h[1]
        acc["sum_h"] += sum_h
        acc["sum_h_sq"] += sum_h * sum_h
        acc["dev"] += 2 * sum_h <= n or 2 * sum_h >= 3 * n
    return acc


class TestMomentIdentities:
    # The identities hold for the enumeration, not just for the formulas.
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_first_moment_identity(self, n, j):
        assert grouped_reference(n, j).e_h == Fraction(n, 1 << j)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("j", [1, 2])
    def test_cross_moment_identity(self, n, j):
        assert grouped_reference(n, j).e_hh == Fraction(n * (n - 1), 1 << (2 * j))

    def test_example_values(self):
        om = grouped_reference(3, 1)
        assert om.e_h == Fraction(3, 2)
        assert om.e_hh == Fraction(3, 2)

    def test_mean_of_normalized_sum_is_one(self):
        for n, j in [(2, 1), (3, 1), (4, 2)]:
            om = grouped_reference(n, j)
            assert om.e_sum_g == 1 << j


class TestNominalVarianceMismatch:
    def test_two_points_level_one(self):
        om = enumeration_oracle(2, 1)
        assert om.var_sum_g == 2
        assert om.nominal_var_sum_g == 3
        assert not om.var_sum_g_matches_nominal

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_closed_form_for_sum_variance(self, n, j):
        # Independent derivation frozen here: Var(sum_k G_k) = 2**(j+1) * (1 - 1/n),
        # checked on the enumeration.
        om = grouped_reference(n, j)
        assert om.var_sum_g == Fraction(1 << (j + 1)) * (1 - Fraction(1, n))
        assert om.nominal_var_sum_g == Fraction(3 * (1 << j)) * (1 - Fraction(1, n))
        assert not om.var_sum_g_matches_nominal

    def test_nominal_value_still_upper_bounds(self):
        for n, j in [(2, 1), (3, 2), (5, 2)]:
            om = enumeration_oracle(n, j)
            assert om.var_sum_g <= om.nominal_var_sum_g


class TestDeviationProbability:
    def test_two_points_level_one(self):
        om = enumeration_oracle(2, 1)
        assert om.prob_deviation_ge_half == Fraction(8, 16)
        assert float(om.prob_deviation_ge_half) <= float(4 * om.epsilon)  # bound 3, vacuous

    def test_bound_never_violated_on_enumerable_instances(self):
        for n in (2, 3, 4, 5):
            for j in (0, 1, 2):
                om = enumeration_oracle(n, j)
                assert om.prob_deviation_ge_half <= max(Fraction(1), 4 * om.epsilon)


class TestAgainstGroupedReference:
    def test_instances(self):
        assert len(REFERENCE_INSTANCES) == 54

    @pytest.mark.parametrize("n,j", REFERENCE_INSTANCES)
    def test_closed_forms_equal_enumeration(self, n, j):
        om, ref = enumeration_oracle(n, j), grouped_reference(n, j)
        assert om == ref
        assert om.as_dict() == ref.as_dict()

    @given(n=st.integers(1, 8), j=st.integers(0, 3))
    def test_property_small_instances(self, n, j):
        if not oracle_applicable(n, j):
            with pytest.raises(ParameterError):
                enumeration_oracle(n, j)
            return
        om, ref = enumeration_oracle(n, j), grouped_reference(n, j)
        assert om == ref
        assert om.as_dict() == ref.as_dict()


class TestAgainstLabeledBruteForce:
    @pytest.mark.parametrize("n,j", [(2, 1), (3, 1), (2, 2), (4, 1)])
    def test_grouped_equals_labeled(self, n, j):
        om = enumeration_oracle(n, j)
        acc = labeled_brute_force(n, j)
        total = acc["total"]
        assert total == (1 << (j + 1)) ** n
        assert om.e_h == Fraction(acc["h"], total)
        assert om.e_h2 == Fraction(acc["h2"], total)
        if (1 << j) >= 2:
            assert om.e_hh == Fraction(acc["hh"], total)
        g_scale = Fraction(1 << j, n)
        e_sum = Fraction(acc["sum_h"], total)
        assert om.var_sum_g == g_scale**2 * (Fraction(acc["sum_h_sq"], total) - e_sum**2)
        assert om.prob_deviation_ge_half == Fraction(acc["dev"], total)


class TestGuards:
    def test_instance_too_large(self):
        with pytest.raises(ParameterError):
            enumeration_oracle(10, 3)

    def test_applicability(self):
        assert oracle_applicable(5, 2)
        assert oracle_applicable(6, 3)
        assert not oracle_applicable(10, 3)
        assert not oracle_applicable(100, 1)

    def test_invalid_arguments(self):
        with pytest.raises(ParameterError):
            enumeration_oracle(0, 1)
        with pytest.raises(ParameterError):
            enumeration_oracle(2, -1)

    def test_single_cell_has_no_pair_moment(self):
        assert enumeration_oracle(3, 0).e_hh is None

    def test_serialization(self):
        doc = enumeration_oracle(2, 1).as_dict()
        assert doc["var_sum_g"] == {"fraction": "2", "value": 2.0}
        assert doc["nominal_var_sum_g"] == {"fraction": "3", "value": 3.0}
        assert doc["var_sum_g_matches_nominal"] is False
