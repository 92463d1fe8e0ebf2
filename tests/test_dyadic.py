import json
import math

import numpy as np
import pytest

from besov_empirica.dyadic import (
    CoefficientTriangle,
    DyadicPathValues,
    dyadic_grid,
    extract_coefficients,
    load_triangle_json,
    path_from_dict,
    path_to_dict,
    reconstruct_path,
    save_triangle_json,
    scale_triangle,
    triangle_from_dict,
    triangle_to_dict,
)
from besov_empirica.errors import ParameterError

from conftest import random_triangle


class TestDyadicGrid:
    def test_level_zero_is_endpoints(self):
        assert dyadic_grid(0).tolist() == [0.0, 1.0]

    def test_level_one(self):
        assert dyadic_grid(1).tolist() == [0.0, 0.5, 1.0]

    def test_level_three(self):
        grid = dyadic_grid(3)
        assert len(grid) == 9
        assert grid[5] == 5 / 8
        assert not grid.flags.writeable

    @pytest.mark.parametrize("J", [-1, 31])
    def test_out_of_range(self, J):
        with pytest.raises(ParameterError):
            dyadic_grid(J)

    def test_strictly_increasing_endpoints(self):
        pts = dyadic_grid(6)
        assert pts[0] == 0.0 and pts[-1] == 1.0
        assert np.all(np.diff(pts) > 0)


class TestExtract:
    def test_affine_annihilation_example(self):
        grid = dyadic_grid(3)
        path = DyadicPathValues(J=3, values=3.0 * grid + 1.0)
        tri = extract_coefficients(path)
        assert tri.mu0 == 1.0
        assert tri.mu1 == 3.0
        for lev in tri.levels:
            assert np.all(lev == 0.0)

    def test_single_cell(self):
        tri = extract_coefficients(DyadicPathValues(J=1, values=np.array([0.0, 1.0, 0.0])))
        assert tri.mu0 == 0.0 and tri.mu1 == 0.0
        assert tri.levels[0].tolist() == [2.0]

    def test_hat_at_quarter(self):
        values = np.zeros(5)
        values[1] = 1.0  # f(1/4) = 1, all other grid values 0
        tri = extract_coefficients(DyadicPathValues(J=2, values=values))
        assert tri.levels[0].tolist() == [0.0]
        np.testing.assert_allclose(tri.levels[1], [2.0 * math.sqrt(2.0), 0.0], rtol=1e-15)

    def test_level_zero_rejected(self):
        with pytest.raises(ParameterError):
            extract_coefficients(DyadicPathValues(J=0, values=np.array([0.0, 1.0])))


class TestReconstruct:
    def test_zero_levels_gives_affine(self):
        tri = CoefficientTriangle(
            J=2, mu0=1.5, mu1=-0.5, levels=(np.zeros(1), np.zeros(2), np.zeros(4))
        )
        path = reconstruct_path(tri)
        assert path.J == 3
        grid = dyadic_grid(3)
        np.testing.assert_allclose(path.values, 1.5 - 0.5 * grid, rtol=1e-15)

    def test_inverse_of_single_cell(self):
        tri = CoefficientTriangle(J=0, mu0=0.0, mu1=0.0, levels=(np.array([2.0]),))
        path = reconstruct_path(tri)
        assert path.values.tolist() == [0.0, 1.0, 0.0]

    def test_round_trip_random(self, rng):
        tri = random_triangle(rng, J=6)
        back = extract_coefficients(reconstruct_path(tri))
        assert back.J == tri.J
        assert back.mu0 == pytest.approx(tri.mu0, rel=1e-12, abs=1e-12)
        assert back.mu1 == pytest.approx(tri.mu1, rel=1e-12, abs=1e-12)
        for j in range(tri.J + 1):
            np.testing.assert_allclose(back.levels[j], tri.levels[j], rtol=1e-12, atol=1e-12)

    def test_path_round_trip(self, rng):
        path = DyadicPathValues(J=5, values=rng.normal(size=33))
        rebuilt = reconstruct_path(extract_coefficients(path))
        np.testing.assert_allclose(rebuilt.values, path.values, rtol=1e-12, atol=1e-12)


class TestScale:
    def test_zero(self, rng):
        tri = scale_triangle(random_triangle(rng, 3), 0.0)
        assert tri.mu0 == 0.0 and tri.mu1 == 0.0
        for lev in tri.levels:
            assert np.all(lev == 0.0)

    def test_identity(self, rng):
        tri = random_triangle(rng, 3)
        out = scale_triangle(tri, 1.0)
        for j in range(4):
            np.testing.assert_array_equal(out.levels[j], tri.levels[j])

    def test_negative_two(self):
        tri = CoefficientTriangle(J=0, mu0=0.0, mu1=0.0, levels=(np.array([2.0]),))
        assert scale_triangle(tri, -2.0).levels[0].tolist() == [-4.0]


class TestProperties:
    def test_linearity(self, rng):
        J = 5
        for _ in range(1000):
            f = rng.normal(size=(1 << J) + 1)
            g = rng.normal(size=(1 << J) + 1)
            a, b = rng.normal(size=2)
            combo = extract_coefficients(DyadicPathValues(J=J, values=a * f + b * g))
            tf = extract_coefficients(DyadicPathValues(J=J, values=f))
            tg = extract_coefficients(DyadicPathValues(J=J, values=g))
            for j in range(J):
                np.testing.assert_allclose(
                    combo.levels[j],
                    a * tf.levels[j] + b * tg.levels[j],
                    rtol=1e-12,
                    atol=1e-12,
                )

    def test_affine_annihilation_exact_on_dyadic_rationals(self, rng):
        # Slope/intercept on the lattice i / 2**10 keep every grid value and
        # every second difference exactly representable, so the coefficients
        # are exactly zero, not merely small.
        J = 6
        grid = dyadic_grid(J)
        for _ in range(1000):
            a = float(rng.integers(-(1 << 20), 1 << 20)) / (1 << 10)
            b = float(rng.integers(-(1 << 20), 1 << 20)) / (1 << 10)
            tri = extract_coefficients(DyadicPathValues(J=J, values=a + b * grid))
            for lev in tri.levels:
                assert np.all(lev == 0.0)

    def test_affine_annihilation_generic_floats(self, rng):
        J = 8
        grid = dyadic_grid(J)
        for _ in range(200):
            a, b = rng.normal(size=2) * 10.0
            tri = extract_coefficients(DyadicPathValues(J=J, values=a + b * grid))
            scale = abs(a) + abs(b) + 1.0
            for lev in tri.levels:
                assert np.max(np.abs(lev)) <= 1e-12 * scale

    def test_locality(self, rng):
        # A coefficient depends only on the three path values of its cell.
        J, j, k = 5, 2, 3
        step = 1 << (J - j)
        touched = {(k - 1) * step, (k - 1) * step + step // 2, k * step}
        values = rng.normal(size=(1 << J) + 1)
        perturbed = values + rng.normal(size=values.shape)
        for idx in touched:
            perturbed[idx] = values[idx]
        c0 = extract_coefficients(DyadicPathValues(J=J, values=values)).levels[j][k - 1]
        c1 = extract_coefficients(DyadicPathValues(J=J, values=perturbed)).levels[j][k - 1]
        assert c0 == c1


class TestSerialization:
    def test_json_round_trip_bit_exact(self, rng, tmp_path):
        tri = random_triangle(rng, J=5)
        out = tmp_path / "tri.json"
        save_triangle_json(tri, out, metadata={"note": "round-trip"})
        back, meta = load_triangle_json(out)
        assert meta == {"note": "round-trip"}
        assert back.mu0 == tri.mu0 and back.mu1 == tri.mu1
        for j in range(tri.J + 1):
            np.testing.assert_array_equal(back.levels[j], tri.levels[j])

    def test_dict_round_trip(self, rng):
        tri = random_triangle(rng, J=4)
        back = triangle_from_dict(json.loads(json.dumps(triangle_to_dict(tri))))
        for j in range(tri.J + 1):
            np.testing.assert_array_equal(back.levels[j], tri.levels[j])

    def test_path_dict_round_trip(self, rng):
        path = DyadicPathValues(J=3, values=rng.normal(size=9))
        back = path_from_dict(json.loads(json.dumps(path_to_dict(path))))
        np.testing.assert_array_equal(back.values, path.values)


class TestValidation:
    def test_wrong_length(self):
        with pytest.raises(ParameterError):
            DyadicPathValues(J=2, values=np.zeros(4))

    def test_nonfinite(self):
        with pytest.raises(ParameterError):
            DyadicPathValues(J=1, values=np.array([0.0, np.nan, 1.0]))

    def test_triangle_level_sizes(self):
        with pytest.raises(ParameterError):
            CoefficientTriangle(J=1, mu0=0.0, mu1=0.0, levels=(np.zeros(1), np.zeros(3)))

    def test_immutability(self, rng):
        tri = random_triangle(rng, J=2)
        with pytest.raises(ValueError):
            tri.levels[0][0] = 1.0
