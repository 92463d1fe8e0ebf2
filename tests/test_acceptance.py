"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical criteria run under the default seed 42 and two further
documented seeds (7 and 123).  Run with ``pytest tests/test_acceptance.py
-v -s`` to see the per-criterion lines as they complete.
"""

import filecmp
import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from besov_empirica.besov import BesovParams, besov_norm, p_monotonicity_check
from besov_empirica.dyadic import (
    CoefficientTriangle,
    DyadicPathValues,
    dyadic_grid,
    extract_coefficients,
    reconstruct_path,
    scale_triangle,
)
from besov_empirica.empirical import (
    continuous_ecdf,
    continuous_ecdf_eval,
    empirical_coefficients,
    step_coefficient_scale,
    sup_distance,
)
from besov_empirica.montecarlo import (
    ExperimentConfig,
    run_concentration_experiment,
    run_moment_experiment,
    run_roynette_experiment,
    run_sandwich_experiment,
)
from besov_empirica.sampling import SeedSpec, sample_uniform

from conftest import grouped_reference, z_indicator

DEFAULT_SEED = 42
DOCUMENTED_SEEDS = (DEFAULT_SEED, 7, 123)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@contextmanager
def criterion(num, name, **info):
    detail = " ".join(f"{k}={v}" for k, v in info.items())
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} [{name}] {detail}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {num} [{name}] {detail}: PASS ({elapsed:.1f}s)")


def test_criterion_1_exact_oracle_identities():
    with criterion(1, "exact oracle identities"):
        start = time.perf_counter()
        # On the enumeration, so that the identities are checked, not the
        # oracle's closed forms against themselves.
        for n in range(2, 6):
            for j in range(3):
                om = grouped_reference(n, j)
                assert om.e_h == Fraction(n, 1 << j)
                if j >= 1:
                    assert om.e_hh == Fraction(n * (n - 1), 1 << (2 * j))
        assert time.perf_counter() - start < 10.0


@pytest.mark.parametrize("seed", DOCUMENTED_SEEDS)
def test_criterion_2_moment_verification(seed):
    with criterion(2, "moment verification", seed=seed):
        start = time.perf_counter()
        cfg = ExperimentConfig(n=100, J=12, R=10_000, seed=seed, chunk_size=500)
        coverage = run_moment_experiment(cfg).results["coverage"]
        assert coverage["max_level"] == 8
        assert coverage["se_multiplier"] == 3.0
        assert coverage["fraction"] >= 0.99, coverage
        assert time.perf_counter() - start < 300.0


@pytest.mark.parametrize("seed", DOCUMENTED_SEEDS)
def test_criterion_3_oracle_monte_carlo_agreement(seed):
    with criterion(3, "oracle vs Monte Carlo", seed=seed):
        cfg = ExperimentConfig(n=3, J=6, R=100_000, seed=seed, chunk_size=1000)
        results = run_moment_experiment(cfg).results
        block = next(b for b in results["oracle"] if b["j"] == 1)
        names = {c["moment"] for c in block["comparisons"]}
        assert names == {"e_h", "e_h2", "var_g", "e_hh", "var_sum_g"}
        for comp in block["comparisons"]:
            gap = abs(comp["estimate"] - block[comp["moment"]]["value"])
            assert gap <= 4.0 * comp["se"], comp
        # The gap between the enumerated Var(sum_k G) and the nominal
        # 2**(2j) * eps calibration must be flagged.
        assert results["nominal_variance_mismatch"]
        assert block["var_sum_g_matches_nominal"] is False
        assert block["var_sum_g"]["fraction"] == str(
            Fraction(1 << 2) * (1 - Fraction(1, 3))
        )
        assert block["nominal_var_sum_g"]["value"] == pytest.approx(4.0)


@pytest.mark.parametrize("seed", DOCUMENTED_SEEDS)
def test_criterion_4_concentration_bound(seed):
    with criterion(4, "concentration bound", seed=seed):
        start = time.perf_counter()
        for n in (10, 100, 1000):
            cfg = ExperimentConfig(n=n, J=12, R=5000, seed=seed, chunk_size=500)
            results = run_concentration_experiment(cfg).results
            assert [(row["n"], row["j"]) for row in results["rows"]] == [(n, j) for j in range(13)]
            for row in results["rows"]:
                assert row["frequency"] <= row["bound"] + 3.0 * row["se"], row
            assert results["passed"]
        assert time.perf_counter() - start < 600.0


@pytest.mark.parametrize("seed", DOCUMENTED_SEEDS)
def test_criterion_5_sandwich(seed):
    with criterion(5, "sandwich statistic", seed=seed):
        cfg = ExperimentConfig(n=100, J=14, R=2000, seed=seed, chunk_size=250)
        results = run_sandwich_experiment(cfg).results
        freq, per_replicate = results["in_band_frequency"], results["per_replicate"]
        for j in (12, 13, 14):
            assert freq[j] >= 0.95, (j, freq[j])
        # The unsquared statistics are the roots of the squared ones, bit for bit.
        sup = np.sqrt(np.asarray(per_replicate["sup_stat_sq"]))
        assert np.all(np.isfinite(sup))
        assert sup.max() < 10.0
        tail_sq = np.asarray(per_replicate["tail_min_stat_sq"])
        assert np.mean(tail_sq > 0.1) >= 0.95
        assert np.mean(np.sqrt(tail_sq) > 0.1) >= 0.95
        assert results["passed"]


@pytest.mark.parametrize("seed", DOCUMENTED_SEEDS)
def test_criterion_6_gaussian_level_statistics(seed):
    with criterion(6, "Gaussian level statistics", seed=seed):
        base = ExperimentConfig(
            process="brownian", J=14, R=2000, seed=seed, p=2.0, chunk_size=250
        )
        rep2 = run_roynette_experiment(base).results
        assert rep2["band"][0] == pytest.approx(0.9, abs=1e-12)
        assert rep2["band"][1] == pytest.approx(1.1, abs=1e-12)
        assert rep2["in_band_frequency"][14] >= 0.99
        assert rep2["passed"]

        cfg4 = ExperimentConfig(
            process="brownian", J=14, R=2000, seed=seed, p=4.0,
            roynette_band_halfwidth=0.05, chunk_size=250,
        )
        rep4 = run_roynette_experiment(cfg4).results
        target = 3.0**0.25
        assert rep4["target"] == pytest.approx(target, rel=1e-12)
        assert rep4["in_band_frequency"][14] >= 0.99
        assert rep4["mean_statistic"][14] == pytest.approx(target, abs=0.05)

        from dataclasses import replace

        bridge = run_roynette_experiment(replace(base, process="bridge")).results
        assert json.dumps(bridge, sort_keys=True, default=np.ndarray.tolist) == json.dumps(
            rep2, sort_keys=True, default=np.ndarray.tolist
        )


@pytest.mark.parametrize("seed", DOCUMENTED_SEEDS)
def test_criterion_7_continuous_version_distance(seed):
    with criterion(7, "continuous-version distance", seed=seed):
        sizes = (2, 3, 10, 100, 10_000)
        per_size = 10_000 // len(sizes)
        for size_index, n in enumerate(sizes):
            for r in range(per_size):
                smp = sample_uniform(n, SeedSpec(seed, size_index * per_size + r, 0))
                ecdf = continuous_ecdf(smp)
                assert sup_distance(ecdf) <= 1.0 / n
                assert np.all(np.diff(ecdf.ys) >= 0.0)
            # Continuity at shared nodes, spot-checked on the last replicate.
            node_values = continuous_ecdf_eval(ecdf, ecdf.xs)
            assert np.max(np.abs(node_values - ecdf.ys)) <= 1e-15


def test_criterion_8_structural_properties():
    rng = np.random.default_rng(981_237)
    params = BesovParams(p=2.0, alpha=0.5)

    def random_triangle(J, scale=1.0):
        return CoefficientTriangle(
            J=J,
            mu0=float(rng.normal() * scale),
            mu1=float(rng.normal() * scale),
            levels=tuple(rng.normal(size=1 << j) * scale for j in range(J + 1)),
        )

    with criterion(8, "structural properties", part="linearity"):
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
                    combo.levels[j], a * tf.levels[j] + b * tg.levels[j],
                    rtol=1e-12, atol=1e-12,
                )

    with criterion(8, "structural properties", part="affine annihilation"):
        grid = dyadic_grid(6)
        for _ in range(1000):
            a = float(rng.integers(-(1 << 20), 1 << 20)) / (1 << 10)
            b = float(rng.integers(-(1 << 20), 1 << 20)) / (1 << 10)
            tri = extract_coefficients(DyadicPathValues(J=6, values=a + b * grid))
            for lev in tri.levels:
                assert np.all(lev == 0.0)

    with criterion(8, "structural properties", part="round trip"):
        for _ in range(1000):
            tri = random_triangle(int(rng.integers(2, 7)))
            back = extract_coefficients(reconstruct_path(tri))
            assert back.mu0 == pytest.approx(tri.mu0, rel=1e-12, abs=1e-12)
            assert back.mu1 == pytest.approx(tri.mu1, rel=1e-12, abs=1e-12)
            for j in range(tri.J + 1):
                np.testing.assert_allclose(
                    back.levels[j], tri.levels[j], rtol=1e-12, atol=1e-12
                )

    with criterion(8, "structural properties", part="closed form vs score sums"):
        J = 4
        for i in range(1000):
            smp = sample_uniform(20, SeedSpec(555, i, 0))
            tri = empirical_coefficients(smp, J, source="step")
            for j in range(J + 1):
                for k in range(1, (1 << j) + 1):
                    score = sum(z_indicator(u, j, k) for u in smp.sorted_values)
                    assert tri.levels[j][k - 1] == float(score) * step_coefficient_scale(
                        j, smp.n
                    )

    with criterion(8, "structural properties", part="norm homogeneity"):
        for _ in range(1000):
            tri = random_triangle(4)
            c = float(rng.normal() * 3.0)
            assert besov_norm(scale_triangle(tri, c), params) == pytest.approx(
                abs(c) * besov_norm(tri, params), rel=1e-12, abs=1e-300
            )

    with criterion(8, "structural properties", part="triangle inequality"):
        for _ in range(1000):
            a_tri = random_triangle(4)
            b_tri = random_triangle(4)
            summed = CoefficientTriangle(
                J=4,
                mu0=a_tri.mu0 + b_tri.mu0,
                mu1=a_tri.mu1 + b_tri.mu1,
                levels=tuple(a_tri.levels[j] + b_tri.levels[j] for j in range(5)),
            )
            assert besov_norm(summed, params) <= (
                besov_norm(a_tri, params) + besov_norm(b_tri, params)
            ) * (1 + 1e-12)

    with criterion(8, "structural properties", part="p-monotonicity"):
        for _ in range(1000):
            assert p_monotonicity_check(random_triangle(int(rng.integers(2, 6))), 1.0, 2.0)


def test_criterion_9_worker_determinism(tmp_path):
    with criterion(9, "worker-count determinism"):
        outs = []
        for workers in (1, 8):
            out = tmp_path / f"w{workers}"
            result = subprocess.run(
                [
                    sys.executable, "-m", "besov_empirica.cli", "verify-all",
                    "--seed", "42", "--workers", str(workers), "--out", str(out),
                ],
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stdout + result.stderr
            outs.append(out)
        names = sorted(os.listdir(outs[0]))
        assert names == sorted(os.listdir(outs[1]))
        match, mismatch, errors = filecmp.cmpfiles(outs[0], outs[1], names, shallow=False)
        assert not mismatch and not errors, (mismatch, errors)
        assert len(match) == len(names)
