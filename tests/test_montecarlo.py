import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besov_empirica.besov import BesovParams, level_statistic
from besov_empirica.empirical import halfcell_counts, signed_sums_by_level
from besov_empirica.errors import AggregationError, ParameterError
from besov_empirica.montecarlo import (
    ChunkResult,
    ExperimentConfig,
    _roynette_chunk,
    _step_chunk,
    absolute_moment_target,
    aggregate,
    chebyshev_deviation_bound,
    run_concentration_experiment,
    run_moment_experiment,
    run_roynette_experiment,
    run_sandwich_experiment,
)
from besov_empirica.gaussian import brownian_bridge, brownian_motion
from besov_empirica.sampling import GAUSSIAN_STREAM, UNIFORM_STREAM, SeedSpec, sample_uniform

SEED = 42


class TestConfigValidation:
    def test_defaults_valid(self):
        ExperimentConfig()

    @pytest.mark.parametrize(
        "kwargs,key",
        [
            ({"process": "poisson"}, "process"),
            ({"n": 1}, "n"),
            ({"J": 4}, "j_max"),
            ({"R": 50}, "replicates"),
            ({"seed": -1}, "seed"),
            ({"p": 0.5}, "p"),
            ({"alpha": 2.0}, "alpha"),
            ({"sandwich_confidence": 1.5}, "sandwich_confidence"),
            ({"j_min": 15}, "j_min"),
            ({"workers": 0}, "workers"),
            ({"n_values": (1,)}, "n_values"),
            ({"coverage_max_level": -1}, "coverage_max_level"),
        ],
    )
    def test_rejections(self, kwargs, key):
        with pytest.raises(ParameterError) as err:
            ExperimentConfig(**kwargs)
        assert err.value.key == key


class TestAggregate:
    def _parts(self):
        return [
            ChunkResult(0, 2, {"a": np.array([1.0, 2.0]), "b": np.array([[1], [2]])}),
            ChunkResult(2, 2, {"a": np.array([10.0, 20.0]), "b": np.array([[3], [4]])}),
            ChunkResult(4, 1, {"a": np.array([100.0, 200.0]), "b": np.array([[5]])}),
        ]

    def test_ordered_reduction(self):
        out = aggregate(self._parts(), 5, {"a": "sum", "b": "stack"})
        np.testing.assert_array_equal(out["a"], [111.0, 222.0])
        np.testing.assert_array_equal(out["b"].ravel(), [1, 2, 3, 4, 5])

    def test_permuted_arrival_identical(self):
        parts = self._parts()
        out1 = aggregate(parts, 5, {"a": "sum", "b": "stack"})
        out2 = aggregate(parts[::-1], 5, {"a": "sum", "b": "stack"})
        np.testing.assert_array_equal(out1["a"], out2["a"])
        np.testing.assert_array_equal(out1["b"], out2["b"])

    def test_missing_replicate(self):
        parts = self._parts()[:2]
        with pytest.raises(AggregationError):
            aggregate(parts, 5, {"a": "sum"})

    def test_gap_in_coverage(self):
        parts = [p for p in self._parts() if p.start != 2]
        with pytest.raises(AggregationError):
            aggregate(parts, 5, {"a": "sum"})

    def test_duplicated_replicate(self):
        parts = self._parts() + [ChunkResult(4, 1, {"a": np.zeros(2), "b": np.zeros((1, 1))})]
        with pytest.raises(AggregationError):
            aggregate(parts, 5, {"a": "sum"})


def _reference_step_chunk(cfg, start, count):
    """The batched kernel's outputs, one replicate and one level at a time."""
    J = cfg.J
    ncells = (1 << (J + 1)) - 1
    out = {
        "sum_h": np.zeros((count, J + 1), dtype=np.int64),
        "sum_h2": np.zeros((count, J + 1), dtype=np.int64),
        "cell_sum_s": np.zeros(ncells, dtype=np.int64),
        "cell_sum_h": np.zeros(ncells, dtype=np.int64),
        "cell_sum_h2": np.zeros(ncells),
    }
    for i in range(count):
        sample = sample_uniform(cfg.n, SeedSpec(cfg.seed, start + i, UNIFORM_STREAM))
        sums = signed_sums_by_level(halfcell_counts(sample, J), J)
        for j in range(J + 1):
            s = sums[j]
            lo = (1 << j) - 1
            out["sum_h"][i, j] = (s * s).sum()
            out["sum_h2"][i, j] = (s**4).sum()
            out["cell_sum_s"][lo : lo + (1 << j)] += s
            out["cell_sum_h"][lo : lo + (1 << j)] += s * s
            out["cell_sum_h2"][lo : lo + (1 << j)] += s**4
    return out


class TestStepKernel:
    @settings(max_examples=40)
    @given(
        J=st.integers(6, 9),
        size=st.sampled_from(["above", "near", "below"]),
        start=st.integers(0, 10**6),
        count=st.sampled_from([1, 2, 3, 7]),
        data=st.data(),
    )
    def test_matches_per_replicate_reference(self, J, size, start, count, data):
        m = 1 << (J + 1)
        bounds = {"above": (m + 1, 3 * m), "near": (m - 8, m + 8), "below": (2, 12)}[size]
        n = data.draw(st.integers(*bounds), label="n")
        cfg = ExperimentConfig(n=n, J=J, seed=data.draw(st.integers(0, 2**64 - 1), label="seed"))
        want = _reference_step_chunk(cfg, start, count)
        moment = _step_chunk(cfg, start, count, cells=True)
        levels = _step_chunk(cfg, start, count, cells=False)
        assert (moment.start, moment.count) == (start, count)
        assert set(moment.payload) == set(want)
        for key, value in want.items():
            assert moment.payload[key].dtype == value.dtype, key
            np.testing.assert_array_equal(moment.payload[key], value, err_msg=key)
        assert set(levels.payload) == {"sum_h"}
        np.testing.assert_array_equal(levels.payload["sum_h"], want["sum_h"])

    def test_cell_sum_bound_checked_before_run(self):
        cfg = ExperimentConfig(n=20_000, R=2**40)
        with pytest.raises(ParameterError) as err:
            run_moment_experiment(cfg)
        assert err.value.key == "replicates"


class TestGaussianKernel:
    @settings(max_examples=40)
    @given(
        J=st.integers(6, 10),
        p=st.sampled_from([1.0, 2.0, 2.5, 4.0]),
        process=st.sampled_from(["brownian", "bridge"]),
        start=st.integers(0, 2**64 - 8),
        count=st.integers(1, 7),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_matches_path_reference(self, J, p, process, start, count, seed):
        cfg = ExperimentConfig(process=process, J=J, p=p, seed=seed)
        params = BesovParams(p=p, alpha=0.5)
        want = np.empty((count, J + 1))
        for i in range(count):
            gp = brownian_motion(J + 1, SeedSpec(seed, start + i, GAUSSIAN_STREAM))
            if process == "bridge":
                gp = brownian_bridge(gp)
            want[i] = [level_statistic(gp.triangle, j, params) for j in range(J + 1)]
        got = _roynette_chunk(cfg, start, count)
        assert (got.start, got.count) == (start, count)
        assert set(got.payload) == {"stat"}
        np.testing.assert_array_equal(got.payload["stat"], want)


class TestMoments:
    def test_oracle_agreement_small_instance(self):
        cfg = ExperimentConfig(n=3, J=6, R=4000, seed=SEED, chunk_size=500)
        report = run_moment_experiment(cfg)
        assert report.nominal_variance_mismatch
        assert report.oracle_blocks, "enumerable instance should attach oracle blocks"
        for block in report.oracle_blocks:
            for comp in block["comparisons"]:
                assert comp["within"], comp
        assert report.passed

    def test_gaussian_process_rejected(self):
        with pytest.raises(ParameterError):
            run_moment_experiment(ExperimentConfig(process="brownian"))

    def test_centered_coefficients(self):
        cfg = ExperimentConfig(n=100, J=6, R=2000, seed=SEED)
        report = run_moment_experiment(cfg)
        mean_alpha = np.asarray(report.cell_stats[5]["mean_alpha"])
        se_alpha = np.asarray(report.cell_stats[5]["se_alpha"])
        assert np.all(np.abs(mean_alpha) <= 4.0 * se_alpha)
        assert np.mean(np.abs(mean_alpha) <= 3.0 * se_alpha) >= 0.9

    def test_mean_g_near_one(self):
        cfg = ExperimentConfig(n=100, J=6, R=2000, seed=SEED)
        report = run_moment_experiment(cfg)
        assert report.coverage["fraction"] >= 0.99
        assert report.passed

    def test_worker_count_invariance(self):
        # Worker count is not part of a report, so the serialized documents
        # must agree byte for byte.
        # A chunk size of 70 leaves a short last chunk of 20.
        docs = set()
        for chunk_size in (50, 70):
            base = ExperimentConfig(n=20, J=6, R=300, seed=SEED, chunk_size=chunk_size)
            solo = run_moment_experiment(base)
            multi = run_moment_experiment(replace(base, workers=2))
            assert json.dumps(solo.as_dict(), sort_keys=True) == json.dumps(
                multi.as_dict(), sort_keys=True
            )
            docs.add(json.dumps(solo.as_dict()["results"], sort_keys=True))
        # Integer payloads make the report independent of the chunking too.
        assert len(docs) == 1


class TestConcentration:
    def test_rows_and_bound_formula(self):
        cfg = ExperimentConfig(
            n=100, J=12, R=400, seed=SEED, n_values=(10, 100), j_min=4
        )
        report = run_concentration_experiment(cfg)
        assert len(report.rows) == 2 * 9
        for row in report.rows:
            expected = 4.0 * (3.0 - 3.0 / row["n"]) / (1 << row["j"])
            assert row["bound"] == expected
            assert 0.0 <= row["frequency"] <= 1.0
        assert report.passed

    def test_bound_decreases_geometrically(self):
        bounds = [chebyshev_deviation_bound(100, j) for j in range(4, 13)]
        ratios = [a / b for a, b in zip(bounds, bounds[1:])]
        assert all(r == 2.0 for r in ratios)

    def test_single_n_default(self):
        cfg = ExperimentConfig(n=50, J=8, R=200, seed=SEED)
        report = run_concentration_experiment(cfg)
        assert {row["n"] for row in report.rows} == {50}


class TestSandwich:
    def test_band_logic_on_injected_levels(self):
        # A zero triangle yields squared statistics 0 (below band) at every
        # level; an all-ones triangle yields exactly 1 (inside the band).
        zero_sq = np.zeros(13)
        ones_sq = np.ones(13)
        in_band = lambda x: (x >= 0.5) & (x <= 1.5)
        assert not in_band(zero_sq).any()
        assert in_band(ones_sq).all()
        assert in_band(np.array([0.5])).all() and in_band(np.array([1.5])).all()

    def test_step_experiment(self):
        cfg = ExperimentConfig(n=100, J=12, R=500, seed=SEED)
        report = run_sandwich_experiment(cfg)
        assert report.passed
        assert all(f >= 0.95 for f in report.in_band_freq[-3:])
        assert report.tail_start == 9
        assert report.sup_stat.shape == (500,)
        assert np.all(report.tail_min_stat >= 0.0)

    def test_in_band_frequency_trend(self):
        cfg = ExperimentConfig(n=100, J=12, R=500, seed=SEED)
        report = run_sandwich_experiment(cfg)
        freq = report.in_band_freq
        noise = 3.0 * math.sqrt(0.25 / cfg.R)
        for j in range(6, cfg.J):
            assert freq[j + 1] >= freq[j] - noise

    def test_continuous_process(self):
        cfg = ExperimentConfig(
            process="empirical-continuous", n=100, J=10, R=150, seed=SEED
        )
        report = run_sandwich_experiment(cfg)
        assert len(report.in_band_freq) == 11

    def test_tail_window_band_frequency(self):
        # Over replicates, the squared statistic stays inside [1/2, 3/2] on
        # the whole tail window for at least 95 percent of profiles.
        from besov_empirica.besov import BesovParams, little_o_profile
        from besov_empirica.empirical import empirical_coefficients
        from besov_empirica.sampling import SeedSpec, sample_uniform

        params = BesovParams(p=2.0, alpha=0.5)
        hits = 0
        R = 400
        for r in range(R):
            smp = sample_uniform(100, SeedSpec(SEED, r, 0))
            profile = little_o_profile(empirical_coefficients(smp, 14), params)
            tail_sq = profile.levels[profile.tail_start :] ** 2
            hits += bool(tail_sq.max() <= 1.5 and tail_sq.min() >= 0.5)
        assert hits / R >= 0.95

    def test_needs_deep_levels(self):
        with pytest.raises(ParameterError):
            run_sandwich_experiment(ExperimentConfig(n=100, J=8, R=200))


class TestRoynette:
    def test_level_statistic_concentrates_p2(self):
        cfg = ExperimentConfig(process="brownian", J=12, R=300, seed=SEED)
        report = run_roynette_experiment(cfg)
        assert report.passed
        assert report.in_band_freq[-1] >= 0.99
        assert report.mean_stat[-1] == pytest.approx(1.0, abs=0.01)

    def test_fourth_power_target(self):
        assert absolute_moment_target(2.0) == pytest.approx(1.0, rel=1e-12)
        assert absolute_moment_target(4.0) == pytest.approx(3.0**0.25, rel=1e-12)
        cfg = ExperimentConfig(
            process="brownian", J=10, R=300, seed=SEED, p=4.0, roynette_band_halfwidth=0.05
        )
        report = run_roynette_experiment(cfg)
        assert report.mean_stat[-1] == pytest.approx(3.0**0.25, abs=0.02)

    def test_bridge_report_identical_to_motion(self):
        base = ExperimentConfig(process="brownian", J=10, R=200, seed=SEED)
        motion = run_roynette_experiment(base)
        bridge = run_roynette_experiment(replace(base, process="bridge"))
        assert json.dumps(motion.results_dict(), sort_keys=True) == json.dumps(
            bridge.results_dict(), sort_keys=True
        )

    def test_requires_gaussian_process(self):
        with pytest.raises(ParameterError):
            run_roynette_experiment(ExperimentConfig(process="empirical-step"))

    def test_requires_half_alpha(self):
        cfg = ExperimentConfig(process="brownian", J=10, R=200, alpha=0.4)
        with pytest.raises(ParameterError):
            run_roynette_experiment(cfg)


class TestScaling:
    def test_roughly_linear_in_replicates(self):
        # Coarse sanity check only: quadrupling R must not blow past a
        # generous linearity envelope.
        cfg_small = ExperimentConfig(n=50, J=8, R=200, seed=SEED)
        cfg_large = replace(cfg_small, R=800)
        run_sandwich_experiment(replace(cfg_small, J=10))  # warm-up
        t0 = time.perf_counter()
        run_concentration_experiment(cfg_small)
        t_small = time.perf_counter() - t0
        t0 = time.perf_counter()
        run_concentration_experiment(cfg_large)
        t_large = time.perf_counter() - t0
        assert t_large <= 12.0 * t_small + 0.5
