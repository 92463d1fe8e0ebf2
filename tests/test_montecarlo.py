import json
import math
import time
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besov_empirica import montecarlo
from besov_empirica.besov import BesovParams, level_statistic
from besov_empirica.empirical import halfcell_counts, signed_sums_by_level
from besov_empirica.errors import AggregationError, ParameterError
from besov_empirica.montecarlo import (
    CONFIG_KEYS,
    EXPERIMENTS,
    MAX_WORKERS,
    PROCESSES,
    RUN_ONLY_FIELDS,
    ChunkResult,
    ExperimentConfig,
    _continuous_levels_chunk,
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
from besov_empirica.sampling import (
    GAUSSIAN_STREAM,
    UNIFORM_STREAM,
    SeedSpec,
    order_statistics,
    sample_uniform,
)

from conftest import dense_continuous_coefficients, exact_cell_values

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
            ({"n": 50_000}, "n"),
            ({"roynette_band_halfwidth": 0.0}, "roynette_band_halfwidth"),
            ({"J": 24}, "j_max"),
            ({"workers": 0}, "workers"),
            ({"chunk_size": 0}, "chunk_size"),
        ],
    )
    def test_rejections(self, kwargs, key):
        with pytest.raises(ParameterError) as err:
            ExperimentConfig(**kwargs)
        assert err.value.key == key

    def test_workers_capped(self):
        # Only the config is built, so no worker process starts.
        ExperimentConfig(workers=MAX_WORKERS)
        with pytest.raises(ParameterError) as err:
            ExperimentConfig(workers=1_000_000)
        assert str(err.value) == f"workers: must be <= {MAX_WORKERS} (got 1000000)"

    def test_sample_points_cap_counts_the_chunk(self):
        # 50000 points times 80 replicates fit under MAX_CHUNK_POINTS; times
        # the default chunk of 100 they do not (see test_rejections).
        ExperimentConfig(n=50_000, chunk_size=80)
        # A Gaussian run stacks no sample points, so n does not bound its chunk.
        ExperimentConfig(process="brownian", chunk_size=50_000)


_RUNNERS = {
    "moments": run_moment_experiment,
    "concentration": run_concentration_experiment,
    "sandwich": run_sandwich_experiment,
    "roynette": run_roynette_experiment,
}

#: A valid value other than the default for every field an experiment may
#: leave unread.
_OTHER_VALUES = {"n": 7, "p": 4.0, "roynette_band_halfwidth": 0.2}

#: (experiment, field) for every field outside the experiment's table entry.
_UNREAD = [
    (kind, f.name)
    for kind, (_, reads) in EXPERIMENTS.items()
    for f in fields(ExperimentConfig)
    if f.name not in reads + RUN_ONLY_FIELDS
]


class TestSettingsTable:
    @pytest.mark.parametrize("kind,field", _UNREAD, ids=[f"{k}-{f}" for k, f in _UNREAD])
    def test_runner_rejects_unread_setting_before_any_draw(self, monkeypatch, kind, field):
        def no_draws(name, cfg):
            raise AssertionError("drew replicates")

        monkeypatch.setattr(montecarlo, "run_chunked", no_draws)
        processes, _ = EXPERIMENTS[kind]
        cfg = ExperimentConfig(process=processes[0], J=10, R=100)
        if field == "process":
            cfg = replace(cfg, process=next(p for p in PROCESSES if p not in processes))
        else:
            cfg = replace(cfg, **{field: _OTHER_VALUES[field]})
        with pytest.raises(ParameterError) as err:
            _RUNNERS[kind](cfg)
        assert err.value.key == CONFIG_KEYS.get(field, field)


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


def _sample_stream(cfg, start, count):
    return [sample_uniform(cfg.n, SeedSpec(cfg.seed, start + i, UNIFORM_STREAM)) for i in range(count)]


def _exact_stat_sq(sample, J):
    """``2**-j sum_k c_jk**2`` of the continuous version in rational arithmetic.

    ``c_jk**2 = 2**j * (n * d)**2 / n``, with ``n * d`` from
    ``exact_cell_values``.
    """
    return [sum(v * v for v in level) / sample.n for level in exact_cell_values(sample, J)]


def _assert_exact(got, exact, rel=1e-12):
    for j, (value, want) in enumerate(zip(got, exact)):
        if want == 0:
            assert value == 0.0, j
        else:
            assert abs(Fraction(float(value)) - want) <= rel * want, (j, float(value), float(want))


class TestContinuousKernel:
    @settings(max_examples=60)
    @given(
        n=st.integers(2, 300),
        J=st.integers(6, 12),
        start=st.integers(0, 2**64 - 8),
        count=st.integers(1, 7),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_matches_dense_reference(self, n, J, start, count, seed):
        cfg = ExperimentConfig(process="empirical-continuous", n=n, J=J, seed=seed)
        got = _continuous_levels_chunk(cfg, start, count)
        assert (got.start, got.count) == (start, count)
        assert set(got.payload) == {"stat_sq"}
        assert got.payload["stat_sq"].shape == (count, J + 1)
        # The dense path rounds each grid value of sqrt(n) * (F(t) - t) by a
        # few eps * sqrt(n) (at most 3 in these units when measured), so each
        # of its coefficients may be off by 32 * 2**(j/2) * eps * sqrt(n).
        # That allowance only matters where a level's statistic is tiny
        # (n = 2 at fine levels); the rational tests below pin those.
        dc0 = 32 * 2.0**-53 * math.sqrt(n)
        for i, sample in enumerate(_sample_stream(cfg, start, count)):
            tri = dense_continuous_coefficients(sample, J)
            for j in range(J + 1):
                c, dc = tri.levels[j], dc0 * 2.0 ** (j / 2)
                want = float(np.sum(c**2)) / (1 << j)
                slack = float(np.sum(2 * np.abs(c) * dc + dc * dc)) / (1 << j)
                value = got.payload["stat_sq"][i, j]
                assert abs(value - want) <= 1e-11 * want + slack, (i, j, value, want)

    @settings(max_examples=40)
    @given(
        n=st.integers(2, 6),
        start=st.integers(0, 2**64 - 4),
        count=st.integers(1, 3),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_matches_rational_arithmetic_small_n(self, n, start, count, seed):
        cfg = ExperimentConfig(process="empirical-continuous", n=n, J=6, seed=seed)
        got = _continuous_levels_chunk(cfg, start, count).payload["stat_sq"]
        for i, sample in enumerate(_sample_stream(cfg, start, count)):
            _assert_exact(got[i], _exact_stat_sq(sample, cfg.J))

    @pytest.mark.parametrize("seed", [SEED, 7])
    def test_matches_rational_arithmetic_coarse_levels_large_n(self, seed):
        # With up to 999 knots a cell, the tent terms of a coarse cell nearly
        # cancel: summed as they are, they missed these statistics by up to
        # 2e-11 relative.  The kernel reads those levels from the CDF instead.
        cfg = ExperimentConfig(process="empirical-continuous", n=1000, J=6, seed=seed)
        got = _continuous_levels_chunk(cfg, 0, 10).payload["stat_sq"]
        for i, sample in enumerate(_sample_stream(cfg, 0, 10)):
            _assert_exact(got[i], _exact_stat_sq(sample, cfg.J))

    @pytest.mark.parametrize(
        "values,zero_from",
        [
            # Knots 1/4 and 9/16: every knot is on a cell edge from level 4.
            ([1 / 8, 3 / 8, 3 / 4], 4),
            # Knots 1/4, 1/2, 3/4 and 29/32: on coarse levels a cell starts
            # at a knot; from level 5 all four are on edges.
            ([1 / 8, 3 / 8, 5 / 8, 7 / 8, 15 / 16], 5),
            # A single interior knot, 3/8.
            ([1 / 8, 5 / 8], 3),
            # A single interior knot off the lattice of any level <= 12.
            ([0.1 + 2.0**-40, 0.7], None),
        ],
    )
    def test_knots_on_cell_edges(self, monkeypatch, values, zero_from):
        sample = order_statistics(values)
        monkeypatch.setattr(montecarlo, "sample_uniform", lambda n, seed: sample)
        cfg = ExperimentConfig(process="empirical-continuous", n=sample.n, J=12)
        got = _continuous_levels_chunk(cfg, 0, 2).payload["stat_sq"]
        exact = _exact_stat_sq(sample, cfg.J)
        for row in got:
            _assert_exact(row, exact)
        if zero_from is not None:
            # F is linear on every cell from there on: the tent heights are 0.
            assert all(value == 0 for value in exact[zero_from:])
            assert exact[zero_from - 1] > 0


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
        # must agree byte for byte.  A chunk size of 70 leaves a short last
        # chunk of 20.  Integer payloads (moments) and per-replicate sums
        # that ignore the rest of their chunk (the continuous version) make
        # the reports independent of the chunking too.
        runs = [
            (run_moment_experiment, ExperimentConfig(n=20, J=6, R=300, seed=SEED)),
            (
                run_sandwich_experiment,
                ExperimentConfig(process="empirical-continuous", n=20, J=10, R=300, seed=SEED),
            ),
        ]
        for runner, config in runs:
            docs = set()
            for chunk_size in (50, 70):
                base = replace(config, chunk_size=chunk_size)
                solo = json.dumps(runner(base).as_dict(), sort_keys=True)
                multi = json.dumps(runner(replace(base, workers=2)).as_dict(), sort_keys=True)
                assert solo == multi
                docs.add(solo)
            assert len(docs) == 1, config.process


class TestConcentration:
    def test_rows_and_bound_formula(self):
        for n in (10, 100):
            report = run_concentration_experiment(ExperimentConfig(n=n, J=12, R=400, seed=SEED))
            assert [(row["n"], row["j"]) for row in report.rows] == [(n, j) for j in range(13)]
            for row in report.rows:
                expected = 4.0 * (3.0 - 3.0 / n) / (1 << row["j"])
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
