import argparse
import json
import math
import pickle
import time
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besov_empirica import cli, montecarlo
from besov_empirica.besov import BesovParams, level_statistic, tail_window_start
from besov_empirica.empirical import halfcell_counts, signed_sums_by_level
from besov_empirica.errors import AggregationError, ParameterError
from besov_empirica.montecarlo import (
    CONFIG_KEYS,
    COVERAGE_MAX_LEVEL,
    EXPERIMENTS,
    MAX_WORKERS,
    ORACLE_SE_MULTIPLIER,
    PROCESSES,
    RUN_ONLY_FIELDS,
    _CHUNK_FUNCTIONS,
    ChunkResult,
    ExperimentConfig,
    _levels_chunk,
    _roynette_chunk,
    absolute_moment_target,
    aggregate,
    chebyshev_deviation_bound,
    check_run,
    chunk_peak_bytes,
    run_concentration_experiment,
    run_moment_experiment,
    run_roynette_experiment,
    run_sandwich_experiment,
)
from besov_empirica.gaussian import brownian_bridge, brownian_motion
from besov_empirica.sampling import (
    GAUSSIAN_STREAM,
    SHORT_STREAM_WORDS,
    UNIFORM_STREAM,
    SeedSpec,
    order_statistics,
    sample_uniform,
)

from conftest import dense_continuous_coefficients, exact_cell_values

SEED = 42


def _json(doc) -> str:
    """``doc`` serialized as ``dyadic.write_json`` writes it, arrays as lists."""
    return json.dumps(doc, sort_keys=True, default=np.ndarray.tolist)


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
        # the default chunk of 100 they do not.  The run is checked, not the
        # config.
        check_run(ExperimentConfig(n=50_000, chunk_size=80), "sandwich")
        big = ExperimentConfig(n=50_000)
        for kind in ("moments", "concentration", "sandwich"):
            with pytest.raises(ParameterError) as err:
                check_run(big, kind)
            assert str(err.value) == (
                "n: at most 4194304 sample points at once (got 50000 * chunk_size 100)"
            )
        # A run of fewer replicates than chunk_size stacks them all in one
        # chunk: 30000 points times 100 replicates fit, times 1000 do not.
        check_run(ExperimentConfig(n=30_000, R=100, chunk_size=1000), "sandwich")
        with pytest.raises(ParameterError) as err:
            check_run(ExperimentConfig(n=30_000, R=1000, chunk_size=1000), "sandwich")
        assert str(err.value) == (
            "n: at most 4194304 sample points at once (got 30000 * chunk_size 1000)"
        )
        # A Gaussian run stacks no sample points, so n does not bound its chunk.
        check_run(ExperimentConfig(process="brownian", chunk_size=50_000), "roynette")


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
    for kind, experiment in EXPERIMENTS.items()
    for f in fields(ExperimentConfig)
    if f.name not in experiment.reads + RUN_ONLY_FIELDS
]


class TestSettingsTable:
    @pytest.mark.parametrize("kind,field", _UNREAD, ids=[f"{k}-{f}" for k, f in _UNREAD])
    def test_runner_rejects_unread_setting_before_any_draw(self, monkeypatch, kind, field):
        def no_draws(name, cfg):
            raise AssertionError("drew replicates")

        monkeypatch.setattr(montecarlo, "run_chunked", no_draws)
        processes = tuple(EXPERIMENTS[kind].kernels)
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
            ChunkResult(0, 2, {"b": np.array([[1], [2]])}, {"a": np.array([1.0, 2.0])}),
            ChunkResult(2, 2, {"b": np.array([[3], [4]])}, {"a": np.array([10.0, 20.0])}),
            ChunkResult(4, 1, {"b": np.array([[5]])}, {"a": np.array([100.0, 200.0])}),
        ]

    def test_ordered_reduction(self):
        out = aggregate(self._parts(), 5)
        np.testing.assert_array_equal(out["a"], [111.0, 222.0])
        np.testing.assert_array_equal(out["b"].ravel(), [1, 2, 3, 4, 5])

    def test_permuted_arrival_identical(self):
        parts = self._parts()
        out1 = aggregate(parts, 5)
        out2 = aggregate(parts[::-1], 5)
        np.testing.assert_array_equal(out1["a"], out2["a"])
        np.testing.assert_array_equal(out1["b"], out2["b"])

    def test_missing_replicate(self):
        parts = self._parts()[:2]
        with pytest.raises(AggregationError):
            aggregate(parts, 5)

    def test_gap_in_coverage(self):
        parts = [p for p in self._parts() if p.start != 2]
        with pytest.raises(AggregationError):
            aggregate(parts, 5)

    def test_duplicated_replicate(self):
        parts = self._parts() + [ChunkResult(4, 1, {"b": np.zeros((1, 1))}, {"a": np.zeros(2)})]
        with pytest.raises(AggregationError):
            aggregate(parts, 5)


def _reference_step_chunk(cfg, start, count):
    """The batched kernel's outputs, one replicate and one level at a time;
    per-cell sums up to ``COVERAGE_MAX_LEVEL``."""
    J = cfg.J
    ncells = (2 << min(J, COVERAGE_MAX_LEVEL)) - 1
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
            if j > COVERAGE_MAX_LEVEL:
                continue
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
        moment = _levels_chunk(cfg, start, count, "step", cells=True)
        levels = _levels_chunk(cfg, start, count, "step")
        assert (moment.start, moment.count) == (start, count)
        assert set(moment.rows) == {"sum_h", "sum_h2"}
        assert set(moment.rows) | set(moment.sums) == set(want)
        for key, value in want.items():
            got = moment.rows[key] if key in moment.rows else moment.sums[key]
            assert got.dtype == value.dtype, key
            np.testing.assert_array_equal(got, value, err_msg=key)
        assert set(levels.rows) == {"sum_h"} and not levels.sums
        np.testing.assert_array_equal(levels.rows["sum_h"], want["sum_h"])

    def test_cell_sum_bound_checked_before_run(self):
        cfg = ExperimentConfig(n=20_000, R=2**40)
        with pytest.raises(ParameterError) as err:
            run_moment_experiment(cfg)
        assert err.value.key == "replicates"


class TestGaussianKernel:
    @settings(max_examples=40)
    @given(
        J=st.integers(6, 10),
        p=st.sampled_from([1.0, 2.0, 2.5, 3.5, 4.0]),
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
        assert set(got.rows) == {"stat"} and not got.sums
        np.testing.assert_array_equal(got.rows["stat"], want)


class TestChunkPeakEstimate:
    """``check_run`` counts ``chunk_peak_bytes`` for every running chunk; the
    estimate must not fall below what a chunk holds at its peak."""

    @pytest.mark.parametrize(
        "kernel,process,n,J,count",
        [
            (kernel, process, n, J, count)
            for kernel, process in [
                ("moment", "empirical-step"),
                ("step_levels", "empirical-step"),
                ("continuous_levels", "empirical-continuous"),
            ]
            for n, J, count in [(100, 12, 1000), (2, 6, 50_000), (3, 6, 1000)]
        ]
        # The largest n whose words ``philox_words`` computes.
        + [
            (kernel, process, SHORT_STREAM_WORDS - 1, 6, 50_000)
            for kernel, process in [
                ("moment", "empirical-step"),
                ("continuous_levels", "empirical-continuous"),
            ]
        ]
        + [("roynette", "brownian", 2, 14, 20), ("roynette", "brownian", 2, 6, 20_000)],
    )
    def test_traced_peak_within_estimate(self, kernel, process, n, J, count):
        cfg = ExperimentConfig(process=process, n=n, J=J, R=max(count, 100), chunk_size=count)
        chunk = _CHUNK_FUNCTIONS[kernel]
        chunk(cfg, 0, 2)  # first-call allocations are not the chunk's
        tracemalloc.start()
        try:
            pickle.dumps(chunk(cfg, 0, count))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= chunk_peak_bytes(kernel, n, J, count)


class TestRunBytesEstimate:
    """``check_run`` counts ``run_bytes``: at one worker, the record's
    ``held_bytes`` model plus one chunk peak.  It must not fall below what
    running and writing one experiment holds at its peak: the chunks,
    ``aggregate``, the report build, and the JSON and CSV writes."""

    @pytest.mark.parametrize(
        "kind,process,n,J,R",
        [
            ("moments", "empirical-step", 100, 12, 2000),
            ("moments", "empirical-step", 3, 14, 500),
            ("moments", "empirical-step", 100, 20, 200),
            ("concentration", "empirical-step", 10, 12, 20_000),
            ("sandwich", "empirical-step", 10, 12, 20_000),
            ("sandwich", "empirical-continuous", 10, 12, 20_000),
            ("roynette", "brownian", 100, 10, 20_000),
            # The smallest runs, where what a run holds whatever its size
            # (building and writing its report) weighs most against its arrays.
            ("moments", "empirical-step", 2, 6, 100),
            ("concentration", "empirical-step", 2, 6, 100),
            ("sandwich", "empirical-step", 2, 10, 100),
            ("sandwich", "empirical-continuous", 2, 10, 100),
            ("roynette", "brownian", 100, 6, 100),
        ],
    )
    def test_traced_peak_within_estimate(self, tmp_path, capsys, kind, process, n, J, R):
        cfg = ExperimentConfig(process=process, n=n, J=J, R=R, seed=SEED)
        assert _traced_run_peak(tmp_path, kind, cfg) <= montecarlo.run_bytes(cfg, kind)

    def test_sandwich_peak_same_for_both_processes(self, tmp_path, capsys):
        # Both processes go through one builder with payloads of one size, so
        # an aggregated payload kept alive beside the statistics of one of
        # them shows up as a gap.
        step, continuous = (
            _traced_run_peak(
                tmp_path, "sandwich", ExperimentConfig(process=process, n=10, J=12, R=20_000)
            )
            for process in ("empirical-step", "empirical-continuous")
        )
        assert abs(step - continuous) <= 0.05 * min(step, continuous), (step, continuous)


def test_fewest_replicates_fit_at_one_worker():
    # check_run blames the workers or the replicates, never j_max: at one
    # worker and 100 replicates every run fits at the deepest level with the
    # most sample points a chunk may stack.  Fewer replicates a chunk with
    # the same points only shrink the per-level term.
    for kind, experiment in EXPERIMENTS.items():
        for process in experiment.kernels:
            cfg = ExperimentConfig(
                process=process, n=montecarlo.MAX_CHUNK_POINTS // 100, J=montecarlo.MAX_LEVEL,
                R=100,
            )
            assert montecarlo.run_bytes(cfg, kind) <= montecarlo.MAX_RUN_BYTES, (kind, process)


def _traced_run_peak(tmp_path, kind, cfg) -> int:
    """tracemalloc peak of running ``cfg`` as ``verify-<kind>`` and writing its report."""
    out = argparse.Namespace(out=str(tmp_path))
    cli._verify({kind: replace(cfg, R=100)}, out)  # first-call allocations are not the run's
    tracemalloc.start()
    try:
        cli._verify({kind: cfg}, out)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        got = _levels_chunk(cfg, start, count, "continuous")
        assert (got.start, got.count) == (start, count)
        assert set(got.rows) == {"sum_h"} and not got.sums
        assert got.rows["sum_h"].shape == (count, J + 1)
        stat_sq = got.rows["sum_h"] / n
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
                value = stat_sq[i, j]
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
        got = _levels_chunk(cfg, start, count, "continuous").rows["sum_h"] / n
        for i, sample in enumerate(_sample_stream(cfg, start, count)):
            _assert_exact(got[i], _exact_stat_sq(sample, cfg.J))

    @pytest.mark.parametrize("seed", [SEED, 7])
    def test_matches_rational_arithmetic_coarse_levels_large_n(self, seed):
        # With up to 999 knots a cell, the tent terms of a coarse cell nearly
        # cancel: summed as they are, they missed these statistics by up to
        # 2e-11 relative.  The kernel reads those levels from the CDF instead.
        cfg = ExperimentConfig(process="empirical-continuous", n=1000, J=6, seed=seed)
        got = _levels_chunk(cfg, 0, 10, "continuous").rows["sum_h"] / cfg.n
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
        # The kernel draws lattice integers; the sample is their values.
        lattice = np.floor(np.array(values) * 2**53).astype(np.int64)
        sample = order_statistics(lattice / 2**53)
        monkeypatch.setattr(
            montecarlo, "uniform_samples",
            lambda n, seed, start, count: np.tile(lattice, (count, 1)),
        )
        cfg = ExperimentConfig(process="empirical-continuous", n=sample.n, J=12)
        got = _levels_chunk(cfg, 0, 2, "continuous").rows["sum_h"] / cfg.n
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
        results = run_moment_experiment(cfg).results
        assert results["nominal_variance_mismatch"]
        assert results["oracle"], "enumerable instance should attach oracle blocks"
        for block in results["oracle"]:
            for comp in block["comparisons"]:
                assert comp["within"], comp
        assert results["passed"]

    def test_oracle_within_agrees_with_block_fraction(self):
        # A comparison copies no exact moment: its verdict follows from the
        # block's own fraction of that moment.
        cfg = ExperimentConfig(n=3, J=6, R=100, seed=SEED)
        blocks = run_moment_experiment(cfg).results["oracle"]
        assert [block["j"] for block in blocks] == [0, 1, 2, 3]
        comparisons = [(block, comp) for block in blocks for comp in block["comparisons"]]
        assert len(comparisons) == 4 * 5 - 1  # no e_hh at j = 0, a single cell
        for block, comp in comparisons:
            assert set(comp) == {"moment", "estimate", "se", "within"}
            exact = float(Fraction(block[comp["moment"]]["fraction"]))
            gap = abs(comp["estimate"] - exact)
            assert comp["within"] == (gap <= ORACLE_SE_MULTIPLIER * comp["se"]), comp

    def test_gaussian_process_rejected(self):
        with pytest.raises(ParameterError):
            run_moment_experiment(ExperimentConfig(process="brownian"))

    def test_centered_coefficients(self):
        cfg = ExperimentConfig(n=100, J=6, R=2000, seed=SEED)
        cell_stats = run_moment_experiment(cfg).results["cell_stats"]
        mean_alpha = np.asarray(cell_stats[5]["mean_alpha"])
        se_alpha = np.asarray(cell_stats[5]["se_alpha"])
        assert np.all(np.abs(mean_alpha) <= 4.0 * se_alpha)
        assert np.mean(np.abs(mean_alpha) <= 3.0 * se_alpha) >= 0.9

    def test_mean_g_near_one(self):
        cfg = ExperimentConfig(n=100, J=6, R=2000, seed=SEED)
        results = run_moment_experiment(cfg).results
        assert results["coverage"]["fraction"] >= 0.99
        assert results["passed"]

    def test_worker_count_invariance(self):
        # Worker count is not part of a report, so the serialized documents
        # must agree byte for byte.  A chunk size of 70 leaves a short last
        # chunk of 20.  Integer payloads (moments, concentration) and
        # per-replicate statistics that ignore the rest of their chunk (the
        # continuous version, the Gaussian paths) make the reports
        # independent of the chunking too.
        runs = [
            (run_moment_experiment, ExperimentConfig(n=20, J=6, R=300, seed=SEED)),
            (
                run_sandwich_experiment,
                ExperimentConfig(process="empirical-continuous", n=20, J=10, R=300, seed=SEED),
            ),
            (run_concentration_experiment, ExperimentConfig(n=20, J=8, R=300, seed=SEED)),
            (run_roynette_experiment, ExperimentConfig(process="brownian", J=8, R=300, seed=SEED)),
        ]
        for runner, config in runs:
            docs = set()
            for chunk_size in (50, 70):
                base = replace(config, chunk_size=chunk_size)
                solo = _json(runner(base).as_dict())
                multi = _json(runner(replace(base, workers=2)).as_dict())
                assert solo == multi
                docs.add(solo)
            assert len(docs) == 1, config.process


class TestConcentration:
    def test_rows_and_bound_formula(self):
        for n in (10, 100):
            results = run_concentration_experiment(
                ExperimentConfig(n=n, J=12, R=400, seed=SEED)
            ).results
            assert [(row["n"], row["j"]) for row in results["rows"]] == [(n, j) for j in range(13)]
            for row in results["rows"]:
                expected = 4.0 * (3.0 - 3.0 / n) / (1 << row["j"])
                assert row["bound"] == expected
                assert 0.0 <= row["frequency"] <= 1.0
            assert results["passed"]

    def test_bound_decreases_geometrically(self):
        bounds = [chebyshev_deviation_bound(100, j) for j in range(4, 13)]
        ratios = [a / b for a, b in zip(bounds, bounds[1:])]
        assert all(r == 2.0 for r in ratios)

    def test_single_n_default(self):
        cfg = ExperimentConfig(n=50, J=8, R=200, seed=SEED)
        rows = run_concentration_experiment(cfg).results["rows"]
        assert {row["n"] for row in rows} == {50}


class TestSandwich:
    @pytest.mark.parametrize(
        "process,dtype", [("empirical-step", np.int64), ("empirical-continuous", np.float64)]
    )
    def test_band_logic_on_injected_levels(self, process, dtype):
        # Level sums sum_h = n * stat_sq injected into the builder, one value
        # a level: exactly n/2 and 3n/2 are in band, any neighbour is not.
        n, J, R = 100, 12, 100
        below, above = (49, 151)
        if dtype is np.float64:
            below, above = np.nextafter(50.0, 0), np.nextafter(150.0, 200)
        levels = [(50, True), (150, True), (49, False), (151, False), (below, False),
                  (above, False), (0, False), (100, True), (75, True), (400, False)]
        levels += [(100, True)] * (J + 1 - len(levels))
        sum_h = np.tile(np.array([v for v, _ in levels], dtype=dtype), (R, 1))
        cfg = ExperimentConfig(process=process, n=n, J=J, R=R)
        results = EXPERIMENTS["sandwich"].build(cfg, {"sum_h": sum_h}).results
        assert results["in_band_frequency"] == [float(ok) for _, ok in levels]
        np.testing.assert_array_equal(results["per_replicate"]["sup_stat_sq"], 4.0)

    def test_step_experiment(self):
        cfg = ExperimentConfig(n=100, J=12, R=500, seed=SEED)
        results = run_sandwich_experiment(cfg).results
        assert results["passed"]
        assert all(f >= 0.95 for f in results["in_band_frequency"][-3:])
        assert results["tail_start"] == 9
        assert results["per_replicate"]["sup_stat_sq"].shape == (500,)
        assert np.all(results["per_replicate"]["tail_min_stat_sq"] >= 0.0)

    @pytest.mark.parametrize(
        "process,source", [("empirical-step", "step"), ("empirical-continuous", "continuous")]
    )
    def test_per_replicate_pair_is_the_graded_statistic(self, process, source):
        # The band grades the squared statistic sum_h / n, so only its sup
        # and tail minimum are written; their roots are the unsquared ones
        # bit for bit, since sqrt is monotone and correctly rounded.
        cfg = ExperimentConfig(process=process, n=30, J=10, R=150, seed=SEED, chunk_size=70)
        per = run_sandwich_experiment(cfg).results["per_replicate"]
        assert set(per) == {"sup_stat_sq", "tail_min_stat_sq"}
        stat = np.sqrt(_levels_chunk(cfg, 0, cfg.R, source).rows["sum_h"] / cfg.n)
        tail = stat[:, tail_window_start(cfg.J) :]
        np.testing.assert_array_equal(np.sqrt(per["sup_stat_sq"]), stat.max(axis=1))
        np.testing.assert_array_equal(np.sqrt(per["tail_min_stat_sq"]), tail.min(axis=1))

    def test_in_band_frequency_trend(self):
        cfg = ExperimentConfig(n=100, J=12, R=500, seed=SEED)
        freq = run_sandwich_experiment(cfg).results["in_band_frequency"]
        noise = 3.0 * math.sqrt(0.25 / cfg.R)
        for j in range(6, cfg.J):
            assert freq[j + 1] >= freq[j] - noise

    def test_continuous_process(self):
        cfg = ExperimentConfig(
            process="empirical-continuous", n=100, J=10, R=150, seed=SEED
        )
        results = run_sandwich_experiment(cfg).results
        assert len(results["in_band_frequency"]) == 11

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
        results = run_roynette_experiment(cfg).results
        assert results["passed"]
        assert results["in_band_frequency"][-1] >= 0.99
        assert results["mean_statistic"][-1] == pytest.approx(1.0, abs=0.01)

    def test_fourth_power_target(self):
        assert absolute_moment_target(2.0) == pytest.approx(1.0, rel=1e-12)
        assert absolute_moment_target(4.0) == pytest.approx(3.0**0.25, rel=1e-12)
        cfg = ExperimentConfig(
            process="brownian", J=10, R=300, seed=SEED, p=4.0, roynette_band_halfwidth=0.05
        )
        results = run_roynette_experiment(cfg).results
        assert results["mean_statistic"][-1] == pytest.approx(3.0**0.25, abs=0.02)

    def test_per_replicate_pair_is_the_graded_statistic(self):
        # The band grades the unsquared statistic, so only its sup and tail
        # minimum are written; their squares are the squared ones bit for bit.
        cfg = ExperimentConfig(process="brownian", J=8, R=150, seed=SEED, chunk_size=70)
        per = run_roynette_experiment(cfg).results["per_replicate"]
        assert set(per) == {"sup_stat", "tail_min_stat"}
        stat_sq = _roynette_chunk(cfg, 0, cfg.R).rows["stat"] ** 2
        tail = stat_sq[:, tail_window_start(cfg.J) :]
        np.testing.assert_array_equal(per["sup_stat"] ** 2, stat_sq.max(axis=1))
        np.testing.assert_array_equal(per["tail_min_stat"] ** 2, tail.min(axis=1))

    def test_bridge_report_identical_to_motion(self):
        base = ExperimentConfig(process="brownian", J=10, R=200, seed=SEED)
        motion = run_roynette_experiment(base)
        bridge = run_roynette_experiment(replace(base, process="bridge"))
        assert _json(motion.results) == _json(bridge.results)

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
