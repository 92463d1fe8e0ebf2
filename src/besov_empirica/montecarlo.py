"""Monte Carlo experiments over replicated processes, with deterministic
chunked aggregation and exact-oracle cross checks.

A replicate is one fresh sample (or synthesized path) and its full
coefficient triangle; replicates are independent work units addressed by
``stream_index``, grouped into fixed-size chunks whose boundaries depend
only on the replicate count.  Partial results are reduced strictly in
chunk order, so the output is bit-identical no matter how many worker
processes ran the chunks or in which order they finished.

Step-process chunks are batched: one kernel bins every sample of a chunk
at once and reduces all levels across the chunk, and its payloads are
integers (per-replicate level sums of ``H = S**2`` and ``H**2``, per-cell
sums of ``S`` and ``H``; per-cell sums of ``H**2`` are float64, exact below
``2**53``).  The coefficient scalings ``2**(j/2)/sqrt(n)`` and ``2**j/n``
are applied when the report is built.  All band and deviation events
reduce to integer comparisons on the per-level score sums
(``2*sum_h <= n`` etc.), so event counts carry no rounding at all.

The Gaussian kernel reads level statistics straight from the synthesis
draws, which are the path's level coefficients: it rebuilds no path and
builds no triangle, and a bridge shares the motion's statistics.

Runs with more than one worker share one spawn pool per process: it starts
on the first such call, is reused by every later call with the same worker
count, and is terminated at interpreter exit.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing
import threading
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

# ``level_statistic`` and ``brownian_motion`` are the reference for the
# Gaussian kernel; they stay importable from here because
# perfbench/tracing.py wraps them as this module's attributes.
from .besov import BesovParams, level_statistic, tail_window_start
# ``halfcell_counts`` and ``signed_sums_by_level`` are the per-replicate
# reference for the batched step kernel; they stay importable from here
# because perfbench/tracing.py wraps them as this module's attributes.
from .empirical import (
    empirical_coefficients,
    halfcell_counts,
    signed_sums_by_level,
    step_coefficient_scale,
)
from .errors import AggregationError, ParameterError
from .gaussian import MAX_SYNTH_LEVEL, brownian_motion, synthesis_draws
from .oracle import enumeration_oracle, oracle_applicable
from .sampling import GAUSSIAN_STREAM, UNIFORM_STREAM, SeedSpec, sample_uniform

PROCESSES = ("empirical-step", "empirical-continuous", "brownian", "bridge")

#: Oracle blocks are attached for levels up to this cap when enumerable.
ORACLE_LEVEL_CAP = 3

#: int64 safety for sums of H**2 (worst case n**4 per level).
MAX_MOMENT_SAMPLE = 20_000

#: Largest max level any run accepts: the Gaussian synthesis cap, which also
#: keeps the empirical half-cell arrays (``2**(J+1)`` entries) desk-scale.
MAX_LEVEL = MAX_SYNTH_LEVEL - 1

#: Config keys whose name differs from their ``ExperimentConfig`` field.
CONFIG_KEYS = {"J": "j_max", "R": "replicates"}

#: Fields that set how a run executes, never what it computes; reports
#: leave them out.
RUN_ONLY_FIELDS = ("workers", "chunk_size")


def check_max_level(J: int) -> None:
    """Reject a max level outside ``[1, MAX_LEVEL]`` before anything is allocated."""
    if J < 1:
        raise ParameterError("j_max", f"must be >= 1 (got {J})")
    if J > MAX_LEVEL:
        raise ParameterError("j_max", f"must be <= {MAX_LEVEL} (got {J})")


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings shared by every experiment runner.

    The fields are the config schema: ``config_schema`` derives the config
    keys and their types from them, and ``as_dict`` the report block.
    """

    process: str = "empirical-step"
    n: int = 100
    J: int = 12
    R: int = 2000
    p: float = 2.0
    alpha: float = 0.5
    seed: int = 42
    sandwich_confidence: float = 0.95
    roynette_confidence: float = 0.99
    roynette_band_halfwidth: float = 0.1
    coverage_threshold: float = 0.99
    coverage_se_multiplier: float = 3.0
    coverage_max_level: int = 8
    oracle_se_multiplier: float = 4.0
    concentration_se_multiplier: float = 3.0
    n_values: tuple = ()
    j_min: int = 0
    workers: int = 1
    chunk_size: int = 100

    def __post_init__(self):
        if self.process not in PROCESSES:
            raise ParameterError("process", f"must be one of {PROCESSES} (got {self.process!r})")
        if self.n < 2:
            raise ParameterError("n", f"must be >= 2 (got {self.n})")
        if self.J < 6:
            raise ParameterError("j_max", f"must be >= 6 (got {self.J})")
        check_max_level(self.J)
        if self.R < 100:
            raise ParameterError("replicates", f"must be >= 100 (got {self.R})")
        if not 0 <= self.seed < (1 << 64):
            raise ParameterError("seed", f"must be an unsigned 64-bit integer (got {self.seed})")
        BesovParams(p=self.p, alpha=self.alpha)
        for key in ("sandwich_confidence", "roynette_confidence"):
            value = getattr(self, key)
            if not 0.0 < value < 1.0:
                raise ParameterError(key, f"must lie in (0, 1) (got {value})")
        if self.roynette_band_halfwidth <= 0.0:
            raise ParameterError("roynette_band_halfwidth", "must be positive")
        if not 0.0 < self.coverage_threshold <= 1.0:
            raise ParameterError("coverage_threshold", "must lie in (0, 1]")
        for key in ("coverage_se_multiplier", "oracle_se_multiplier", "concentration_se_multiplier"):
            if getattr(self, key) <= 0.0:
                raise ParameterError(key, "must be positive")
        if self.coverage_max_level < 0:
            raise ParameterError(
                "coverage_max_level", f"must be >= 0 (got {self.coverage_max_level})"
            )
        if not 0 <= self.j_min <= self.J:
            raise ParameterError("j_min", f"must lie in [0, {self.J}] (got {self.j_min})")
        object.__setattr__(self, "n_values", tuple(int(v) for v in self.n_values))
        for v in self.n_values:
            if v < 2:
                raise ParameterError("n_values", f"sample sizes must be >= 2 (got {v})")
        if self.workers < 1:
            raise ParameterError("workers", f"must be >= 1 (got {self.workers})")
        if self.chunk_size < 1:
            raise ParameterError("chunk_size", f"must be >= 1 (got {self.chunk_size})")

    def as_dict(self) -> dict:
        """The report ``config`` block: every field but the run-only ones."""
        return {
            CONFIG_KEYS.get(f.name, f.name): getattr(self, f.name)
            for f in fields(self)
            if f.name not in RUN_ONLY_FIELDS
        }


def config_schema() -> dict:
    """Config key -> ``(field name, value type)`` for every ``ExperimentConfig`` field."""
    return {
        CONFIG_KEYS.get(f.name, f.name): (f.name, type(f.default))
        for f in fields(ExperimentConfig)
    }


def _check_square_statistic(config: ExperimentConfig) -> None:
    """Reject ``p``/``alpha`` settings an empirical experiment would ignore.

    The moment, concentration and sandwich experiments study the squared
    level statistic, i.e. ``p = 2`` and ``alpha = 1/2`` only.
    """
    if config.p != 2.0:
        raise ParameterError("p", f"this experiment uses p = 2 only (got {config.p})")
    if config.alpha != 0.5:
        raise ParameterError("alpha", f"this experiment uses alpha = 0.5 only (got {config.alpha})")


def chebyshev_deviation_bound(n: int, j: int) -> float:
    """The bound ``4 * (3 - 3/n) / 2**j`` on P(|2**-j sum G - 1| >= 1/2)."""
    return 4.0 * (3.0 - 3.0 / n) / (1 << j)


# ---------------------------------------------------------------------------
# Chunked execution and ordered aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChunkResult:
    """Partial result covering replicates ``start .. start + count - 1``."""

    start: int
    count: int
    payload: dict


def aggregate(parts, total: int, reducers: dict) -> dict:
    """Reduce chunk partials in replicate-index order.

    ``reducers`` maps payload key to ``"sum"`` (elementwise add) or
    ``"stack"`` (concatenate along axis 0).  The partials must cover
    replicates ``0..total-1`` exactly once.
    """
    ordered = sorted(parts, key=lambda part: part.start)
    expected = 0
    for part in ordered:
        if part.start != expected:
            raise AggregationError(
                f"replicate coverage broken at {expected} (next partial starts at {part.start})"
            )
        expected = part.start + part.count
    if expected != total:
        raise AggregationError(f"partials cover {expected} replicates, expected {total}")

    out = {}
    for key, mode in reducers.items():
        chunks = [part.payload[key] for part in ordered]
        if mode == "sum":
            acc = np.array(chunks[0], copy=True)
            for chunk in chunks[1:]:
                acc += chunk
            out[key] = acc
        elif mode == "stack":
            out[key] = np.concatenate(chunks, axis=0)
        else:
            raise ValueError(f"unknown reducer {mode!r}")
    return out


def _chunk_specs(R: int, chunk_size: int):
    return [(start, min(chunk_size, R - start)) for start in range(0, R, chunk_size)]


def _chunk_entry(name: str, cfg: ExperimentConfig, start: int, count: int) -> ChunkResult:
    return _CHUNK_FUNCTIONS[name](cfg, start, count)


#: This process's worker pool as ``(worker count, pool)`` once started.
_pool = None
_pool_lock = threading.RLock()


def shutdown_pool() -> None:
    """Terminate this process's worker pool, if it started one."""
    global _pool
    with _pool_lock:
        if _pool is not None:
            _pool[1].terminate()
            _pool[1].join()
            _pool = None


def _worker_pool(workers: int):
    """The spawn pool of this process, started on first use.

    A request for another worker count replaces it.
    """
    global _pool
    with _pool_lock:
        if _pool is not None and _pool[0] != workers:
            shutdown_pool()
        if _pool is None:
            _pool = (workers, multiprocessing.get_context("spawn").Pool(processes=workers))
        return _pool[1]


atexit.register(shutdown_pool)


def run_chunked(name: str, cfg: ExperimentConfig) -> list:
    """Run all chunks of an experiment, serially or on the process's pool."""
    specs = _chunk_specs(cfg.R, cfg.chunk_size)
    if cfg.workers <= 1:
        return [_CHUNK_FUNCTIONS[name](cfg, start, count) for start, count in specs]
    pool = _worker_pool(cfg.workers)
    try:
        return pool.starmap(_chunk_entry, [(name, cfg, start, count) for start, count in specs])
    except BaseException:
        # Chunks of an abandoned call may still be queued; start afresh.
        shutdown_pool()
        raise


# ---------------------------------------------------------------------------
# Chunk kernels
# ---------------------------------------------------------------------------


def _step_chunk(cfg: ExperimentConfig, start: int, count: int, cells: bool) -> ChunkResult:
    """Integer level sums of the step process for one chunk, all levels at once.

    The chunk's sorted samples are stacked into one ``count * n`` vector of
    finest half-cell indices ``floor(u * 2**(J+1))``; since ``u = k / 2**53``
    the product is exact and the binning equals ``halfcell_counts``.  At
    level ``j`` the points of one replicate that share a cell form a run of
    the vector, so ``np.add.reduceat`` over the run starts yields the signed
    sum ``S`` of every occupied cell, in O(count * n) per level.  Returns the
    per-replicate ``sum_k H`` (``H = S**2``) and, when ``cells`` is set,
    ``sum_k H**2`` plus per-cell sums of ``S``, ``H`` and ``H**2`` over the
    chunk.
    """
    J, n = cfg.J, cfg.n
    samples = np.stack(
        [
            sample_uniform(n, SeedSpec(cfg.seed, start + i, UNIFORM_STREAM)).sorted_values
            for i in range(count)
        ]
    )
    finest = (samples * float(1 << (J + 1))).astype(np.int64).ravel()
    row_starts = np.arange(0, count * n, n)
    new_run = np.empty(count * n, dtype=bool)
    sum_h = np.empty((count, J + 1), dtype=np.int64)
    payload = {"sum_h": sum_h}
    if cells:
        ncells = (1 << (J + 1)) - 1
        sum_h2 = np.empty((count, J + 1), dtype=np.int64)
        cell_s = np.zeros(ncells, dtype=np.int64)
        cell_h = np.zeros(ncells, dtype=np.int64)
        cell_h2 = np.zeros(ncells)
        payload.update(
            sum_h2=sum_h2, cell_sum_s=cell_s, cell_sum_h=cell_h, cell_sum_h2=cell_h2
        )
    for j in range(J + 1):
        cell = finest >> (J + 1 - j)
        score = 1 - 2 * ((finest >> (J - j)) & 1)
        np.not_equal(cell[1:], cell[:-1], out=new_run[1:])
        # Every replicate starts a run (row_starts[0] = 0 starts the first).
        new_run[row_starts] = True
        runs = np.flatnonzero(new_run)
        s = np.add.reduceat(score, runs)
        h = s * s
        by_row = np.searchsorted(runs, row_starts)
        sum_h[:, j] = np.add.reduceat(h, by_row)
        if cells:
            hh = h * h
            sum_h2[:, j] = np.add.reduceat(hh, by_row)
            k0 = cell[runs] + ((1 << j) - 1)
            np.add.at(cell_s, k0, s)
            np.add.at(cell_h, k0, h)
            np.add.at(cell_h2, k0, hh.astype(np.float64))
    return ChunkResult(start=start, count=count, payload=payload)


_MOMENT_REDUCERS = {
    "cell_sum_s": "sum",
    "cell_sum_h": "sum",
    "cell_sum_h2": "sum",
    "sum_h": "stack",
    "sum_h2": "stack",
}


def _continuous_levels_chunk(cfg: ExperimentConfig, start: int, count: int) -> ChunkResult:
    J, n = cfg.J, cfg.n
    stat_sq = np.empty((count, J + 1))
    for i in range(count):
        sample = sample_uniform(n, SeedSpec(cfg.seed, start + i, UNIFORM_STREAM))
        tri = empirical_coefficients(sample, J, source="continuous")
        for j in range(J + 1):
            stat_sq[i, j] = float(np.sum(tri.levels[j] ** 2)) / (1 << j)
    return ChunkResult(start=start, count=count, payload={"stat_sq": stat_sq})


def _roynette_chunk(cfg: ExperimentConfig, start: int, count: int) -> ChunkResult:
    """Level statistics ``(2**-j sum_k |g_jk|**p) ** (1/p)`` from the draws.

    Level ``j`` of a replicate is draws ``[2**j, 2**(j+1))`` of its
    ``synthesis_draws(J + 1, ...)``, for the motion and the bridge alike.
    The arithmetic is ``level_statistic``'s at ``alpha = 1/2`` in the same
    order, so the statistics are bit-identical to it.  ``|g|**p`` is taken
    in place: a fresh 2**(J+1)-entry temporary per replicate costs more
    than the arithmetic.
    """
    J, p = cfg.J, float(cfg.p)
    stats = np.empty((count, J + 1))
    for i in range(count):
        draws = synthesis_draws(J + 1, SeedSpec(cfg.seed, start + i, GAUSSIAN_STREAM))
        powered = np.power(np.abs(draws, out=draws), p, out=draws)
        for j in range(J + 1):
            power_sum = float(powered[1 << j : 1 << (j + 1)].sum())
            stats[i, j] = (2.0 ** -j * power_sum) ** (1.0 / p)
    return ChunkResult(start=start, count=count, payload={"stat": stats})


_CHUNK_FUNCTIONS = {
    "moment": partial(_step_chunk, cells=True),
    "step_levels": partial(_step_chunk, cells=False),
    "continuous_levels": _continuous_levels_chunk,
    "roynette": _roynette_chunk,
}


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _mean_se(values: np.ndarray):
    R = len(values)
    mean = float(np.mean(values))
    if R < 2:
        return mean, float("nan")
    return mean, float(np.std(values, ddof=1) / math.sqrt(R))


@dataclass
class MomentReport:
    """Estimated moments with standard errors and oracle cross checks."""

    config: ExperimentConfig
    R: int
    cell_stats: dict
    level_stats: dict
    oracle_blocks: list
    coverage: dict
    nominal_variance_mismatch: bool
    passed: bool

    def as_dict(self) -> dict:
        return {
            "report": "moments",
            "config": self.config.as_dict(),
            "results": {
                "replicates": self.R,
                "cell_stats": self.cell_stats,
                "level_stats": self.level_stats,
                "oracle": self.oracle_blocks,
                "coverage": self.coverage,
                "nominal_variance_mismatch": self.nominal_variance_mismatch,
                "passed": self.passed,
            },
        }


def run_moment_experiment(config: ExperimentConfig) -> MomentReport:
    """Estimate every tracked moment of the step-process coefficients."""
    _check_square_statistic(config)
    if config.process != "empirical-step":
        raise ParameterError(
            "process", "moment verification is defined for the empirical-step process"
        )
    if config.n > MAX_MOMENT_SAMPLE:
        raise ParameterError("n", f"moment experiment caps n at {MAX_MOMENT_SAMPLE}")
    # int64 per-cell sums over all replicates: |sum S| <= R*n and sum H <= R*n**2.
    if config.R * config.n**2 >= 1 << 63:
        raise ParameterError(
            "replicates", f"replicates * n**2 must stay below 2**63 (got {config.R} at n={config.n})"
        )
    parts = run_chunked("moment", config)
    data = aggregate(parts, config.R, _MOMENT_REDUCERS)
    J, n, R = config.J, config.n, config.R

    cell_stats = {}
    for j in range(J + 1):
        lo = (1 << j) - 1
        hi = lo + (1 << j)
        # alpha = scale * S and G = 2**j/n * H, so alpha**2 = G.
        g_scale = (1 << j) / n
        sum_g = data["cell_sum_h"][lo:hi] * g_scale
        mean_alpha = data["cell_sum_s"][lo:hi] * step_coefficient_scale(j, n) / R
        mean_g = sum_g / R
        var_alpha = np.maximum(sum_g - R * mean_alpha**2, 0.0) / (R - 1)
        var_g = np.maximum(data["cell_sum_h2"][lo:hi] * g_scale**2 - R * mean_g**2, 0.0) / (R - 1)
        mean_h = data["cell_sum_h"][lo:hi] / R
        var_h = np.maximum(data["cell_sum_h2"][lo:hi] - R * mean_h**2, 0.0) / (R - 1)
        cell_stats[j] = {
            "mean_alpha": mean_alpha.tolist(),
            "se_alpha": np.sqrt(var_alpha / R).tolist(),
            "mean_g": mean_g.tolist(),
            "se_g": np.sqrt(var_g / R).tolist(),
            "mean_h": mean_h.tolist(),
            "se_h": np.sqrt(var_h / R).tolist(),
        }

    level_stats = {
        "mean_h_pooled": [],
        "se_h_pooled": [],
        "mean_h2_pooled": [],
        "se_h2_pooled": [],
        "mean_pair": [],
        "se_pair": [],
        "var_g_pooled": [],
        "se_var_g_pooled": [],
        "mean_sum_g": [],
        "se_sum_g": [],
        "var_sum_g": [],
        "se_var_sum_g": [],
    }
    for j in range(J + 1):
        k_cells = 1 << j
        a = data["sum_h2"][:, j] / k_cells  # per-replicate mean of H**2
        b = data["sum_h"][:, j] / k_cells  # per-replicate mean of H
        mh, se_mh = _mean_se(b)
        mh2, se_mh2 = _mean_se(a)
        level_stats["mean_h_pooled"].append(mh)
        level_stats["se_h_pooled"].append(se_mh)
        level_stats["mean_h2_pooled"].append(mh2)
        level_stats["se_h2_pooled"].append(se_mh2)
        if k_cells >= 2:
            # Mean of H_k H_k' over ordered pairs of distinct cells; the
            # int64 numerator is at most n**4 and exact.
            pair = (data["sum_h"][:, j] ** 2 - data["sum_h2"][:, j]) / (k_cells * (k_cells - 1))
            mp, se_mp = _mean_se(pair)
        else:
            mp, se_mp = float("nan"), float("nan")
        level_stats["mean_pair"].append(mp)
        level_stats["se_pair"].append(se_mp)
        # Var(G) via the plug-in E[H^2] - E[H]^2, delta-method standard error.
        g_scale_sq = ((1 << j) / n) ** 2
        var_h_pooled = mh2 - mh**2
        influence = (a - mh2) - 2.0 * mh * (b - mh)
        se_var_h = float(np.std(influence, ddof=1) / math.sqrt(R))
        level_stats["var_g_pooled"].append(g_scale_sq * var_h_pooled)
        level_stats["se_var_g_pooled"].append(g_scale_sq * se_var_h)
        t = ((1 << j) / n) * data["sum_h"][:, j]
        mt, se_mt = _mean_se(t)
        level_stats["mean_sum_g"].append(mt)
        level_stats["se_sum_g"].append(se_mt)
        vt = float(np.var(t, ddof=1))
        se_vt = float(np.std((t - mt) ** 2, ddof=1) / math.sqrt(R))
        level_stats["var_sum_g"].append(vt)
        level_stats["se_var_sum_g"].append(se_vt)

    oracle_blocks = []
    mismatch = False
    oracle_ok = True
    for j in range(min(J, ORACLE_LEVEL_CAP) + 1):
        if not oracle_applicable(n, j):
            continue
        om = enumeration_oracle(n, j)
        comparisons = []

        def compare(name, estimate, se, exact):
            nonlocal oracle_ok
            within = abs(estimate - float(exact)) <= config.oracle_se_multiplier * se
            oracle_ok = oracle_ok and within
            comparisons.append(
                {
                    "moment": name,
                    "estimate": estimate,
                    "se": se,
                    "oracle": float(exact),
                    "oracle_fraction": str(exact),
                    "within": within,
                }
            )

        compare("e_h", level_stats["mean_h_pooled"][j], level_stats["se_h_pooled"][j], om.e_h)
        compare("e_h2", level_stats["mean_h2_pooled"][j], level_stats["se_h2_pooled"][j], om.e_h2)
        compare("var_g", level_stats["var_g_pooled"][j], level_stats["se_var_g_pooled"][j], om.var_g)
        if om.e_hh is not None:
            compare("e_hh", level_stats["mean_pair"][j], level_stats["se_pair"][j], om.e_hh)
        compare("var_sum_g", level_stats["var_sum_g"][j], level_stats["se_var_sum_g"][j], om.var_sum_g)
        mismatch = mismatch or not om.var_sum_g_matches_nominal
        block = om.as_dict()
        block["comparisons"] = comparisons
        oracle_blocks.append(block)

    max_level = min(config.coverage_max_level, J)
    hits = 0
    total = 0
    for j in range(max_level + 1):
        mean_g = np.asarray(cell_stats[j]["mean_g"])
        se_g = np.asarray(cell_stats[j]["se_g"])
        hits += int(np.sum(np.abs(mean_g - 1.0) <= config.coverage_se_multiplier * se_g))
        total += len(mean_g)
    coverage = {
        "fraction": hits / total,
        "hits": hits,
        "cells": total,
        "max_level": max_level,
        "se_multiplier": config.coverage_se_multiplier,
        "threshold": config.coverage_threshold,
    }
    passed = coverage["fraction"] >= config.coverage_threshold and oracle_ok
    return MomentReport(
        config=config,
        R=R,
        cell_stats=cell_stats,
        level_stats=level_stats,
        oracle_blocks=oracle_blocks,
        coverage=coverage,
        nominal_variance_mismatch=mismatch,
        passed=passed,
    )


@dataclass
class ConcentrationReport:
    """Per-(n, j) deviation frequencies against the ``4 * eps`` bound."""

    config: ExperimentConfig
    R: int
    rows: list
    passed: bool

    def as_dict(self) -> dict:
        return {
            "report": "concentration",
            "config": self.config.as_dict(),
            "results": {"replicates": self.R, "rows": self.rows, "passed": self.passed},
        }


def _level_event_matrix(cfg: ExperimentConfig):
    """Per-replicate squared level statistic and exact event matrices."""
    if cfg.process == "empirical-step":
        parts = run_chunked("step_levels", cfg)
        sh = aggregate(parts, cfg.R, {"sum_h": "stack"})["sum_h"]
        stat_sq = sh / cfg.n
        deviated = (2 * sh <= cfg.n) | (2 * sh >= 3 * cfg.n)
        in_band = (2 * sh >= cfg.n) & (2 * sh <= 3 * cfg.n)
    elif cfg.process == "empirical-continuous":
        parts = run_chunked("continuous_levels", cfg)
        stat_sq = aggregate(parts, cfg.R, {"stat_sq": "stack"})["stat_sq"]
        deviated = np.abs(stat_sq - 1.0) >= 0.5
        in_band = (stat_sq >= 0.5) & (stat_sq <= 1.5)
    else:
        raise ParameterError("process", "this experiment needs an empirical process")
    return stat_sq, deviated, in_band


def run_concentration_experiment(config: ExperimentConfig) -> ConcentrationReport:
    """Check P(|2**-j sum_k G_jk - 1| >= 1/2) against ``4 * (3 - 3/n)/2**j``.

    Covers every sample size in ``config.n_values`` (falling back to
    ``config.n``) and levels ``j_min..J``; a cell passes when its observed
    frequency does not exceed the bound plus the configured multiple of
    the binomial standard error.
    """
    _check_square_statistic(config)
    n_list = config.n_values or (config.n,)
    rows = []
    passed = True
    for n in n_list:
        cfg_n = replace(config, n=n, n_values=())
        _, deviated, _ = _level_event_matrix(cfg_n)
        for j in range(config.j_min, config.J + 1):
            freq = float(np.mean(deviated[:, j]))
            bound = chebyshev_deviation_bound(n, j)
            se = math.sqrt(freq * (1.0 - freq) / config.R)
            ok = freq <= bound + config.concentration_se_multiplier * se
            passed = passed and ok
            rows.append(
                {"n": n, "j": j, "frequency": freq, "bound": bound, "se": se, "passed": ok}
            )
    return ConcentrationReport(config=config, R=config.R, rows=rows, passed=passed)


@dataclass
class SandwichReport:
    """Band frequencies plus per-replicate sup and tail-min statistics."""

    kind: str
    config: ExperimentConfig
    R: int
    statistic: str
    band_lo: float
    band_hi: float
    target: float | None
    in_band_freq: list
    mean_stat: list
    sd_stat: list
    sup_stat: np.ndarray
    tail_min_stat: np.ndarray
    sup_stat_sq: np.ndarray
    tail_min_stat_sq: np.ndarray
    tail_start: int
    confidence: float
    passed: bool

    def results_dict(self) -> dict:
        return {
            "replicates": self.R,
            "statistic": self.statistic,
            "band": [self.band_lo, self.band_hi],
            "target": self.target,
            "in_band_frequency": self.in_band_freq,
            "mean_statistic": self.mean_stat,
            "sd_statistic": self.sd_stat,
            "per_replicate": {
                "sup_stat": [float(x) for x in self.sup_stat],
                "tail_min_stat": [float(x) for x in self.tail_min_stat],
                "sup_stat_sq": [float(x) for x in self.sup_stat_sq],
                "tail_min_stat_sq": [float(x) for x in self.tail_min_stat_sq],
            },
            "tail_start": self.tail_start,
            "confidence": self.confidence,
            "passed": self.passed,
        }

    def as_dict(self) -> dict:
        return {
            "report": self.kind,
            "config": self.config.as_dict(),
            "results": self.results_dict(),
        }


def _band_report(kind, config, stat, stat_sq, in_band, top_levels, confidence, **band):
    """A ``SandwichReport`` from per-replicate statistics and band events.

    Passes when the in-band frequency at each of the top ``top_levels``
    levels reaches ``confidence``.
    """
    J = config.J
    tail_start = tail_window_start(J)
    freq = [float(np.mean(in_band[:, j])) for j in range(J + 1)]
    return SandwichReport(
        kind=kind,
        config=config,
        R=config.R,
        in_band_freq=freq,
        mean_stat=[float(np.mean(stat[:, j])) for j in range(J + 1)],
        sd_stat=[float(np.std(stat[:, j], ddof=1)) for j in range(J + 1)],
        sup_stat=stat.max(axis=1),
        tail_min_stat=stat[:, tail_start:].min(axis=1),
        sup_stat_sq=stat_sq.max(axis=1),
        tail_min_stat_sq=stat_sq[:, tail_start:].min(axis=1),
        tail_start=tail_start,
        confidence=confidence,
        passed=all(f >= confidence for f in freq[J + 1 - top_levels :]),
        **band,
    )


def run_sandwich_experiment(config: ExperimentConfig) -> SandwichReport:
    """Frequencies of ``1/2 <= 2**-j sum_k |c_jk|**2 <= 3/2`` per level.

    Passes when the in-band frequency at the top three levels reaches
    ``sandwich_confidence``.  Per-replicate sup and tail-min summaries of
    the (unsquared) level statistic back the finite-norm and
    nonvanishing-tail surrogates.
    """
    _check_square_statistic(config)
    if config.J < 10:
        raise ParameterError("j_max", f"sandwich verification needs j_max >= 10 (got {config.J})")
    stat_sq, _, in_band = _level_event_matrix(config)
    return _band_report(
        "sandwich", config, np.sqrt(stat_sq), stat_sq, in_band,
        top_levels=3, confidence=config.sandwich_confidence,
        statistic="squared_level", band_lo=0.5, band_hi=1.5, target=None,
    )


def absolute_moment_target(p: float) -> float:
    """``(E |N(0,1)|**p) ** (1/p)``: the level-statistic limit for Gaussians."""
    log_moment = 0.5 * p * math.log(2.0) + math.lgamma((p + 1.0) / 2.0) - 0.5 * math.log(math.pi)
    return math.exp(log_moment / p)


def run_roynette_experiment(config: ExperimentConfig) -> SandwichReport:
    """Level statistics ``(2**-j sum |g_jk|**p) ** (1/p)`` of Gaussian paths.

    The statistic concentrates at ``(E |N(0,1)|**p) ** (1/p)``; the report
    tracks the frequency inside ``target +- roynette_band_halfwidth`` per
    level and passes when the top level reaches ``roynette_confidence``.
    Bridge and motion share level coefficients, so their reports carry
    identical results for equal seeds.
    """
    if config.process not in ("brownian", "bridge"):
        raise ParameterError("process", "this experiment needs a Gaussian process")
    if config.alpha != 0.5:
        raise ParameterError(
            "alpha", "the Gaussian level statistic uses the alpha = 1/2 weighting"
        )
    parts = run_chunked("roynette", config)
    stat = aggregate(parts, config.R, {"stat": "stack"})["stat"]
    target = absolute_moment_target(config.p)
    lo = target - config.roynette_band_halfwidth
    hi = target + config.roynette_band_halfwidth
    return _band_report(
        "roynette", config, stat, stat**2, (stat >= lo) & (stat <= hi),
        top_levels=1, confidence=config.roynette_confidence,
        statistic="level", band_lo=lo, band_hi=hi, target=target,
    )
