"""Monte Carlo experiments over replicated processes, with deterministic
chunked aggregation and exact-oracle cross checks.

A replicate is one fresh sample (or synthesized path) and its level
statistics; replicates are independent work units addressed by
``stream_index``, grouped into fixed-size chunks whose boundaries depend
only on the replicate count.  Partial results (``ChunkResult``: ``rows``
stacked per replicate, ``sums`` added) are combined strictly in chunk
order, so the output is bit-identical no matter how many worker processes
ran the chunks or in which order they finished.  Each experiment
is one ``Experiment`` record, and ``run_experiments`` plans, runs and builds
the ``Report`` of every run.

The empirical chunk kernels are one batched function, ``_levels_chunk``:
it draws a chunk's uniform samples as one sorted matrix of lattice
integers (``sampling.uniform_samples``: the chunk's stream keys derived at
once, the raw words of short streams computed in one Philox pass and those
of long ones from one generator re-keyed per stream, and all of them mapped
to lattice integers in one pass), hands it to ``empirical.level_cells``
without a float conversion, and sums, level by level, the squares of the
occupied cells' values it yields for the whole chunk, O(n) per level and
replicate (``empirical_coefficients`` scatters the same cells into a
triangle).  A process name only picks the cell source.  Step-process
payloads are integers (rows of per-replicate level sums of ``H = S**2``
and ``H**2``; per-cell sums of ``S``, ``H`` and ``H**2``, the last in
float64, exact below ``2**53``, up to ``COVERAGE_MAX_LEVEL``); the
continuous version's level sums of ``(n * d)**2`` are float64.
The coefficient scalings ``2**(j/2)/sqrt(n)`` and ``2**j/n`` are applied
when the report is built.  Band and deviation events compare the doubled
level sums with ``n`` and ``3n`` (``2*sum_h <= n`` etc.); doubling is
exact, so event counts carry no rounding on either payload.

The Gaussian kernel reads level statistics straight from the synthesis
draws, which are the path's level coefficients: it rebuilds no path and
builds no triangle, and a bridge shares the motion's statistics.  Its
streams come from the same re-keyed generator, one buffer a chunk.

Runs with more than one worker share one pool per process: it starts on
the first such call, is reused by every later call with the same worker
count, and is terminated at interpreter exit.  On Linux its workers are
forked, so they inherit the imported package instead of importing it again;
elsewhere they are spawned (Windows has no fork, and macOS system libraries
are not fork-safe).  Forking is safe here because the parent calls no BLAS
routine before the pool starts, holds no report yet, and runs no thread of
its own (OpenBLAS's parked pool thread aside).
"""

from __future__ import annotations

import atexit
import itertools
import math
import multiprocessing
import sys
import threading
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

# ``level_statistic`` and ``brownian_motion`` are the reference for the
# Gaussian kernel; they stay importable from here because
# perfbench/tracing.py wraps them as this module's attributes.
from .besov import level_statistic, tail_window_start
from .empirical import level_cells, step_coefficient_scale
# Reference-only, called by no code path here: the per-sample step form and the
# triangle of ``level_cells``' cells.  perfbench/tracing.py wraps them as this
# module's attributes.
from .empirical import empirical_coefficients, halfcell_counts, signed_sums_by_level  # noqa: F401
from .errors import AggregationError, ParameterError
from .gaussian import MAX_SYNTH_LEVEL, brownian_motion
from .oracle import enumeration_oracle, nominal_sum_variance, oracle_applicable, sum_variance
from .sampling import GAUSSIAN_STREAM, check_streams, stream_generators, uniform_samples
# Reference-only: ``uniform_samples`` draws the same samples a chunk at a time.
# perfbench/tracing.py wraps it as this module's attribute.
from .sampling import sample_uniform  # noqa: F401

PROCESSES = ("empirical-step", "empirical-continuous", "brownian", "bridge")

#: Oracle blocks are attached at the levels up to this cap ``oracle_applicable`` accepts.
ORACLE_LEVEL_CAP = 3

# Pass rules of the reports.  They grade fixed claims of the paper, so they
# are constants, not settings.
#: An oracle moment passes within this many standard errors.
ORACLE_SE_MULTIPLIER = 4.0
#: A cell's mean ``G`` covers 1 within this many standard errors ...
COVERAGE_SE_MULTIPLIER = 3.0
#: ... counted at levels ``0..COVERAGE_MAX_LEVEL`` ...
COVERAGE_MAX_LEVEL = 8
#: ... in at least this share of the cells.
COVERAGE_THRESHOLD = 0.99
#: A deviation frequency passes up to the bound plus this many standard errors.
CONCENTRATION_SE_MULTIPLIER = 3.0
#: In-band frequency the top three sandwich levels must reach.
SANDWICH_CONFIDENCE = 0.95
#: In-band frequency the top Gaussian level must reach.
ROYNETTE_CONFIDENCE = 0.99

#: int64 safety for sums of H**2 (worst case n**4 per level).
MAX_MOMENT_SAMPLE = 20_000

#: Most bytes a verification run may hold, estimated before any draw by
#: ``check_run``.
MAX_RUN_BYTES = 1 << 30

#: Largest max level any run accepts: the Gaussian synthesis cap, which also
#: keeps ``2**(J+1)``-entry draw buffers and coefficient triangles desk-scale.
MAX_LEVEL = MAX_SYNTH_LEVEL - 1

#: Most sample points one chunk may stack (``n * chunk_size``).  The step
#: kernels peak near 44 to 48 bytes per stacked point (int64 draws, cell
#: indices and per-level temporaries; tracemalloc peak of one chunk at
#: n = 10**4 with 100 replicates), so 2**22 points stay near 190 MiB, well
#: under 1 GiB.  The continuous kernel also holds knots, nodes, gaps and
#: slope jumps: 91 to 133 bytes per point (n = 10**4 down to 4), so at most
#: about 560 MiB.  At small n the per-replicate level sums dominate;
#: ``CHUNK_PEAK_BYTES`` counts both.
MAX_CHUNK_POINTS = 1 << 22

#: Kernel -> bytes one running chunk holds at its peak per sample point, per
#: replicate and level, per finest cell (``2**(J+1)``, the Gaussian draw
#: buffer) and per chunk (the moment kernel's 511 or fewer per-cell sums and
#: their pickled copy).  Rounded up from tracemalloc peaks of one chunk at
#: n = 2 .. 10**4 and J = 6 .. 20, the pickled result included;
#: ``tests/test_montecarlo.py`` checks them.  The roynette bytes per
#: replicate and level also cover the chunk's stream keys.
CHUNK_PEAK_BYTES = {
    "moment": (82, 64, 0, 48 << 10),
    "step_levels": (76, 32, 0, 0),
    "continuous_levels": (136, 32, 0, 0),
    "roynette": (0, 48, 20, 0),
}

#: Most worker processes a run may start.
MAX_WORKERS = 64

#: Largest integrability exponent ``p`` a run accepts.  The Gaussian kernel
#: sums ``|g|**p`` over at most ``2**23`` draws of a level; with every
#: ``|g| <= 10`` that sum stays finite up to this power of two, since
#: ``10**256 * 2**23 < 1.8e308``.
MAX_P = 256

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


def check_seed(seed: int) -> None:
    """Reject a master seed that is not an unsigned 64-bit integer, naming ``seed``."""
    if not 0 <= seed < (1 << 64):
        raise ParameterError("seed", f"must be an unsigned 64-bit integer (got {seed})")


def check_sample_points(n: int, chunk_size: int = 1) -> None:
    """Reject a chunk of more than ``MAX_CHUNK_POINTS`` points before any draw."""
    if n * chunk_size > MAX_CHUNK_POINTS:
        points = f"{n}" if chunk_size == 1 else f"{n} * chunk_size {chunk_size}"
        raise ParameterError(
            "n", f"at most {MAX_CHUNK_POINTS} sample points at once (got {points})"
        )


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
    seed: int = 42
    roynette_band_halfwidth: float = 0.1
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
        check_seed(self.seed)
        if not 1.0 <= self.p <= MAX_P:
            raise ParameterError("p", f"must lie in [1, {MAX_P}] (got {self.p})")
        if self.roynette_band_halfwidth <= 0.0:
            raise ParameterError("roynette_band_halfwidth", "must be positive")
        if self.workers < 1:
            raise ParameterError("workers", f"must be >= 1 (got {self.workers})")
        if self.workers > MAX_WORKERS:
            raise ParameterError("workers", f"must be <= {MAX_WORKERS} (got {self.workers})")
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


def check_settings(config: ExperimentConfig, kind: str) -> None:
    """Reject, before any draw, a setting that ``verify-<kind>`` ignores.

    ``kind`` is an ``EXPERIMENTS`` key, or ``"all"``: the suite reads what
    its experiments read and sets each one's process itself.
    """
    records = [EXPERIMENTS[kind]] if kind in EXPERIMENTS else EXPERIMENTS.values()
    reads = tuple(name for record in records for name in record.reads)
    processes = tuple(records[0].kernels) if kind in EXPERIMENTS else (ExperimentConfig.process,)
    for f in fields(config):
        value = getattr(config, f.name)
        accepted = processes if f.name == "process" else (f.default,)
        if f.name not in reads + RUN_ONLY_FIELDS and value not in accepted:
            raise ParameterError(
                CONFIG_KEYS.get(f.name, f.name),
                f"must be {' or '.join(map(repr, accepted))} for verify-{kind} (got {value!r})",
            )


def chunk_peak_bytes(kernel: str, n: int, J: int, count: int) -> int:
    """Estimated peak bytes of one running ``kernel`` chunk of ``count``
    replicates, its pickled result included (``CHUNK_PEAK_BYTES``)."""
    per_point, per_level, per_cell, per_chunk = CHUNK_PEAK_BYTES[kernel]
    return count * (per_point * n + per_level * (J + 1)) + per_cell * (1 << (J + 1)) + per_chunk


def run_bytes(config: ExperimentConfig, kind: str) -> int:
    """Estimated peak bytes of a ``verify-<kind>`` run: the record's
    ``held_bytes`` model plus the ``CHUNK_PEAK_BYTES`` of every chunk that
    runs at once, one per worker up to the chunk count."""
    experiment = EXPERIMENTS[kind]
    n, J, R = config.n, config.J, config.R
    per_chunk, per_level, per_replicate = experiment.held_bytes
    chunks = -(-R // config.chunk_size)
    peak = chunk_peak_bytes(experiment.kernels[config.process], n, J, min(config.chunk_size, R))
    held = per_chunk * chunks + R * (per_level * (J + 1) + per_replicate)
    return min(config.workers, chunks) * peak + held


def check_run(config: ExperimentConfig, kind: str) -> None:
    """Reject, before any draw, a ``verify-<kind>`` run that cannot go ahead.

    ``kind`` is an ``EXPERIMENTS`` key.  Checks ``check_settings``, the
    sample-point cap of a kernel that stacks sample points (on the chunks
    the run stacks: ``chunk_size`` replicates, or ``R`` if fewer), the
    experiment's own bounds (its record's ``check``), and ``run_bytes``
    against ``MAX_RUN_BYTES``.  The level cap stays in ``ExperimentConfig``:
    ``run_bytes`` must never see an unchecked ``J``.
    """
    check_settings(config, kind)
    experiment = EXPERIMENTS[kind]
    if CHUNK_PEAK_BYTES[experiment.kernels[config.process]][0]:
        check_sample_points(config.n, min(config.chunk_size, config.R))
    experiment.check(config)
    held = run_bytes(config, kind)
    if held > MAX_RUN_BYTES:
        # Blame the workers if one would do, else the replicates: at one
        # worker and the fewest replicates every run fits, the largest being
        # a continuous chunk of MAX_CHUNK_POINTS points (about 570 MB).
        one_fits = run_bytes(replace(config, workers=1), kind) <= MAX_RUN_BYTES
        raise ParameterError(
            "workers" if one_fits else "replicates",
            f"the {kind} run would hold about {held >> 20} MiB, over its {MAX_RUN_BYTES >> 20}"
            f" MiB cap (j_max {config.J}, replicates {config.R}, chunk_size {config.chunk_size},"
            f" workers {config.workers})",
        )


def chebyshev_deviation_bound(n: int, j: int) -> float:
    """The bound ``4 * (3 - 3/n) / 2**j`` on P(|2**-j sum G - 1| >= 1/2)."""
    return 4.0 * (3.0 - 3.0 / n) / (1 << j)


# ---------------------------------------------------------------------------
# Chunked execution and ordered aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChunkResult:
    """Partial result covering replicates ``start .. start + count - 1``:
    ``rows`` maps a key to an array of one row per replicate, ``sums`` to an
    array summed over the chunk's replicates."""

    start: int
    count: int
    rows: dict
    sums: dict = field(default_factory=dict)


def aggregate(parts, total: int) -> dict:
    """Combine chunk partials in replicate-index order.

    The result maps every ``rows`` key to its rows stacked along axis 0, and
    every ``sums`` key to its arrays added elementwise.  The partials must
    cover replicates ``0..total-1`` exactly once.
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

    first, rest = ordered[0], ordered[1:]
    out = {key: np.concatenate([part.rows[key] for part in ordered]) for key in first.rows}
    for key, value in first.sums.items():
        out[key] = np.array(value, copy=True)
        for part in rest:
            out[key] += part.sums[key]
    return out


def _chunk_specs(R: int, chunk_size: int):
    return [(start, min(chunk_size, R - start)) for start in range(0, R, chunk_size)]


#: Start method of the worker pool: ``fork`` on Linux, ``spawn`` elsewhere.
POOL_START_METHOD = "fork" if sys.platform.startswith("linux") else "spawn"

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
    """The worker pool of this process, started on first use with
    ``POOL_START_METHOD``.

    A request for another worker count replaces it.
    """
    global _pool
    with _pool_lock:
        if _pool is not None and _pool[0] != workers:
            shutdown_pool()
        if _pool is None:
            context = multiprocessing.get_context(POOL_START_METHOD)
            _pool = (workers, context.Pool(processes=workers))
        return _pool[1]


atexit.register(shutdown_pool)


def run_chunked(name: str, cfg: ExperimentConfig) -> list:
    """Run all chunks of an experiment, serially or on the process's pool.

    The kernels are module functions or ``partial``s of them, pickled by
    reference: a forked worker finds them in the module it inherited, a
    spawned one in the module it imports.
    """
    kernel = _CHUNK_FUNCTIONS[name]
    args = [(cfg, start, count) for start, count in _chunk_specs(cfg.R, cfg.chunk_size)]
    if cfg.workers <= 1:
        return list(itertools.starmap(kernel, args))
    pool = _worker_pool(cfg.workers)
    try:
        return pool.starmap(kernel, args)
    except BaseException:
        # Chunks of an abandoned call may still be queued; start afresh.
        shutdown_pool()
        raise


# ---------------------------------------------------------------------------
# Chunk kernels
# ---------------------------------------------------------------------------


def _levels_chunk(cfg: ExperimentConfig, start: int, count: int, source: str,
                  cells: bool = False) -> ChunkResult:
    """Level sums of squared ``level_cells`` values for one chunk, all levels at once.

    Sums the cell values ``v`` of ``source`` on the chunk's
    ``uniform_samples`` lattice into the per-replicate row
    ``sum_h = sum_k v**2``: int64 ``sum_k H`` (``H = S**2``) for the score
    sums ``S`` of ``"step"``, float64 ``sum_k (n * d)**2`` for
    ``"continuous"``.  When ``cells`` is set (step only), also the row
    ``sum_k H**2`` and the sums of ``S``, ``H`` and ``H**2`` per cell over
    the chunk, at levels ``0..COVERAGE_MAX_LEVEL`` only (511 cells at most).
    """
    J = cfg.J
    sum_h = np.empty((count, J + 1), dtype=np.int64 if source == "step" else np.float64)
    rows, sums = {"sum_h": sum_h}, {}
    if cells:
        ncells = (2 << min(J, COVERAGE_MAX_LEVEL)) - 1
        rows["sum_h2"] = sum_h2 = np.empty((count, J + 1), dtype=np.int64)
        cell_s = np.zeros(ncells, dtype=np.int64)
        cell_h = np.zeros(ncells, dtype=np.int64)
        cell_h2 = np.zeros(ncells)
        sums = {"cell_sum_s": cell_s, "cell_sum_h": cell_h, "cell_sum_h2": cell_h2}
    levels = level_cells(uniform_samples(cfg.n, cfg.seed, start, count), J, source)
    for j, (first, occupied, v) in enumerate(levels):
        h = v * v
        sum_h[:, j] = np.add.reduceat(h, first)
        if cells:
            hh = h * h
            sum_h2[:, j] = np.add.reduceat(hh, first)
            if j <= COVERAGE_MAX_LEVEL:
                k0 = occupied + ((1 << j) - 1)
                np.add.at(cell_s, k0, v)
                np.add.at(cell_h, k0, h)
                np.add.at(cell_h2, k0, hh.astype(np.float64))
    return ChunkResult(start, count, rows, sums)


def _roynette_chunk(cfg: ExperimentConfig, start: int, count: int) -> ChunkResult:
    """Level statistics ``(2**-j sum_k |g_jk|**p) ** (1/p)`` from the draws.

    Level ``j`` of a replicate is draws ``[2**j, 2**(j+1))`` of its
    ``gaussian.synthesis_draws(J + 1, ...)``, for the motion and the bridge
    alike; the generator ``stream_generators`` re-keys per stream draws them
    into one buffer for the chunk.  The arithmetic is ``level_statistic``'s
    at ``alpha = 1/2`` in the same order, so the statistics are
    bit-identical to it.  ``|g|**p`` is taken in place: a fresh
    2**(J+1)-entry temporary per replicate costs more than the arithmetic.
    """
    J, p = cfg.J, float(cfg.p)
    stats = np.empty((count, J + 1))
    draws = np.empty(1 << (J + 1))
    streams = stream_generators(cfg.seed, start, count, GAUSSIAN_STREAM)
    for i, rng in enumerate(streams):
        rng.standard_normal(out=draws)
        np.power(np.abs(draws, out=draws), p, out=draws)
        for j in range(J + 1):
            power_sum = float(draws[1 << j : 1 << (j + 1)].sum())
            stats[i, j] = (2.0 ** -j * power_sum) ** (1.0 / p)
    return ChunkResult(start, count, {"stat": stats})


#: Chunk kernel -> its function.
_CHUNK_FUNCTIONS = {
    "moment": partial(_levels_chunk, source="step", cells=True),
    "step_levels": partial(_levels_chunk, source="step"),
    "continuous_levels": partial(_levels_chunk, source="continuous"),
    "roynette": _roynette_chunk,
}


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Report:
    """One experiment's report: the ``results`` block of ``<kind>.json``, its
    per-cell and per-replicate values still float64 arrays, and its CSV
    tables, file name -> ``(header, rows)``, each row generated as written."""

    kind: str
    config: ExperimentConfig
    results: dict
    tables: dict

    def as_dict(self) -> dict:
        return {"report": self.kind, "config": self.config.as_dict(), "results": self.results}


def _mean_se(values: np.ndarray):
    """Mean and standard error of at least two values."""
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(len(values)))


def _mean_se_of_sums(total, total_sq, R: int):
    """Mean and standard error of ``R`` values given their sum and sum of squares."""
    mean = total / R
    var = np.maximum(total_sq - R * mean**2, 0.0) / (R - 1)
    return mean, np.sqrt(var / R)


#: Oracle moment -> the ``level_stats`` keys of its estimate and its standard
#: error, in the order an oracle block lists its comparisons.
_ORACLE_ESTIMATES = {
    "e_h": ("mean_h_pooled", "se_h_pooled"),
    "e_h2": ("mean_h2_pooled", "se_h2_pooled"),
    "var_g": ("var_g_pooled", "se_var_g_pooled"),
    "e_hh": ("mean_pair", "se_pair"),
    "var_sum_g": ("var_sum_g", "se_var_sum_g"),
}


def _check_moment_sample(config: ExperimentConfig) -> None:
    n, R = config.n, config.R
    if n > MAX_MOMENT_SAMPLE:
        raise ParameterError("n", f"moment experiment caps n at {MAX_MOMENT_SAMPLE}")
    # int64 per-cell sums over all replicates: |sum S| <= R*n and sum H <= R*n**2.
    if R * n**2 >= 1 << 63:
        raise ParameterError(
            "replicates", f"replicates * n**2 must stay below 2**63 (got {R} at n={n})"
        )


def _moment_report(config: ExperimentConfig, data: dict) -> Report:
    """Every tracked moment of the step-process coefficients, with standard
    errors and oracle cross checks; per-cell ones up to ``COVERAGE_MAX_LEVEL``."""
    J, n, R = config.J, config.n, config.R
    max_level = min(COVERAGE_MAX_LEVEL, J)

    cell_stats = {}
    for j in range(max_level + 1):
        cells = slice((1 << j) - 1, (2 << j) - 1)
        s, h, h2 = data["cell_sum_s"][cells], data["cell_sum_h"][cells], data["cell_sum_h2"][cells]
        # alpha = scale * S and G = 2**j/n * H, so alpha**2 = G.
        g_scale = (1 << j) / n
        sums = {
            "alpha": (s * step_coefficient_scale(j, n), h * g_scale),
            "g": (h * g_scale, h2 * g_scale**2),
            "h": (h, h2),
        }
        cell_stats[j] = {}
        for name, (total, total_sq) in sums.items():
            cell_stats[j][f"mean_{name}"], cell_stats[j][f"se_{name}"] = _mean_se_of_sums(
                total, total_sq, R
            )

    level_stats = {}
    for j in range(J + 1):
        k_cells = 1 << j
        a = data["sum_h2"][:, j] / k_cells  # per-replicate mean of H**2
        b = data["sum_h"][:, j] / k_cells  # per-replicate mean of H
        mh, se_mh = _mean_se(b)
        mh2, se_mh2 = _mean_se(a)
        mp, se_mp = float("nan"), float("nan")
        if k_cells >= 2:
            # Mean of H_k H_k' over ordered pairs of distinct cells; the
            # int64 numerator is at most n**4 and exact.
            pair = (data["sum_h"][:, j] ** 2 - data["sum_h2"][:, j]) / (k_cells * (k_cells - 1))
            mp, se_mp = _mean_se(pair)
        # Var(G) via the plug-in E[H^2] - E[H]^2, delta-method standard error.
        g_scale_sq = ((1 << j) / n) ** 2
        influence = (a - mh2) - 2.0 * mh * (b - mh)
        t = ((1 << j) / n) * data["sum_h"][:, j]
        mt, se_mt = _mean_se(t)
        level = {
            "mean_h_pooled": mh,
            "se_h_pooled": se_mh,
            "mean_h2_pooled": mh2,
            "se_h2_pooled": se_mh2,
            "mean_pair": mp,
            "se_pair": se_mp,
            "var_g_pooled": g_scale_sq * (mh2 - mh**2),
            "se_var_g_pooled": g_scale_sq * float(np.std(influence, ddof=1) / math.sqrt(R)),
            "mean_sum_g": mt,
            "se_sum_g": se_mt,
            "var_sum_g": float(np.var(t, ddof=1)),
            "se_var_sum_g": float(np.std((t - mt) ** 2, ddof=1) / math.sqrt(R)),
        }
        for key, value in level.items():
            level_stats.setdefault(key, []).append(value)

    oracle_blocks = []
    for j in range(min(J, ORACLE_LEVEL_CAP) + 1):
        if not oracle_applicable(n, j):
            continue
        om = enumeration_oracle(n, j)
        block = om.as_dict()
        block["comparisons"] = []
        for moment, (estimate_key, se_key) in _ORACLE_ESTIMATES.items():
            exact = getattr(om, moment)
            if exact is None:  # e_hh at j = 0, which has a single cell
                continue
            estimate, se = level_stats[estimate_key][j], level_stats[se_key][j]
            block["comparisons"].append(
                {
                    "moment": moment,
                    "estimate": estimate,
                    "se": se,
                    "oracle": float(exact),
                    "oracle_fraction": str(exact),
                    "within": abs(estimate - float(exact)) <= ORACLE_SE_MULTIPLIER * se,
                }
            )
        oracle_blocks.append(block)
    oracle_ok = all(c["within"] for block in oracle_blocks for c in block["comparisons"])
    mismatch = any(sum_variance(n, j) != nominal_sum_variance(n, j) for j in range(J + 1))

    covered = np.concatenate([
        np.abs(stats["mean_g"] - 1.0) <= COVERAGE_SE_MULTIPLIER * stats["se_g"]
        for stats in cell_stats.values()
    ])
    hits, total = int(np.count_nonzero(covered)), len(covered)
    coverage = {
        "fraction": hits / total,
        "hits": hits,
        "cells": total,
        "max_level": max_level,
        "se_multiplier": COVERAGE_SE_MULTIPLIER,
        "threshold": COVERAGE_THRESHOLD,
    }
    results = {
        "replicates": R,
        "cell_stats": cell_stats,
        "level_stats": level_stats,
        "oracle": oracle_blocks,
        "coverage": coverage,
        "nominal_variance_mismatch": mismatch,
        "passed": coverage["fraction"] >= COVERAGE_THRESHOLD and oracle_ok,
    }
    # One row per cell and one column per per-cell estimate; one row per level.
    cells = (
        [j, k0 + 1, *values]
        for j, stats in cell_stats.items()
        for k0, values in enumerate(zip(*(column.tolist() for column in stats.values())))
    )
    levels = ([j, *values] for j, values in enumerate(zip(*level_stats.values())))
    return Report("moments", config, results, {
        "moments_cells.csv": (["j", "k", *cell_stats[0]], cells),
        "moments_levels.csv": (["j", *level_stats], levels),
    })


def _concentration_report(config: ExperimentConfig, data: dict) -> Report:
    """P(|2**-j sum_k G_jk - 1| >= 1/2) against ``4 * (3 - 3/n)/2**j``.

    One step-process run at ``config.n``, graded at levels ``0..J`` by exact
    integer events on ``sum_h``; a level passes when its observed frequency
    does not exceed the bound plus ``CONCENTRATION_SE_MULTIPLIER`` binomial
    standard errors.  To sweep sample sizes, run it once per ``n``: the
    streams depend only on the seed and the replicate index.
    """
    n, R = config.n, config.R
    sh = data["sum_h"]
    deviated = (2 * sh <= n) | (2 * sh >= 3 * n)
    rows = []
    for j in range(config.J + 1):
        freq = float(np.mean(deviated[:, j]))
        bound = chebyshev_deviation_bound(n, j)
        se = math.sqrt(freq * (1.0 - freq) / R)
        ok = freq <= bound + CONCENTRATION_SE_MULTIPLIER * se
        rows.append({"n": n, "j": j, "frequency": freq, "bound": bound, "se": se, "passed": ok})
    results = {"replicates": R, "rows": rows, "passed": all(row["passed"] for row in rows)}
    table = (["n", "j", "frequency", "bound", "se", "pass"], (list(row.values()) for row in rows))
    return Report("concentration", config, results, {"concentration.csv": table})


def _band_report(kind, config, stat, stat_sq, in_band, top_levels, confidence, statistic, band,
                 target=None) -> Report:
    """Band frequencies plus per-replicate sup and tail-min statistics.

    Passes when the in-band frequency at each of the top ``top_levels``
    levels reaches ``confidence``.  A ``target`` also fills a CSV column.
    """
    J = config.J
    tail_start = tail_window_start(J)
    freq = [float(np.mean(in_band[:, j])) for j in range(J + 1)]
    mean = [float(np.mean(stat[:, j])) for j in range(J + 1)]
    sd = [float(np.std(stat[:, j], ddof=1)) for j in range(J + 1)]
    results = {
        "replicates": config.R,
        "statistic": statistic,
        "band": list(band),
        "target": target,
        "in_band_frequency": freq,
        "mean_statistic": mean,
        "sd_statistic": sd,
        "per_replicate": {
            "sup_stat": stat.max(axis=1),
            "tail_min_stat": stat[:, tail_start:].min(axis=1),
            "sup_stat_sq": stat_sq.max(axis=1),
            "tail_min_stat_sq": stat_sq[:, tail_start:].min(axis=1),
        },
        "tail_start": tail_start,
        "confidence": confidence,
        "passed": all(f >= confidence for f in freq[J + 1 - top_levels :]),
    }
    extra = {} if target is None else {"target": target}
    header = ["j", "in_band_frequency", "mean_statistic", "sd_statistic", *extra]
    rows = ([j, freq[j], mean[j], sd[j], *extra.values()] for j in range(J + 1))
    return Report(kind, config, results, {f"{kind}.csv": (header, rows)})


def _check_sandwich_levels(config: ExperimentConfig) -> None:
    if config.J < 10:
        raise ParameterError("j_max", f"sandwich verification needs j_max >= 10 (got {config.J})")


def _sandwich_report(config: ExperimentConfig, data: dict) -> Report:
    """Frequencies of ``1/2 <= 2**-j sum_k |c_jk|**2 <= 3/2`` per level.

    Passes when the in-band frequency at the top three levels reaches
    ``SANDWICH_CONFIDENCE``.  Per-replicate sup and tail-min summaries of
    the (unsquared) level statistic back the finite-norm and
    nonvanishing-tail surrogates.  The squared statistic is ``sum_h / n``,
    and the band events compare the doubled ``sum_h`` with ``n`` and ``3n``:
    doubling is exact, so they are exact on the step process's int64 sums
    and the continuous version's float64 sums alike.  The aggregated
    ``sum_h`` is released before the float statistics are built.
    """
    n = config.n
    sum_h = data.pop("sum_h")
    in_band = (2 * sum_h >= n) & (2 * sum_h <= 3 * n)
    stat_sq = sum_h / n
    del sum_h
    return _band_report(
        "sandwich", config, np.sqrt(stat_sq), stat_sq, in_band,
        top_levels=3, confidence=SANDWICH_CONFIDENCE, statistic="squared_level", band=(0.5, 1.5),
    )


def absolute_moment_target(p: float) -> float:
    """``(E |N(0,1)|**p) ** (1/p)``: the level-statistic limit for Gaussians."""
    log_moment = 0.5 * p * math.log(2.0) + math.lgamma((p + 1.0) / 2.0) - 0.5 * math.log(math.pi)
    return math.exp(log_moment / p)


def _roynette_report(config: ExperimentConfig, data: dict) -> Report:
    """Level statistics ``(2**-j sum |g_jk|**p) ** (1/p)`` of Gaussian paths.

    The statistic concentrates at ``(E |N(0,1)|**p) ** (1/p)``; the report
    tracks the frequency inside ``target +- roynette_band_halfwidth`` per
    level and passes when the top level reaches ``ROYNETTE_CONFIDENCE``.
    Bridge and motion share level coefficients, so their reports carry
    identical results for equal seeds.
    """
    stat = data["stat"]
    target = absolute_moment_target(config.p)
    lo = target - config.roynette_band_halfwidth
    hi = target + config.roynette_band_halfwidth
    return _band_report(
        "roynette", config, stat, stat**2, (stat >= lo) & (stat <= hi),
        top_levels=1, confidence=ROYNETTE_CONFIDENCE, statistic="level", band=(lo, hi),
        target=target,
    )


# ---------------------------------------------------------------------------
# Experiments and the planner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """The experiment ``verify-<kind>`` runs: its ``_CHUNK_FUNCTIONS`` kernel
    for each process (the first is the default), the other settings it
    reads, its pre-draw ``check``, its ``held_bytes`` model (``run_bytes``),
    ``build(config, aggregated) -> Report``, which draws nothing and may
    release the aggregated arrays it has read, and the least max level it
    runs at in ``verify-all``."""

    kernels: dict
    reads: tuple
    held_bytes: tuple
    build: Callable
    check: Callable = lambda config: None
    suite_level: int = 0


#: ``verify-<kind>`` -> its experiment.  Held bytes are per chunk (the
#: moment kernel's 511 or fewer per-cell sums, held until they are summed),
#: per replicate and level, and per replicate (a band report's arrays).
#: With the chunk peaks, the moments model is 10 to 85% over tracemalloc
#: peaks of runs at n = 2 .. 100, J = 8 .. 23 and R = 100 .. 20000.
EXPERIMENTS = {
    "moments": Experiment(
        kernels={"empirical-step": "moment"},
        reads=("n", "J", "R", "seed"),
        held_bytes=(24 << 9, 48, 0),
        build=_moment_report,
        check=_check_moment_sample,
    ),
    "concentration": Experiment(
        kernels={"empirical-step": "step_levels"},
        reads=("n", "J", "R", "seed"),
        held_bytes=(0, 32, 0),
        build=_concentration_report,
    ),
    "sandwich": Experiment(
        kernels={"empirical-step": "step_levels", "empirical-continuous": "continuous_levels"},
        reads=("n", "J", "R", "seed"),
        held_bytes=(0, 32, 160),
        build=_sandwich_report,
        check=_check_sandwich_levels,
    ),
    "roynette": Experiment(
        kernels={"brownian": "roynette", "bridge": "roynette"},
        reads=("J", "R", "p", "seed", "roynette_band_halfwidth"),
        held_bytes=(0, 32, 160),
        build=_roynette_report,
        suite_level=14,
    ),
}


def run_experiments(configs: dict):
    """Check every run of ``configs`` (``EXPERIMENTS`` key -> config) and the
    batched streams before any draw, then return an iterator that runs,
    aggregates and builds each run in order and yields ``(kind, report)``.
    ``run_chunked`` and ``aggregate`` are looked up in this module on every
    call, so a replaced attribute takes effect."""
    for kind, config in configs.items():
        check_run(config, kind)
    check_streams()
    return ((kind, _run(kind, config)) for kind, config in configs.items())


def _run(kind: str, config: ExperimentConfig) -> Report:
    experiment = EXPERIMENTS[kind]
    kernel = experiment.kernels[config.process]
    data = aggregate(run_chunked(kernel, config), config.R)
    return experiment.build(config, data)


def _run_one(kind: str, config: ExperimentConfig) -> Report:
    """The report of one ``verify-<kind>`` run of ``config``."""
    ((_, report),) = run_experiments({kind: config})
    return report


# One-experiment entry points; perfbench/tracing.py wraps them as this
# module's attributes.
run_moment_experiment = partial(_run_one, "moments")
run_concentration_experiment = partial(_run_one, "concentration")
run_sandwich_experiment = partial(_run_one, "sandwich")
run_roynette_experiment = partial(_run_one, "roynette")
