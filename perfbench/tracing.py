"""Per-layer timings of one workload, from spans recorded in-process.

``python3 perfbench/tracing.py --workload W --seed S --seconds T --result F``
imports the package, then alternates untraced and traced in-process runs
of the workload's CLI command at 1 worker for about ``T`` seconds.  In a
traced run the module attributes that ``montecarlo``, ``gaussian``,
``empirical``, ``sampling`` and ``cli`` call through are replaced by span
recorders and restored afterwards.  Spans stay in memory; the last traced
run's spans are written to a JSON-lines file next to ``F`` at the end, and
the per-layer metrics (medians over the traced runs) go to ``F``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import importlib
import json
import os
import statistics
import sys
import time
from dataclasses import replace
from multiprocessing.reduction import ForkingPickler

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: (module, attribute, span name).  The module is the one whose global
#: lookup the call goes through, which is not always where it is defined.
TARGETS = (
    ("besov_empirica.cli", "_write_json", "cli.emit"),
    ("besov_empirica.cli", "_write_csv", "cli.emit"),
    ("besov_empirica.cli", "emit_plot_data", "cli.emit"),
    ("besov_empirica.cli", "_emit_moment_levels_csv", "cli.emit"),
    ("besov_empirica.montecarlo", "run_moment_experiment", "montecarlo.report"),
    ("besov_empirica.montecarlo", "run_concentration_experiment", "montecarlo.report"),
    ("besov_empirica.montecarlo", "run_sandwich_experiment", "montecarlo.report"),
    ("besov_empirica.montecarlo", "run_roynette_experiment", "montecarlo.report"),
    ("besov_empirica.montecarlo", "aggregate", "montecarlo.aggregate"),
    ("besov_empirica.montecarlo", "enumeration_oracle", "oracle.enumeration_oracle"),
    ("besov_empirica.montecarlo", "sample_uniform", "sampling.sample_uniform"),
    ("besov_empirica.montecarlo", "halfcell_counts", "empirical.halfcell_counts"),
    ("besov_empirica.montecarlo", "signed_sums_by_level", "empirical.signed_sums_by_level"),
    ("besov_empirica.montecarlo", "empirical_coefficients", "empirical.empirical_coefficients"),
    ("besov_empirica.montecarlo", "brownian_motion", "gaussian.brownian_motion"),
    ("besov_empirica.montecarlo", "level_statistic", "besov.level_statistic"),
    ("besov_empirica.gaussian", "sample_gaussian", "sampling.sample_gaussian"),
    ("besov_empirica.gaussian", "reconstruct_path", "dyadic.reconstruct_path"),
    ("besov_empirica.empirical", "extract_coefficients", "dyadic.extract_coefficients"),
    ("besov_empirica.sampling", "make_generator", "sampling.make_generator"),
    ("besov_empirica.dyadic:CoefficientTriangle", "__post_init__", "dyadic.CoefficientTriangle"),
)

#: Per-layer metrics: name -> (unit, span name, quantity).  ``self`` is the
#: span time minus the time its child spans cover.
SPAN_METRICS = {
    "sampling.make_generator.us_per_call": ("us", "sampling.make_generator", "total_per_call"),
    "sampling.make_generator.calls": ("count", "sampling.make_generator", "calls"),
    "sampling.sample_uniform.us_per_replicate": ("us", "sampling.sample_uniform", "self"),
    "sampling.sample_gaussian.us_per_replicate": ("us", "sampling.sample_gaussian", "self"),
    "empirical.halfcell_counts.us_per_replicate": ("us", "empirical.halfcell_counts", "self"),
    "empirical.halfcell_counts.calls": ("count", "empirical.halfcell_counts", "calls"),
    "empirical.signed_sums_by_level.us_per_replicate": (
        "us", "empirical.signed_sums_by_level", "self"),
    "empirical.empirical_coefficients.us_per_replicate": (
        "us", "empirical.empirical_coefficients", "self"),
    "dyadic.extract_coefficients.us_per_replicate": ("us", "dyadic.extract_coefficients", "self"),
    "dyadic.reconstruct_path.us_per_replicate": ("us", "dyadic.reconstruct_path", "self"),
    "dyadic.reconstruct_path.calls": ("count", "dyadic.reconstruct_path", "calls"),
    "dyadic.CoefficientTriangle.us_per_replicate": ("us", "dyadic.CoefficientTriangle", "self"),
    "gaussian.brownian_motion.us_per_replicate": ("us", "gaussian.brownian_motion", "self"),
    "besov.level_statistic.us_per_replicate": ("us", "besov.level_statistic", "self"),
    "besov.level_statistic.calls": ("count", "besov.level_statistic", "calls"),
    "montecarlo.run_chunked.self_us_per_replicate": ("us", "montecarlo.run_chunked", "self"),
    "montecarlo.aggregate.ms": ("ms", "montecarlo.aggregate", "total_ms"),
    "montecarlo.report.ms": ("ms", "montecarlo.report", "self_ms"),
    "oracle.enumeration_oracle.ms": ("ms", "oracle.enumeration_oracle", "total_ms"),
    "cli.emit.ms": ("ms", "cli.emit", "self_ms"),
}

#: Per-layer metrics that are not span times.
OTHER_METRICS = {
    "montecarlo.pool_startup_ms": "ms",
    "montecarlo.pools_started": "count",
    "montecarlo.chunk_payload_bytes": "bytes",
    "cli.report_bytes": "bytes",
    "trace.overhead_ms": "ms",
}

UNITS = {name: spec[0] for name, spec in SPAN_METRICS.items()} | OTHER_METRICS

#: Span name of work the benchmark itself adds inside a traced run.
BENCH_SPAN = "bench.payload_pickle"


class Recorder:
    """In-memory span log: ``[name, start, end, parent index]`` per call."""

    def __init__(self):
        self.spans = []
        self.counters = collections.Counter()
        self._stack = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced


def layer_times(spans) -> dict:
    """Per span name: ``{"calls", "total", "self"}`` in seconds.

    A span's self time is its duration minus the durations of its direct
    children; spans run on one thread, so children never overlap.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for index, (name, start, end, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
        entry["calls"] += 1
        entry["total"] += end - start
        entry["self"] += end - start - covered[index]
    return out


def _resolve(target: str):
    module, _, attr = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, attr) if attr else obj


@contextlib.contextmanager
def patched(recorder: Recorder):
    """Wrap every target with a span recorder; restore the originals on exit.

    ``run_chunked`` runs in-process at 1 worker whatever the config asks,
    counting the calls that would have started a pool, the replicates
    simulated, and the pickled bytes of the chunk results a pool would
    have sent back.
    """
    from besov_empirica import montecarlo

    saved = []
    try:
        for target, attr, name in TARGETS:
            owner = _resolve(target)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original))

        original_run_chunked = montecarlo.run_chunked
        saved.append((montecarlo, "run_chunked", original_run_chunked))
        inner = recorder.wrap("montecarlo.run_chunked", original_run_chunked)
        pickle_payload = recorder.wrap(
            BENCH_SPAN, lambda parts: sum(len(ForkingPickler.dumps(p)) for p in parts)
        )

        def run_chunked(name, cfg):
            recorder.counters["montecarlo.pools_started"] += cfg.workers > 1
            recorder.counters["montecarlo.replicates"] += cfg.R
            parts = inner(name, replace(cfg, workers=1))
            recorder.counters["montecarlo.chunk_payload_bytes"] += pickle_payload(parts)
            return parts

        montecarlo.run_chunked = run_chunked
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def span_metrics(times: dict, replicates: int) -> dict:
    """The span-derived per-layer metrics of one traced run."""
    out = {}
    for metric, (_, span, quantity) in SPAN_METRICS.items():
        entry = times.get(span, {"calls": 0, "total": 0.0, "self": 0.0})
        if quantity == "calls":
            value = entry["calls"]
        elif quantity == "total_per_call":
            value = 1e6 * entry["total"] / entry["calls"] if entry["calls"] else 0.0
        elif quantity == "self":
            value = 1e6 * entry["self"] / replicates
        elif quantity == "total_ms":
            value = 1e3 * entry["total"]
        else:
            value = 1e3 * entry["self"]
        out[metric] = value
    return out


def tree_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(base, f))
        for base, _, files in os.walk(directory)
        for f in files
    )


def pool_startup_ms(workload, cfg, repeats: int = 3) -> float:
    """Median of (one-chunk run_chunked at 2 workers) - (same at 1 worker)."""
    from besov_empirica import montecarlo

    one_chunk = replace(cfg, R=cfg.chunk_size)
    diffs = []
    for _ in range(repeats):
        walls = {}
        for workers in (2, 1):
            start = time.perf_counter()
            montecarlo.run_chunked(workload.probe_kernel, replace(one_chunk, workers=workers))
            walls[workers] = time.perf_counter() - start
        diffs.append(1e3 * (walls[2] - walls[1]))
    return statistics.median(diffs)


def _run_cli(argv) -> tuple:
    from besov_empirica import cli

    start = time.perf_counter()
    code = cli.main(argv)
    return code, time.perf_counter() - start


def traced_session(workload, seed: int, seconds: float, work: str) -> dict:
    """Alternate untraced and traced runs for ``seconds``; return medians."""
    import checks
    from besov_empirica import cli

    config_path = workload.write_config(work)
    plain_out = os.path.join(work, "untraced")
    traced_out = os.path.join(work, "traced")
    # The untraced comparison run asks for 1 worker outright; the traced
    # run keeps the workload's argv, and the run_chunked wrapper runs it at
    # 1 worker after counting the pools it would have started.
    plain_argv = workload.argv(seed, plain_out, config_path, workers=1)
    traced_argv = workload.argv(seed, traced_out, config_path)
    cfg = cli._experiment_config(cli.build_parser().parse_args(plain_argv))

    rows, problems, attempted, failed = [], [], 0, 0
    spans = []
    deadline = time.perf_counter() + seconds
    while not rows or time.perf_counter() < deadline:
        # Alternate which of the pair goes first, so order effects cancel.
        if len(rows) % 2:
            code_plain, wall_plain = _run_cli(plain_argv)
        recorder = Recorder()
        with patched(recorder):
            code_traced, wall_traced = _run_cli(traced_argv)
        if not len(rows) % 2:
            code_plain, wall_plain = _run_cli(plain_argv)
        attempted += 2
        failed += not checks.operation_ok(workload, plain_out, code_plain)
        failed += not checks.operation_ok(workload, traced_out, code_traced)
        problems += checks.check(workload, seed, traced_out, code_traced)
        problems += checks.same_tree(plain_out, traced_out, "untraced", "traced")
        if recorder.counters["montecarlo.replicates"] != workload.replicates:
            problems.append(
                f"traced run simulated {recorder.counters['montecarlo.replicates']} "
                f"replicates, expected {workload.replicates}"
            )
        times = layer_times(recorder.spans)
        row = span_metrics(times, workload.replicates)
        row["montecarlo.pools_started"] = recorder.counters["montecarlo.pools_started"]
        row["montecarlo.chunk_payload_bytes"] = recorder.counters["montecarlo.chunk_payload_bytes"]
        row["cli.report_bytes"] = tree_bytes(traced_out)
        # The payload pickling is the benchmark's own measurement, not tracing.
        pickling = times.get(BENCH_SPAN, {"total": 0.0})["total"]
        row["trace.overhead_ms"] = 1e3 * (wall_traced - pickling - wall_plain)
        rows.append(row)
        spans = recorder.spans

    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    for name, unit in UNITS.items():
        if unit in ("count", "bytes"):
            metrics[name] = round(metrics[name])
    metrics["montecarlo.pool_startup_ms"] = pool_startup_ms(workload, cfg)
    with open(os.path.join(work, "spans.jsonl"), "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    return {
        "metrics": metrics,
        "traced_runs": len(rows),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--result", required=True, help="JSON file for the metrics")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    work = os.path.dirname(os.path.abspath(args.result))
    result = traced_session(WORKLOADS[args.workload], args.seed, args.seconds, work)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
