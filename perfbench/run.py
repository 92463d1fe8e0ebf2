"""Benchmark of the besov-empirica CLI: end-to-end runs or a traced run.

    python3 perfbench/run.py --workload suite --seed 42 --seconds 36 --trace 0

With ``--trace 0`` the workload's CLI command runs again and again, each
time in a fresh interpreter, for ``--seconds`` seconds, and the end-to-end
metrics are reported.  With ``--trace 1`` one child interpreter runs the
workload in-process with span recorders around the package's layers
(``tracing.py``) and the per-layer metrics are reported.  Every report tree
is checked against values computed apart from the program (``checks.py``).
``--workload all`` runs every workload both ways.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time

import checks
import procs
import tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

#: A run must finish within ``--seconds`` plus this many seconds, children
#: included: room for the operation under way when the time is up, the
#: 1-worker comparison and the checks.
RUN_MARGIN_S = 60.0

#: The set-up probe: import the package, build the parser, build the config.
SETUP_CODE = (
    "import sys\n"
    "from besov_empirica import cli\n"
    "cli._experiment_config(cli.build_parser().parse_args(sys.argv[1:]))\n"
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "replicates_per_s": "replicates/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class BenchmarkError(Exception):
    """The benchmark could not run to its end; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("BESOV_EMPIRICA_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


class Runner:
    """Starts children one at a time inside the run's time budget."""

    def __init__(self, work: str, seconds: float):
        self.work = work
        self.deadline = time.monotonic() + seconds + RUN_MARGIN_S
        self.count = 0

    def run(self, argv) -> procs.Finished:
        self.count += 1
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchmarkError("run budget exhausted")
        log = os.path.join(self.work, f"child-{self.count}.log")
        return procs.run(argv, cwd=ROOT, env=_child_env(), log_path=log, timeout_s=remaining)


def end_to_end(workload, seed: int, seconds: float, work: str) -> dict:
    runner = Runner(work, seconds)
    config_path = workload.write_config(work)

    def cli_argv(out, workers=None):
        return [sys.executable, "-m", "besov_empirica.cli",
                *workload.argv(seed, out, config_path, workers)]

    setup_argv = [sys.executable, "-c", SETUP_CODE,
                  *workload.argv(seed, os.path.join(work, "setup"), config_path)]

    def probe_setup():
        done = runner.run(setup_argv)
        if done.returncode != 0:
            raise BenchmarkError(f"set-up probe exited {done.returncode}; see {work}")
        return done.wall_s

    # Untimed warm-up: the first import in a fresh checkout compiles bytecode.
    probe_setup()
    setups, walls, rss, problems = [], [], [], []
    attempted = failed = 0
    reference = None
    start = time.perf_counter()
    # Each round is one set-up probe and one invocation, so both sample the
    # machine under the same conditions.
    while attempted == 0 or time.perf_counter() - start < seconds:
        setups.append(probe_setup())
        out = os.path.join(work, f"out-{attempted}")
        done = runner.run(cli_argv(out))
        attempted += 1
        if done.timed_out or not checks.operation_ok(workload, out, done.returncode):
            failed += 1
            continue
        walls.append(done.wall_s)
        rss.append(done.maxrss_kib)
        problems += checks.check(workload, seed, out, done.returncode)
        if reference is None:
            reference = out
        else:
            problems += checks.same_tree(reference, out, "operation 1", f"operation {attempted}")
            shutil.rmtree(out)

    if reference and workload.workers > 1:
        # Worker-count invariance: the same command at 1 worker, untimed.
        out = os.path.join(work, "one-worker")
        done = runner.run(cli_argv(out, workers=1))
        if done.returncode not in workload.expected_exit:
            problems.append(f"1-worker run exited {done.returncode}")
        else:
            problems += checks.same_tree(reference, out, f"{workload.workers}-worker", "1-worker")

    if not walls:
        raise BenchmarkError(f"every operation failed; see {work}")
    wall_s = statistics.median(walls)
    setup_s = statistics.median(setups)
    metrics = {
        "wall_s": wall_s,
        "replicates_per_s": workload.replicates / (wall_s - setup_s),
        "setup_s": setup_s,
        "peak_rss_mb": max(rss) / 1024.0,
    }
    return _result(metrics, END_TO_END_UNITS, attempted, failed, problems)


def traced(workload, seed: int, seconds: float, work: str) -> dict:
    runner = Runner(work, seconds)
    result_path = os.path.join(work, "trace-result.json")
    done = runner.run([
        sys.executable, os.path.join(HERE, "tracing.py"), "--workload", workload.name,
        "--seed", str(seed), "--seconds", str(seconds), "--result", result_path,
    ])
    if done.returncode != 0:
        raise BenchmarkError(f"traced run exited {done.returncode}; see {work}")
    with open(result_path) as fh:
        res = json.load(fh)
    return _result(res["metrics"], tracing.UNITS, res["attempted"], res["failed"], res["problems"])


def _result(values, units, attempted, failed, problems) -> dict:
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "problems": problems,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = os.path.join(WORK, f"{name}-trace{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    measure = traced if trace else end_to_end
    result = measure(WORKLOADS[name], seed, seconds, work)
    print(f"workload {name}  seed {seed}  trace {int(trace)}")
    for metric, entry in result["metrics"].items():
        value = entry["value"]
        text = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"  {metric:<52} {text} {entry['unit']}")
    print(f"  operations attempted {result['attempted']}, failed {result['failed']}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    return result


def _interrupt(signum, frame):
    raise KeyboardInterrupt(f"signal {signum}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "besov_empirica", "cli.py")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _interrupt)
    signal.signal(signal.SIGHUP, _interrupt)
    procs.become_subreaper()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (False, True) if args.trace is None else (bool(args.trace),)
    try:
        results = {(name, trace): run_one(name, args.seed, args.seconds, trace)
                   for name in names for trace in modes}
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        (result,) = results.values()
        summary = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": entry
                        for (name, _), r in results.items()
                        for metric, entry in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
