"""The benchmark's hooks into the package still resolve, and its workloads
still pass the package's pre-draw checks.

perfbench/tracing.py wraps module attributes by name, and its pool probe
runs a chunk kernel by name; a rename, a dropped reference import or a
tightened bound would otherwise only fail inside the benchmark.  The
perfbench modules are loaded from their files and left unchanged.
"""

import filecmp
import importlib.util
import os
import sys

import pytest

from besov_empirica import cli, montecarlo

from conftest import ReachedDraws, reach_draws

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up while the class is built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


TRACING = _load("tracing")
WORKLOADS = _load("workloads").WORKLOADS
CHECKS = _load("checks")


@pytest.mark.parametrize(
    "target,attr", [(target, attr) for target, attr, _ in TRACING.TARGETS]
)
def test_tracing_target_resolves(target, attr):
    assert hasattr(TRACING._resolve(target), attr)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_probe_kernel_is_a_chunk_kernel(name):
    assert WORKLOADS[name].probe_kernel in montecarlo._CHUNK_FUNCTIONS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_passes_pre_draw_checks(name, tmp_path, monkeypatch):
    # Every pre-draw check (montecarlo.check_run) accepts the workload's
    # settings, ``suite`` being verify-all's defaults at 2 workers: the
    # command gets as far as its first chunk run.
    monkeypatch.setattr(montecarlo, "run_chunked", reach_draws)
    workload = WORKLOADS[name]
    argv = workload.argv(42, str(tmp_path / "out"), workload.write_config(str(tmp_path)))
    with pytest.raises(ReachedDraws):
        cli.main(argv)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_passes_benchmark_checks(name, tmp_path, capsys):
    # The benchmark grades each workload's report tree with these checks; a
    # report change that breaks one fails here before it fails the benchmark.
    workload = WORKLOADS[name]
    out = str(tmp_path / "out")
    code = cli.main(workload.argv(42, out, workload.write_config(str(tmp_path))))
    assert code in workload.expected_exit
    assert CHECKS.check(workload, 42, out, code) == []


def test_traced_verify_all_sees_every_run(tmp_path, capsys):
    # The traced run wraps ``run_chunked`` and ``aggregate`` as montecarlo's
    # attributes; a planner that bound either by reference would hide every
    # chunk run from the benchmark.  Traced runs stay in-process at 1 worker
    # and must leave the report tree as the untraced run writes it.
    argv = ["verify-all", "--seed", "42", "--n", "20", "--j-max", "10", "--replicates", "100"]
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    code = cli.main(argv + ["--workers", "1", "--out", str(plain)])
    recorder = TRACING.Recorder()
    with TRACING.patched(recorder):
        assert cli.main(argv + ["--workers", "2", "--out", str(traced)]) == code
    names = [span[0] for span in recorder.spans]
    assert names.count("montecarlo.run_chunked") == 4
    assert names.count("montecarlo.aggregate") == 4
    assert recorder.counters["montecarlo.replicates"] == 400
    files = sorted(os.listdir(plain))
    assert files == sorted(os.listdir(traced))
    _, mismatch, errors = filecmp.cmpfiles(plain, traced, files, shallow=False)
    assert not mismatch and not errors, (mismatch, errors)


def test_moments_report_calls_the_oracle_by_attribute(tmp_path, monkeypatch):
    # perfbench/tracing.py times ``oracle.enumeration_oracle`` as montecarlo's
    # attribute; a report that bound it by reference would read 0 there.
    calls = []
    oracle = montecarlo.enumeration_oracle

    def counting(n, j):
        calls.append((n, j))
        return oracle(n, j)

    monkeypatch.setattr(montecarlo, "enumeration_oracle", counting)
    argv = ["verify-moments", "--n", "3", "--j-max", "6", "--replicates", "100"]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) in (0, 2)
    assert calls == [(3, j) for j in range(4)]
