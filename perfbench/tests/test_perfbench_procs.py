"""The benchmark leaves no process behind, and refuses to run without the program."""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import procs
import tracing

from conftest import BENCH, ROOT


def _stat(pid):
    """(ppid, session id, state) of a live process, or None."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError):
        return None
    return int(fields[1]), int(fields[3]), fields[0]


def _descendants(root):
    children = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _stat(int(entry))
            if stat:
                children.setdefault(stat[0], []).append(int(entry))
    found, todo = [], [root]
    while todo:
        for child in children.get(todo.pop(), []):
            found.append(child)
            todo.append(child)
    return found


def _alive(pid):
    stat = _stat(pid)
    return stat is not None and stat[2] != "Z"


def _cmdline(pid):
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().replace(b"\0", b" ").decode()
    except OSError:
        return ""


def test_interrupt_mid_workload_leaves_no_descendant():
    bench = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "suite",
         "--seed", "3", "--seconds", "60", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    seen = set()
    try:
        deadline = time.monotonic() + 90
        # Wait until spawn-pool workers of the verify-all child are running.
        while time.monotonic() < deadline:
            found = _descendants(bench.pid)
            seen.update(found)
            if any("multiprocessing" in _cmdline(pid) for pid in found):
                break
            time.sleep(0.05)
        else:
            raise AssertionError("no pool worker appeared")
        time.sleep(0.3)
        seen.update(_descendants(bench.pid))
        sessions = {_stat(pid)[1] for pid in seen if _stat(pid)}
        bench.send_signal(signal.SIGINT)
        out, err = bench.communicate(timeout=60)
    finally:
        if bench.poll() is None:
            os.killpg(bench.pid, signal.SIGKILL)
            bench.wait()
    assert bench.returncode == 130, err
    assert b"interrupted" in err
    assert not out.strip().endswith(b"}")
    assert len(seen) >= 3
    assert [pid for pid in seen if _alive(pid)] == []
    stragglers = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _stat(int(entry))
            if stat and stat[1] in sessions and stat[2] != "Z":
                stragglers.append(int(entry))
    assert stragglers == []


def test_timeout_kills_the_whole_group(tmp_path):
    procs.become_subreaper()
    marker = tmp_path / "grandchild.pid"
    code = (
        "import subprocess, sys, time\n"
        "p = subprocess.Popen(['sleep', '60'])\n"
        f"open({str(marker)!r}, 'w').write(str(p.pid))\n"
        "time.sleep(60)\n"
    )
    start = time.monotonic()
    done = procs.run([sys.executable, "-c", code], cwd=str(tmp_path), env=dict(os.environ),
                     log_path=str(tmp_path / "log"), timeout_s=2.0)
    assert time.monotonic() - start < 20
    assert done.timed_out
    assert done.returncode == -signal.SIGKILL
    assert not _alive(int(marker.read_text()))


def test_child_exit_code_wall_and_rss(tmp_path):
    done = procs.run([sys.executable, "-c", "import sys; b = bytearray(64 << 20); sys.exit(3)"],
                     cwd=str(tmp_path), env=dict(os.environ), log_path=str(tmp_path / "log"),
                     timeout_s=30.0)
    assert done.returncode == 3
    assert not done.timed_out
    assert done.wall_s > 0
    assert done.maxrss_kib > 64 * 1024


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout.strip() == ""


def test_benchmark_json_names_every_metric():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS
