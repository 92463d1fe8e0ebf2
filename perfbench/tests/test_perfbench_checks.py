"""Each check passes a genuine report tree and rejects a corrupted copy."""

import json
import math
import shutil
from dataclasses import replace

import pytest

import checks
from workloads import WORKLOADS

SEED = 11
R = 200


def _make_tree(workload, out, workers=1):
    from besov_empirica import cli

    config = workload.write_config(str(out.parent))
    code = cli.main(workload.argv(SEED, str(out), config, workers=workers))
    return code


@pytest.fixture(scope="module")
def trees(tmp_path_factory):
    made = {}
    for name, workload in WORKLOADS.items():
        small = replace(workload, R=R)
        out = tmp_path_factory.mktemp(name) / "out"
        made[name] = (small, out, _make_tree(small, out))
    return made


def _corrupt(trees, tmp_path, name, report, mutate):
    workload, out, code = trees[name]
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    path = copy / report
    doc = json.loads(path.read_text())
    mutate(doc["results"])
    path.write_text(json.dumps(doc))
    return checks.check(workload, SEED, str(copy), code)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_genuine_tree_passes(trees, name):
    workload, out, code = trees[name]
    assert checks.operation_ok(workload, str(out), code)
    assert checks.check(workload, SEED, str(out), code) == []


def _bump_mean_h(res):
    res["level_stats"]["mean_h_pooled"][3] += 10 * res["level_stats"]["se_h_pooled"][3]


def _bump_pair(res):
    res["level_stats"]["mean_pair"][2] += 10 * res["level_stats"]["se_pair"][2]


def _bump_var_sum(res):
    res["level_stats"]["var_sum_g"][4] += 10 * res["level_stats"]["se_var_sum_g"][4]


def _bad_oracle(res):
    res["oracle"][1]["e_hh"]["fraction"] = "3/4"


def _flip_verdict(res):
    res["passed"] = not res["passed"]


def _bad_bound(res):
    res["rows"][5]["bound"] *= 1.01


def _over_bound(res):
    res["rows"][6]["frequency"] = min(1.0, res["rows"][6]["bound"] + 0.2)


def _spot_step(res):
    sup = res["per_replicate"]["sup_stat_sq"]
    sup[0] = math.nextafter(sup[0], math.inf)


def _spot_tail(res):
    tail = res["per_replicate"]["tail_min_stat_sq"]
    tail[R - 1] *= 1 + 1e-6


def _spot_gauss(res):
    res["per_replicate"]["sup_stat"][0] *= 1 + 1e-9


def _gauss_mean(res):
    res["mean_statistic"][-1] = 1.05


def _tail_rises(res):
    res["mean_statistic"][-1] = res["mean_statistic"][-2] * 1.01


def _tail_in_band(res):
    res["mean_statistic"][-1] = 0.0
    res["in_band_frequency"][-1] = 0.01


@pytest.mark.parametrize(
    "name, report, mutate",
    [
        ("suite", "moments.json", _bump_mean_h),
        ("suite", "moments.json", _bump_pair),
        ("suite", "moments.json", _flip_verdict),
        ("suite", "concentration.json", _bad_bound),
        ("suite", "concentration.json", _over_bound),
        ("suite", "sandwich.json", _spot_step),
        ("suite", "roynette.json", _spot_gauss),
        ("suite", "roynette.json", _gauss_mean),
        ("suite", "summary.json", lambda res: None),
        ("oracle-small", "moments.json", _bump_mean_h),
        ("oracle-small", "moments.json", _bump_pair),
        ("oracle-small", "moments.json", _bump_var_sum),
        ("oracle-small", "moments.json", _bad_oracle),
        ("oracle-small", "moments.json", _flip_verdict),
        ("continuous", "sandwich.json", _spot_tail),
        ("continuous", "sandwich.json", _tail_rises),
        ("continuous", "sandwich.json", _tail_in_band),
    ],
)
def test_corrupted_report_is_caught(trees, tmp_path, name, report, mutate):
    if report == "summary.json":
        workload, out, code = trees[name]
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        summary = json.loads((copy / report).read_text())
        summary["components"]["roynette"] = not summary["components"]["roynette"]
        (copy / report).write_text(json.dumps(summary))
        assert checks.check(workload, SEED, str(copy), code)
    else:
        assert _corrupt(trees, tmp_path, name, report, mutate)


def _fail_component(tmp_path, trees, name, mutate):
    """A copy of the suite tree where ``name`` fails, with every file and the exit agreeing."""
    workload, out, _ = trees["suite"]
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    doc = json.loads((copy / f"{name}.json").read_text())
    mutate(doc["results"])
    doc["results"]["passed"] = False
    (copy / f"{name}.json").write_text(json.dumps(doc))
    summary = json.loads((copy / "summary.json").read_text())
    summary["components"][name] = False
    summary["passed"] = False
    (copy / "summary.json").write_text(json.dumps(summary))
    return checks.check(workload, SEED, str(copy), 2)


def _drop_top_band(res):
    res["in_band_frequency"][-1] = 0.5


def _miss_coverage(res):
    for cell in res["cell_stats"].values():
        cell["mean_g"] = [1.0 + 10 * se for se in cell["se_g"]]


@pytest.mark.parametrize(
    "name, mutate",
    [
        ("concentration", lambda res: None),
        ("sandwich", lambda res: None),
        ("roynette", lambda res: None),
        ("sandwich", _drop_top_band),
        ("roynette", _drop_top_band),
    ],
)
def test_suite_band_failure_is_caught(trees, tmp_path, name, mutate):
    # A failing verdict is caught whether or not the numbers back it: only
    # the moments coverage rule may fail on correct output.
    assert _fail_component(tmp_path, trees, name, mutate)


def test_suite_accepts_a_coverage_failure(trees, tmp_path):
    assert _fail_component(tmp_path, trees, "moments", _miss_coverage) == []


def test_vanishing_tail_is_the_continuous_success_rule(trees, tmp_path):
    workload, out, code = trees["continuous"]
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    doc = json.loads((copy / "sandwich.json").read_text())
    _tail_rises(doc["results"])
    (copy / "sandwich.json").write_text(json.dumps(doc))
    assert not checks.operation_ok(workload, str(copy), code)
    assert not checks.operation_ok(workload, str(out), 0)


def test_wrong_exit_code_is_caught(trees):
    workload, out, code = trees["oracle-small"]
    assert checks.check(workload, SEED, str(out), 1 if code == 0 else 0)


def test_missing_report_is_caught(trees, tmp_path):
    workload, out, code = trees["suite"]
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    (copy / "roynette.json").unlink()
    assert checks.check(workload, SEED, str(copy), code)


def test_worker_trees_compare_bytes(trees, tmp_path):
    workload, out, _ = trees["suite"]
    two = tmp_path / "two"
    _make_tree(workload, two, workers=2)
    assert checks.same_tree(str(out), str(two), "1-worker", "2-worker") == []
    csv = two / "sandwich.csv"
    csv.write_bytes(csv.read_bytes().replace(b"0.", b"1.", 1))
    assert checks.same_tree(str(out), str(two), "1-worker", "2-worker")


def test_brute_force_binning_matches_a_hand_example():
    # Points 1/8, 3/8 and 5/8 on the 2**-53 lattice.
    lattice = [1 << 50, 3 << 50, 5 << 50]
    # j=0: all three in the cell; left half [0,1/2) holds two -> S = 2-1 = 1.
    # j=1: cell [0,1/2) has 1/8 left, 3/8 right -> 0; cell [1/2,1) has 5/8 left -> 1.
    assert checks.step_level_sums(lattice, 1) == [1, 1]
