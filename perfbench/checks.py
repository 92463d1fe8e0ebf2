"""Correctness checks on a workload's report tree, computed apart from the
program.

Closed forms are evaluated here with ``Fraction``; per-replicate values are
recomputed from raw draws taken with numpy straight from the documented
stream key ``SeedSequence(entropy=seed, spawn_key=(replicate, substream))``
feeding Philox.  Each check returns a list of problems; empty means the
tree passed.  Nothing here imports the package under test.
"""

from __future__ import annotations

import filecmp
import json
import math
import os
from fractions import Fraction

import numpy as np

SE_MULTIPLIER = 4.0
CONCENTRATION_SE_MULTIPLIER = 3.0
#: The documented defaults the workloads run at: the in-band frequency
#: the sandwich report needs at its top three levels, and the roynette
#: report at its top level.
SANDWICH_CONFIDENCE = 0.95
ROYNETTE_CONFIDENCE = 0.99
#: Replicates re-derived from raw draws per report.
SPOT_REPLICATES = 16
UNIFORM_STREAM = 0
GAUSSIAN_STREAM = 1
_MANTISSA = 1 << 53


def _load(out: str, name: str) -> dict:
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


def _generator(seed: int, index: int, substream: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index, substream))
    return np.random.Generator(np.random.Philox(ss))


def uniform_lattice(seed: int, index: int, n: int) -> list:
    """Sorted draws of one replicate as integers ``k`` of ``u = k / 2**53``."""
    draws = _generator(seed, index, UNIFORM_STREAM).integers(1, _MANTISSA, size=n)
    return sorted(int(k) for k in draws)


def step_level_sums(lattice: list, J: int) -> list:
    """``sum_k S_jk**2`` per level by brute force over points and levels.

    A point ``k / 2**53`` lies in level-``j`` cell ``k >> (53 - j)`` and in
    its right half when bit ``52 - j`` of ``k`` is set; it scores +1 on the
    left half and -1 on the right.
    """
    out = []
    for j in range(J + 1):
        scores = {}
        for k in lattice:
            cell = k >> (53 - j)
            scores[cell] = scores.get(cell, 0) + (-1 if (k >> (52 - j)) & 1 else 1)
        out.append(sum(s * s for s in scores.values()))
    return out


def tail_start(J: int) -> int:
    """First level of the tail window: the last ``ceil(J/3)`` levels."""
    return J + 1 - math.ceil(J / 3)


def continuous_level_stat_sq(seed: int, index: int, n: int, J: int) -> np.ndarray:
    """``2**-j sum_k c_jk**2`` of the continuous version, from the draws."""
    u = np.array(uniform_lattice(seed, index, n), dtype=np.float64) / _MANTISSA
    xs = np.concatenate(([0.0], (u[:-1] + u[1:]) / 2.0, [1.0]))
    ys = np.arange(n + 1) / n
    m = 1 << (J + 1)
    t = np.arange(m + 1) / m
    f = math.sqrt(n) * (np.interp(t, xs, ys) - t)
    out = np.empty(J + 1)
    for j in range(J + 1):
        step = 1 << (J + 1 - j)
        c = 2.0 ** (j / 2) * (2.0 * f[step // 2 :: step] - f[0:-1:step] - f[step::step])
        out[j] = float(np.sum(c * c)) / (1 << j)
    return out


def gaussian_level_stats(seed: int, index: int, J: int) -> np.ndarray:
    """``(2**-j sum_k g_jk**2) ** (1/2)`` with level ``j`` at draws ``[2**j, 2**(j+1))``."""
    draws = _generator(seed, index, GAUSSIAN_STREAM).standard_normal(1 << (J + 1))
    return np.array([
        math.sqrt(float(np.sum(draws[1 << j : 1 << (j + 1)] ** 2)) / (1 << j))
        for j in range(J + 1)
    ])


def spot_indices(seed: int, R: int) -> list:
    """First and last replicate plus a few more picked from the seed."""
    rng = np.random.default_rng([seed, R])
    picks = rng.choice(np.arange(1, R - 1), size=SPOT_REPLICATES - 2, replace=False)
    return [0, *sorted(int(i) for i in picks), R - 1]


def _within(estimate, se, exact: Fraction) -> bool:
    return abs(estimate - float(exact)) <= SE_MULTIPLIER * se


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _check_config(doc: dict, report: str, n: int, J: int, R: int, seed: int) -> list:
    cfg = doc["config"]
    got = (doc["report"], cfg["n"], cfg["j_max"], cfg["replicates"], cfg["seed"])
    want = (report, n, J, R, seed)
    return [] if got == want else [f"{report}: config {got} does not match the request {want}"]


def check_moment_identities(doc: dict, n: int, J: int) -> list:
    """Pooled ``E[H]`` and ``E[H H']`` within 4 se of their closed forms."""
    stats = doc["results"]["level_stats"]
    problems = []
    for j in range(J + 1):
        e_h = Fraction(n, 1 << j)
        if not _within(stats["mean_h_pooled"][j], stats["se_h_pooled"][j], e_h):
            problems.append(f"moments: E[H] at j={j} is {stats['mean_h_pooled'][j]}, expected {e_h}")
        if j >= 1:
            e_hh = Fraction(n * (n - 1), 1 << (2 * j))
            if not _within(stats["mean_pair"][j], stats["se_pair"][j], e_hh):
                problems.append(f"moments: E[HH'] at j={j} is {stats['mean_pair'][j]}, expected {e_hh}")
    return problems


def check_sum_variance(doc: dict, n: int, J: int) -> list:
    """``Var(sum_k G_jk)`` within 4 se of ``2**(j+1) (1 - 1/n)``."""
    stats = doc["results"]["level_stats"]
    problems = []
    for j in range(J + 1):
        exact = (1 << (j + 1)) * (1 - Fraction(1, n))
        if not _within(stats["var_sum_g"][j], stats["se_var_sum_g"][j], exact):
            problems.append(f"moments: Var(sum G) at j={j} is {stats['var_sum_g'][j]}, expected {exact}")
    return problems


def check_oracle_blocks(doc: dict, n: int) -> list:
    """Every oracle block states the closed forms exactly."""
    problems = []
    blocks = doc["results"]["oracle"]
    if not blocks:
        problems.append("moments: no oracle blocks")
    for block in blocks:
        j = block["j"]
        exact = {
            "e_h": Fraction(n, 1 << j),
            "var_sum_g": (1 << (j + 1)) * (1 - Fraction(1, n)),
        }
        if j >= 1:
            exact["e_hh"] = Fraction(n * (n - 1), 1 << (2 * j))
        for key, value in exact.items():
            if Fraction(block[key]["fraction"]) != value:
                problems.append(f"oracle: {key} at j={j} is {block[key]['fraction']}, expected {value}")
    return problems


def moment_verdict(doc: dict) -> bool:
    """The pass verdict the moment report's own numbers imply."""
    res = doc["results"]
    cov = res["coverage"]
    hits = 0
    cells = 0
    for j in range(cov["max_level"] + 1):
        cell = res["cell_stats"][str(j)]
        for mean_g, se_g in zip(cell["mean_g"], cell["se_g"]):
            hits += abs(mean_g - 1.0) <= cov["se_multiplier"] * se_g
            cells += 1
    oracle_ok = all(c["within"] for b in res["oracle"] for c in b["comparisons"])
    return hits / cells >= cov["threshold"] and oracle_ok


def _concentration_bound(n: int, j: int) -> Fraction:
    return Fraction(4 * (3 * n - 3), n << j)


def _row_within_bound(row: dict, R: int) -> bool:
    freq = row["frequency"]
    se = math.sqrt(freq * (1.0 - freq) / R)
    return freq <= float(_concentration_bound(row["n"], row["j"])) + CONCENTRATION_SE_MULTIPLIER * se


def check_concentration(doc: dict, n: int, J: int, R: int) -> list:
    """Each frequency at most ``4 (3 - 3/n) / 2**j + 3 se``, bound recomputed."""
    problems = []
    rows = doc["results"]["rows"]
    if [(r["n"], r["j"]) for r in rows] != [(n, j) for j in range(J + 1)]:
        problems.append("concentration: rows do not cover levels 0..J")
    for row in rows:
        bound = _concentration_bound(row["n"], row["j"])
        if not _rel_close(row["bound"], float(bound), 1e-12):
            problems.append(f"concentration: bound at j={row['j']} is {row['bound']}, expected {bound}")
        if not _row_within_bound(row, R):
            problems.append(
                f"concentration: frequency {row['frequency']} at j={row['j']} exceeds {bound} + 3 se"
            )
    return problems


def suite_verdicts(moments: dict, conc: dict, sand: dict, roy: dict, R: int) -> dict:
    """The pass verdict of each ``verify-all`` component, from its report's numbers."""
    sand_freq = sand["results"]["in_band_frequency"]
    return {
        "moments": moment_verdict(moments),
        "concentration": all(_row_within_bound(row, R) for row in conc["results"]["rows"]),
        "sandwich": all(f >= SANDWICH_CONFIDENCE for f in sand_freq[-3:]),
        "roynette": roy["results"]["in_band_frequency"][-1] >= ROYNETTE_CONFIDENCE,
    }


def check_step_sandwich(doc: dict, seed: int, n: int, J: int, R: int) -> list:
    """Per-replicate sup and tail-min of ``sum_k S_jk**2 / n``, recomputed exactly."""
    problems = []
    per = doc["results"]["per_replicate"]
    ts = tail_start(J)
    if doc["results"]["tail_start"] != ts:
        problems.append(f"sandwich: tail window starts at {doc['results']['tail_start']}, expected {ts}")
    for i in spot_indices(seed, R):
        stat_sq = [s / n for s in step_level_sums(uniform_lattice(seed, i, n), J)]
        want = (max(stat_sq), min(stat_sq[ts:]))
        got = (per["sup_stat_sq"][i], per["tail_min_stat_sq"][i])
        if got != want:
            problems.append(f"sandwich: replicate {i} has (sup, tail min) {got}, recomputed {want}")
    return problems


def check_gaussian(doc: dict, seed: int, J: int, R: int) -> list:
    """Level statistics from the raw normals, and the top-level mean near 1."""
    problems = []
    res = doc["results"]
    per = res["per_replicate"]
    ts = tail_start(J)
    for i in spot_indices(seed, R):
        stats = gaussian_level_stats(seed, i, J)
        want = (stats.max(), stats[ts:].min())
        got = (per["sup_stat"][i], per["tail_min_stat"][i])
        if not all(_rel_close(g, w, 1e-12) for g, w in zip(got, want)):
            problems.append(f"roynette: replicate {i} has (sup, tail min) {got}, recomputed {want}")
    mean, sd = res["mean_statistic"][J], res["sd_statistic"][J]
    # (E|N(0,1)|**2)**(1/2) = 1 exactly at p = 2.
    if not abs(mean - 1.0) <= SE_MULTIPLIER * sd / math.sqrt(R):
        problems.append(f"roynette: top-level mean {mean} is not within 4 se of 1")
    return problems


def check_continuous(doc: dict, seed: int, n: int, J: int, R: int) -> list:
    """Continuous-version level statistics recomputed from the draws match."""
    problems = []
    per = doc["results"]["per_replicate"]
    ts = tail_start(J)
    for i in spot_indices(seed, R):
        stat_sq = continuous_level_stat_sq(seed, i, n, J)
        want = (stat_sq.max(), stat_sq[ts:].min())
        got = (per["sup_stat_sq"][i], per["tail_min_stat_sq"][i])
        if not all(_rel_close(g, w, 1e-9) for g, w in zip(got, want)):
            problems.append(f"continuous: replicate {i} has (sup, tail min) {got}, recomputed {want}")
    return problems


def vanishing_tail(doc: dict, J: int) -> list:
    """The mean level statistic falls across the tail window and ends far below the band."""
    res = doc["results"]
    mean = res["mean_statistic"]
    ts = tail_start(J)
    problems = []
    if not all(a > b for a, b in zip(mean[ts:], mean[ts + 1 :])):
        problems.append(f"continuous: mean level statistic does not fall across the tail: {mean[ts:]}")
    # Far below: a tenth of the band's lower edge, on the unsquared statistic.
    floor = 0.1 * math.sqrt(res["band"][0])
    if not mean[J] < floor or res["in_band_frequency"][J] != 0.0:
        problems.append(f"continuous: top-level mean {mean[J]} is not far below the band")
    return problems


def operation_ok(workload, out: str, returncode: int) -> bool:
    """The command ran to its expected exit; for ``continuous``, its report
    also shows the vanishing tail, which is what that workload counts as success."""
    if returncode not in workload.expected_exit:
        return False
    if workload.name != "continuous":
        return True
    try:
        return not vanishing_tail(_load(out, "sandwich.json"), workload.J)
    except (OSError, ValueError, KeyError, IndexError, TypeError):
        return False


def _exit_matches(passed: bool, returncode: int, label: str) -> list:
    want = 0 if passed else 2
    return [] if returncode == want else [f"{label}: exit {returncode} but the report implies {want}"]


def check(workload, seed: int, out: str, returncode: int) -> list:
    """Every check of ``workload`` on the tree in ``out``."""
    n, J, R = workload.n, workload.J, workload.R
    try:
        if workload.name == "suite":
            moments = _load(out, "moments.json")
            conc = _load(out, "concentration.json")
            sand = _load(out, "sandwich.json")
            roy = _load(out, "roynette.json")
            summary = _load(out, "summary.json")
            gJ = workload.gaussian_J
            problems = (
                _check_config(moments, "moments", n, J, R, seed)
                + _check_config(conc, "concentration", n, J, R, seed)
                + _check_config(sand, "sandwich", n, J, R, seed)
                + _check_config(roy, "roynette", n, gJ, R, seed)
                + check_moment_identities(moments, n, J)
                + check_concentration(conc, n, J, R)
                + check_step_sandwich(sand, seed, n, J, R)
                + check_gaussian(roy, seed, gJ, R)
            )
            verdicts = suite_verdicts(moments, conc, sand, roy, R)
            for name, doc in (("moments", moments), ("concentration", conc),
                              ("sandwich", sand), ("roynette", roy)):
                if doc["results"]["passed"] != verdicts[name]:
                    problems.append(f"{name}: pass verdict disagrees with the report's numbers")
                # Only the moments coverage rule may fail on correct output.
                if name != "moments" and not verdicts[name]:
                    problems.append(f"{name}: the report's own numbers fail the check")
            if summary["components"] != verdicts or summary["passed"] != all(verdicts.values()):
                problems.append("summary: verdicts disagree with the component reports")
            return problems + _exit_matches(summary["passed"], returncode, "verify-all")
        if workload.name == "oracle-small":
            doc = _load(out, "moments.json")
            problems = (
                _check_config(doc, "moments", n, J, R, seed)
                + check_moment_identities(doc, n, J)
                + check_sum_variance(doc, n, J)
                + check_oracle_blocks(doc, n)
            )
            passed = doc["results"]["passed"]
            if moment_verdict(doc) != passed:
                problems.append("moments: pass verdict disagrees with the report's numbers")
            return problems + _exit_matches(passed, returncode, "verify-moments")
        if workload.name == "continuous":
            doc = _load(out, "sandwich.json")
            problems = (
                _check_config(doc, "sandwich", n, J, R, seed)
                + check_continuous(doc, seed, n, J, R)
                + vanishing_tail(doc, J)
            )
            # Graded against the step-process band, the run fails by design.
            return problems + _exit_matches(doc["results"]["passed"], returncode, "verify-sandwich")
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{workload.name}: unreadable report: {type(exc).__name__}: {exc}"]
    raise ValueError(f"no checks for workload {workload.name!r}")


def same_tree(a: str, b: str, label_a: str, label_b: str) -> list:
    """Both directories hold the same file names with byte-identical contents."""
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return [f"{label_a} and {label_b} trees list different files"]
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    if mismatch or errors:
        return [f"{label_a} and {label_b} trees differ in {sorted(mismatch + errors)}"]
    return []
