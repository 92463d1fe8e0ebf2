import argparse
import contextlib
import filecmp
import hashlib
import io
import json
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import besov_empirica
from besov_empirica import besov, cli, dyadic, montecarlo, sampling
from besov_empirica.cli import emit_plot_data, main
from besov_empirica.errors import ParameterError
from besov_empirica.montecarlo import (
    ExperimentConfig,
    run_concentration_experiment,
    run_moment_experiment,
    run_sandwich_experiment,
)

from conftest import ReachedDraws, reach_draws, read_report_csv


VERIFY_COMMANDS = [
    "verify-moments", "verify-concentration", "verify-sandwich", "verify-roynette", "verify-all",
]


def run_cli(*argv):
    return main(list(argv))


@contextlib.contextmanager
def warnings_as_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def assert_trees_identical(a, b):
    names_a = sorted(os.listdir(a))
    names_b = sorted(os.listdir(b))
    assert names_a == names_b
    match, mismatch, errors = filecmp.cmpfiles(a, b, names_a, shallow=False)
    assert not mismatch and not errors, (mismatch, errors)


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run_cli("frobnicate") == 1
        assert "error:" in capsys.readouterr().err

    def test_norm_rejects_small_p(self, tmp_path, capsys):
        coeffs = tmp_path / "c.json"
        tri = dyadic.CoefficientTriangle(J=0, mu0=0.0, mu1=0.0, levels=(np.zeros(1),))
        dyadic.save_triangle_json(tri, coeffs)
        code = run_cli("norm", "--coeffs", str(coeffs), "--p", "0.5")
        err = capsys.readouterr().err
        assert code == 1
        assert "p:" in err and ">= 1" in err

    def test_bad_flag_value(self, capsys):
        assert run_cli("verify-sandwich", "--n", "lots") == 1

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"power": 3}))
        code = run_cli("verify-sandwich", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "power" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "settings,key",
        [
            ({"n": "abc"}, "n"),
            ({"n": [100]}, "n"),
            ({"j_max": -1}, "j_max"),
            ({"n": 2.7}, "n"),
        ],
        ids=["string-int", "scalar-list", "negative-level", "fractional-int"],
    )
    def test_bad_config_value_names_key(self, tmp_path, capsys, settings, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        code = run_cli("verify-moments", "--config", str(cfg), "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {key}: ") and err.count("\n") == 1, err

    def test_unreadable_config_names_key(self, tmp_path, capsys):
        # Bytes that are not UTF-8, and a path no file system accepts.
        binary = tmp_path / "cfg.json"
        binary.write_bytes(b"\xff\xfe{")
        for path in (str(binary), "cfg\x00.json"):
            assert run_cli("verify-moments", "--config", path, "--out", str(tmp_path / "o")) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: config: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "argv,settings,key",
        [
            (["simulate-empirical", "--n", str(10**20)], None, "n"),
            (["verify-sandwich", "--n", str(10**20)], None, "n"),
            # 50000 points times the default chunk of 100 replicates.  The cap
            # is a run check keyed on the kernel, so every sample-stacking
            # command must reach it.
            (["verify-sandwich", "--n", "50000"], None, "n"),
            (["verify-moments", "--n", "50000"], None, "n"),
            (["verify-concentration", "--n", "50000"], None, "n"),
            (["verify-concentration"], {"n": 10**20}, "n"),
        ],
        ids=[
            "simulate-n",
            "verify-n",
            "verify-n-times-chunk",
            "moments-n-times-chunk",
            "concentration-n-times-chunk",
            "config-n",
        ],
    )
    def test_sample_points_cap_before_draws(self, tmp_path, capsys, argv, settings, key):
        if settings is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(settings))
            argv = argv + ["--config", str(cfg)]
        out = tmp_path / "o"
        code = run_cli(*argv, "--out", str(out))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {key}: ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_sample_points_cap_counts_the_stacked_chunk(self, tmp_path, capsys):
        # A run of 100 replicates stacks one chunk of 100 whatever chunk_size
        # says: 30000 points a replicate fit under the cap at chunk_size 1000
        # as at the default, and the two write the same tree.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"chunk_size": 1000}))
        argv = ["verify-sandwich", "--n", "30000", "--replicates", "100"]
        big, default = tmp_path / "big", tmp_path / "default"
        code = run_cli(*argv, "--config", str(cfg), "--out", str(big))
        assert code in (0, 2), capsys.readouterr().err
        assert run_cli(*argv, "--out", str(default)) == code
        assert_trees_identical(big, default)

    @pytest.mark.parametrize("command", ["simulate-empirical", "verify-sandwich"])
    def test_level_cap_before_allocation(self, tmp_path, capsys, command):
        # 2**29-entry half-cell arrays would not fit; the cap rejects J=28 first.
        code = run_cli(command, "--j-max", "28", "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: j_max: ") and err.count("\n") == 1, err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command,j_max",
        [
            ("simulate-bm", "0"),
            ("simulate-bm", "24"),
            ("simulate-bm", "25"),
            ("simulate-empirical", "0"),
        ],
    )
    def test_simulate_level_names_j_max(self, tmp_path, capsys, command, j_max):
        out = tmp_path / "o.json"
        code = run_cli(command, "--j-max", j_max, "--out", str(out))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: j_max: ") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate-empirical", "simulate-bm"])
    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    def test_simulate_seed_names_seed(self, tmp_path, capsys, command, seed):
        # The flag is ``--seed``; ``SeedSpec`` would name its own key.
        out = tmp_path / "o.json"
        code = run_cli(command, "--seed", seed, "--out", str(out))
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: seed: must be an unsigned 64-bit integer (got {seed})\n", err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify-moments", "verify-concentration", "verify-sandwich"])
    @pytest.mark.parametrize("flag,value", [("--p", "7")])
    def test_unused_exponent_rejected(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "o"
        code = run_cli(command, flag, value, "--out", str(out))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {flag[2:]}: ") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify-roynette", "verify-all"])
    def test_exponent_above_cap_rejected(self, tmp_path, capsys, command):
        # Above the cap a Gaussian level's sum of |g|**p overflows float64.
        out = tmp_path / "o"
        code = run_cli(command, "--p", "2000", "--out", str(out))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: p: ") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_exponent_names_its_range(self, tmp_path, capsys, value):
        out = tmp_path / "o"
        code = run_cli("verify-roynette", "--p", value, "--out", str(out))
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: p: must lie in [1, {montecarlo.MAX_P}] (got {value})\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_norm_rejects_non_finite_exponent(self, tmp_path, capsys, value):
        coeffs = tmp_path / "c.json"
        tri = dyadic.CoefficientTriangle(J=0, mu0=0.0, mu1=0.0, levels=(np.zeros(1),))
        dyadic.save_triangle_json(tri, coeffs)
        out = tmp_path / "s.json"
        code = run_cli("norm", "--coeffs", str(coeffs), "--p", value, "--out", str(out))
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: p: must be a finite number >= 1 (got {value})\n"
        assert not out.exists()

    def test_exponent_at_cap_runs_without_warning(self, tmp_path, capsys):
        out = tmp_path / "o"
        with warnings_as_errors():
            code = run_cli(
                "verify-roynette", "--p", str(montecarlo.MAX_P), "--replicates", "100",
                "--j-max", "6", "--out", str(out),
            )
        assert code in (0, 2)
        report = (out / "roynette.json").read_text()
        assert "Infinity" not in report and "NaN" not in report

    def test_line_breaks_escaped_in_diagnostic(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a\nb": 1}))
        assert run_cli("verify-moments", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        assert run_cli("verify-all", "x\ny") == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 2 and "error: a\\nb: unknown configuration key" in err, err

    @pytest.mark.parametrize("command", ["verify-concentration", "verify-all"])
    def test_ignored_process_rejected(self, tmp_path, capsys, command):
        # Concentration grades the step process only, and verify-all sets
        # each experiment's process itself.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"process": "empirical-continuous"}))
        out = tmp_path / "o"
        assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: process: ") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,settings,key",
        [
            (["verify-moments"], {"roynette_band_halfwidth": 0.2}, "roynette_band_halfwidth"),
            (["verify-concentration"], {"roynette_band_halfwidth": 0.2}, "roynette_band_halfwidth"),
            (["verify-sandwich"], {"roynette_band_halfwidth": 0.2}, "roynette_band_halfwidth"),
            (["verify-roynette", "--n", "7"], None, "n"),
        ],
        ids=["moments-halfwidth", "concentration-halfwidth", "sandwich-halfwidth", "roynette-n"],
    )
    def test_unread_setting_rejected(self, tmp_path, capsys, argv, settings, key):
        if settings is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(settings))
            argv = argv + ["--config", str(cfg)]
        out = tmp_path / "o"
        assert run_cli(*argv, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_moments_at_the_deepest_level(self, tmp_path, capsys):
        # Per-cell sums and the cell table stop at level 8, so no moments
        # bound grows with 2**j_max.
        out = tmp_path / "o"
        code = run_cli(
            "verify-moments", "--j-max", "23", "--replicates", "100", "--out", str(out)
        )
        assert code in (0, 2)
        rows = read_report_csv(out / "moments_cells.csv")
        assert len(rows) == (1 << 9) - 1 and rows[-1]["j"] == "8"
        levels = read_report_csv(out / "moments_levels.csv")
        assert [row["j"] for row in levels] == [str(j) for j in range(24)]

    @pytest.mark.parametrize(
        "argv,settings",
        [
            (["verify-sandwich"], None),
            (["verify-sandwich", "--n", "20"], {"process": "empirical-continuous"}),
            (["verify-concentration"], None),
            (["verify-roynette"], None),
            (["verify-all"], None),
        ],
        ids=["sandwich", "sandwich-continuous", "concentration", "roynette", "all"],
    )
    def test_replicates_memory_cap_before_draws(self, tmp_path, capsys, monkeypatch, argv, settings):
        def no_draws(name, cfg):
            raise AssertionError("drew replicates")

        monkeypatch.setattr(montecarlo, "run_chunked", no_draws)
        if settings is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(settings))
            argv = argv + ["--config", str(cfg)]
        out = tmp_path / "o"
        assert run_cli(*argv, "--replicates", str(10**12), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: replicates: ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_verify_all_checks_every_run_before_out_dir(self, tmp_path, capsys, monkeypatch):
        # Only the sandwich run needs j_max >= 10; moments and concentration
        # must not run before that check.
        def no_draws(name, cfg):
            raise AssertionError("drew replicates")

        monkeypatch.setattr(montecarlo, "run_chunked", no_draws)
        out = tmp_path / "o"
        assert run_cli("verify-all", "--j-max", "8", "--replicates", "100", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: j_max: sandwich") and err.count("\n") == 1, err
        assert not out.exists()

    def test_workers_cap_before_any_pool(self, tmp_path, capsys, monkeypatch):
        def no_pool(workers):
            raise AssertionError(f"asked for a pool of {workers}")

        monkeypatch.setattr(montecarlo, "_worker_pool", no_pool)
        out = tmp_path / "o"
        assert run_cli("verify-moments", "--workers", "1000000", "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: workers: must be <= 64 (got 1000000)\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify-moments", "verify-concentration", "verify-sandwich"])
    def test_concurrent_chunks_counted_before_any_pool(self, tmp_path, capsys, monkeypatch, command):
        # 64 workers each running a 4 * 10**6-point chunk would hold 14-34 GB;
        # one worker running them in turn fits.
        def no_pool(workers):
            raise AssertionError(f"asked for a pool of {workers}")

        monkeypatch.setattr(montecarlo, "_worker_pool", no_pool)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"chunk_size": 4000}))
        argv = [
            command, "--n", "1000", "--j-max", "12", "--replicates", "256000",
            "--config", str(cfg),
        ]
        out = tmp_path / "o"
        assert run_cli(*argv, "--workers", "64", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: workers: ") and err.count("\n") == 1, err
        assert not out.exists()

        monkeypatch.setattr(montecarlo, "run_chunked", reach_draws)
        with pytest.raises(ReachedDraws):
            run_cli(*argv, "--workers", "1", "--out", str(out))

    def test_simulate_bm_has_no_sample_size(self, tmp_path, capsys):
        code = run_cli("simulate-bm", "--n", "5", "--out", str(tmp_path / "p.json"))
        assert code == 1
        assert "--n" in capsys.readouterr().err

    def test_invalid_setting_names_key(self, capsys, tmp_path):
        code = run_cli("verify-moments", "--replicates", "5", "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 1
        assert "replicates" in err and ">= 100" in err


class TestOutputErrors:
    """A file that cannot be written ends in exit 1 and one line naming the
    flag that asked for it."""

    def test_out_is_an_existing_file(self, tmp_path, capsys):
        out = tmp_path / "F"
        out.write_text("kept")
        assert run_cli("verify-sandwich", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out: ") and "File exists" in err, err
        assert err.count("\n") == 1
        assert out.read_text() == "kept"

    @pytest.mark.parametrize(
        "argv,key",
        [
            (["simulate-bm", "--out", "{missing}"], "out"),
            (["simulate-empirical", "--out", "{missing}"], "out"),
            (["coeffs", "--path", "{path}", "--out", "{missing}"], "out"),
            (["norm", "--coeffs", "{coeffs}", "--out", "{missing}"], "out"),
            (["norm", "--coeffs", "{coeffs}", "--profile", "{missing}"], "profile"),
        ],
        ids=["simulate-bm", "simulate-empirical", "coeffs", "norm-out", "norm-profile"],
    )
    def test_missing_directory_names_the_flag(self, tmp_path, capsys, argv, key):
        files = {
            "missing": str(tmp_path / "missing" / "x.json"),
            "path": str(tmp_path / "path.json"),
            "coeffs": str(tmp_path / "coeffs.json"),
        }
        assert run_cli("simulate-bm", "--j-max", "8", "--out", files["path"]) == 0
        assert run_cli("coeffs", "--path", files["path"], "--out", files["coeffs"]) == 0
        capsys.readouterr()
        assert run_cli(*(arg.format(**files) for arg in argv)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ") and "No such file or directory" in err, err
        assert err.count("\n") == 1


def _lattice_off_by_one(words):
    lattice, rejected = _LEMIRE_LATTICE(words)
    return lattice + 1, rejected


def _philox_word_flipped(keys, n):
    words = _PHILOX_WORDS(keys, n).copy()
    words[0, 0] ^= np.uint64(1 << 63)  # a top bit, which the lattice keeps
    return words


def _gaussian_streams_shifted(master_seed, start, count, label):
    shift = label == sampling.GAUSSIAN_STREAM
    return _STREAM_GENERATORS(master_seed, start + shift, count, label)


_LEMIRE_LATTICE = sampling.lemire_lattice
_PHILOX_WORDS = sampling.philox_words
_STREAM_GENERATORS = sampling.stream_generators


@pytest.mark.parametrize(
    "attr,stand_in",
    [
        ("lemire_lattice", _lattice_off_by_one),
        ("philox_words", _philox_word_flipped),
        ("stream_generators", _gaussian_streams_shifted),
    ],
    ids=["uniform-lattice", "uniform-philox", "gaussian-keys"],
)
def test_numpy_guard_stops_before_out(tmp_path, capsys, monkeypatch, attr, stand_in):
    # Batched draws that no longer match the reference streams, as a numpy
    # that moved its Lemire bound, its Philox rounds or its SeedSequence hash
    # would give.
    monkeypatch.setattr(sampling, attr, stand_in)
    sampling.check_streams.cache_clear()
    out = tmp_path / "o"
    try:
        code = run_cli("verify-moments", "--n", "3", "--j-max", "6", "--replicates", "100",
                       "--out", str(out))
    finally:
        sampling.check_streams.cache_clear()
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: numpy: ") and err.count("\n") == 1, err
    assert not out.exists()


class TestSimulate:
    def test_simulate_defaults(self, tmp_path, capsys):
        out = tmp_path / "coeffs.json"
        assert run_cli("simulate-empirical", "--out", str(out)) == 0
        tri, meta = dyadic.load_triangle_json(out)
        assert (tri.J, meta["n"], meta["seed"], meta["source"]) == (10, 100, 42, "step")

    def test_simulate_empirical_metadata(self, tmp_path, capsys):
        out = tmp_path / "coeffs.json"
        code = run_cli(
            "simulate-empirical",
            "--n", "100", "--j-max", "10", "--seed", "7",
            "--source", "continuous", "--out", str(out),
        )
        assert code == 0
        tri, meta = dyadic.load_triangle_json(out)
        assert tri.J == 10
        assert meta["n"] == 100 and meta["seed"] == 7 and meta["source"] == "continuous"
        assert meta["sup_distance"] <= 0.01

    def test_simulate_bm_bridge_and_coeffs_round_trip(self, tmp_path):
        path_file = tmp_path / "path.json"
        assert run_cli(
            "simulate-bm", "--j-max", "8", "--seed", "9", "--bridge", "--out", str(path_file)
        ) == 0
        doc = json.loads(path_file.read_text())
        assert doc["kind"] == "bridge"
        assert doc["values"][0] == 0.0 and doc["values"][-1] == 0.0
        stored = dyadic.triangle_from_dict(doc["triangle"])
        assert stored.mu1 == 0.0

        coeff_file = tmp_path / "coeffs.json"
        assert run_cli("coeffs", "--path", str(path_file), "--out", str(coeff_file)) == 0
        tri, meta = dyadic.load_triangle_json(coeff_file)
        assert tri.J == 7
        assert meta["source_level"] == 8
        # Extraction agrees with the stored synthesis triangle to rounding.
        for j in range(8):
            np.testing.assert_allclose(
                tri.levels[j], stored.levels[j], rtol=1e-9, atol=1e-9
            )

    def test_norm_outputs(self, tmp_path, capsys):
        coeffs = tmp_path / "coeffs.json"
        run_cli("simulate-empirical", "--n", "50", "--j-max", "8", "--seed", "3",
                "--out", str(coeffs))
        capsys.readouterr()
        profile = tmp_path / "prof.csv"
        summary = tmp_path / "norm.json"
        code = run_cli(
            "norm", "--coeffs", str(coeffs), "--p", "2", "--alpha", "0.5",
            "--profile", str(profile), "--out", str(summary),
        )
        assert code == 0
        printed = float(capsys.readouterr().out.strip())
        doc = json.loads(summary.read_text())
        assert doc["norm"] == printed
        rows = read_report_csv(profile)
        assert len(rows) == 9
        assert list(rows[0]) == ["j", "level_statistic", "running_sup", "tail_min"]


class TestConfigSchema:
    def test_report_config_rebuilds_config(self, tmp_path, capsys):
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps({"n": 20, "p": 2}))
        argv = [
            "verify-concentration", "--seed", "9", "--j-max", "8",
            "--replicates", "100", "--config", str(settings),
        ]
        out = tmp_path / "rep"
        assert run_cli(*argv, "--out", str(out)) in (0, 2)
        block = json.loads((out / "concentration.json").read_text())["config"]
        written_back = tmp_path / "back.json"
        written_back.write_text(json.dumps(block))
        rebuilt = cli._experiment_config(
            cli.build_parser().parse_args(["verify-concentration", "--config", str(written_back)])
        )
        assert rebuilt == cli._experiment_config(cli.build_parser().parse_args(argv))

    def test_config_keys_are_report_keys_plus_run_only(self):
        report_keys = set(ExperimentConfig().as_dict())
        assert "workers" not in report_keys and "chunk_size" not in report_keys
        assert set(montecarlo.config_schema()) == report_keys | {"workers", "chunk_size"}


#: Former ``ExperimentConfig`` fields, now constants or gone, with their
#: last default.
RETIRED_SETTINGS = {
    "alpha": 0.5,
    "sandwich_confidence": 0.95,
    "roynette_confidence": 0.99,
    "coverage_se_multiplier": 3.0,
    "coverage_max_level": 8,
    "oracle_se_multiplier": 4.0,
    "concentration_se_multiplier": 3.0,
    "n_values": [],
    "j_min": 0,
    "coverage_threshold": 0.99,
}


class TestRetiredSettings:
    @pytest.mark.parametrize("key", sorted(RETIRED_SETTINGS))
    def test_retired_config_key(self, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: RETIRED_SETTINGS[key]}))
        out = tmp_path / "o"
        assert run_cli("verify-moments", "--config", str(cfg), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {key}: unknown configuration key\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", VERIFY_COMMANDS)
    def test_alpha_flag_rejected(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        assert run_cli(command, "--alpha", "0.9", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--alpha" in err and err.count("\n") == 1, err
        assert not out.exists()


def test_readme_lists_verify_flags():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        match = re.search(r"Flags of the `verify-\*` commands: `([^`]*)`", fh.read())
    assert match, "README lost its paragraph on the verify-* flags"
    documented = set(re.findall(r"--[a-z][a-z-]*", match.group(1)))
    (subcommands,) = [
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    for command in VERIFY_COMMANDS:
        flags = {
            flag
            for action in subcommands.choices[command]._actions
            for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"
        }
        assert flags == documented, command


def test_readme_lists_config_keys():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        match = re.search(r"The (\d+) config keys are ([^.]*)\.", fh.read())
    assert match, "README lost its sentence listing the config keys"
    documented = re.findall(r"`([a-z_]+)`", match.group(2))
    assert int(match.group(1)) == len(documented)
    assert documented == list(montecarlo.config_schema())


def test_readme_lists_moments_csv_headers(tmp_path, capsys):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    out = tmp_path / "moments"
    code = run_cli(
        "verify-moments", "--n", "3", "--j-max", "6", "--replicates", "100", "--out", str(out)
    )
    assert code in (0, 2)
    for name in ("moments_cells.csv", "moments_levels.csv"):
        match = re.search(rf"`{re.escape(name)}`: `([^`]*)`", text)
        assert match, f"README lost the header of {name}"
        assert match.group(1) == (out / name).read_text().splitlines()[0]


def test_readme_lists_settings_each_command_reads():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        lines = re.findall(r"^- `verify-([a-z]+)`(?: on ([^:]*))?: (.*)$", fh.read(), re.M)
    documented = {
        kind: (tuple(re.findall(r"`([a-z-]+)`", on)), re.findall(r"`([a-z_]+)`", reads))
        for kind, on, reads in lines
    }
    key = lambda field: montecarlo.CONFIG_KEYS.get(field, field)
    expected = {
        kind: (tuple(experiment.kernels), [key(field) for field in experiment.reads])
        for kind, experiment in montecarlo.EXPERIMENTS.items()
    }
    suite = dict.fromkeys(
        key(field) for experiment in montecarlo.EXPERIMENTS.values() for field in experiment.reads
    )
    expected["all"] = ((), list(suite))
    assert documented == expected


def test_every_setting_is_read_by_some_experiment():
    # A field no experiment reads would be accepted by verify-all and read
    # nowhere.
    read = {field for experiment in montecarlo.EXPERIMENTS.values() for field in experiment.reads}
    for key, (field, _) in montecarlo.config_schema().items():
        assert field in read | {"process", *montecarlo.RUN_ONLY_FIELDS}, key


def test_config_schema_types_are_scalars():
    # Config values are read as strings, integers or finite numbers only.
    for key, (_, kind) in montecarlo.config_schema().items():
        assert kind in (str, int, float), key


def test_package_exports_resolve():
    for name in besov_empirica.__all__:
        assert getattr(besov_empirica, name) is not None, name


class TestPlotData:
    def test_profile_row_count(self, tmp_path):
        levels = np.ones(15)  # J = 14
        profile = besov.profile_from_levels(levels)
        out = tmp_path / "prof.csv"
        emit_plot_data(profile, out)
        assert len(read_report_csv(out)) == 15

    def test_concentration_rows_and_bound_column(self, tmp_path):
        cfg = ExperimentConfig(n=100, J=12, R=200, seed=5)
        report = run_concentration_experiment(cfg)
        out = tmp_path / "conc.csv"
        dyadic.write_csv(out, *report.tables["concentration.csv"])
        rows = read_report_csv(out)
        assert len(rows) == 13
        for row in rows:
            n, j = int(row["n"]), int(row["j"])
            assert float(row["bound"]) == 4.0 * 2.0**-j * (3.0 - 3.0 / n)

    def test_sandwich_csv_round_trip(self, tmp_path):
        report = run_sandwich_experiment(ExperimentConfig(n=50, J=10, R=150, seed=5))
        out = tmp_path / "sand.csv"
        dyadic.write_csv(out, *report.tables["sandwich.csv"])
        rows = read_report_csv(out)
        assert len(rows) == 11
        for j, row in enumerate(rows):
            assert float(row["in_band_frequency"]) == report.results["in_band_frequency"][j]

    @pytest.mark.parametrize("J", [6, 10])
    def test_moment_cells_csv(self, tmp_path, J):
        # Per-cell statistics cover the levels the coverage rule grades,
        # 0..min(J, 8); per-level ones every level.
        report = run_moment_experiment(ExperimentConfig(n=10, J=J, R=150, seed=5))
        top = min(J, 8)
        assert list(report.results["cell_stats"]) == list(range(top + 1))
        assert len(report.results["level_stats"]["mean_h_pooled"]) == J + 1
        out = tmp_path / "cells.csv"
        dyadic.write_csv(out, *report.tables["moments_cells.csv"])
        rows = read_report_csv(out)
        assert len(rows) == (2 << top) - 1
        assert (rows[-1]["j"], rows[-1]["k"]) == (str(top), str(1 << top))
        assert float(rows[0]["mean_g"]) == report.results["cell_stats"][0]["mean_g"][0]


class TestVerifyCommands:
    def test_verify_moments_flags_nominal_variance_at_defaults(self, tmp_path, capsys):
        # n=100 admits no oracle block; the flag comes from the closed forms
        # Var(sum G) = 2**(j+1) (1 - 1/n) and 3 * 2**j (1 - 1/n).
        out = tmp_path / "rep"
        assert run_cli("verify-moments", "--out", str(out)) in (0, 2)
        results = json.loads((out / "moments.json").read_text())["results"]
        assert results["oracle"] == []
        assert results["nominal_variance_mismatch"] is True

    def test_verify_sandwich_pass(self, tmp_path, capsys):
        out = tmp_path / "rep"
        code = run_cli(
            "verify-sandwich", "--seed", "42", "--n", "100",
            "--j-max", "10", "--replicates", "150", "--out", str(out),
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        doc = json.loads((out / "sandwich.json").read_text())
        assert doc["results"]["passed"] is True
        assert doc["config"]["seed"] == 42

    def test_verify_roynette_statistical_failure_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"roynette_band_halfwidth": 1e-9}))
        out = tmp_path / "rep"
        code = run_cli(
            "verify-roynette", "--seed", "42", "--j-max", "6",
            "--replicates", "100", "--config", str(cfg), "--out", str(out),
        )
        assert code == 2
        assert "FAIL" in capsys.readouterr().out
        doc = json.loads((out / "roynette.json").read_text())
        assert doc["results"]["passed"] is False

    def test_verify_roynette_bridge_via_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"process": "bridge"}))
        out = tmp_path / "rep"
        code = run_cli(
            "verify-roynette", "--seed", "4", "--j-max", "12",
            "--replicates", "100", "--config", str(cfg), "--out", str(out),
        )
        assert code == 0
        doc = json.loads((out / "roynette.json").read_text())
        assert doc["config"]["process"] == "bridge"

    def test_verify_roynette_level_cap(self, tmp_path, capsys):
        code = run_cli(
            "verify-roynette", "--seed", "4", "--j-max", "24",
            "--replicates", "100", "--out", str(tmp_path / "rep"),
        )
        assert code == 1
        assert "j_max" in capsys.readouterr().err

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 10, "replicates": 120, "j_max": 10}))
        out = tmp_path / "rep"
        code = run_cli(
            "verify-sandwich", "--seed", "1", "--n", "60",
            "--config", str(cfg), "--out", str(out),
        )
        assert code == 0
        doc = json.loads((out / "sandwich.json").read_text())
        assert doc["config"]["n"] == 60
        assert doc["config"]["replicates"] == 120


class TestDeterminism:
    # At n=40, J=10 and seed 42 the moments coverage rule passes from about
    # 300 replicates on (0.986 at 120, 0.998 at 300).
    def test_repeat_run_identical_tree(self, tmp_path, capsys):
        args = (
            "verify-all", "--seed", "42", "--n", "40", "--j-max", "10", "--replicates", "300",
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--out", str(out1)) == 0
        assert run_cli(*args, "--out", str(out2)) == 0
        assert_trees_identical(out1, out2)

    def test_verify_all_outputs(self, tmp_path, capsys):
        out = tmp_path / "suite"
        code = run_cli(
            "verify-all", "--seed", "42", "--n", "40", "--j-max", "10",
            "--replicates", "300", "--out", str(out),
        )
        assert code == 0
        names = sorted(os.listdir(out))
        assert names == [
            "concentration.csv",
            "concentration.json",
            "moments.json",
            "moments_cells.csv",
            "moments_levels.csv",
            "roynette.csv",
            "roynette.json",
            "sandwich.csv",
            "sandwich.json",
            "summary.json",
        ]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is True
        assert set(summary["components"]) == {
            "moments", "concentration", "sandwich", "roynette",
        }

    def test_verify_all_pins_step_exponents(self, tmp_path, capsys):
        # Each experiment reads its own settings and runs at defaults for the
        # rest: p and the halfwidth reach the Gaussian run only, n the step runs.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"roynette_band_halfwidth": 0.05}))
        out = tmp_path / "suite"
        code = run_cli(
            "verify-all", "--seed", "42", "--n", "40", "--j-max", "10", "--p", "4",
            "--replicates", "300", "--config", str(cfg), "--out", str(out),
        )
        assert code in (0, 2), capsys.readouterr().err
        for kind, p, halfwidth, n in [
            ("moments", 2.0, 0.1, 40),
            ("concentration", 2.0, 0.1, 40),
            ("sandwich", 2.0, 0.1, 40),
            ("roynette", 4.0, 0.05, 100),
        ]:
            config = json.loads((out / f"{kind}.json").read_text())["config"]
            assert (config["p"], config["roynette_band_halfwidth"], config["n"]) == (p, halfwidth, n)
            assert "alpha" not in config and "coverage_threshold" not in config, kind


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.integers(-(10**400), 10**400)
    | st.floats()
    | st.text(max_size=6)
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_CONFIG_OBJECTS = st.dictionaries(
    st.sampled_from(sorted(montecarlo.config_schema())) | st.text(max_size=8),
    _JSON_VALUES,
    max_size=6,
)


class TestConfigFuzz:
    @settings(max_examples=300)
    @given(settings_obj=_CONFIG_OBJECTS)
    def test_config_gives_config_or_one_line_error(self, settings_obj):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w") as fh:
                json.dump(settings_obj, fh)
            try:
                cfg = cli._experiment_config(argparse.Namespace(config=path))
            except ParameterError:
                pass
            else:
                # Valid settings may ask for any amount of work; run none.
                assert isinstance(cfg, ExperimentConfig)
                return
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["verify-moments", "--config", path, "--out", os.path.join(tmp, "o")])
            assert code == 1
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, (
                err.getvalue()
            )


class TestFileReaders:
    @pytest.mark.parametrize(
        "doc",
        [
            b"[]",
            b'{"J": 1, "values": [0, "a", 0]}',
            b'{"J": 1, "values": [[0], 1, 0]}',
            b'{"J": 1, "values": {"0": 0}}',
            b'{"J": "2", "values": [0, 0, 0, 0, 0]}',
            b'{"J": 2.5, "values": [0, 0, 0, 0, 0]}',
            b'{"J": true, "values": [0, 0, 0]}',
            b'{"J": 1, "values": [0, 1, 0], "units": "m"}',
            b'{"J": 1, "values": [0, 1, 0], "kind": 3}',
            b'{"J": 1}',
            b'{"J": 40, "values": []}',
            b"\xff\xfe{",
            b"{",
        ],
        ids=[
            "list", "string-value", "nested-value", "values-object", "string-J", "fractional-J",
            "boolean-J", "unknown-key", "kind-type", "missing-values", "level-cap", "not-utf8",
            "not-json",
        ],
    )
    def test_bad_path_file(self, tmp_path, capsys, doc):
        path = tmp_path / "path.json"
        path.write_bytes(doc)
        out = tmp_path / "coeffs.json"
        assert run_cli("coeffs", "--path", str(path), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: path: ") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc",
        [
            b"[]",
            b'{"J": 0, "mu0": 0, "mu1": 0, "levels": [["a"]]}',
            b'{"J": 0, "mu0": 0, "mu1": 0, "levels": [[[0]]]}',
            b'{"J": 0, "mu0": 0, "mu1": 0, "levels": {"0": [0]}}',
            b'{"J": 0, "mu0": 0, "mu1": 0, "levels": [0]}',
            b'{"J": "0", "mu0": 0, "mu1": 0, "levels": [[0]]}',
            b'{"J": 0.0, "mu0": 0, "mu1": 0, "levels": [[0]]}',
            b'{"J": 0, "mu0": "x", "mu1": 0, "levels": [[0]]}',
            b'{"J": 0, "mu0": NaN, "mu1": 0, "levels": [[0]]}',
            b'{"J": 0, "mu0": 0, "levels": [[0]]}',
            b'{"J": 0, "mu0": 0, "mu1": 0, "levels": [[0]], "metadata": []}',
            b'{"J": 0, "mu0": 0, "mu1": 0, "levels": [[0]], "note": 1}',
            b'{"J": 1, "mu0": 0, "mu1": 0, "levels": [[0]]}',
            b"\xff\xfe{",
        ],
        ids=[
            "list", "string-value", "nested-value", "levels-object", "level-number", "string-J",
            "float-J", "string-mu0", "nan-mu0", "missing-mu1", "metadata-list", "unknown-key",
            "short-levels", "not-utf8",
        ],
    )
    def test_bad_triangle_file(self, tmp_path, capsys, doc):
        path = tmp_path / "coeffs.json"
        path.write_bytes(doc)
        assert run_cli("norm", "--coeffs", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: coeffs: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("p", ["1", "2"])
    def test_norm_overflow(self, tmp_path, capsys, p):
        # Each coefficient is finite, but |c|**p or the level's sum is not.
        path, out = tmp_path / "coeffs.json", tmp_path / "norm.json"
        path.write_bytes(b'{"J": 1, "mu0": 0, "mu1": 0, "levels": [[1e308], [1e308, 1e308]]}')
        with warnings_as_errors():
            code = run_cli("norm", "--coeffs", str(path), "--p", p, "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err == "error: coeffs: its Besov norm overflows float64\n"
        assert not out.exists()

    def test_missing_files_name_the_reader(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert run_cli("coeffs", "--path", missing, "--out", str(tmp_path / "c.json")) == 1
        assert run_cli("norm", "--coeffs", missing) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("error: path: cannot read a JSON file: ")
        assert err[1].startswith("error: coeffs: cannot read a JSON file: ")


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _level_values(j):
    return st.lists(_FINITE, min_size=(1 << j) + 1, max_size=(1 << j) + 1)


#: A path document as ``save_path_json`` writes it.
_VALID_PATHS = st.integers(0, 3).flatmap(
    lambda J: st.fixed_dictionaries({"J": st.just(J), "values": _level_values(J)})
)
#: A triangle document as ``save_triangle_json`` writes it.
_VALID_TRIANGLES = st.integers(0, 2).flatmap(
    lambda J: st.fixed_dictionaries(
        {
            "J": st.just(J),
            "mu0": _FINITE,
            "mu1": _FINITE,
            "levels": st.tuples(*(_level_values(j).map(lambda v: v[1:]) for j in range(J + 1))).map(list),
        }
    )
)


@st.composite
def _documents(draw, valid, fields):
    """A valid document with up to two fields set to any JSON value or
    dropped, or any JSON value at all."""
    if draw(st.integers(0, 4)) == 0:
        return draw(_JSON_VALUES)
    doc = draw(valid)
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(sorted(fields)) | st.text(max_size=4))
        if draw(st.booleans()):
            doc[key] = draw(_JSON_VALUES)
        else:
            doc.pop(key, None)
    return doc


class TestFileFuzz:
    """Any path or triangle document gives a result or one ``error:`` line
    naming the reader, never a traceback."""

    @staticmethod
    def _run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, err.getvalue()

    @settings(max_examples=300)
    @given(doc=_documents(_VALID_PATHS, dyadic._PATH_FIELDS))
    def test_path_document(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path, out = os.path.join(tmp, "path.json"), os.path.join(tmp, "coeffs.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            code, err = self._run(["coeffs", "--path", path, "--out", out])
            if code == 0:
                assert dyadic.load_triangle_json(out)[0].J == doc["J"] - 1
            else:
                assert code == 1 and err.startswith("error: path: ") and err.count("\n") == 1, err
                assert not os.path.exists(out)

    @settings(max_examples=300)
    @given(doc=_documents(_VALID_TRIANGLES, dyadic._TRIANGLE_FIELDS))
    def test_triangle_document(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "coeffs.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            code, err = self._run(["norm", "--coeffs", path])
            if code != 0:
                assert code == 1 and err.startswith("error: coeffs: ") and err.count("\n") == 1, err


#: A command-line token: numbers of any size and sign, non-numeric text and
#: line breaks.  Tokens that would ask for ``--help`` are left out, since
#: argparse answers them with a help page, not a diagnostic.
_ARGV_TOKENS = (
    st.integers(-(10**30), 10**30).map(str)
    | st.floats().map(repr)
    | st.sampled_from(["", "0", "-1", "23", "24", "1e400", "nan", "\n", "4\n2"])
    | st.text(max_size=8)
).filter(lambda token: not token.startswith(("-h", "--h")))
_VERIFY_FLAGS = ["--seed", "--n", "--j-max", "--replicates", "--p", "--config", "--workers"]
#: A flag and its value: an integer of any size and sign, which every flag
#: parses, or for ``--p`` any float, ``nan`` and ``inf`` included (argparse
#: reads ``-1.5e-07`` as a flag, so negative floats are left to the strays).
_FLAG_PAIRS = st.tuples(
    st.sampled_from(_VERIFY_FLAGS),
    st.integers(-5, 3000).map(str) | st.integers(-(10**30), 10**30).map(str),
) | st.tuples(st.just("--p"), st.floats(min_value=0.0).map(repr))


class TestArgvFuzz:
    @settings(max_examples=300)
    @given(
        command=st.sampled_from(VERIFY_COMMANDS),
        pairs=st.lists(_FLAG_PAIRS, max_size=3),
        stray=st.none() | st.tuples(st.integers(0, 10), _ARGV_TOKENS),
    )
    def test_argv_gives_config_or_one_line_error(self, command, pairs, stray):
        tokens = [token for pair in pairs for token in pair]
        if stray is not None:
            tokens.insert(*stray)
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "o")
            argv = [command, *tokens, "--out", out]
            try:
                args = cli.build_parser().parse_args(argv)
                kind = command.removeprefix("verify-")
                montecarlo.check_settings(cli._experiment_config(args, kind), kind)
            except (cli.UsageError, ParameterError):
                pass
            else:
                # Valid settings may ask for any amount of work; run none.
                return
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv)
            assert code == 1
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, (
                err.getvalue()
            )
            assert not os.path.exists(out)


def tree_digest(directory) -> str:
    """sha256 over the sorted file names and contents of a report tree."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        digest.update(name.encode() + b"\0")
        digest.update((directory / name).read_bytes() + b"\0")
    return digest.hexdigest()


#: Digest of ``verify-all --seed 42 --workers 1 --replicates 200 --j-max 10``
#: (recorded with numpy 2.4).  A change that moves any report byte must
#: update it on purpose and say why in CHANGES.md.
GOLDEN_VERIFY_ALL_SHA256 = "5813358290c5ec2dc6fcb5e8660e8e43f3160c723d637ef12d0bd42d9eb0118f"


class TestWorkerPool:
    def test_verify_all_starts_one_pool(self, tmp_path, monkeypatch, capsys):
        if sys.platform.startswith("linux"):
            assert montecarlo.POOL_START_METHOD == "fork"
        montecarlo.shutdown_pool()
        context = multiprocessing.get_context(montecarlo.POOL_START_METHOD)
        real_pool = context.Pool
        started = []

        def spy(*args, **kwargs):
            started.append(kwargs.get("processes"))
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(context, "Pool", spy)
        code = run_cli(
            "verify-all", "--seed", "42", "--n", "40", "--j-max", "10",
            "--replicates", "300", "--workers", "2", "--out", str(tmp_path / "suite"),
        )
        assert code == 0
        assert started == [2]

    def test_subprocess_exits_with_pool_alive(self, tmp_path):
        # The pool outlives every run_chunked call; interpreter exit must
        # still tear it down promptly, and its workers print nothing.
        trees = {}
        for workers in ("2", "1"):
            out = tmp_path / f"suite-{workers}"
            result = subprocess.run(
                [
                    sys.executable, "-m", "besov_empirica.cli", "verify-all",
                    "--seed", "42", "--n", "40", "--j-max", "10", "--replicates", "120",
                    "--workers", workers, "--out", str(out),
                ],
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert result.returncode in (0, 2), result.stderr
            assert result.stderr == ""
            assert "verify-all:" in result.stdout
            trees[workers] = tree_digest(out)
        assert trees["2"] == trees["1"]


#: Digest of ``verify-sandwich --seed 42 --workers 1 --n 100 --j-max 10
#: --replicates 200`` on ``empirical-continuous`` (recorded with numpy 2.4),
#: whose tree lies outside the ``verify-all`` digest.  Same rule as above.
GOLDEN_CONTINUOUS_SANDWICH_SHA256 = "342f9c719624172aed51398d87aa88f1c1c61a42627efba84bcd144f0a824f80"


def test_golden_continuous_sandwich_digest(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"process": "empirical-continuous"}))
    out = tmp_path / "golden"
    code = run_cli(
        "verify-sandwich", "--config", str(cfg), "--seed", "42", "--workers", "1", "--n", "100",
        "--j-max", "10", "--replicates", "200", "--out", str(out),
    )
    # The step-process band does not hold for the continuous version at fine levels.
    assert code == 2
    assert tree_digest(out) == GOLDEN_CONTINUOUS_SANDWICH_SHA256


def test_golden_verify_all_digest(tmp_path, capsys):
    out = tmp_path / "golden"
    code = run_cli(
        "verify-all", "--seed", "42", "--workers", "1", "--replicates", "200",
        "--j-max", "10", "--out", str(out),
    )
    # 200 replicates are too few for the moments coverage rule at n=100.
    assert code == 2
    assert tree_digest(out) == GOLDEN_VERIFY_ALL_SHA256


#: Digest of ``verify-moments --seed 42 --workers 1 --n 3 --j-max 6
#: --replicates 2000`` (recorded with numpy 2.4), the one golden tree that
#: holds oracle blocks (j=0..3).  Same rule as above.
GOLDEN_ORACLE_MOMENTS_SHA256 = "431928cabc7ba1463cc9b64f83e384399e208fb3fc9d56129b640acb41a6765e"


def test_golden_oracle_moments_digest(tmp_path, capsys):
    out = tmp_path / "golden"
    code = run_cli(
        "verify-moments", "--seed", "42", "--workers", "1", "--n", "3", "--j-max", "6",
        "--replicates", "2000", "--out", str(out),
    )
    assert code == 0
    report = json.loads((out / "moments.json").read_text())
    assert [block["j"] for block in report["results"]["oracle"]] == [0, 1, 2, 3]
    assert tree_digest(out) == GOLDEN_ORACLE_MOMENTS_SHA256
