import argparse
import contextlib
import filecmp
import hashlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import besov_empirica
from besov_empirica import besov, cli, dyadic, montecarlo
from besov_empirica.cli import emit_plot_data, main
from besov_empirica.errors import ParameterError
from besov_empirica.montecarlo import (
    ExperimentConfig,
    run_concentration_experiment,
    run_moment_experiment,
    run_sandwich_experiment,
)

from conftest import read_report_csv


def run_cli(*argv):
    return main(list(argv))


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
            ({"n_values": 5}, "n_values"),
            ({"coverage_max_level": -1}, "coverage_max_level"),
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

    @pytest.mark.parametrize("command", ["verify-moments", "verify-concentration", "verify-sandwich"])
    @pytest.mark.parametrize("flag,value", [("--p", "7"), ("--alpha", "0.9")])
    def test_unused_exponent_rejected(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "o"
        code = run_cli(command, flag, value, "--out", str(out))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {flag[2:]}: ") and err.count("\n") == 1, err
        assert not list(out.iterdir())

    def test_line_breaks_escaped_in_diagnostic(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a\nb": 1}))
        assert run_cli("verify-moments", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        assert run_cli("verify-all", "x\ny") == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 2 and "error: a\\nb: unknown configuration key" in err, err

    def test_simulate_bm_has_no_sample_size(self, tmp_path, capsys):
        code = run_cli("simulate-bm", "--n", "5", "--out", str(tmp_path / "p.json"))
        assert code == 1
        assert "--n" in capsys.readouterr().err

    def test_invalid_setting_names_key(self, capsys, tmp_path):
        code = run_cli("verify-moments", "--replicates", "5", "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 1
        assert "replicates" in err and ">= 100" in err


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
    def test_report_config_rebuilds_config(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("BESOV_EMPIRICA_WORKERS", raising=False)
        settings = tmp_path / "settings.json"
        settings.write_text(
            json.dumps({"n_values": [20, 40], "j_min": 3, "concentration_se_multiplier": 4})
        )
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


def test_package_exports_resolve():
    for name in besov_empirica.__all__:
        assert getattr(besov_empirica, name) is not None, name


class TestPlotData:
    def test_empty_profile_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        emit_plot_data(None, out)
        assert out.read_text().strip() == "j,level_statistic,running_sup,tail_min"
        emit_plot_data([], out)
        assert out.read_text().strip() == "j,level_statistic,running_sup,tail_min"

    def test_profile_row_count(self, tmp_path):
        levels = np.ones(15)  # J = 14
        profile = besov.profile_from_levels(levels)
        out = tmp_path / "prof.csv"
        emit_plot_data(profile, out)
        assert len(read_report_csv(out)) == 15

    def test_concentration_rows_and_bound_column(self, tmp_path):
        cfg = ExperimentConfig(n=100, J=12, R=200, seed=5, j_min=4)
        report = run_concentration_experiment(cfg)
        out = tmp_path / "conc.csv"
        emit_plot_data(report, out)
        rows = read_report_csv(out)
        assert len(rows) == 9
        for row in rows:
            n, j = int(row["n"]), int(row["j"])
            assert float(row["bound"]) == 4.0 * 2.0**-j * (3.0 - 3.0 / n)

    def test_sandwich_csv_round_trip(self, tmp_path):
        report = run_sandwich_experiment(ExperimentConfig(n=50, J=10, R=150, seed=5))
        out = tmp_path / "sand.csv"
        emit_plot_data(report, out)
        rows = read_report_csv(out)
        assert len(rows) == 11
        for j, row in enumerate(rows):
            assert float(row["in_band_frequency"]) == report.in_band_freq[j]

    def test_moment_cells_csv(self, tmp_path):
        report = run_moment_experiment(ExperimentConfig(n=10, J=6, R=150, seed=5))
        out = tmp_path / "cells.csv"
        emit_plot_data(report, out)
        rows = read_report_csv(out)
        assert len(rows) == (1 << 7) - 1
        assert float(rows[0]["mean_g"]) == report.cell_stats[0]["mean_g"][0]


class TestVerifyCommands:
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

    def test_workers_env_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BESOV_EMPIRICA_WORKERS", "2")
        out = tmp_path / "rep"
        code = run_cli(
            "verify-sandwich", "--seed", "2", "--n", "50",
            "--j-max", "10", "--replicates", "120", "--out", str(out),
        )
        assert code == 0

    def test_bad_workers_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BESOV_EMPIRICA_WORKERS", "many")
        code = run_cli("verify-sandwich", "--out", str(tmp_path / "rep"))
        assert code == 1
        assert "workers" in capsys.readouterr().err


class TestDeterminism:
    @pytest.fixture
    def relaxed_cfg(self, tmp_path):
        # The coverage gate assumes CLT-scale replicate counts; relax it for
        # the small runs that only exercise determinism and schemas.
        cfg = tmp_path / "relaxed.json"
        cfg.write_text(json.dumps({"coverage_threshold": 0.9}))
        return str(cfg)

    def test_repeat_run_identical_tree(self, tmp_path, capsys, relaxed_cfg):
        args = (
            "verify-all", "--seed", "42", "--n", "40", "--j-max", "10",
            "--replicates", "120", "--config", relaxed_cfg,
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--out", str(out1)) == 0
        assert run_cli(*args, "--out", str(out2)) == 0
        assert_trees_identical(out1, out2)

    def test_verify_all_outputs(self, tmp_path, capsys, relaxed_cfg):
        out = tmp_path / "suite"
        code = run_cli(
            "verify-all", "--seed", "42", "--n", "40", "--j-max", "10",
            "--replicates", "120", "--config", relaxed_cfg, "--out", str(out),
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

    def test_verify_all_pins_step_exponents(self, tmp_path, capsys, relaxed_cfg):
        out = tmp_path / "suite"
        code = run_cli(
            "verify-all", "--seed", "42", "--n", "40", "--j-max", "10", "--p", "4",
            "--alpha", "0.9", "--replicates", "120", "--config", relaxed_cfg,
            "--out", str(out),
        )
        assert code in (0, 2), capsys.readouterr().err
        for kind in ("moments", "concentration", "sandwich"):
            config = json.loads((out / f"{kind}.json").read_text())["config"]
            assert (config["p"], config["alpha"]) == (2.0, 0.5), kind
        config = json.loads((out / "roynette.json").read_text())["config"]
        assert (config["p"], config["alpha"]) == (4.0, 0.5)


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
GOLDEN_VERIFY_ALL_SHA256 = "301300e1b6127e2a6c50849d5591e2d399c9f5faf36196c9f5a44d9ef328490a"


class TestWorkerPool:
    def test_verify_all_starts_one_pool(self, tmp_path, monkeypatch, capsys):
        montecarlo.shutdown_pool()
        spawn = multiprocessing.get_context("spawn")
        real_pool = spawn.Pool
        started = []

        def spy(*args, **kwargs):
            started.append(kwargs.get("processes"))
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(spawn, "Pool", spy)
        cfg = tmp_path / "relaxed.json"
        cfg.write_text(json.dumps({"coverage_threshold": 0.9}))
        code = run_cli(
            "verify-all", "--seed", "42", "--n", "40", "--j-max", "10",
            "--replicates", "120", "--workers", "2", "--config", str(cfg),
            "--out", str(tmp_path / "suite"),
        )
        assert code == 0
        assert started == [2]

    def test_subprocess_exits_with_pool_alive(self, tmp_path):
        # The pool outlives every run_chunked call; interpreter exit must
        # still tear it down promptly.
        result = subprocess.run(
            [
                sys.executable, "-m", "besov_empirica.cli", "verify-all",
                "--seed", "42", "--n", "40", "--j-max", "10", "--replicates", "120",
                "--workers", "2", "--out", str(tmp_path / "suite"),
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode in (0, 2), result.stderr
        assert "verify-all:" in result.stdout


def test_golden_verify_all_digest(tmp_path, capsys):
    out = tmp_path / "golden"
    code = run_cli(
        "verify-all", "--seed", "42", "--workers", "1", "--replicates", "200",
        "--j-max", "10", "--out", str(out),
    )
    # 200 replicates are too few for the moments coverage rule at n=100.
    assert code == 2
    assert tree_digest(out) == GOLDEN_VERIFY_ALL_SHA256
