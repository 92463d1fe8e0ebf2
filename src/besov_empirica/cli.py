"""Command-line entry point: config parsing, dispatch, report emission.

Exit codes: 0 when every requested check passes, 1 on usage or
configuration errors (one-line diagnostic naming the offending key),
2 when a statistical verification fails.

All outputs are deterministic functions of (command, settings, seed):
JSON is written with sorted keys and shortest-repr floats, CSV uses
shortest-repr floats, and no report carries wall-clock information, so
output trees are byte-identical across runs and worker counts.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from . import besov, dyadic, empirical, gaussian, montecarlo
from .errors import BesovEmpiricaError, ParameterError
from .sampling import UNIFORM_STREAM, SeedSpec, sample_uniform

#: Gaussian part of the default verification suite.
ROYNETTE_SUITE_LEVEL = 14


class UsageError(BesovEmpiricaError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def _load_config_file(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParameterError("config", f"config file is not valid JSON: {exc}") from exc
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or not UTF-8
        raise ParameterError("config", f"cannot read config file: {exc}") from exc
    if not isinstance(data, dict):
        raise ParameterError("config", "config file must hold a JSON object")
    return data


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _config_value(key: str, value, kind):
    """A config-file value of field type ``kind``, checked and never truncated."""
    if kind is str:
        ok, expected = isinstance(value, str), "a string"
    elif kind is int:
        ok, expected = _is_int(value), "an integer"
    else:
        expected = "a finite number"
        try:
            ok = (_is_int(value) or isinstance(value, float)) and math.isfinite(value)
        except OverflowError:
            ok = False
    if not ok:
        raise ParameterError(key, f"must be {expected} (got {value!r})")
    return float(value) if kind is float else value


def _experiment_config(args, kind: str | None = None) -> montecarlo.ExperimentConfig:
    """Merge config-file settings and flags (flags win).

    Config keys and flag destinations are the keys of the report ``config``
    block plus the run-only fields, all from ``montecarlo.config_schema``.
    The process of experiment ``kind`` defaults to the first one
    ``montecarlo.EXPERIMENTS`` lists for it.
    """
    schema = montecarlo.config_schema()
    settings = {}
    if kind in montecarlo.EXPERIMENTS:
        settings["process"] = montecarlo.EXPERIMENTS[kind][0][0]
    if getattr(args, "config", None):
        for key, value in _load_config_file(args.config).items():
            if key not in schema:
                raise ParameterError(key, "unknown configuration key")
            field, kind = schema[key]
            settings[field] = _config_value(key, value, kind)
    for key, (field, _) in schema.items():
        if (value := getattr(args, key, None)) is not None:
            settings[field] = value
    return montecarlo.ExperimentConfig(**settings)


def _out_dir(args) -> str:
    out = args.out or "reports"
    os.makedirs(out, exist_ok=True)
    return out


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path, header, rows) -> None:
    def cell(value):
        return repr(float(value)) if isinstance(value, float) else value

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell(v) for v in row])


# ---------------------------------------------------------------------------
# Plot-data emission
# ---------------------------------------------------------------------------

PROFILE_HEADER = ["j", "level_statistic", "running_sup", "tail_min"]


def emit_plot_data(obj, path) -> None:
    """Write plot-ready CSV rows for a profile or a report.

    ``tail_min`` in profile rows is the suffix minimum from level j
    upward, so the scalar tail minimum is the value at the tail window
    start.  ``None`` or an empty row list writes the profile header only.
    """
    if obj is None or (isinstance(obj, (list, tuple)) and len(obj) == 0):
        _write_csv(path, PROFILE_HEADER, [])
        return
    if isinstance(obj, besov.LevelProfile):
        rows = [
            [j, float(obj.levels[j]), float(obj.running_sup[j]), float(obj.suffix_min[j])]
            for j in range(len(obj.levels))
        ]
        _write_csv(path, PROFILE_HEADER, rows)
        return
    if isinstance(obj, montecarlo.ConcentrationReport):
        rows = [
            [r["n"], r["j"], r["frequency"], r["bound"], r["se"], r["passed"]]
            for r in obj.rows
        ]
        _write_csv(path, ["n", "j", "frequency", "bound", "se", "pass"], rows)
        return
    if isinstance(obj, montecarlo.SandwichReport):
        header = ["j", "in_band_frequency", "mean_statistic", "sd_statistic"]
        rows = [
            [j, obj.in_band_freq[j], obj.mean_stat[j], obj.sd_stat[j]]
            for j in range(len(obj.in_band_freq))
        ]
        if obj.kind == "roynette":
            header.append("target")
            for row in rows:
                row.append(obj.target)
        _write_csv(path, header, rows)
        return
    if isinstance(obj, montecarlo.MomentReport):
        header = ["j", "k", "mean_alpha", "se_alpha", "mean_g", "se_g", "mean_h", "se_h"]
        rows = []
        for j in sorted(obj.cell_stats):
            stats = obj.cell_stats[j]
            for k0 in range(len(stats["mean_g"])):
                rows.append(
                    [
                        j,
                        k0 + 1,
                        stats["mean_alpha"][k0],
                        stats["se_alpha"][k0],
                        stats["mean_g"][k0],
                        stats["se_g"][k0],
                        stats["mean_h"][k0],
                        stats["se_h"][k0],
                    ]
                )
        _write_csv(path, header, rows)
        return
    raise ParameterError("plot_data", f"no plot emitter for {type(obj).__name__}")


def _emit_moment_levels_csv(report: montecarlo.MomentReport, path) -> None:
    keys = list(report.level_stats)
    rows = [
        [j] + [report.level_stats[key][j] for key in keys]
        for j in range(report.config.J + 1)
    ]
    _write_csv(path, ["j"] + keys, rows)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_simulate_empirical(args) -> int:
    montecarlo.check_max_level(args.j_max)
    montecarlo.check_sample_points(args.n)
    sample = sample_uniform(args.n, SeedSpec(args.seed, 0, UNIFORM_STREAM))
    tri = empirical.empirical_coefficients(sample, args.j_max, source=args.source)
    sup = empirical.sup_distance(empirical.continuous_ecdf(sample))
    metadata = {"n": args.n, "seed": args.seed, "source": args.source, "sup_distance": sup}
    dyadic.save_triangle_json(tri, args.out, metadata=metadata)
    print(f"wrote {args.out}")
    return 0


def _cmd_simulate_bm(args) -> int:
    montecarlo.check_max_level(args.j_max)
    path = gaussian.brownian_motion(args.j_max, SeedSpec(args.seed, 0))
    if args.bridge:
        path = gaussian.brownian_bridge(path)
    dyadic.save_path_json(
        path.path,
        args.out,
        extra={
            "kind": path.kind,
            "seed": args.seed,
            "triangle": dyadic.triangle_to_dict(path.triangle),
        },
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_coeffs(args) -> int:
    path_values = dyadic.load_path_json(args.path)
    tri = dyadic.extract_coefficients(path_values)
    dyadic.save_triangle_json(tri, args.out, metadata={"source_level": path_values.J})
    print(f"wrote {args.out}")
    return 0


def _cmd_norm(args) -> int:
    tri, _ = dyadic.load_triangle_json(args.coeffs)
    params = besov.BesovParams(p=args.p, alpha=args.alpha)
    value = besov.besov_norm(tri, params)
    if args.profile:
        emit_plot_data(besov.little_o_profile(tri, params), args.profile)
    if args.out:
        _write_json(
            args.out, {"norm": value, "p": params.p, "alpha": params.alpha, "j_max": tri.J}
        )
    print(repr(value))
    return 0


#: Report kind -> (``montecarlo`` runner, plot-data CSV); the JSON report
#: is ``<kind>.json``.
_REPORTS = {
    "moments": ("run_moment_experiment", "moments_cells.csv"),
    "concentration": ("run_concentration_experiment", "concentration.csv"),
    "sandwich": ("run_sandwich_experiment", "sandwich.csv"),
    "roynette": ("run_roynette_experiment", "roynette.csv"),
}


def _run_and_emit(kind: str, cfg: montecarlo.ExperimentConfig, out_dir: str):
    runner, csv_name = _REPORTS[kind]
    # Looked up on every call, so a replaced module attribute takes effect.
    report = getattr(montecarlo, runner)(cfg)
    _write_json(os.path.join(out_dir, f"{kind}.json"), report.as_dict())
    emit_plot_data(report, os.path.join(out_dir, csv_name))
    if kind == "moments":
        _emit_moment_levels_csv(report, os.path.join(out_dir, "moments_levels.csv"))
    return report


def _cmd_verify(kind: str, args) -> int:
    """Run ``verify-<kind>``; ``verify-all`` runs every experiment at the
    settings it reads, with defaults for the rest.  Each runner checks its
    settings against ``montecarlo.EXPERIMENTS`` before any draw."""
    cfg = _experiment_config(args, kind)
    configs = {kind: cfg}
    if kind == "all":
        montecarlo.check_settings(cfg, "all")
        configs = {}
        for name, (processes, reads) in montecarlo.EXPERIMENTS.items():
            kept = {field: getattr(cfg, field) for field in reads + montecarlo.RUN_ONLY_FIELDS}
            if name == "roynette":
                kept["J"] = max(cfg.J, ROYNETTE_SUITE_LEVEL)
            configs[name] = montecarlo.ExperimentConfig(process=processes[0], **kept)
            # Every run's memory bound is checked before the first one starts.
            montecarlo.check_held_bytes(configs[name], name)
    out_dir = _out_dir(args)
    results = {}
    for name, run_cfg in configs.items():
        results[name] = _run_and_emit(name, run_cfg, out_dir).passed
        print(f"verify-{name}: {'PASS' if results[name] else 'FAIL'}")
    passed = all(results.values())
    if kind == "all":
        summary = {"passed": passed, "components": results, "seed": cfg.seed}
        _write_json(os.path.join(out_dir, "summary.json"), summary)
        print(f"verify-all: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 2


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common_flags(sub, experiment=True):
    sub.add_argument("--seed", type=int, default=None, help="master seed (unsigned 64-bit)")
    sub.add_argument("--j-max", dest="j_max", type=int, default=None, help="max level")
    if experiment:
        sub.add_argument("--n", type=int, default=None, help="sample size")
        sub.add_argument("--replicates", type=int, default=None, help="replicate count")
        sub.add_argument("--p", type=float, default=None, help="integrability exponent")
        sub.add_argument("--config", default=None, help="JSON config file (flags win)")
        sub.add_argument("--workers", type=int, default=None, help="worker process count")
    sub.add_argument("--out", default=None, help="output file or directory")


def build_parser() -> _Parser:
    parser = _Parser(prog="besov-empirica", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("simulate-empirical", help="emit empirical-process coefficients")
    _add_common_flags(sub, experiment=False)
    sub.add_argument("--n", type=int, help="sample size")
    sub.add_argument("--source", choices=("step", "continuous"), default="step")
    sub.set_defaults(
        handler=_cmd_simulate_empirical, seed=42, n=100, j_max=10, out="coeffs.json"
    )

    sub = subs.add_parser("simulate-bm", help="emit a Brownian path and its coefficients")
    _add_common_flags(sub, experiment=False)
    sub.add_argument("--bridge", action="store_true", help="tie the path down at 1")
    sub.set_defaults(handler=_cmd_simulate_bm, seed=42, j_max=10, out="path.json")

    sub = subs.add_parser("coeffs", help="extract coefficients from a stored path")
    sub.add_argument("--path", required=True, help="path JSON produced by simulate-bm")
    sub.add_argument("--out")
    sub.set_defaults(handler=_cmd_coeffs, out="coeffs.json")

    sub = subs.add_parser("norm", help="sequence-space norm of stored coefficients")
    sub.add_argument("--coeffs", required=True, help="triangle JSON")
    sub.add_argument("--p", type=float)
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--profile", default=None, help="write the level profile CSV here")
    sub.add_argument("--out", default=None, help="write a JSON summary here")
    sub.set_defaults(handler=_cmd_norm, p=2.0, alpha=0.5)

    for kind in (*montecarlo.EXPERIMENTS, "all"):
        what = "the default verification suite" if kind == "all" else f"the {kind} experiment"
        sub = subs.add_parser(f"verify-{kind}", help=f"run {what}")
        _add_common_flags(sub)
        sub.set_defaults(handler=lambda args, kind=kind: _cmd_verify(kind, args))
    return parser


def _error(message: str) -> int:
    """Print a one-line diagnostic (unprintable characters escaped); exit 1."""
    line = "".join(ch if ch.isprintable() else repr(ch)[1:-1] for ch in message)
    print(f"error: {line}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    # Usage errors and every package error (``ParameterError`` reads
    # ``key: message``) end in one diagnostic line.
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except (BesovEmpiricaError, OSError) as exc:
        return _error(str(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
