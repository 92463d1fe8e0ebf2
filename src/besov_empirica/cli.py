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
import contextlib
import os
import sys

from . import besov, dyadic, empirical, gaussian, montecarlo
from .errors import BesovEmpiricaError, ParameterError, checked_value, read_json_object
from .sampling import UNIFORM_STREAM, SeedSpec, sample_uniform

class UsageError(BesovEmpiricaError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

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
        settings["process"] = next(iter(montecarlo.EXPERIMENTS[kind].kernels))
    if getattr(args, "config", None):
        for key, value in read_json_object(args.config, "config").items():
            if key not in schema:
                raise ParameterError(key, "unknown configuration key")
            field, kind = schema[key]
            settings[field] = checked_value(key, value, kind)
    for key, (field, _) in schema.items():
        if (value := getattr(args, key, None)) is not None:
            settings[field] = value
    return montecarlo.ExperimentConfig(**settings)


@contextlib.contextmanager
def _writing(key: str):
    """Raise an ``OSError`` of the writes inside as a ``ParameterError`` naming ``key``."""
    try:
        yield
    except OSError as exc:
        raise ParameterError(key, f"cannot write: {exc}") from exc


def _out_dir(args) -> str:
    out = args.out or "reports"
    with _writing("out"):
        os.makedirs(out, exist_ok=True)
    return out


# Called through this module's globals, so a replaced attribute takes effect.
_write_json = dyadic.write_json
_write_csv = dyadic.write_csv


# ---------------------------------------------------------------------------
# Plot-data emission
# ---------------------------------------------------------------------------

PROFILE_HEADER = ["j", "level_statistic", "running_sup", "tail_min"]


def emit_plot_data(profile: besov.LevelProfile, path) -> None:
    """Write the plot-ready CSV rows of a level profile (``norm --profile``).

    ``tail_min`` is the suffix minimum from level j upward, so the scalar
    tail minimum is the value at the tail window start.
    """
    columns = zip(profile.levels, profile.running_sup, profile.suffix_min)
    rows = ([j, float(v), float(sup), float(tail)] for j, (v, sup, tail) in enumerate(columns))
    _write_csv(path, PROFILE_HEADER, rows)


def _emit_moment_levels_csv(report: montecarlo.Report, path) -> None:
    """Reference-only, called by no code path (``_verify`` writes every table):
    perfbench/tracing.py wraps it as this module's attribute."""
    _write_csv(path, *report.tables["moments_levels.csv"])


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_simulate_empirical(args) -> int:
    montecarlo.check_seed(args.seed)
    montecarlo.check_max_level(args.j_max)
    montecarlo.check_sample_points(args.n)
    sample = sample_uniform(args.n, SeedSpec(args.seed, 0, UNIFORM_STREAM))
    tri = empirical.empirical_coefficients(sample, args.j_max, source=args.source)
    sup = empirical.sup_distance(empirical.continuous_ecdf(sample))
    metadata = {"n": args.n, "seed": args.seed, "source": args.source, "sup_distance": sup}
    with _writing("out"):
        dyadic.save_triangle_json(tri, args.out, metadata=metadata)
    print(f"wrote {args.out}")
    return 0


def _cmd_simulate_bm(args) -> int:
    montecarlo.check_seed(args.seed)
    montecarlo.check_max_level(args.j_max)
    path = gaussian.brownian_motion(args.j_max, SeedSpec(args.seed, 0))
    if args.bridge:
        path = gaussian.brownian_bridge(path)
    triangle = dyadic.triangle_to_dict(path.triangle)
    extra = {"kind": path.kind, "seed": args.seed, "triangle": triangle}
    with _writing("out"):
        dyadic.save_path_json(path.path, args.out, extra=extra)
    print(f"wrote {args.out}")
    return 0


def _cmd_coeffs(args) -> int:
    path_values = dyadic.load_path_json(args.path)
    tri = dyadic.extract_coefficients(path_values)
    with _writing("out"):
        dyadic.save_triangle_json(tri, args.out, metadata={"source_level": path_values.J})
    print(f"wrote {args.out}")
    return 0


def _cmd_norm(args) -> int:
    tri, _ = dyadic.load_triangle_json(args.coeffs)
    params = besov.BesovParams(p=args.p, alpha=args.alpha)
    value = besov.besov_norm(tri, params)
    if args.profile:
        with _writing("profile"):
            emit_plot_data(besov.little_o_profile(tri, params), args.profile)
    if args.out:
        with _writing("out"):
            _write_json(
                args.out, {"norm": value, "p": params.p, "alpha": params.alpha, "j_max": tri.J}
            )
    print(repr(value))
    return 0


def _verify(configs: dict, args):
    """Run ``configs`` (experiment -> config), checked before ``--out`` exists,
    and write each report there as it arrives; return whether each passed,
    and ``--out``."""
    reports = montecarlo.run_experiments(configs)
    out_dir = _out_dir(args)
    passed = {}
    for kind, report in reports:
        with _writing("out"):
            _write_json(os.path.join(out_dir, f"{kind}.json"), report.as_dict())
            for name, (header, rows) in report.tables.items():
                _write_csv(os.path.join(out_dir, name), header, rows)
        passed[kind] = report.results["passed"]
        print(f"verify-{kind}: {'PASS' if passed[kind] else 'FAIL'}")
        del report  # before the next run draws
    return passed, out_dir


def _cmd_verify(kind: str, args) -> int:
    passed, _ = _verify({kind: _experiment_config(args, kind)}, args)
    return 0 if all(passed.values()) else 2


def _cmd_verify_all(args) -> int:
    """Run every experiment at the settings it reads, with defaults for the
    rest, on its default process and at its ``suite_level`` or deeper."""
    cfg = _experiment_config(args)
    montecarlo.check_settings(cfg, "all")
    configs = {}
    for kind, experiment in montecarlo.EXPERIMENTS.items():
        kept = {f: getattr(cfg, f) for f in experiment.reads + montecarlo.RUN_ONLY_FIELDS}
        kept["J"] = max(cfg.J, experiment.suite_level)
        configs[kind] = montecarlo.ExperimentConfig(process=next(iter(experiment.kernels)), **kept)
    components, out_dir = _verify(configs, args)
    passed = all(components.values())
    with _writing("out"):
        summary = {"passed": passed, "components": components, "seed": cfg.seed}
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

    for kind in montecarlo.EXPERIMENTS:
        sub = subs.add_parser(f"verify-{kind}", help=f"run the {kind} experiment")
        _add_common_flags(sub)
        sub.set_defaults(handler=lambda args, kind=kind: _cmd_verify(kind, args))
    sub = subs.add_parser("verify-all", help="run the default verification suite")
    _add_common_flags(sub)
    sub.set_defaults(handler=_cmd_verify_all)
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
