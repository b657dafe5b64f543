"""Configuration-driven command line: compute, experiment, cf.

The configuration is a single JSON tree (documented by example in the
README); nested map specs express compose/iterate/conjugate.  Exit codes:
0 success, 2 configuration error (including budgets that no memory holds, a
MemoryError), 3 numerical failure (the error name is printed on stderr).

Report CSV column order is frozen as ``CalabiReport.FLAT_FIELDS`` followed by
the sorted ``diag_*`` keys; the JSON object is the superset of record.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import arithmetic
from .calabi import ROUTES, PairSampler, c_mu_tilde, richardson_grid, route_report, verify_link
from .errors import ConfigError, DiskcalError
from .experiments import exp_c0_discontinuity, exp_c1_continuity, exp_rigidity
from .geometry import uniform_disk_points
from .zoo import config_number, entries, from_spec, read_object

COUNT = partial(config_number, minimum=1, integer=True)
COUNT2 = partial(config_number, minimum=2, integer=True)  # a standard error needs two samples; bump(n) n >= 2

BUDGETS = {  # key -> (rule, default) of a compute config's budgets
    "seed": (partial(config_number, minimum=0, integer=True), None),
    "workers": (COUNT, 1),  # recorded as diag_workers; it has no effect
    "pairs": (COUNT2, 20_000),
    "grid": (entries(COUNT, length=2), (128, 256)),
    "rho_iterates": (COUNT, 100_000),
    "c_mu_points": (COUNT2, 300),
    "strategy": (lambda value, what: value, "uniform"),  # PairSampler checks it
    "quad_budget": (partial(config_number, minimum=0.0), 1e-4),
}
# the budgets an experiment object, and the --seed and --workers flags, set too
RUN_RULES = {key: BUDGETS[key][0] for key in ("seed", "workers")}
COMPUTE_CONFIG = {  # key -> rule of a compute config; the map is built once the rest is read
    "map": lambda spec, what: spec,
    "compute": entries(lambda name, what: name),
    "budgets": lambda obj, what: read_object(obj, {k: rule for k, (rule, _) in BUDGETS.items()}, what),
}
COMPUTATIONS = ROUTES + ("verify-link", "c-mu")
# experiment -> (runner of (params, seed), the rule of each key besides seed and workers)
EXPERIMENT_PARAMS = {
    "c1-continuity": (lambda p, seed: exp_c1_continuity(**p, seed=seed),
                      {"scales": entries(config_number), "pairs": COUNT2}),
    "c0-discontinuity": (lambda p, seed: exp_c0_discontinuity(**p), {"ns": entries(COUNT2)}),
    "rigidity": (lambda p, seed: exp_rigidity(**p, seed=seed),
                 {"alpha": config_number, "depth": COUNT, "tau": config_number, "q_max": COUNT,
                  "far_pairs": COUNT}),
}


def _load_config(path: str) -> dict:
    """The JSON tree at ``path``; ConfigError when it cannot be read (missing,
    a directory, not UTF-8) or is not JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _check_out_dir(path: str) -> None:
    """ConfigError unless ``path`` is a directory or can be made one: its
    nearest existing ancestor must be a directory.  Checked before a command
    runs; the directory is made only when the command writes, so a command
    that fails leaves none behind."""
    out = Path(path).absolute()
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out {path}: {existing} is not a directory")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=True) + "\n"


def _csv_text(rows) -> str:
    """CSV of the dicts ``rows``, its columns the first row's keys; None is an empty cell."""
    columns = list(rows[0])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(["" if row[c] is None else row[c] for c in columns] for row in rows)
    return buf.getvalue()


def _write_outputs(out_dir: str, stem: str, json_obj, csv_text: str, fmt: str):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if fmt in ("json", "both"):
        p = out / f"{stem}.json"
        p.write_text(_json_text(json_obj))
        written.append(str(p))
    if fmt in ("csv", "both"):
        p = out / f"{stem}.csv"
        p.write_text(csv_text)
        written.append(str(p))
    return written


def cmd_compute(cfg: dict, out_dir: str, fmt: str, overrides: dict) -> int:
    cfg = read_object(cfg, COMPUTE_CONFIG, "compute config")
    wanted = cfg.get("compute", ["verify-link"])
    unknown = [w for w in wanted if w not in COMPUTATIONS]
    if unknown:
        raise ConfigError(f"unknown computations: {unknown}")
    given = {**cfg.get("budgets", {}), **overrides}
    budgets = {key: given.get(key, default) for key, (_, default) in BUDGETS.items()}
    if budgets["seed"] is None:
        if any(w in wanted for w in ("cal2", "verify-link", "c-mu")):
            raise ConfigError("a seed is mandatory for Monte-Carlo computations")
        budgets["seed"] = 0
    seed, grid = budgets["seed"], tuple(budgets["grid"])
    try:
        if "verify-link" in wanted or "cal1" in wanted:
            richardson_grid(grid)
        sampler = PairSampler(n=budgets["pairs"], seed=seed, strategy=budgets["strategy"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    bundle = from_spec(cfg["map"])

    if "verify-link" in wanted:
        report = verify_link(
            bundle, pairs=budgets["pairs"], seed=seed, grid=grid, rho_iterates=budgets["rho_iterates"],
            quad_budget=budgets["quad_budget"], strategy=budgets["strategy"],
        )
    else:
        report = route_report(bundle, wanted, sampler, grid=grid, rho_iterates=budgets["rho_iterates"])
    report.diagnostics["workers"] = budgets["workers"]

    if "c-mu" in wanted:
        points = uniform_disk_points(budgets["c_mu_points"], np.random.default_rng(seed + 17))
        report.diagnostics["c_mu"] = c_mu_tilde(bundle, points)
        report.diagnostics["c_mu_points"] = budgets["c_mu_points"]

    flat = report.to_flat_dict()
    written = _write_outputs(out_dir, "report", flat, _csv_text([flat]), fmt)
    print(f"report for {bundle.name}: " + ", ".join(written))
    return 0


def cmd_experiment(name: str, cfg: dict, out_dir: str, fmt: str, overrides: dict) -> int:
    run, rules = EXPERIMENT_PARAMS[name]
    schema = {**rules, **RUN_RULES}
    cfg = read_object(cfg, {"experiment": lambda obj, what: read_object(obj, schema, f"experiment {name!r}")},
                      "experiment config")
    params = {**cfg.get("experiment", {}), **overrides}
    seed = params.pop("seed", 7)
    params.pop("workers", None)  # read, and without effect
    result = run(params, seed)
    rows = [{c: str(v).lower() if isinstance(v, bool) else v for c, v in row.items()} for row in result.rows]
    written = _write_outputs(out_dir, name, result.to_json_dict(), _csv_text(rows), fmt)
    print(f"experiment {name}: {'PASS' if result.passed else 'FAIL'}; " + ", ".join(written))
    return 0


def cmd_cf(args, out_dir: str, fmt: str) -> int:
    if sum(source is not None for source in (args.alpha, args.quotients, args.synthetic)) != 1:
        raise ConfigError("cf takes exactly one of --alpha, --quotients and --synthetic")
    depth = COUNT(args.depth, "depth")
    if args.alpha is not None:
        cf = arithmetic.continued_fraction(config_number(args.alpha, "alpha"), depth)
        source = f"alpha={args.alpha}"
    elif args.quotients is not None:
        try:
            a = [int(v) for v in args.quotients.split(",")]
        except ValueError:
            raise ConfigError(f"quotients must be comma-separated integers, got {args.quotients!r}") from None
        cf = arithmetic.from_quotients(a[:1] + [COUNT(v, "partial quotient") for v in a[1:]])
        source = "quotients"
    elif args.synthetic == "non-bruno":
        cf = arithmetic.synthetic_non_bruno(depth)
        source = "synthetic non-bruno"
    else:  # argparse's choices leave only super-liouville
        cf = arithmetic.synthetic_super_liouville(depth)
        source = "synthetic super-liouville"

    diag = arithmetic.classify(cf) if cf.depth >= 3 else None
    checks = (
        arithmetic.best_approx_check(cf, float(args.alpha)) if args.alpha is not None else None
    )
    rows = []
    for n in range(cf.depth):
        rows.append({
            "n": n,
            "a_n": str(cf.a[n]),
            "p_n": str(cf.p[n]),
            "q_n": str(cf.q[n]),
            "log_q_ratio": diag.ratios[n] if diag and n < len(diag.ratios) else None,
            "running_sum": diag.running_sum[n] if diag and n < len(diag.running_sum) else None,
            "best_approx": None if checks is None or checks[n] is None else bool(checks[n]),
        })
    json_obj = {
        "source": source,
        "terminated": cf.terminated,
        "labels": diag.labels if diag else [],
        "caveat": diag.caveat if diag else "",
        "rows": rows,
    }
    written = _write_outputs(out_dir, "cf", json_obj, _csv_text(rows), fmt)
    label = ",".join(diag.labels) if diag else "n/a"
    print(f"cf table ({source}; {label}): " + ", ".join(written))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="diskcal", description=__doc__)
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--workers", type=int, default=None, help="worker count (reported; no effect)")
    parser.add_argument("--format", choices=("json", "csv", "both"), default="both")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="run invariant computations on a map")
    p_compute.add_argument("--config", required=True)

    p_exp = sub.add_parser("experiment", help="run a named batch experiment")
    p_exp.add_argument("name", choices=tuple(EXPERIMENT_PARAMS))
    p_exp.add_argument("--config", default=None)

    p_cf = sub.add_parser("cf", help="continued-fraction table of a number")
    p_cf.add_argument("--alpha", type=float, default=None)
    p_cf.add_argument("--quotients", default=None, help="comma-separated partial quotients")
    p_cf.add_argument("--synthetic", choices=("non-bruno", "super-liouville"), default=None)
    p_cf.add_argument("--depth", type=int, default=15)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        flags = {key: getattr(args, key) for key in RUN_RULES if getattr(args, key) is not None}
        overrides = read_object(flags, RUN_RULES, "command line")
        _check_out_dir(args.out)
        if args.command == "compute":
            cfg = _load_config(args.config)
            return cmd_compute(cfg, args.out, args.format, overrides)
        if args.command == "experiment":
            cfg = _load_config(args.config) if args.config else {}
            return cmd_experiment(args.name, cfg, args.out, args.format, overrides)
        return cmd_cf(args, args.out, args.format)  # argparse's subcommands leave only cf
    except (ConfigError, MemoryError) as exc:  # a budget that no memory holds is a configuration error
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except DiskcalError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
