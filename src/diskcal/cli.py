"""Configuration-driven command line: compute, experiment, cf.

The configuration is a single JSON tree (documented by example in the
README); nested map specs express compose/iterate/conjugate.  Exit codes:
0 success, 2 configuration error, 3 numerical failure (the error name is
printed on stderr).

Report CSV column order is frozen as ``CalabiReport.FLAT_FIELDS`` followed by
the sorted ``diag_*`` keys; the JSON object is the superset of record.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

from . import arithmetic
from .calabi import (
    STRATEGIES,
    CalabiReport,
    PairSampler,
    c_mu_tilde,
    cal1,
    cal2_tilde,
    cal3_tilde,
    richardson_grid,
    uniform_disk_measure,
    verify_link,
)
from .circle import rotation_number
from .errors import ConfigError, DiskcalError
from .experiments import exp_c0_discontinuity, exp_c1_continuity, exp_rigidity
from .zoo import _count, _known_keys, from_spec

EXPERIMENT_PARAMS = {  # the keys each experiment reads besides seed and workers
    "c1-continuity": ("scales", "pairs"),
    "c0-discontinuity": ("ns", "cal_budget"),
    "rigidity": ("alpha", "depth", "tau", "q_max", "far_pairs"),
}
EXPERIMENTS = tuple(EXPERIMENT_PARAMS)
COMPUTATIONS = ("cal1", "cal2", "cal3", "rho", "verify-link", "c-mu")
BUDGETS = ("seed", "workers", "pairs", "grid", "rho_iterates", "c_mu_points", "strategy", "quad_budget")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return _object(cfg, "config")


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be an object, got {value!r}")
    return value


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=True) + "\n"


def _csv_text(columns, rows) -> str:
    """CSV of the dicts ``rows`` in the order of ``columns``; None is an empty cell."""
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


def _budget(cfg: dict, key: str, default):
    return _known_keys(_object(cfg.get("budgets", {}), "budgets"), BUDGETS, "budgets").get(key, default)


def _real(value, what: str, minimum: float = -math.inf) -> float:
    """A parameter that must be a finite number (not a boolean) of at least ``minimum``."""
    try:
        out = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        out = math.nan
    if not (math.isfinite(out) and out >= minimum):
        bound = f" >= {minimum}" if math.isfinite(minimum) else ""
        raise ConfigError(f"{what} must be a finite number{bound}, got {value!r}")
    return out


def _entries(value, what: str, check) -> list:
    """A non-empty list whose entries each pass ``check(entry, what)``."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{what} must be a non-empty list, got {value!r}")
    return [check(v, f"{what} entry") for v in value]


def cmd_compute(cfg: dict, out_dir: str, fmt: str, seed_override, workers_override) -> int:
    _known_keys(cfg, ("map", "compute", "budgets"), "compute config")
    if "map" not in cfg:
        raise ConfigError("compute config needs a 'map' entry")
    wanted = _entries(cfg.get("compute", ["verify-link"]), "compute", lambda w, what: w)
    unknown = [w for w in wanted if w not in COMPUTATIONS]
    if unknown:
        raise ConfigError(f"unknown computations: {unknown}")
    seed = seed_override if seed_override is not None else _budget(cfg, "seed", None)
    needs_seed = any(w in wanted for w in ("cal2", "verify-link", "c-mu"))
    if needs_seed and seed is None:
        raise ConfigError("a seed is mandatory for Monte-Carlo computations")
    seed = _count(seed, "seed", minimum=0) if seed is not None else 0
    workers = _count(workers_override if workers_override is not None else _budget(cfg, "workers", 1),
                     "workers")
    pairs = _count(_budget(cfg, "pairs", 20_000), "pairs", 2)
    grid = _budget(cfg, "grid", (128, 256))
    if not isinstance(grid, (list, tuple)) or len(grid) != 2:
        raise ConfigError(f"grid must be a pair [radial, angular], got {grid!r}")
    grid = tuple(_count(v, "grid entry") for v in grid)
    if "verify-link" in wanted or "cal1" in wanted:
        try:
            richardson_grid(grid)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    rho_iterates = _count(_budget(cfg, "rho_iterates", 100_000), "rho_iterates")
    c_mu_points = _count(_budget(cfg, "c_mu_points", 300), "c_mu_points", 2)
    strategy = _budget(cfg, "strategy", "uniform")
    if strategy not in STRATEGIES:
        raise ConfigError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    try:
        PairSampler(n=pairs, seed=seed, strategy=strategy)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    quad_budget = _real(_budget(cfg, "quad_budget", 1e-4), "quad_budget", 0.0)

    bundle = from_spec(cfg["map"])

    if "verify-link" in wanted:
        report = verify_link(
            bundle, pairs=pairs, seed=seed, grid=grid, rho_iterates=rho_iterates,
            quad_budget=quad_budget, strategy=strategy, workers=workers,
        )
    else:
        report = CalabiReport(map_name=bundle.name)
        report.diagnostics.update({"seed": seed, "workers": workers})
        if "cal1" in wanted:
            res = cal1(bundle, grid=grid)
            report.cal1 = res.value
            report.cal1_richardson = res.richardson_delta
        if "cal2" in wanted:
            res2 = cal2_tilde(bundle, PairSampler(n=pairs, seed=seed, strategy=strategy), workers=workers)
            report.cal2 = res2.value
            report.cal2_stderr = res2.stderr
            report.diagnostics["n_pairs"] = res2.n_pairs
        if "cal3" in wanted:
            report.cal3 = cal3_tilde(bundle, grid=grid)
        if "rho" in wanted:
            est = rotation_number(bundle.boundary_lift(), n=rho_iterates)
            report.rho = est.value
            report.rho_halfwidth = est.rigorous_halfwidth
            report.rho_iterates = est.iterates_used

    if "c-mu" in wanted:
        measure = uniform_disk_measure(c_mu_points, seed + 17)
        report.diagnostics["c_mu"] = c_mu_tilde(bundle, measure)
        report.diagnostics["c_mu_points"] = c_mu_points

    flat = report.to_flat_dict()
    written = _write_outputs(out_dir, "report", flat, _csv_text(list(flat), [flat]), fmt)
    print(f"report for {bundle.name}: " + ", ".join(written))
    return 0


def cmd_experiment(name: str, cfg: dict, out_dir: str, fmt: str, seed_override, workers_override) -> int:
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; choose from {EXPERIMENTS}")
    _known_keys(cfg, ("experiment",), "experiment config")
    params = _known_keys(_object(cfg.get("experiment", {}), "experiment"),
                         (*EXPERIMENT_PARAMS[name], "seed", "workers"), f"experiment {name!r}")
    seed = _count(seed_override if seed_override is not None else params.get("seed", 7), "seed", 0)
    workers = _count(workers_override if workers_override is not None else params.get("workers", 1),
                     "workers")
    if name == "c1-continuity":
        result = exp_c1_continuity(
            _entries(params.get("scales", [0.04, 0.02, 0.01, 0.005]), "scales", _real),
            pairs=_count(params.get("pairs", 4000), "pairs", 2),
            seed=seed,
            workers=workers,
        )
    elif name == "c0-discontinuity":
        result = exp_c0_discontinuity(
            _entries(params.get("ns", [2, 4, 8, 16]), "ns", lambda v, what: _count(v, what, 2)),
            cal_budget=_real(params.get("cal_budget", 1e-3), "cal_budget", 0.0),
        )
    else:
        result = exp_rigidity(
            _real(params.get("alpha", 0.6180339887498949), "alpha"),
            depth=_count(params.get("depth", 12), "depth"),
            tau=_real(params.get("tau", 0.5), "tau"),
            q_max=_count(params.get("q_max", 200), "q_max"),
            far_pairs=_count(params.get("far_pairs", 1000), "far_pairs"),
            seed=seed,
        )
    rows = [{c: str(v).lower() if isinstance(v, bool) else v for c, v in row.items()} for row in result.rows]
    written = _write_outputs(out_dir, name, result.to_json_dict(), _csv_text(result.columns, rows), fmt)
    print(f"experiment {name}: {'PASS' if result.passed else 'FAIL'}; " + ", ".join(written))
    return 0


def cmd_cf(args, out_dir: str, fmt: str) -> int:
    if args.alpha is None and args.quotients is None and args.synthetic is None:
        raise ConfigError("cf needs --alpha, --quotients, or --synthetic")
    depth = _count(args.depth, "depth")
    if args.alpha is not None:
        cf = arithmetic.continued_fraction(_real(args.alpha, "alpha"), depth)
        source = f"alpha={args.alpha}"
    elif args.quotients is not None:
        try:
            a = [int(v) for v in args.quotients.split(",")]
        except ValueError:
            raise ConfigError(f"quotients must be comma-separated integers, got {args.quotients!r}") from None
        cf = arithmetic.from_quotients(a[:1] + [_count(v, "partial quotient") for v in a[1:]])
        source = "quotients"
    elif args.synthetic == "non-bruno":
        cf = arithmetic.synthetic_non_bruno(depth)
        source = "synthetic non-bruno"
    elif args.synthetic == "super-liouville":
        cf = arithmetic.synthetic_super_liouville(depth)
        source = "synthetic super-liouville"
    else:
        raise ConfigError(f"unknown synthetic sequence {args.synthetic!r}")

    diag = arithmetic.classify(cf) if cf.depth >= 3 else None
    checks = (
        arithmetic.best_approx_check(cf, float(args.alpha)) if args.alpha is not None else None
    )
    columns = ["n", "a_n", "p_n", "q_n", "log_q_ratio", "running_sum", "best_approx"]
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
    written = _write_outputs(out_dir, "cf", json_obj, _csv_text(columns, rows), fmt)
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
    p_exp.add_argument("name", choices=EXPERIMENTS)
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
        if args.command == "compute":
            cfg = _load_config(args.config)
            return cmd_compute(cfg, args.out, args.format, args.seed, args.workers)
        if args.command == "experiment":
            cfg = _load_config(args.config) if args.config else {}
            return cmd_experiment(args.name, cfg, args.out, args.format, args.seed, args.workers)
        if args.command == "cf":
            return cmd_cf(args, args.out, args.format)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except DiskcalError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
