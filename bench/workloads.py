"""The benchmark workloads: inputs from a seed, one timed pass, output checks.

Each workload is a closed loop with one caller: a pass makes its calls one
after another, and the next pass starts when the previous one has returned.
The seed feeds only generated inputs (the ``PairSampler`` seed, the far-pair
RNG of the rigidity experiment and the CLI config seed).  Every pass rebuilds
its bundles, because ``MapBundle`` caches its boundary lift and a reused
bundle would make later passes cheaper than the first.

diskcal is looked up through ``sys.modules`` at call time, never bound at
import, so the set-up measurement may re-import it and the tracer's rebound
names are the ones the passes reach.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

GOLDEN = 0.6180339887498949
PAIRS_RADIAL = 20_000
PAIRS_CONJUGATED = 2_000
PAIRS_MC = 100_000
MC_SIGMAS = 4.0  # a correct estimator misses 4 standard errors with probability 6e-5
QUAD_ALLOWANCE = 1e-4

# Closed forms, written out independently of the oracles diskcal attaches to
# its bundles.  quadratic_twist(0.3): cal = 2 int g = 0.2, rho = -g'(1) = 0;
# bump(n): cal = 2/pi for every n; a conjugated rotation keeps rho = alpha and
# has action average 0.
EXPECTED = {
    "twist": {"cal1": 0.2, "cal3": 0.2, "rho": 0.0},
    "bump4": {"cal1": 2.0 / math.pi, "cal3": 2.0 / math.pi, "rho": 0.0},
    "readme": {"cal1": 0.2, "cal3": 0.4, "rho": 0.2},
    "conjugated": {"cal1": 0.0, "cal3": GOLDEN, "rho": GOLDEN},
    "rigidity": {"cal1": 0.0, "rho": GOLDEN},
    "mc_bump4": {"cal2": 2.0 / math.pi},
    "mc_twist": {"cal2": 0.2},
}

# Checked tolerances in turns.  A quantity with an expected value but no
# tolerance enters oracle_err_max only.  rho is always checked against the
# report's own rigorous half-width 1/n; cal2 against MC_SIGMAS stderr.
TOLERANCE = {
    "twist": {"cal1": 1e-5, "cal3": 1e-6},
    "readme": {"cal1": 1e-5, "cal3": 1e-6},
    "bump4": {"cal3": 1e-6},
    "conjugated": {"cal1": 1e-4},
    "rigidity": {"cal1": 1e-4},
}


def _mod(name: str):
    return importlib.import_module(name)


def nproc() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def json_bytes(obj) -> bytes:
    """The serialization ``diskcal`` uses for report.json."""
    return (json.dumps(obj, indent=2, allow_nan=True) + "\n").encode()


class Checks:
    """Counts output checks and collects the accuracy figures of a run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.oracle_errors = []
        self.budget_uses = []

    def check(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}" if detail else what)

    def oracle(self, key: str, quantity: str, value, expected: dict, tol=None) -> None:
        target = expected[key][quantity]
        err = abs(float(value) - target)
        self.oracle_errors.append(err)
        if tol is None:
            tol = TOLERANCE.get(key, {}).get(quantity)
        if tol is not None:
            self.check(f"{key}.{quantity}", err <= tol,
                       f"{value!r} vs {target!r}, error {err:.3e} > {tol:.1e}")

    def report(self, key: str, flat: dict, expected: dict) -> None:
        """Pass flags and oracles of one verify_link report (flat form)."""
        self.check(f"{key}.pass_link", flat["pass_link"] is True, f"residual {flat['residual_link']!r}")
        self.check(f"{key}.pass_23", flat["pass_23"] is True, f"residual {flat['residual_23']!r}")
        self.budget_uses.append(max(flat["residual_link"], flat["residual_23"]) / flat["budget"])
        for quantity in ("cal1", "cal3"):
            self.oracle(key, quantity, flat[quantity], expected)
        self.oracle(key, "rho", flat["rho"], expected, tol=flat["rho_halfwidth"])


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable  # (seed, work dir) -> inputs; writes input files
    build: Callable  # inputs -> bundles of one pass (timed as set-up)
    run: Callable  # inputs -> outputs of one timed pass
    check: Callable  # (inputs, outputs, Checks, expected) -> report bytes
    traced_extra: Optional[Callable] = None  # inputs -> extra per-layer figures


# ---------------------------------------------------------------------------
# radial_link: the CLI on maps that all flow in closed form

README_MAP = {
    "family": "compose",
    "maps": [
        {"family": "quadratic_twist", "beta": 0.3},
        {"family": "rotation", "alpha": 0.2},
    ],
}


def _radial_prepare(seed, work: Path):
    budgets = {"pairs": PAIRS_RADIAL, "seed": seed, "grid": [128, 256], "rho_iterates": 100_000}
    readme_budgets = dict(budgets, strategy="uniform", quad_budget=QUAD_ALLOWANCE,
                          c_mu_points=300, workers=1)
    configs = {
        "twist": {"map": {"family": "quadratic_twist", "beta": 0.3},
                  "compute": ["verify-link"], "budgets": budgets},
        "bump4": {"map": {"family": "bump", "n": 4}, "compute": ["verify-link"], "budgets": budgets},
        "readme": {"map": README_MAP, "compute": ["verify-link", "c-mu"], "budgets": readme_budgets},
    }
    runs = []
    for key, cfg in configs.items():
        path = work / f"{key}.json"
        path.write_text(json.dumps(cfg))
        runs.append((key, str(path), str(work / f"out-{key}"), cfg["map"]))
    return {"seed": seed, "runs": runs}


def _radial_build(inp):
    return [_mod("diskcal.zoo").from_spec(spec) for _, _, _, spec in inp["runs"]]


def _radial_run(inp):
    cli = _mod("diskcal.cli")
    return [cli.main(["--out", out, "compute", "--config", cfg]) for _, cfg, out, _ in inp["runs"]]


def _radial_check(inp, codes, checks: Checks, expected):
    blob = b""
    for (key, _, out, _), code in zip(inp["runs"], codes):
        checks.check(f"{key}.exit", code == 0, f"exit code {code}")
        if code != 0:
            continue
        raw = (Path(out) / "report.json").read_bytes()
        blob += raw
        checks.report(key, json.loads(raw), expected)
    return blob


# ---------------------------------------------------------------------------
# conjugated_link: verify_link where RK4 of the conjugator dominates


def _conjugated_bundle():
    zoo = _mod("diskcal.zoo")
    return zoo.conjugated_rotation(GOLDEN, zoo.off_center_conjugator(0.5), tau=0.5)


def _conjugated_run(inp):
    bundle = _conjugated_bundle()
    return _mod("diskcal.calabi").verify_link(bundle, pairs=PAIRS_CONJUGATED, seed=inp["seed"],
                                             grid=(64, 128))


def _conjugated_check(inp, report, checks: Checks, expected):
    flat = report.to_flat_dict()
    checks.report("conjugated", flat, expected)
    return json_bytes(flat)


# ---------------------------------------------------------------------------
# rigidity: the iterate experiment at denominators 1 and 2

RIGIDITY = {"depth": 10, "tau": 0.5, "q_max": 2, "far_pairs": 1000}


def _rigidity_build(inp):
    zoo = _mod("diskcal.zoo")
    cf = _mod("diskcal.arithmetic").continued_fraction(GOLDEN, RIGIDITY["depth"])
    qs = sorted({q for q in cf.q if 1 <= q <= RIGIDITY["q_max"]})
    conj = zoo.off_center_conjugator(0.5)
    # the base map, then one iterate per denominator, as exp_rigidity builds them
    return [zoo.conjugated_rotation(a, conj, RIGIDITY["tau"]) for a in [GOLDEN] + [q * GOLDEN for q in qs]]


def _rigidity_run(inp):
    return _mod("diskcal.experiments").exp_rigidity(GOLDEN, seed=inp["seed"], **RIGIDITY)


def _rigidity_check(inp, result, checks: Checks, expected):
    checks.check("rigidity.passed", result.passed is True)
    checks.check("rigidity.rows", len(result.rows) >= 2, f"{len(result.rows)} iterates")
    rho = expected["rigidity"]["rho"]
    for row in result.rows:
        want = round(row["q"] * rho)
        checks.check(f"rigidity.k[q={row['q']}]", row["k"] == want, f"k={row['k']}, want {want}")
    checks.oracle("rigidity", "cal1", result.meta["cal1_base"], expected)
    checks.oracle("rigidity", "rho", result.meta["rho"], expected, tol=1e-5)  # 1/n, n = 100k
    return json_bytes(result.to_json_dict())


# ---------------------------------------------------------------------------
# mc_pairs: threaded cal2 with the stratified sampler


def _mc_bundles():
    zoo = _mod("diskcal.zoo")
    return [("mc_bump4", zoo.bump(4)), ("mc_twist", zoo.quadratic_twist(0.3))]


def _mc_run(inp):
    calabi = _mod("diskcal.calabi")
    out = []
    for key, bundle in _mc_bundles():
        sampler = calabi.PairSampler(n=PAIRS_MC, seed=inp["seed"], strategy="stratified")
        out.append((key, calabi.cal2_tilde(bundle, sampler, workers=inp["workers"])))
    return out


def _mc_record(res) -> dict:
    return {"value": res.value, "stderr": res.stderr, "n_pairs": res.n_pairs,
            "resampled": res.resampled, "retried": res.retried}


def _mc_thread_speedup(inp) -> dict:
    """cal2_tilde at workers=1 and at the workload's worker count, same pairs."""
    calabi = _mod("diskcal.calabi")
    seconds = {1: 0.0, inp["workers"]: 0.0}
    same = True
    for _, bundle in _mc_bundles():
        results = {}
        for workers in seconds:
            sampler = calabi.PairSampler(n=PAIRS_MC, seed=inp["seed"], strategy="stratified")
            t0 = time.perf_counter()
            results[workers] = calabi.cal2_tilde(bundle, sampler, workers=workers)
            seconds[workers] += time.perf_counter() - t0
        same &= len({json.dumps(_mc_record(r)) for r in results.values()}) == 1
    return {
        "calabi.cal2_workers1_s": seconds[1],
        "calabi.cal2_workersN_s": seconds[inp["workers"]],
        "calabi.thread_speedup": seconds[1] / seconds[inp["workers"]],
        "same_result": same,
    }


def _mc_check(inp, results, checks: Checks, expected):
    for key, res in results:
        # a Monte-Carlo error, so it stays out of oracle_err_max
        err = abs(res.value - expected[key]["cal2"])
        tol = MC_SIGMAS * res.stderr + QUAD_ALLOWANCE
        checks.check(f"{key}.cal2", err <= tol, f"error {err:.3e} > {tol:.3e}")
        checks.check(f"{key}.n_pairs", res.n_pairs == PAIRS_MC, f"{res.n_pairs}")
        # a retry would redraw pairs uniformly into stratum slices (biased)
        checks.check(f"{key}.retried", res.retried == 0, f"{res.retried} pairs retried")
    return json_bytes([{"map": key, **_mc_record(res)} for key, res in results])


def _seed_only(seed, work):
    return {"seed": seed}


# The reason for each workload is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("radial_link", _radial_prepare, _radial_build, _radial_run, _radial_check),
        Workload("conjugated_link", _seed_only, lambda inp: [_conjugated_bundle()],
                 _conjugated_run, _conjugated_check),
        Workload("rigidity", _seed_only, _rigidity_build, _rigidity_run, _rigidity_check),
        Workload("mc_pairs", lambda seed, work: {"seed": seed, "workers": nproc()},
                 lambda inp: [b for _, b in _mc_bundles()], _mc_run, _mc_check, _mc_thread_speedup),
    )
}
