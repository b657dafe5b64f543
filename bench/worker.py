"""One benchmark run, in the fresh process that run.py starts for it.

Order: write the seed's inputs, then time closed-loop passes while another
pass fits in the run's seconds, checking the outputs of every pass outside
the timed region.  An untraced run measures set-up (re-import diskcal and
build the bundles, several times) before and after its passes.  With
``--trace 1`` untraced and traced passes alternate, which gives the tracing
overhead in the same process, and set-up is not measured.
The record is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import tracer as tr
from run import MALLOC_ENV, THREAD_ENV
from workloads import EXPECTED, WORKLOADS, Checks, nproc

# Set-up is timed in two batches, before and after the passes, so that its
# median spans the run rather than one burst of load from other processes.
SETUP_BATCH = 16


def purge_diskcal() -> None:
    for name in [m for m in sys.modules if m == "diskcal" or m.startswith("diskcal.")]:
        del sys.modules[name]


def os_threads():
    """Threads of this process as the kernel counts them, or None off Linux."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts() -> dict:
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "malloc_env": {k: os.environ.get(k) for k in MALLOC_ENV},
        "os_threads_at_start": os_threads(),
    }


class PairTimer(tr.Patcher):
    """Times the calls that resolve pairs, for ``pairs_per_s``.

    Monte-Carlo pairs go through ``cal2_tilde`` (the binding ``verify_link``
    and the mc_pairs pass use); the rigidity experiment resolves its far pairs
    through its own ``chord_windings`` binding.  One clock read per call; it
    is installed for untraced runs only, so no layer is wrapped twice.
    """

    def __init__(self):
        super().__init__()
        self.pairs = 0
        self.seconds = 0.0

    def _timed(self, owner, attr, pairs_of):
        fn = owner.__dict__[attr]

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.seconds += time.perf_counter() - t0
            self.pairs += pairs_of(out, args)
            return out

        self.patch(owner, attr, wrapper)

    def install(self) -> None:
        self._timed(importlib.import_module("diskcal.calabi"), "cal2_tilde",
                    lambda out, args: out.n_pairs)
        self._timed(importlib.import_module("diskcal.experiments"), "chord_windings",
                    lambda out, args: np.size(args[1]))

    def take(self):
        out = (self.pairs, self.seconds)
        self.pairs, self.seconds = 0, 0.0
        return out


def measure_setup(workload, inp) -> list:
    """``import diskcal`` plus building every bundle of a pass, repeated."""
    samples = []
    for _ in range(SETUP_BATCH):
        purge_diskcal()
        t0 = time.perf_counter()
        importlib.import_module("diskcal")
        workload.build(inp)
        samples.append(time.perf_counter() - t0)
    return samples


class Runner:
    def __init__(self, workload, inp, expected):
        self.workload = workload
        self.inp = inp
        self.expected = expected
        self.checks = Checks()
        self.digest = None

    def passes(self, seconds: float, tracer=None, counts=None, pair_timer=None) -> dict:
        """Closed-loop passes while another one fits in ``seconds`` (at least one)."""
        walls, rates = [], []
        # looked up here: measuring set-up re-imports diskcal, and with it the class
        error_type = importlib.import_module("diskcal.errors").DiskcalError
        start = time.perf_counter()
        while True:
            out = None
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = self.workload.run(self.inp)
                else:
                    with tracer.span(tr.PASS_SPAN):
                        out = self.workload.run(self.inp)
            except error_type as exc:
                self.checks.check("pass raised no DiskcalError", False, f"{type(exc).__name__}: {exc}")
            walls.append(time.perf_counter() - t0)
            if pair_timer is not None:
                pairs, pair_seconds = pair_timer.take()
                if pair_seconds > 0.0:
                    rates.append(pairs / pair_seconds)
            if out is not None:
                self._check(out)
            if tracer is not None and counts is not None:
                counts.append(tracer.take_counts())
            if time.perf_counter() - start + statistics.median(walls) > seconds:
                return {"walls": walls, "rates": rates}

    def _check(self, out) -> None:
        blob = self.workload.check(self.inp, out, self.checks, self.expected)
        digest = hashlib.sha256(blob).hexdigest()
        if self.digest is None:
            self.digest = digest
        else:
            self.checks.check("report bytes equal the first pass's", digest == self.digest,
                              f"{digest[:12]} != {self.digest[:12]}")


def untraced_metrics(runner: Runner, seconds: float) -> tuple:
    setup = measure_setup(runner.workload, runner.inp)
    pair_timer = PairTimer()
    pair_timer.install()
    try:
        got = runner.passes(seconds, pair_timer=pair_timer)
    finally:
        pair_timer.uninstall()
    setup += measure_setup(runner.workload, runner.inp)
    metrics = {"wall_s": statistics.median(got["walls"]), "setup_s": statistics.median(setup)}
    # no rate only when every pass raised, which the checks already count
    metrics["pairs_per_s"] = statistics.median(got["rates"]) if got["rates"] else 0.0
    return metrics, {"wall_s": got["walls"], "setup_s": setup}


def traced_metrics(runner: Runner, seconds: float) -> tuple:
    """Untraced and traced passes alternate, so both see the same first-pass
    costs and machine drift, while another pair fits in ``seconds``."""
    tracer = tr.Tracer()
    plain, traced, counts = [], [], []
    start = time.perf_counter()
    while True:
        plain += runner.passes(0.0)["walls"]
        tracer.install()
        try:
            traced += runner.passes(0.0, tracer=tracer, counts=counts)["walls"]
        finally:
            tracer.uninstall()
        pair = statistics.median(plain) + statistics.median(traced)
        if time.perf_counter() - start + pair > seconds:
            break
    n = len(traced)
    runner.checks.check("per-layer counts repeat on every traced pass",
                        all(c == counts[0] for c in counts), f"{len(counts)} passes")
    metrics = {name: 0.0 for name in tr.SPAN_METRICS.values()}
    for name, seconds_total in tr.self_times(tracer.spans).items():
        metrics[tr.SPAN_METRICS[name]] += seconds_total / n
    metrics.update(counts[0])
    pairs = counts[0]["calabi.cal2_pairs"]
    drawn = pairs + counts[0]["calabi.cal2_retried"] + counts[0]["calabi.cal2_resampled"]
    metrics["calabi.cal2_useful_ratio"] = pairs / drawn if drawn else 0.0
    pass_spans = [s for s in tracer.spans if s[1] == tr.PASS_SPAN]
    metrics["trace.wall_s"] = sum(s[4] - s[3] for s in pass_spans) / n
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    outside = tr.spans_outside_pass(tracer.spans)
    if outside:
        raise RuntimeError(f"{len(outside)} spans outside every pass, first {outside[0][1]!r}: "
                           "the self times would not sum to trace.wall_s")
    extra = {"calabi.cal2_workers1_s": 0.0, "calabi.cal2_workersN_s": 0.0, "calabi.thread_speedup": 0.0}
    if runner.workload.traced_extra is not None:
        got = runner.workload.traced_extra(runner.inp)
        runner.checks.check("cal2_tilde result independent of the worker count", got.pop("same_result"))
        extra.update(got)
    metrics.update(extra)
    timings = {"wall_s": plain, "trace.wall_s": traced}
    spans = [{"id": s[0], "name": s[1], "parent": s[2], "start": s[3], "end": s[4]} for s in tracer.spans]
    return metrics, timings, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True, help="directory for generated inputs")
    parser.add_argument("--result", required=True, help="JSON record to write")
    parser.add_argument("--expected", default=None,
                        help="JSON file replacing the expected values (negative control)")
    args = parser.parse_args(argv)

    facts = machine_facts()
    workload = WORKLOADS[args.workload]
    expected = EXPECTED if args.expected is None else json.loads(Path(args.expected).read_text())
    inp = workload.prepare(args.seed, Path(args.work))
    runner = Runner(workload, inp, expected)
    if facts["os_threads_at_start"] is not None:
        runner.checks.check("numpy started no extra threads", facts["os_threads_at_start"] == 1,
                            f"{facts['os_threads_at_start']} threads")
    spans = None
    if args.trace:
        metrics, timings, spans = traced_metrics(runner, args.seconds)
    else:
        metrics, timings = untraced_metrics(runner, args.seconds)

    checks = runner.checks
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "failures": checks.failures,
        "oracle_err_max": max(checks.oracle_errors) if checks.oracle_errors else None,
        "budget_use_max": max(checks.budget_uses) if checks.budget_uses else None,
        "report_sha256": runner.digest,
        "timings": timings,
        "metrics": metrics,
    }
    if spans is not None:
        record["spans"] = spans
    Path(args.result).write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
