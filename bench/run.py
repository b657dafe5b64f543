"""diskcal benchmark: one workload, one seed, one fresh process.

    python3 bench/run.py --workload radial_link --seed 7 --seconds 10 --trace 0

Run from the root of a source checkout; diskcal is imported from ``src/``.
The workload runs in a child process (worker.py) with the BLAS/OpenMP thread
variables pinned to 1, so its threads are only the ones it asks for, and with
glibc's malloc thresholds fixed, so its peak resident memory is its own and
does not depend on the order of earlier allocations.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and ``failed``
count output checks, and ``metrics`` holds the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``) named in
BENCHMARK.json.  The lines before it print every figure by name with its
unit, and the full record (samples, failures, spans) is kept under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 170
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# glibc raises its mmap threshold, up to 32 MiB, each time a mapped block is
# freed, so whether a large array is mapped (and returned on free) or carved
# from the heap depends on the allocation history, and peak RSS moved by 30%
# with the number of set-up repeats.  These are the values that adjustment
# settles at; setting them turns it off.  Other allocators ignore them.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(64 << 20)}
WORKLOADS = ("radial_link", "conjugated_link", "rigidity", "mc_pairs")

UNMEASURED = (
    "not measured on a shared CPU-only machine: memory bandwidth, hardware counters, and "
    "thread scaling (threads on a shared 2-core box show contention, not scaling)"
)


def high_percentile(samples):
    """(percentile, value) of the highest percentile with at least ten samples above it."""
    k = len(samples) - 11
    if k < 0:
        return None
    return 100.0 * (k + 1) / len(samples), sorted(samples)[k]


def timing_line(name: str, unit: str, value: float, samples) -> str:
    hi = high_percentile(samples)
    tail = "p_hi n/a (needs 11 samples)" if hi is None else f"p{hi[0]:.0f} {hi[1]!r} {unit}"
    return f"{name} = {value!r} {unit}  (median of {len(samples)}; {tail})"


def end_to_end_lines(record: dict):
    m, t = record["metrics"], record["timings"]
    yield timing_line("wall_s", "s", m["wall_s"], t["wall_s"])
    yield timing_line("setup_s", "s", m["setup_s"], t["setup_s"])
    yield f"pairs_per_s = {m['pairs_per_s']!r} 1/s  (median over passes)"
    yield f"peak_rss_mb = {m['peak_rss_mb']!r} MB"


def accuracy_lines(record: dict):
    attempted, failed = record["attempted"], record["failed"]
    yield f"fail_frac = {failed / attempted!r} ratio  ({failed} of {attempted} checks failed)"
    for name, unit in (("budget_use_max", "ratio"), ("oracle_err_max", "turns")):
        value = record[name]
        yield f"{name} = " + ("n/a (not computed by this workload)" if value is None else f"{value!r} {unit}")
    yield f"report_sha256 = {record['report_sha256']}"
    for failure in record["failures"]:
        yield f"FAILED: {failure}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", default=None,
                        help="JSON file replacing the expected values (negative control)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "diskcal" / "__init__.py").is_file():
        print(f"no diskcal sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    result = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **{k: "1" for k in THREAD_ENV}, **MALLOC_ENV)
    cmd = [
        sys.executable, str(Path(__file__).with_name("worker.py")),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work", str(work), "--result", str(result),
    ]
    if args.expected is not None:
        cmd += ["--expected", str(Path(args.expected).resolve())]
    log = work / "worker.log"
    try:
        with open(log, "w") as fh:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT,
                                  timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(log.read_text()[-4000:])
            print(f"worker exited with code {proc.returncode}", file=sys.stderr)
            return 1
    except subprocess.TimeoutExpired:
        print(f"worker killed after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = json.loads(result.read_text())
    if not args.trace:
        # the only child this process started, so its peak is the workload's
        kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        record["metrics"]["peak_rss_mb"] = kib / 1024.0
        result.write_text(json.dumps(record, indent=1))

    declared = declared_metrics(args.trace)
    missing = [m["name"] for m in declared if m["name"] not in record["metrics"]]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1

    facts = record["machine"]
    threads = " ".join(f"{k}={v}" for k, v in {**facts["thread_env"], **facts["malloc_env"]}.items())
    print(f"# machine: nproc={facts['nproc']} cpu={facts['cpu_model']!r} python={facts['python']} "
          f"numpy={facts['numpy']} {threads}")
    print(f"# {UNMEASURED}")
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}; record {result}")
    if args.trace:
        lines = (f"{m['name']} = {record['metrics'][m['name']]!r} {m['unit']}" for m in declared)
    else:
        lines = end_to_end_lines(record)
    for line in lines:
        print(line)
    for line in accuracy_lines(record):
        print(line)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


def declared_metrics(trace: int) -> list:
    """The metric list BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


if __name__ == "__main__":
    sys.exit(main())
