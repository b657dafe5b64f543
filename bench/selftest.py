"""Self-tests of the benchmark harness.

    python3 bench/selftest.py

Runs the harness end to end through run.py on radial_link, conjugated_link
and mc_pairs, one or two passes each (a few minutes on a 2-core machine;
rigidity is left out because one pass takes most of a minute).  Checks:

* every metric name matches ``[A-Za-z0-9_.-]+`` and a traced run reports
  exactly the per-layer metrics BENCHMARK.json declares;
* two traced runs on one seed give identical counts, and the generator
  counters are zero on the closed-form workloads and nonzero under RK4;
* a traced run's report bytes equal an untraced run's;
* another seed gives other sampled pairs and other reports;
* a deliberately wrong expected value makes the run fail (negative control).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "bench" / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
ZERO_GRAD = ("radial_link", "mc_pairs")
RK4 = ("conjugated_link",)


def bench(workload: str, seed: int, trace: int, *extra) -> tuple:
    """(result object, report digest) of one run.py invocation."""
    cmd = RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split(" = ", 1)[1] for line in lines if line.startswith("report_sha256 = "))
    return json.loads(lines[-1]), digest


def counts(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


def check_names(spec: dict) -> None:
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    bad = [n for n in names if not NAME.match(n)]
    assert not bad, f"malformed metric or workload names: {bad}"
    assert len(names) == len(set(names)), "a name is used twice"


def check_traced(spec: dict, workload: str) -> str:
    first, digest_1 = bench(workload, 7, 1)
    second, _ = bench(workload, 7, 1)
    declared = {m["name"] for m in spec["per_layer"]}
    assert set(first["metrics"]) == declared, f"{workload}: {set(first['metrics']) ^ declared}"
    assert first["correct"] and second["correct"], f"{workload}: traced run failed its checks"
    assert counts(first) == counts(second), f"{workload}: counts differ between traced runs"
    grad = first["metrics"]["fields.grad_points"]["value"]
    if workload in ZERO_GRAD:
        assert grad == 0, f"{workload}: {grad} generator gradient points on a closed-form flow"
    if workload in RK4:
        assert grad > 0, f"{workload}: no generator gradient points counted under RK4"
    plain, digest_0 = bench(workload, 7, 0)
    assert plain["correct"], f"{workload}: untraced run failed its checks"
    assert digest_0 == digest_1, f"{workload}: traced and untraced reports differ"
    return digest_0


def check_seed_changes_pairs(digests: dict) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from diskcal import PairSampler

    for strategy in ("uniform", "stratified"):
        a = PairSampler(n=1000, seed=7, strategy=strategy).sample_pairs()[0]
        b = PairSampler(n=1000, seed=8, strategy=strategy).sample_pairs()[0]
        assert (a != b).any(), f"{strategy} sampler ignores its seed"
    for workload in ("radial_link", "mc_pairs"):
        _, other = bench(workload, 8, 0)
        assert other != digests[workload], f"{workload}: seed 8 gave the seed-7 report"


def check_negative_control() -> None:
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import EXPECTED

    wrong = json.loads(json.dumps(EXPECTED))
    wrong["twist"]["cal1"] = 0.3
    path = ROOT / ".bench_out" / f"wrong-oracle-{os.getpid()}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(wrong))
    try:
        result, _ = bench("radial_link", 7, 0, "--expected", str(path))
    finally:
        path.unlink()
    assert not result["correct"] and result["failed"] > 0, "a wrong oracle went unnoticed"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_names(spec)
    print("ok: metric names", flush=True)
    digests = {}
    for workload in ZERO_GRAD + RK4:
        digests[workload] = check_traced(spec, workload)
        print(f"ok: {workload}: traced counts repeat, traced reports equal untraced", flush=True)
    check_seed_changes_pairs(digests)
    print("ok: the seed changes the sampled pairs and the reports", flush=True)
    check_negative_control()
    print("ok: a wrong oracle drives fail_frac above 0", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
