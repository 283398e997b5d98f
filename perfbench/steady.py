"""Steadiness of the benchmark: run every workload repeatedly and report
the spread of each end-to-end metric.

    python3 perfbench/steady.py [--runs 10]

Run from the root of a checkout.  Runs ``run.py`` once per (seed, workload)
for seeds 1..runs, alternating the workloads within each seed, one run at a
time, each for BENCHMARK.json's ``run_seconds``.  For every workload and
metric it prints the median, the quartile distance as a share of the median
(the figure the end-to-end bounds are set from) and max/min, and marks each
end-to-end spread against a third of its bound.  Every run's record is
written as one JSON line to perfbench/out/steady.jsonl, so two sets of runs
can be compared afterwards.  ``--runs 1`` runs every workload once.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out" / "steady.jsonl"
FIRST_SEED = 1
LINE = re.compile(r"^(\S+) (-?[0-9.eE+-]+) (\S+)$")


def one_run(workload, seed, seconds):
    """Run the benchmark once; returns (result JSON, {name: value} of every
    'name value unit' line it printed)."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        m = LINE.match(line)
        if m:
            printed[m.group(1)] = float(m.group(2))
    return json.loads(lines[-1]), printed


def spread(values):
    """(median, quartile distance / median, max / min)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0, 1.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    lo = min(values)
    return med, (q3 - q1) / med if med else 0.0, max(values) / lo if lo else float("inf")


def main(argv=None):
    ap = argparse.ArgumentParser(description="benchmark steadiness")
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    values = {w: {} for w in WORKLOADS}
    fail_share = {w: set() for w in WORKLOADS}
    OUT.parent.mkdir(parents=True, exist_ok=True)
    with open(OUT, "w") as log:
        for seed in range(FIRST_SEED, FIRST_SEED + args.runs):
            for w in WORKLOADS:
                run_one(w, seed, seconds, values, fail_share, log)
    report(values, fail_share, bounds)
    return 0


def run_one(w, seed, seconds, values, fail_share, log):
    result, printed = one_run(w, seed, seconds)
    log.write(json.dumps({"workload": w, "seed": seed, "result": result, "printed": printed}) + "\n")
    log.flush()
    fail_share[w].add(result["failed"] / result["attempted"])
    shown = {k: v["value"] for k, v in result["metrics"].items()}
    shown.update(printed)
    for k, v in shown.items():
        values[w].setdefault(k, []).append(v)
    print(f"{w} seed {seed}: correct {result['correct']} attempted "
          f"{result['attempted']} failed {result['failed']} "
          + " ".join(f"{k}={v:.5g}" for k, v in shown.items()), flush=True)
    if not result["correct"]:
        print(f"{w} seed {seed}: CHECKS FAILED", flush=True)


def report(values, fail_share, bounds):
    print(f"\n{'workload':16} {'metric':28} {'median':>12} {'IQR/med':>8} {'max/min':>8}")
    for w in WORKLOADS:
        for k, vals in values[w].items():
            med, iqr, ratio = spread(vals)
            mark = ""
            if k in bounds:
                mark = "ok" if iqr < bounds[k] / 3.0 else f"ABOVE {bounds[k]}/3"
            print(f"{w:16} {k:28} {med:12.6g} {iqr:8.4f} {ratio:8.4f} {mark}")
        print(f"{w:16} failed share: {sorted(fail_share[w])}")


if __name__ == "__main__":
    sys.exit(main())
