"""Benchmark command for graphgrav.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; metric names and units come from its
BENCHMARK.json.  Set-up is measured SETUP_SAMPLES times, each in a fresh
worker process, from process start until the worker is ready for its first
operation, and each sample is scaled by the start probe (probe.py) run just
before and just after it.  A last worker then runs the timed phase and the
checks (see worker.py).  Prints every metric by name and unit, then, as the
last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exits non-zero, printing no result, if a worker
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from probe import START_PROBE, START_PROBE_NOMINAL_S
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
DEADLINE_S = 170.0
# One worker, one thread: BLAS threads would run beside the closed loop on
# a two-core host.  A fixed hash seed keeps set iteration, and so every
# traced count, the same from run to run.
WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

class WorkerError(RuntimeError):
    pass


def start(cmd, deadline):
    """Start ``cmd`` and wait for its first line of output.

    Returns (process, seconds from start to that line, the line).  A
    watchdog kills the process at ``deadline`` so that no read below can
    block for ever.
    """
    env = dict(os.environ, **WORKER_ENV)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    proc.watchdog = watchdog
    line = proc.stdout.readline()
    return proc, time.perf_counter() - t0, line


def start_worker(args, deadline, setup_only):
    """Start a worker and wait for its ``ready`` line.

    Returns (process, set-up seconds, ready payload).
    """
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--setup-only"] if setup_only else [])
    proc, setup_s, line = start(cmd, deadline)
    if not line.startswith("ready "):
        finish(proc)
        raise WorkerError(f"worker exited before it was ready (code {proc.returncode})")
    return proc, setup_s, json.loads(line[len("ready "):])


def start_probe_s(deadline):
    """Seconds from starting the START_PROBE interpreter to its line."""
    proc, seconds, line = start([sys.executable, "-c", START_PROBE], deadline)
    finish(proc)
    if line != "ready\n":
        raise WorkerError("start probe printed no ready line")
    return seconds


def finish(proc):
    """Read the rest of the worker's output and wait until it has ended."""
    try:
        rest = proc.stdout.read()
        proc.wait()
    finally:
        proc.watchdog.cancel()
        proc.stdout.close()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return rest


def measure(args):
    deadline = time.monotonic() + DEADLINE_S
    setups, scaled_setups, imports, generations = [], [], [], []
    before = start_probe_s(deadline)
    starts = [before]
    for _ in range(SETUP_SAMPLES):
        proc, setup_s, ready = start_worker(args, deadline, setup_only=True)
        finish(proc)
        after = start_probe_s(deadline)
        setups.append(setup_s)
        scaled_setups.append(setup_s * START_PROBE_NOMINAL_S / ((before + after) / 2.0))
        imports.append(ready["import_s"])
        generations.append(ready["generators_s"])
        before = after
        starts.append(after)
    proc, _, _ = start_worker(args, deadline, setup_only=False)
    lines = finish(proc).strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    out = json.loads(lines[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values = dict(out["layers"])
        values["init.import_s"] = statistics.median(imports)
        values["generators.setup_s"] = statistics.median(generations)
        metrics = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(scaled_setups),
            "op_p50_ms": out["op_p50_ms"],
            "peak_rss_mb": out["peak_rss_mb"],
        }
        metrics = spec["end_to_end"]
        # for reference only: unscaled medians and the host speed
        print(f"raw_setup_s {statistics.median(setups):.6g} s")
        print(f"start_probe_s {statistics.median(starts):.6g} s")
        print(f"raw_p50_ms {out['raw_p50_ms']:.6g} ms")
        print(f"probe_p50_ms {out['probe_p50_ms']:.6g} ms")
    units = {m["name"]: m["unit"] for m in metrics}
    for err in out["errors"]:
        print(f"CHECK FAILED: {err}")
    print(f"workload {args.workload} seed {args.seed}: "
          f"attempted {out['attempted']}, failed {out['failed']}")
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    return {
        "correct": not out["errors"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="graphgrav benchmark")
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "graphgrav" / "__init__.py").is_file():
        print(f"run.py: no graphgrav sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
