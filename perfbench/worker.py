"""One benchmark worker process: set up, run the timed phase, check.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

The worker imports graphgrav from the checkout's ``src/`` and builds the
workload's inputs, then prints ``ready`` with its import and generation
times; ``run.py`` times process start to that line as the set-up time.
Unless ``--setup-only`` is given it then runs whole rounds of the workload
in a closed loop until ``--seconds`` have passed, each operation bracketed by
probe runs, checks every result and prints one JSON line.  With ``--trace 1``
the first half of the time is untraced and the second half traced.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
Timing = namedtuple("Timing", "scaled_ms raw_ms probe_ms attempted failed")


def import_graphgrav():
    """Import graphgrav from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "graphgrav" / "__init__.py").is_file():
        raise SystemExit(f"no graphgrav sources under {src}")
    sys.path.insert(0, str(src))
    import graphgrav

    if Path(graphgrav.__file__).resolve().parent != src / "graphgrav":
        raise SystemExit(f"imported graphgrav from {graphgrav.__file__}, not {src}")
    return graphgrav


def timed_rounds(work, seconds, probe_adj, on_result):
    """Run whole rounds of ``work.inputs`` until ``seconds`` have passed.

    Returns a Timing of the operations that did not fail.  A probe runs
    before the first operation and after every operation.  An operation's
    wall time is scaled by the nominal probe time over the median of the
    four probes nearest to it, two before and two after: one probe is too
    noisy a measure of host speed, and a wider window lags the host.
    """
    from probe import PROBE_NOMINAL_MS, probe_ms

    raw, probes = [], [probe_ms(probe_adj)]
    attempted = failed = 0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        for k, inp in enumerate(work.inputs):
            attempted += 1
            t0 = time.perf_counter()
            try:
                result = work.operate(inp)
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                print(f"operation {k} failed: {exc!r}", file=sys.stderr)
                result = None
            dt_ms = (time.perf_counter() - t0) * 1e3
            probes.append(probe_ms(probe_adj))
            raw.append(None if result is None else dt_ms)
            if result is not None:
                on_result(k, result)
    scaled = [
        dt * PROBE_NOMINAL_MS / statistics.median(probes[max(j - 1, 0):j + 3])
        for j, dt in enumerate(raw)
        if dt is not None
    ]
    return Timing(scaled, [dt for dt in raw if dt is not None], probes, attempted, failed)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    gg = import_graphgrav()
    import_s = time.perf_counter() - t0
    import workloads

    t0 = time.perf_counter()
    work = workloads.WORKLOADS[args.workload](gg, args.seed)
    generators_s = time.perf_counter() - t0
    print("ready " + json.dumps({"import_s": import_s, "generators_s": generators_s}), flush=True)
    if args.setup_only:
        return 0

    from probe import probe_graph

    probe_adj = probe_graph()
    first = {}  # input index -> result of its first run
    mismatched = []
    counts = {}

    def on_result(k, result):
        if k not in first:
            first[k] = result
        elif result != first[k]:
            mismatched.append(k)
        for name, val in work.counts(result).items():
            counts[name] = counts.get(name, 0) + val

    out = {}
    if args.trace:
        import tracing

        plain = timed_rounds(work, args.seconds / 2.0, probe_adj, on_result)
        counts.clear()
        tracer = tracing.Tracer(gg)
        with tracer:
            traced = timed_rounds(work, args.seconds / 2.0, probe_adj, on_result)
        out["layers"] = tracer.metrics(traced.attempted - traced.failed, counts)
        out["layers"]["bench.probe_ms"] = statistics.median(plain.probe_ms + traced.probe_ms)
        out["layers"]["bench.trace_overhead"] = statistics.median(
            traced.scaled_ms
        ) / statistics.median(plain.scaled_ms)
        attempted, failed = plain.attempted + traced.attempted, plain.failed + traced.failed
    else:
        timing = timed_rounds(work, args.seconds, probe_adj, on_result)
        out.update(
            op_p50_ms=statistics.median(timing.scaled_ms),
            raw_p50_ms=statistics.median(timing.raw_ms),
            probe_p50_ms=statistics.median(timing.probe_ms),
        )
        attempted, failed = timing.attempted, timing.failed
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = [f"input {k}: result differs between rounds" for k in sorted(set(mismatched))]
    for k in sorted(first):
        errors += [f"input {k}: {e}" for e in work.check(work.inputs[k], first[k])]
    if len(first) == len(work.inputs):
        errors += work.run_checks([first[k] for k in range(len(work.inputs))])
    out.update(attempted=attempted, failed=failed, errors=errors)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
