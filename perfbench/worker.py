"""One benchmark process: import the library, build a workload's inputs from
the seed, print READY, then (unless --setup-only) compute the oracles and
run passes.  The last stdout line is a JSON summary for run.py.

    python3 perfbench/worker.py --workload NAME --seed N [--setup-only]
                                [--seconds S] [--trace 0|1]

With --trace 1 it runs one untraced pass, then installs the span wrappers,
rebuilds the inputs and runs one traced pass, and checks that the two
passes give identical outcomes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import xmodcat

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.abspath(xmodcat.__file__).startswith(os.path.join(ROOT, "src")):
    sys.exit(f"error: imported {xmodcat.__file__}, not the checkout's src/")

import layertrace  # noqa: E402
import workloads as wl  # noqa: E402


def peak_rss_mb():
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024


def timed_passes(instances, seconds):
    """Passes back to back while, at the median pass time so far, the next
    one would end no later than half a pass past the window: at least one
    pass, and at least two when a pass takes under 2/3 of the window."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(wl.run_pass(instances))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p.wall_s for p in passes) / 2 > seconds:
            return passes


def traced(instances, rebuild):
    """Per-layer metrics from one traced set-up and pass, next to one
    untraced pass of the same calls; returns (passes, failures, layers,
    edges)."""
    plain = wl.run_pass(instances)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        again = rebuild()
        for new, old in zip(again, instances):
            new.expected = old.expected
        spans = wl.run_pass(again)
    finally:
        tracer.uninstall()
    failures = plain.failures + spans.failures
    for inst, a, b in zip(instances, plain.outcomes, spans.outcomes):
        if a != b:
            failures.append(f"{inst.name}: outcome differs under tracing")
    layers = {f"{span}.{field}": tracer.metric(span, field)
              for span, field in layertrace.SPAN_METRICS}
    layers["trace.overhead_s"] = spans.wall_s - plain.wall_s
    edges = sorted(((n, p or "-", c) for (p, n), c in tracer.edges.items()),
                   key=lambda e: -e[2])
    return [plain, spans], failures, layers, edges


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.BUILD))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    instances = wl.BUILD[args.workload](args.seed, ROOT)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    wl.ORACLE[args.workload](instances)
    import numpy
    summary = {"context": {"numpy": numpy.__version__,
                           "instances": len(instances)}}
    if args.workload == "coherence":
        summary["context"].update(wl.coherence_context())
    if args.trace and args.workload == "corpus":
        # Spans cannot see into child processes: the traced pass runs the
        # same CLI calls in this process, and the process pass gives the
        # cost of start, import and exit beside them.
        process = wl.run_pass(instances)
        passes, failures, layers, edges = traced(
            wl.build_corpus(args.seed, ROOT, inprocess=True),
            lambda: wl.build_corpus(args.seed, ROOT, inprocess=True))
        layers["cli.process_overhead_s"] = (process.parts["scenario_s"]
                                            - passes[0].parts["scenario_s"])
        passes.append(process)
        failures += process.failures
    elif args.trace:
        passes, failures, layers, edges = traced(
            instances, lambda: wl.BUILD[args.workload](args.seed, ROOT))
        layers["cli.process_overhead_s"] = 0.0
    else:
        passes = timed_passes(instances, args.seconds)
        failures = [f for p in passes for f in p.failures]
        summary["passes"] = [dict(p.parts, wall_s=p.wall_s) for p in passes]
    if args.trace:
        summary.update(layers=layers, edges=edges[:40])
    attempted = sum(len(p.outcomes) for p in passes)
    summary.update(attempted=attempted, failed=len(failures),
                   failures=failures[:20], peak_rss_mb=peak_rss_mb())
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
