"""xmodcat benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload coherence|cohomology|classify|corpus \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from `src/`.
The benchmark starts a few fresh worker processes (perfbench/worker.py) one
after another, so at most one instance of the program runs at a time:

* one untimed warm-up (byte-compiles `src/` and fills the file cache);
* with --trace 0, SETUP_RUNS processes timed from spawn until their inputs
  are built (`setup_s` is the median), the last of which goes on to run
  passes for --seconds;
* with --trace 1, one process that runs an untraced and a traced pass.

It prints one line per metric (`name value unit`), context lines, and as
the last line the JSON summary: with --trace 0 the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer ones.  It exits 2 without a
summary when `src/xmodcat` is missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layertrace import LAYERS, SPAN_METRICS, UNITS  # noqa: E402

SETUP_RUNS = 9
# Gated end-to-end metrics, present on every workload (BENCHMARK.json).
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed, not gated: the parts of a pass, by workload.
PART_NAMES = {"coherence": ("valid_s", "broken_s"),
              "cohomology": (),
              "classify": ("unobstructed_s", "obstructed_s", "schreier_s"),
              "corpus": ("scenario_s", "batch_s")}


def per_layer_units():
    units = {f"{span}.{field}": UNITS[field] for span, field in SPAN_METRICS}
    units["cli.process_overhead_s"] = "s"
    units["trace.overhead_s"] = "s"
    for module in LAYERS + ("src",):
        units[f"{module}.loc"] = "lines"
    return units


class WorkerFailed(Exception):
    pass


def run_worker(args, extra):
    """Start a worker; return (seconds from spawn to READY, summary)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("XMODCAT_SEED", None)          # it would change sampled reports
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          cwd=ROOT) as proc:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    if code != 0 or first.strip() != "READY":
        raise WorkerFailed(f"worker {' '.join(extra)} exited {code}")
    lines = rest.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def src_loc():
    base = os.path.join(ROOT, "src", "xmodcat")
    loc = {}
    for module in LAYERS:
        with open(os.path.join(base, module + ".py"), encoding="utf-8") as fh:
            loc[f"{module}.loc"] = sum(1 for _ in fh)
    total = 0
    for name in os.listdir(base):
        if name.endswith(".py"):
            with open(os.path.join(base, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    loc["src.loc"] = total
    return loc


def cache_sizes():
    """L2 and L3 sizes as the kernel reports them, or "unknown"."""
    out = {"l2": "unknown", "l3": "unknown"}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in os.listdir(base):
            if not idx.startswith("index"):
                continue
            with open(os.path.join(base, idx, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, idx, "size")) as fh:
                size = fh.read().strip()
            if level in ("2", "3"):
                out[f"l{level}"] = size
    except OSError:
        pass
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(PART_NAMES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "xmodcat", "__init__.py")):
        print(f"error: no src/xmodcat under {ROOT}", file=sys.stderr)
        return 2
    try:
        run_worker(args, ["--setup-only"])
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(run_worker(args, ["--setup-only"])[0])
        setup, summary = run_worker(
            args, ["--seconds", str(args.seconds), "--trace", str(args.trace)])
        setups.append(setup)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted, failed = summary["attempted"], summary["failed"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for msg in summary["failures"]:
        print(f"failure {msg}")
    context = dict(nproc=os.cpu_count(), python=platform.python_version(),
                   **summary["context"], **cache_sizes())
    if args.trace:
        units = per_layer_units()
        values = dict(summary["layers"], **src_loc())
        for child, parent, count in summary["edges"]:
            print(f"edge {parent} -> {child} {count}")
    else:
        passes = summary["passes"]
        units = dict(END_TO_END)
        context.update(src_loc())
        values = {"wall_s": statistics.median(p["wall_s"] for p in passes),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": summary["peak_rss_mb"]}
        context["passes"] = len(passes)
        for part in PART_NAMES[args.workload]:
            value = statistics.median(p[part] for p in passes)
            print(f"{part} {value:.6f} s")
    print(f"fail_frac {failed / attempted:.6f} fraction "
          f"({failed} of {attempted})")
    for key, value in context.items():
        print(f"context {key} {value}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
