"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from xmodcat.errors import SearchSpaceTooLarge  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"),
                           *argv], capture_output=True, text=True, cwd=cwd,
                          timeout=170)


def test_wrong_oracle_value_is_a_failure():
    inst = next(i for i in wl.build_cohomology(7) if i.name == "Z6/Z2")
    assert wl.run_pass([inst]).failures == []
    inst.expected = (4,)
    res = wl.run_pass([inst])
    assert len(res.failures) == 1 and "expected (4,)" in res.failures[0]


def test_guard_trip_is_a_failure_not_a_crash():
    inst = next(i for i in wl.build_classify(7) if i.part == "obstructed_s")
    inst.expected = (True, 0)
    assert wl.run_pass([inst]).failures == []
    M, Q, psi, _ = inst.args
    inst.args = (M, Q, psi, 1)
    res = wl.run_pass([inst])
    assert res.outcomes[0][0] == "error"
    assert SearchSpaceTooLarge.__name__ in res.outcomes[0][1]
    assert len(res.failures) == 1


def test_same_seed_same_inputs():
    a, b = wl.build_coherence(3), wl.build_coherence(3)
    assert [i.name for i in a] == [i.name for i in b]
    assert all(x.args[0] == y.args[0] for x, y in zip(a, b))
    c = wl.build_coherence(4)
    assert any(x.args[0] != y.args[0] for x, y in zip(a, c))


def test_benchmark_json_matches_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} <= set(run.PART_NAMES)


def _printed_names(stdout):
    names = []
    for line in stdout.splitlines()[:-1]:
        words = line.split()
        if len(words) >= 3 and words[0] not in ("workload", "context", "edge",
                                                "failure"):
            names.append(words[0])
    return names


def test_every_printed_metric_name_is_well_formed():
    for trace in ("0", "1"):
        proc = _bench("--workload", "corpus", "--seed", "5", "--seconds", "1",
                      "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        names = _printed_names(proc.stdout)
        assert set(result["metrics"]) <= set(names)
        assert "fail_frac" in names
        assert all(NAME.fullmatch(n) for n in names), names


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "coherence", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
