import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmodcat import cli, samples
from xmodcat import groups as g


def write_scenario(tmp_path, name, kind, inputs, options=None):
    path = tmp_path / name
    path.write_text(json.dumps({
        "schema_version": 1, "kind": kind,
        "inputs": inputs, "options": options or {},
    }))
    return str(path)


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_scenario_exit_zero(tmp_path, capsys):
    m = samples.s3_a3_module(False)
    path = write_scenario(tmp_path, "v.json", "validate",
                          {"module": m.to_json()})
    code, out, _ = run_cli(["validate", path], capsys)
    assert code == 0
    assert "result: all-pass" in out


def test_validate_scenario_axiom_failure(tmp_path, capsys):
    m = samples.s3_a3_module(False)
    blob = m.to_json()
    blob["eta"][1][2] = (blob["eta"][1][2] + 1) % m.B.order
    path = write_scenario(tmp_path, "v.json", "validate", {"module": blob})
    code, out, _ = run_cli(["validate", path], capsys)
    assert code == 1
    assert "FAIL" in out and "witness=" in out


def test_classify_scenario_counts(tmp_path, capsys):
    Z2 = g.cyclic(2)
    m = samples.abelian_module(Z2, g.trivial_group(), [0, 0])
    path = write_scenario(
        tmp_path, "c.json", "classify",
        {"module": m.to_json(),
         "Q": {"table": Z2.to_json()["table"], "act": [[0, 1]]},
         "psi": [0, 0]})
    code, out, _ = run_cli(["classify", path], capsys)
    assert code == 0
    assert "class-count: 2" in out
    assert "invariants=[2, 2]" in out and "invariants=[4]" in out


def test_malformed_json_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "validate", "schema_version": 1,\n  broken')
    code, _, err = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert "line" in err and "column" in err


def test_unsupported_schema_version_exit_two(tmp_path, capsys):
    m = samples.s3_a3_module(False)
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"schema_version": 99, "kind": "validate",
                                "inputs": {"module": m.to_json()}}))
    code, _, err = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert "schema_version" in err


def test_shape_error_exit_two(tmp_path, capsys):
    m = samples.s3_a3_module(False)
    blob = m.to_json()
    blob["d"] = blob["d"][:-1]  # wrong length boundary table
    path = write_scenario(tmp_path, "v.json", "validate", {"module": blob})
    code, _, err = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert "module" in err


def _missing_module():
    return "validate", {}, {}, "inputs.module"


def _missing_q():
    m = samples.abelian_module(g.cyclic(2), g.trivial_group(), [0, 0])
    return "classify", {"module": m.to_json(), "psi": [0, 0]}, {}, "inputs.Q"


def _non_integer_boundary():
    blob = samples.s3_a3_module(False).to_json()
    blob["d"][1] = "x"
    return "validate", {"module": blob}, {}, "inputs.module"


def _unknown_h2_method():
    Z2 = g.cyclic(2)
    mod = {"table": Z2.to_json()["table"], "act": [[0, 1]]}
    inputs = {"gamma": g.trivial_group().to_json(), "Q": mod, "B": mod}
    return "cohomology-h2", inputs, {"method": "nope"}, "nope"


def _non_string_method():
    inputs = _unknown_h2_method()[1]
    return "cohomology-h2", inputs, {"method": 5}, "options.method"


def _non_integer_random_count():
    return "check-axioms", {}, {"random_count": "x"}, "options.random_count"


def _s3_inputs():
    return {"module": samples.s3_a3_module(False).to_json()}


def _string_symmetric():
    return ("check-axioms", _s3_inputs(), {"symmetric": "false"},
            "options.symmetric")


def _list_symmetric():
    return "check-axioms", _s3_inputs(), {"symmetric": [1]}, "options.symmetric"


def _string_dump():
    return "build-catgroup", _s3_inputs(), {"dump": "yes"}, "options.dump"


def _string_decide_vanishing():
    scenario = json.loads(
        (cli.default_corpus_dir() / "obstruction_twisted.json").read_text())
    return ("obstruction", scenario["inputs"], {"decide_vanishing": "no"},
            "options.decide_vanishing")


def _hp_braid(value):
    scenario = json.loads(
        (cli.default_corpus_dir() / "obstruction_twisted.json").read_text())
    scenario["inputs"]["hp"]["braid"][1][1] = value
    return "obstruction", scenario["inputs"], {}, "inputs.hp"


def _hp_entry_past_end():
    return _hp_braid(7)


def _hp_entry_negative():
    return _hp_braid(-1)


def _corpus_inputs(name):
    return json.loads(
        (cli.default_corpus_dir() / f"{name}.json").read_text())["inputs"]


def _action_entry_past_end():
    inputs = _corpus_inputs("validate_q8_gamma")
    inputs["module"]["actB"][0][0] = 7
    return "validate", inputs, {}, "inputs.module"


def _action_entry_negative():
    inputs = _corpus_inputs("check_axioms_z4_negation")
    inputs["module"]["actB"][0][0] = -1
    return "check-axioms", inputs, {}, "inputs.module"


def _q_action_entry_past_end():
    inputs = _corpus_inputs("cohomology_h2_z4_negation")
    inputs["Q"]["act"][1][3] = 7
    return "cohomology-h2", inputs, {}, "inputs.Q"


def _psi_entry(value):
    inputs = _corpus_inputs("classify_z2")
    inputs["psi"][1] = value
    return "classify", inputs, {}, "inputs.psi[1]"


def _float_psi():
    return _psi_entry(0.9)


def _bool_psi():
    return _psi_entry(True)


def _string_seed():
    return ("check-axioms", {}, {"random_count": 1, "seed": "12"},
            "options.seed")


def _float_random_count():
    return "check-axioms", {}, {"random_count": 2.7}, "options.random_count"


def _float_module_entry():
    inputs = _corpus_inputs("validate_s3_a3")
    inputs["module"]["d"][1] = 1.5
    return "validate", inputs, {}, "inputs.module.d[1]"


def _unknown_option():
    return ("cohomology-h2", _corpus_inputs("cohomology_h2_z2"),
            {"metod": "brute"}, "options.metod: unknown option")


def _option_of_another_kind():
    return ("validate", _s3_inputs(), {"symmetric": True},
            "options.symmetric: unknown option")


def _negative_random_count():
    return "check-axioms", {}, {"random_count": -3}, "options.random_count"


def _string_seed_without_randoms():
    return ("check-axioms", _s3_inputs(), {"random_count": 0, "seed": "x"},
            "options.seed")


def _wrong_module_order():
    inputs = _corpus_inputs("validate_s3_a3")
    inputs["module"]["B"]["order"] = 99
    return "validate", inputs, {}, "inputs.module"


def _wrong_gamma_order():
    inputs = _corpus_inputs("cohomology_h2_z2")
    inputs["gamma"]["order"] = 2
    return "cohomology-h2", inputs, {}, "inputs.gamma"


def _input_of_another_kind():
    inputs = dict(_corpus_inputs("validate_s3_a3"),
                  Q=_corpus_inputs("classify_z2")["Q"])
    return "validate", inputs, {}, "inputs.Q: unknown input"


def _misspelt_optional_module():
    return ("check-axioms", {"modul": _s3_inputs()["module"]},
            {"random_count": 1}, "inputs.modul: unknown input")


@pytest.mark.parametrize("case", [
    _missing_module,
    _missing_q,
    _non_integer_boundary,
    _unknown_h2_method,
    _non_string_method,
    _non_integer_random_count,
    _string_symmetric,
    _list_symmetric,
    _string_dump,
    _string_decide_vanishing,
    _hp_entry_past_end,
    _hp_entry_negative,
    _action_entry_past_end,
    _action_entry_negative,
    _q_action_entry_past_end,
    _float_psi,
    _bool_psi,
    _string_seed,
    _float_random_count,
    _float_module_entry,
    _unknown_option,
    _option_of_another_kind,
    _negative_random_count,
    _string_seed_without_randoms,
    _wrong_module_order,
    _wrong_gamma_order,
    _input_of_another_kind,
    _misspelt_optional_module,
], ids=["missing-module", "missing-Q", "non-integer-d", "unknown-method",
        "non-string-method", "non-integer-random-count", "string-symmetric",
        "list-symmetric", "string-dump", "string-decide-vanishing",
        "hp-entry-past-end", "hp-entry-negative", "action-entry-past-end",
        "action-entry-negative", "q-action-entry-past-end", "float-psi",
        "bool-psi", "string-seed", "float-random-count",
        "float-module-entry", "unknown-option", "option-of-another-kind",
        "negative-random-count", "string-seed-without-randoms",
        "wrong-module-order", "wrong-gamma-order", "input-of-another-kind",
        "misspelt-optional-module"])
def test_malformed_inputs_exit_two(tmp_path, capsys, case):
    kind, inputs, options, needle = case()
    path = write_scenario(tmp_path, "bad.json", kind, inputs, options)
    code, out, err = run_cli([kind, path], capsys)
    assert code == 2
    assert out == ""
    assert needle in err


@pytest.mark.parametrize("version", [True, 1.0], ids=["true", "float"])
def test_schema_version_must_be_the_integer_one(tmp_path, capsys, version):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"schema_version": version, "kind": "validate",
                                "inputs": _s3_inputs()}))
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"input error: unsupported schema_version {version!r}\n"


def test_kind_mismatch_exit_two(tmp_path, capsys):
    m = samples.s3_a3_module(False)
    path = write_scenario(tmp_path, "v.json", "validate",
                          {"module": m.to_json()})
    code, _, err = run_cli(["classify", path], capsys)
    assert code == 2
    assert "does not match" in err


def test_json_report_written(tmp_path, capsys):
    m = samples.s3_a3_module(False)
    path = write_scenario(tmp_path, "v.json", "validate",
                          {"module": m.to_json()})
    out_json = tmp_path / "report.json"
    code, _, _ = run_cli(["validate", path, "--json", str(out_json)], capsys)
    assert code == 0
    blob = json.loads(out_json.read_text())
    assert blob["exit_code"] == 0
    assert blob["report"]["ok"] is True


def test_unwritable_json_report_exit_two(tmp_path, capsys):
    scenario = cli.default_corpus_dir() / "validate_s3_a3.json"
    report = tmp_path / "no-such-dir" / "report.json"
    code, out, err = run_cli(["validate", str(scenario), "--json",
                              str(report)], capsys)
    assert code == 2
    assert out == scenario.with_suffix(".expected.txt").read_text()
    assert err.startswith("input error: cannot write report: ")
    assert "Traceback" not in err


def test_corpus_matches(capsys):
    code, out, _ = run_cli(["corpus"], capsys)
    assert code == 0
    assert "DIFF" not in out
    assert "match" in out


def test_corpus_detects_mutation(tmp_path, capsys):
    src = cli.default_corpus_dir()
    work = tmp_path / "corpus"
    shutil.copytree(src, work)
    victim = sorted(work.glob("*.expected.txt"))[0]
    victim.write_text(victim.read_text() + "tampered\n")
    code, out, _ = run_cli(["corpus", str(work)], capsys)
    assert code == 1
    assert "DIFF" in out


def test_corpus_reports_bad_scenario_and_goes_on(tmp_path, capsys):
    src = cli.default_corpus_dir()
    work = tmp_path / "corpus"
    shutil.copytree(src, work)
    write_scenario(work, "aaa_missing_module.json", "validate", {})
    code, out, _ = run_cli(["corpus", str(work)], capsys)
    assert code == 2
    lines = out.splitlines()
    assert lines[0].startswith("aaa_missing_module.json: input error")
    assert sum(line.endswith(": match") for line in lines) == \
        len(list(src.glob("*.json")))


def test_corpus_reports_non_string_kind_and_goes_on(tmp_path, capsys):
    src = cli.default_corpus_dir()
    work = tmp_path / "corpus"
    shutil.copytree(src, work)
    write_scenario(work, "aaa_list_kind.json", ["validate"], _s3_inputs())
    code, out, _ = run_cli(["corpus", str(work)], capsys)
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "aaa_list_kind.json: input error: unknown kind " \
        "['validate']"
    assert sum(line.endswith(": match") for line in lines) == \
        len(list(src.glob("*.json")))


def _write_deep_scenario(path):
    """A validate scenario whose module is an array nested 5000 deep, past
    the interpreter's recursion limit."""
    path.write_text('{"schema_version": 1, "kind": "validate", '
                    '"inputs": {"module": ' + "[" * 5000 + "]" * 5000 + "}}")


def test_deeply_nested_scenario_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    _write_deep_scenario(path)
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert (code, out) == (2, "")
    assert "nested too deeply" in err


def test_corpus_reports_deeply_nested_scenario_and_goes_on(tmp_path, capsys):
    src = cli.default_corpus_dir()
    work = tmp_path / "corpus"
    shutil.copytree(src, work)
    _write_deep_scenario(work / "aaa_deep.json")
    code, out, _ = run_cli(["corpus", str(work)], capsys)
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "aaa_deep.json: input error: scenario is nested too " \
        "deeply to read"
    assert sum(line.endswith(": match") for line in lines) == \
        len(list(src.glob("*.json")))


def test_non_utf8_scenario_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"kind": "validate", "note": "\xff"}')
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("input error: scenario is not UTF-8 text: ")
    assert "0xff" in err


def test_corpus_reports_non_utf8_scenario_and_goes_on(tmp_path, capsys):
    src = cli.default_corpus_dir()
    work = tmp_path / "corpus"
    shutil.copytree(src, work)
    (work / "aaa_latin1.json").write_bytes(b"\xff")
    code, out, _ = run_cli(["corpus", str(work)], capsys)
    assert code == 2
    lines = out.splitlines()
    assert lines[0].startswith("aaa_latin1.json: input error: scenario is "
                               "not UTF-8 text: ")
    assert sum(line.endswith(": match") for line in lines) == \
        len(list(src.glob("*.json")))


def test_corpus_reads_each_scenario_once(capsys, monkeypatch):
    reads = []
    read = cli._read_scenario

    def counted(path):
        reads.append(Path(path).name)
        return read(path)

    monkeypatch.setattr(cli, "_read_scenario", counted)
    code, out, _ = run_cli(["corpus"], capsys)
    assert code == 0
    assert sorted(reads) == sorted(p.name for p in
                                   cli.default_corpus_dir().glob("*.json"))


def test_corpus_update_rewrites(tmp_path, capsys):
    src = cli.default_corpus_dir()
    work = tmp_path / "corpus"
    shutil.copytree(src, work)
    victim = sorted(work.glob("*.expected.txt"))[0]
    victim.write_text("wrong\n")
    code, out, _ = run_cli(["corpus", str(work), "--update"], capsys)
    assert code == 0
    code, out, _ = run_cli(["corpus", str(work)], capsys)
    assert code == 0


def test_reports_byte_identical_across_thread_counts(tmp_path):
    m = samples.q8_i_module(True)
    path = write_scenario(tmp_path, "r.json", "roundtrip",
                          {"module": m.to_json()})
    outputs = set()
    for threads in (1, 2, 8):
        proc = subprocess.run(
            [sys.executable, "-m", "xmodcat.cli", "roundtrip", path,
             "--threads", str(threads)],
            capture_output=True, check=True)
        outputs.add(proc.stdout)
    assert len(outputs) == 1


@pytest.mark.parametrize("blas_threads", [None, "4"], ids=["unset", "4"])
def test_golden_reports_do_not_depend_on_blas_threads(blas_threads):
    """Each golden scenario as its own CLI process gives its golden report
    and exit code whether OPENBLAS_NUM_THREADS is unset (the CLI then
    starts numpy with one thread) or set by the caller."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    corpus = cli.default_corpus_dir()
    scenarios = sorted(corpus.glob("*.json"))
    assert len(scenarios) == 12
    for sc in scenarios:
        kind = json.loads(sc.read_text())["kind"]
        proc = subprocess.run([sys.executable, "-m", "xmodcat.cli", kind,
                               str(sc)], capture_output=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, b""), sc.name
        assert proc.stdout == sc.with_suffix(".expected.txt").read_bytes(), \
            sc.name


def test_seed_env_controls_fuzz(tmp_path, capsys, monkeypatch):
    path = write_scenario(tmp_path, "f.json", "check-axioms", {},
                          {"random_count": 3, "seed": 5})
    code, out1, _ = run_cli(["check-axioms", path], capsys)
    assert code == 0
    monkeypatch.setenv("XMODCAT_SEED", "5")
    code, out2, _ = run_cli(["check-axioms", path], capsys)
    assert out1 == out2
    monkeypatch.setenv("XMODCAT_SEED", "6")
    code, out3, _ = run_cli(["check-axioms", path], capsys)
    assert code == 0


def _entry_paths(table, path=()):
    if isinstance(table, list):
        for i, sub in enumerate(table):
            yield from _entry_paths(sub, path + (i,))
    else:
        yield path


_TWISTED = json.loads(
    (cli.default_corpus_dir() / "obstruction_twisted.json").read_text())
_COCHAIN_ENTRIES = [(name, part) + path
                    for name in ("h", "hp")
                    for part, table in sorted(_TWISTED["inputs"][name].items())
                    for path in _entry_paths(table)]


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(st.lists(st.tuples(st.sampled_from(_COCHAIN_ENTRIES),
                          st.integers(-3, 9)), max_size=4))
def test_obstruction_cochain_entries_never_escape(edits):
    """Any h/hp entries in [-3, 9] end in an exit code, never a traceback."""
    scenario = json.loads(json.dumps(_TWISTED))
    for (name, part, *path), value in edits:
        cell = scenario["inputs"][name][part]
        for i in path[:-1]:
            cell = cell[i]
        cell[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "o.json"
        path.write_text(json.dumps(scenario))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["obstruction", str(path)])
    assert code in (0, 1, 2, 3)


def _input_fields(node, path=()):
    """Every keyed entry under a scenario's inputs, with the paths below it
    that a fuzz edit may replace: each entry of a table, or the whole of an
    object."""
    for key, value in node.items():
        here = path + (key,)
        if isinstance(value, dict):
            yield here, [()]
            yield from _input_fields(value, here)
        else:
            yield here, list(_entry_paths(value))


def _scenarios(*names):
    return {name: json.loads(
                (cli.default_corpus_dir() / f"{name}.json").read_text())
            for name in names}


def _fields(scenarios):
    """(scenario name, field, paths below it) of every inputs entry."""
    return [(name, field, below)
            for name, scenario in sorted(scenarios.items())
            for field, below in _input_fields(scenario["inputs"])]


def _fuzz_pick(fields):
    """A field, and one path below it to replace."""
    return st.sampled_from(fields).flatmap(
        lambda f: st.tuples(st.just(f), st.sampled_from(f[2])))


def _run_edited(scenario, path, value, *options):
    """Exit code and stderr of the CLI on scenario with the inputs entry
    at path set to value."""
    scenario = json.loads(json.dumps(scenario))
    cell = scenario["inputs"]
    for key in path[:-1]:
        cell = cell[key]
    cell[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        scenario_path = Path(tmp) / "f.json"
        scenario_path.write_text(json.dumps(scenario))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main([scenario["kind"], str(scenario_path), *options])
    return code, err.getvalue()


# validate and cohomology-h2, then the module-taking kinds that go on to
# build a category and check its axioms
_FUZZ_SCENARIOS = _scenarios(
    "validate_q8_gamma", "validate_s3_a3", "cohomology_h2_z2",
    "cohomology_h2_z4_negation", "build_d4", "check_axioms_z4_negation",
    "roundtrip_s3")
_FUZZ_FIELDS = _fields(_FUZZ_SCENARIOS)
_FUZZ_VALUES = [-1, *range(10), "x", None, 1.5, []]


@settings(derandomize=True, deadline=None, max_examples=240, database=None)
@given(_fuzz_pick(_FUZZ_FIELDS), st.sampled_from(_FUZZ_VALUES))
def test_validate_and_h2_inputs_never_escape(pick, value):
    """One inputs entry of a validate, cohomology-h2, build-catgroup,
    check-axioms or roundtrip golden scenario set to a small or ill-typed
    value ends in an exit code, never a traceback."""
    (name, field, _), below = pick
    code, err = _run_edited(_FUZZ_SCENARIOS[name], field + below, value)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


# the kinds that search: an edit may widen a search, so these run under a
# small guard, which a widened search trips (exit 3) instead of running long;
# obstruction's edits of h and hp reach the 3-cochain decoder with ill-typed
# values.  Fields are drawn evenly, so max_examples grows with their count
# (99 here, 72 without obstruction_twisted at 200 examples).
_SEARCH_SCENARIOS = _scenarios("factor_set_q8", "classify_z2",
                               "classify_obstructed", "schreier_z2",
                               "obstruction_twisted")
_SEARCH_FIELDS = _fields(_SEARCH_SCENARIOS)


@settings(derandomize=True, deadline=None, max_examples=275, database=None)
@given(_fuzz_pick(_SEARCH_FIELDS), st.sampled_from(_FUZZ_VALUES))
def test_factor_set_classify_and_schreier_inputs_never_escape(pick, value):
    """One inputs entry of a factor-set, classify, schreier or obstruction
    golden scenario set to a small or ill-typed value ends in an exit code,
    never a traceback, under a guard of 2^16."""
    (name, field, _), below = pick
    code, err = _run_edited(_SEARCH_SCENARIOS[name], field + below, value,
                            "--guard", str(1 << 16))
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


def test_category_past_the_int32_ceiling_trips_at_any_guard(tmp_path, capsys):
    """Z_153 -> Z_153 over Z2 has 2 * 153^2 = 46818 morphisms: its tables
    fit a guard of 2^40 entries, but a flat index into them, up to
    46819^2, does not fit int32."""
    Z153 = g.cyclic(153)
    Z2 = g.cyclic(2)
    neg = g.action_from_automorphism(Z2, Z153, [(-x) % 153 for x in range(153)])
    m = samples.abelian_module(Z153, Z153, list(range(153)), Z2, neg, neg)
    path = write_scenario(tmp_path, "big.json", "build-catgroup",
                          {"module": m.to_json()})
    code, out, err = run_cli(["build-catgroup", path, "--guard", str(2 ** 40)],
                             capsys)
    assert (code, out) == (3, "")
    assert err == f"guard tripped: search space of size {46819 ** 2} " \
        f"exceeds guard {2 ** 31 - 1}\n"


def test_oversize_category_trips_the_guard(capsys):
    """A category whose tables exceed --guard entries is refused before it
    is built, in `_layout`, whichever kind builds it: build-catgroup's D4
    category (32 morphisms, 1024 entries), the reduced categories
    obstruction_twisted builds (4 morphisms, 16 entries), the
    build_catgroup(M) inside classify_obstructed's reduction (32 morphisms;
    its searches fit in 64), the category classify_z2's cocycle test
    builds on the obstruction (4 morphisms; every other build and search
    fits in 4) and schreier_z2's build_catgroup(M) (2 morphisms, 4
    entries).  At a large enough guard each gives its golden report."""
    from xmodcat.errors import SearchSpaceTooLarge

    for kind, name, small, enough in (
            ("build-catgroup", "build_d4", "16", ["--guard", "1024"]),
            ("obstruction", "obstruction_twisted", "8", []),
            ("classify", "classify_obstructed", "64", ["--guard", "1024"]),
            ("classify", "classify_z2", "8", ["--guard", "16"]),
            ("schreier", "schreier_z2", "3", ["--guard", "4"])):
        path = str(cli.default_corpus_dir() / f"{name}.json")
        with pytest.raises(SearchSpaceTooLarge) as trip:
            cli.run_scenario_text(kind, path, int(small))
        assert trip.traceback[-1].name == "_layout", name
        code, out, err = run_cli([kind, path, "--guard", small], capsys)
        assert code == 3 and out == ""
        assert "guard tripped" in err
        code, out, _ = run_cli([kind, path] + enough, capsys)
        assert code == 0
        assert out == (cli.default_corpus_dir() / f"{name}.expected.txt").read_text()


GOLDEN_JSON = Path(__file__).parent / "golden_json"


@pytest.mark.parametrize("name", sorted(
    p.stem for p in cli.default_corpus_dir().glob("*.json")))
def test_golden_json_report_is_pinned(name, tmp_path, capsys):
    """Each golden scenario's --json report, byte for byte, beside its
    stdout report and exit code.  The pinned reports live under tests/,
    since every *.json in the corpus directory is read as a scenario."""
    scenario = cli.default_corpus_dir() / f"{name}.json"
    kind = json.loads(scenario.read_text())["kind"]
    out_json = tmp_path / "report.json"
    code, out, _ = run_cli([kind, str(scenario), "--json", str(out_json)],
                           capsys)
    want = (GOLDEN_JSON / f"{name}.json").read_text()
    assert out_json.read_text() == want
    assert code == json.loads(want)["exit_code"]
    assert out == scenario.with_suffix(".expected.txt").read_text()


def test_every_golden_scenario_has_a_pinned_json_report():
    assert sorted(p.name for p in GOLDEN_JSON.glob("*.json")) == sorted(
        p.name for p in cli.default_corpus_dir().glob("*.json"))


FAILING_SCENARIO = Path(__file__).parent / "scenarios" / \
    "check_axioms_broken_actd.json"


def test_check_axioms_on_a_module_that_fails(tmp_path, capsys):
    """check-axioms on the Z/4-negation module with one entry of its
    Gamma-action on D moved, which breaks validation: its pinned stdout,
    exit code 1 and --json report.  The scenario lives under tests/, since
    every *.json in the corpus directory is read as a golden scenario."""
    out_json = tmp_path / "report.json"
    code, out, err = run_cli(["check-axioms", str(FAILING_SCENARIO),
                              "--json", str(out_json)], capsys)
    assert (code, err) == (1, "")
    assert out == FAILING_SCENARIO.with_suffix(".expected.txt").read_text()
    assert out.splitlines()[0].endswith("FAIL ('composition-typing', (9, 7))")
    assert json.loads(out_json.read_text()) == {
        "exit_code": 1, "kind": "check-axioms",
        "report": {"count": 1, "ok": False}}
