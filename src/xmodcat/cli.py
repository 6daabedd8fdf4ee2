"""Batch front end: load a JSON scenario, dispatch to the library, emit a
deterministic report.

Exit codes: 0 all checks passed, 1 an axiom or claim failed, 2 input
error, 3 enumeration guard tripped.  Reports are byte-identical across
runs and thread counts; --threads is accepted for interface stability and
validated, the table scans are already vectorized internally.

Each runner and input decoder imports the layers it needs, so a process
loads only those of its kind: a validate run never loads numpy.  `main`
starts numpy with one OpenBLAS thread unless OPENBLAS_NUM_THREADS is
already set or numpy is already loaded: the tables are integer, so BLAS is
never called and its thread pool would only add start-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import DEFAULT_GUARD, SearchSpaceTooLarge, XmodcatError
from .groups import FiniteGroup, GammaAction, GammaModule

SCHEMA_VERSION = 1


class InputError(Exception):
    pass


def _refusal(exc):
    """The exit code and label of a scenario refused with exc."""
    if isinstance(exc, SearchSpaceTooLarge):
        return 3, "guard tripped"
    return 2, "input error"


def _read_scenario(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read scenario: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"scenario is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise InputError("scenario is nested too deeply to read") from exc
    if not isinstance(obj, dict):
        raise InputError("scenario must be a JSON object")
    version = obj.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise InputError(f"unsupported schema_version {version!r}")
    return obj


def _run_scenario(kind, obj, guard):
    """Execute the scenario obj, read by `_read_scenario`, which must be of
    the given kind; returns (exit_code, report_text, data)."""
    if obj.get("kind") != kind:
        raise InputError(f"scenario kind {obj.get('kind')!r} does not match "
                         f"subcommand {kind!r}")
    inputs, options = obj.get("inputs", {}), obj.get("options", {})
    if not (isinstance(inputs, dict) and isinstance(options, dict)):
        raise InputError("inputs and options must be JSON objects")
    _integer_leaves(inputs)
    run, reads, known = KINDS[kind]
    decoded = {name: default for name, (_, default) in known.items()}
    for name, value in options.items():
        if name not in known:
            raise InputError(f"options.{name}: unknown option")
        try:
            decoded[name] = known[name][0](value)
        except (TypeError, ValueError) as exc:
            raise InputError(f"options.{name}: {exc}") from exc
    code, lines, data = run(_decode_inputs(inputs, reads), decoded, guard)
    return code, "\n".join(lines) + "\n", data


def _integer_leaves(inputs):
    """Refuse, with an InputError that names its path, the first leaf of
    inputs in document order that is not a JSON integer: every input is a
    table of indices, and a float, bool, string or null is never read as
    one."""
    todo = [("inputs", inputs)]
    while todo:
        path, node = todo.pop()
        if isinstance(node, dict):
            todo.extend(reversed([(f"{path}.{k}", v) for k, v in node.items()]))
        elif isinstance(node, list):
            todo.extend(reversed([(f"{path}[{i}]", v) for i, v in enumerate(node)]))
        else:
            try:
                _int(node)
            except TypeError as exc:
                raise InputError(f"{path}: {exc}") from exc


def _decode_inputs(inputs, reads):
    """The inputs a kind reads, decoded in the order of reads; an unread,
    missing or malformed input is an InputError that names its path
    `inputs.<name>` in the scenario."""
    names = [read.rstrip("?") for read in reads]
    for name in inputs:
        if name not in names:
            raise InputError(f"inputs.{name}: unknown input")
    decoded = {}
    for name, read in zip(names, reads):
        if name in inputs:
            try:
                decoded[name] = INPUTS[name](inputs[name], decoded)
            except KeyError as exc:
                raise InputError(f"inputs.{name}: missing field {exc}") from exc
            except (XmodcatError, TypeError, ValueError) as exc:
                raise InputError(f"inputs.{name}: {exc}") from exc
        elif name == read:
            raise InputError(f"inputs.{name}: missing")
    return decoded


def _crossed_module(obj, decoded):
    from .crossed import BraidedGammaCrossedModule
    return BraidedGammaCrossedModule.from_json(obj)


def _gamma_module(obj, decoded):
    """A Γ-module over the scenario's gamma, or else its module's."""
    gamma = decoded["gamma"] if "gamma" in decoded else decoded["module"].gamma
    grp = FiniteGroup.from_json(obj)
    return GammaModule(grp, GammaAction(gamma, grp, obj["act"]))


def _cochain3(M, N):
    def decode(obj, decoded):
        from .cohomology import Cochain3
        return Cochain3.from_json(decoded[M], decoded[N], obj)
    return decode


# One decoder per input name: (its JSON value, the inputs decoded before
# it) -> the object a runner receives.
INPUTS = {
    "module": _crossed_module,
    "gamma": lambda obj, decoded: FiniteGroup.from_json(obj),
    **dict.fromkeys(("Q", "B", "M", "N", "Mp", "Np"), _gamma_module),
    "h": _cochain3("M", "N"),
    "hp": _cochain3("Mp", "Np"),
    **dict.fromkeys(("phi", "f", "psi"),
                    lambda obj, decoded: [int(v) for v in obj]),
}


def _int(obj):
    if type(obj) is not int:
        raise TypeError(f"expected an integer, got {json.dumps(obj)}")
    return obj


def _count(obj):
    if _int(obj) < 0:
        raise ValueError(f"expected at least 0, got {obj}")
    return obj


def _bool(obj):
    if not isinstance(obj, bool):
        raise TypeError(f"expected true or false, got {json.dumps(obj)}")
    return obj


def _h2_method(obj):
    if obj not in ("snf", "brute", "both"):
        raise ValueError(
            f'expected "snf", "brute" or "both", got {json.dumps(obj)}')
    return obj


def _seed(options):
    env = os.environ.get("XMODCAT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InputError(f"XMODCAT_SEED must be an integer: {env!r}") from exc
    return options["seed"]


def _report_axioms(lines, report):
    ok = True
    for e in report.entries:
        status = "pass" if e.ok else f"FAIL x{e.fail_count} witness={e.first_witness}"
        lines.append(f"{e.key}: {status}")
        ok = ok and e.ok
    return ok


def run_validate(inputs, options, guard):
    m = inputs["module"]
    report = m.validate()
    lines = [f"module |B|={m.B.order} |D|={m.D.order} |gamma|={m.gamma.order}"]
    ok = _report_axioms(lines, report)
    lines.append(f"result: {'all-pass' if ok else 'axiom-failure'}")
    data = {"ok": ok,
            "axioms": {e.key: {"ok": e.ok, "fail_count": e.fail_count,
                               "witness": e.first_witness}
                       for e in report.entries}}
    return (0 if ok else 1), lines, data


def run_build_catgroup(inputs, options, guard):
    from .catgroups import build_catgroup, ker
    G = build_catgroup(inputs["module"], guard)
    lines = [f"objects: {G.n_obj}", f"morphisms: {G.n_mor}",
             f"grades: {G.gamma.order}",
             f"kernel-morphisms: {ker(G).n_mor}"]
    data = {"objects": G.n_obj, "morphisms": G.n_mor,
            "grades": G.gamma.order}
    if options["dump"]:
        data["category"] = G.to_json()
    return 0, lines, data


def run_check_axioms(inputs, options, guard):
    from . import samples
    from .catgroups import build_catgroup, check_axioms
    mods = [inputs["module"]] if "module" in inputs else []
    count = options["random_count"]
    if count:
        mods.extend(samples.random_corpus(_seed(options), count))
    if not mods:
        raise InputError("check-axioms needs a module or a random_count")
    lines = []
    all_ok = True
    for i, m in enumerate(mods):
        G = build_catgroup(m, guard)
        rep = check_axioms(G, symmetric=options["symmetric"])
        ok = rep.ok and m.is_valid
        all_ok = all_ok and ok
        first = rep.first_failure() or m.validate().first_failure()
        lines.append(f"module[{i}] |B|={m.B.order} |D|={m.D.order} "
                     f"|gamma|={m.gamma.order}: "
                     + ("pass" if ok else f"FAIL {first}"))
    lines.append(f"result: {'all-pass' if all_ok else 'axiom-failure'}")
    return (0 if all_ok else 1), lines, {"ok": all_ok, "count": len(mods)}


def run_factor_set(inputs, options, guard):
    from .catgroups import build_catgroup
    from .functors import (extract_factor_set, is_regular_factor_set,
                           validate_factor_set)
    G = build_catgroup(inputs["module"], guard)
    fs = extract_factor_set(G)
    rep = validate_factor_set(fs)
    lines = []
    ok = _report_axioms(lines, rep)
    theta_id = fs.theta_is_identity()
    regular = is_regular_factor_set(fs)
    lines.append(f"theta-identity: {theta_id}")
    lines.append(f"regular: {regular}")
    lines.append(f"result: {'all-pass' if ok and regular else 'axiom-failure'}")
    data = {"ok": ok, "theta_identity": theta_id, "regular": regular}
    return (0 if ok and regular else 1), lines, data


def run_cohomology_h2(inputs, options, guard):
    from .cohomology import h2
    res = h2(inputs["Q"], inputs["B"], guard=guard, method=options["method"])
    lines = [f"invariants: {res.invariants}",
             f"class-count: {res.class_count}",
             f"method: {res.method}"]
    for i, rep in enumerate(res.representatives):
        lines.append(f"representative[{i}]: qq={rep.qq} qgamma={rep.qg}")
    data = {"invariants": res.invariants, "class_count": res.class_count,
            "representatives": [rep.to_json() for rep in res.representatives]}
    return 0, lines, data


def run_obstruction(inputs, options, guard):
    from .cohomology import class_vanishes, is_3cocycle, obstruction
    h, hp, phi, f = (inputs[name] for name in ("h", "hp", "phi", "f"))
    k = obstruction(phi, f, h, hp, Qmod=h.M)
    ok3, wit = is_3cocycle(k, guard)
    lines = [f"cocycle: {ok3}" + ("" if ok3 else f" witness={wit}")]
    data = {"obstruction": k.to_json(), "cocycle": ok3}
    if options["decide_vanishing"]:
        vanish = class_vanishes(k, (h.M, h.N, h), (hp.M, hp.N, hp), phi, f,
                                guard=guard)
        lines.append(f"vanishes: {vanish}")
        data["vanishes"] = vanish
    lines.append("result: all-pass" if ok3 else "result: axiom-failure")
    return (0 if ok3 else 1), lines, data


def run_schreier(inputs, options, guard):
    from .extensions import schreier_bijection_check
    rep = schreier_bijection_check(inputs["module"], inputs["Q"],
                                   inputs["psi"], guard=guard)
    lines = [f"functor-classes: {rep.functor_class_count}",
             f"extension-classes: {rep.extension_class_count}",
             f"well-defined: {rep.well_defined}",
             f"injective: {rep.injective}",
             f"surjective: {rep.surjective}",
             f"reverse-homotopies: {rep.reverse_homotopies}",
             f"result: {'all-pass' if rep.ok else 'claim-failure'}"]
    data = {"functor_classes": rep.functor_class_count,
            "extension_classes": rep.extension_class_count,
            "ok": rep.ok}
    return (0 if rep.ok else 1), lines, data


def run_classify(inputs, options, guard):
    from .extensions import classify
    from .groups import abelian_invariants
    res = classify(inputs["module"], inputs["Q"], inputs["psi"], guard=guard)
    lines = [f"obstructed: {res.obstructed}"]
    if not res.obstructed:
        lines.append(f"h2-invariants: {res.h2_invariants}")
        lines.append(f"class-count: {res.class_count}")
        for i, e in enumerate(res.representatives):
            lines.append(f"representative[{i}]: |E|={e.E.group.order} "
                         f"invariants={abelian_invariants(e.E.group)}")
    lines.append("result: all-pass")
    return 0, lines, res.to_json()


def run_roundtrip(inputs, options, guard):
    from .catgroups import build_catgroup, check_axioms
    from .crossed import identity_morphism
    from .functors import (catgroup_to_crossed, check_graded_functor,
                           functor_to_morphism, morphism_to_functor)
    m = inputs["module"]
    G = build_catgroup(m, guard)
    rep = check_axioms(G)
    m2 = catgroup_to_crossed(G)
    G2 = build_catgroup(m2, guard)
    rebuilt_equal = (G2 == G)
    mid = identity_morphism(m)
    Fid = morphism_to_functor(mid, G, G)
    functor_ok = check_graded_functor(Fid).ok
    back = functor_to_morphism(Fid) == mid
    ok = rep.ok and rebuilt_equal and functor_ok and back
    lines = [f"axioms: {rep.ok}",
             f"rebuilt-category-equal: {rebuilt_equal}",
             f"identity-translation-coherent: {functor_ok}",
             f"identity-translation-roundtrip: {back}",
             f"result: {'all-pass' if ok else 'claim-failure'}"]
    data = {"ok": ok, "rebuilt_equal": rebuilt_equal}
    return (0 if ok else 1), lines, data


# Each kind: its runner, the inputs it reads in decode order (a trailing
# "?" marks an optional one) and its options as name: (decoder, default).
# Any other input or option is an input error.
KINDS = {
    "validate": (run_validate, ("module",), {}),
    "build-catgroup": (run_build_catgroup, ("module",),
                       {"dump": (_bool, False)}),
    "check-axioms": (run_check_axioms, ("module?",),
                     {"random_count": (_count, 0), "seed": (_int, 0),
                      "symmetric": (_bool, False)}),
    "factor-set": (run_factor_set, ("module",), {}),
    "cohomology-h2": (run_cohomology_h2, ("gamma", "Q", "B"),
                      {"method": (_h2_method, "snf")}),
    "obstruction": (run_obstruction,
                    ("gamma", "M", "N", "Mp", "Np", "h", "hp", "phi", "f"),
                    {"decide_vanishing": (_bool, True)}),
    "schreier": (run_schreier, ("module", "Q", "psi"), {}),
    "classify": (run_classify, ("module", "Q", "psi"), {}),
    "roundtrip": (run_roundtrip, ("module",), {}),
}


def run_scenario_text(kind, path, guard):
    """Execute the scenario file at path; returns (exit_code, report_text,
    data)."""
    return _run_scenario(kind, _read_scenario(path), guard)


def default_corpus_dir():
    return Path(__file__).resolve().parent / "corpus"


def run_corpus(path, update, guard):
    base = Path(path) if path else default_corpus_dir()
    scenarios = sorted(base.glob("*.json"))
    if not scenarios:
        print(f"no scenario files under {base}")
        return 2
    # Load every layer up front: compiled later, on a heap the scenarios
    # have grown, they raise this process's peak RSS.
    from . import extensions, samples  # noqa: F401
    worst = 0
    for sc in scenarios:
        try:
            obj = _read_scenario(sc)
            kind = obj.get("kind")
            if not (isinstance(kind, str) and kind in KINDS):
                raise InputError(f"unknown kind {kind!r}")
            code, text, _ = _run_scenario(kind, obj, guard)
        except (InputError, XmodcatError) as exc:
            code, label = _refusal(exc)
            print(f"{sc.name}: {label}: {exc}")
            worst = max(worst, code)
            continue
        expected = sc.with_suffix(".expected.txt")
        if update:
            expected.write_text(text, encoding="utf-8")
            print(f"{sc.name}: updated")
            continue
        if not expected.exists():
            print(f"{sc.name}: missing expected report")
            worst = max(worst, 2)
            continue
        want = expected.read_text(encoding="utf-8")
        if text == want:
            print(f"{sc.name}: match")
            worst = max(worst, code)
        else:
            got_lines = text.splitlines()
            want_lines = want.splitlines()
            diff_at = next((i for i, (a, b) in
                            enumerate(zip(want_lines, got_lines)) if a != b),
                           min(len(want_lines), len(got_lines)))
            print(f"{sc.name}: DIFF at line {diff_at + 1}")
            worst = max(worst, 1)
    return worst


def build_parser():
    parser = argparse.ArgumentParser(
        prog="xmodcat",
        description="Validate, build, and classify finite braided equivariant "
                    "crossed modules and their graded categorical groups.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--guard", type=int, default=DEFAULT_GUARD,
                        help="enumeration guard (candidate count)")
    common.add_argument("--threads", type=int, default=1,
                        help="parallelism degree (reports are identical at any value)")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, parents=[common],
                           help=f"run a {kind} scenario file")
        p.add_argument("scenario", help="path to the scenario JSON file")
        p.add_argument("--json", dest="json_path", default=None,
                       help="also write the report as JSON to this path")
    p = sub.add_parser("corpus", parents=[common],
                       help="run the bundled golden scenarios")
    p.add_argument("path", nargs="?", default=None,
                   help="scenario directory (bundled corpus by default)")
    p.add_argument("--update", action="store_true",
                   help="rewrite the expected reports")
    return parser


def main(argv=None):
    # Every numpy array here is an integer index table and integer products
    # run in numpy's own loops, never in BLAS, so the thread pool OpenBLAS
    # starts when numpy loads is pure start-up cost: on 2 vCPUs it adds
    # about 70 ms of CPU, and of wall time unless the other core is idle,
    # to a 0.25 s `import numpy`.  A value already set is kept, and a
    # caller that has loaded numpy sees no change to its environment.
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return 2
    if args.command == "corpus":
        return run_corpus(args.path, args.update, args.guard)
    try:
        code, text, data = run_scenario_text(args.command, args.scenario,
                                             args.guard)
        sys.stdout.write(text)
        if args.json_path:
            try:
                with open(args.json_path, "w", encoding="utf-8") as fh:
                    json.dump({"kind": args.command, "exit_code": code,
                               "report": data}, fh, indent=2, sort_keys=True)
                    fh.write("\n")
            except OSError as exc:
                raise InputError(f"cannot write report: {exc}") from exc
    except (InputError, XmodcatError) as exc:
        code, label = _refusal(exc)
        print(f"{label}: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
