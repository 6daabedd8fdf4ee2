"""Batch front end: load a JSON scenario, dispatch to the library, emit a
deterministic report.

Exit codes: 0 all checks passed, 1 an axiom or claim failed, 2 input
error, 3 enumeration guard tripped.  Reports are byte-identical across
runs and thread counts; --threads is accepted for interface stability and
validated, the table scans are already vectorized internally.

Each run_<kind> imports the layers its kind needs, so a process loads only
those: a validate run never loads numpy.  `main` starts numpy with one
OpenBLAS thread unless OPENBLAS_NUM_THREADS is already set or numpy is
already loaded: the tables are integer, so BLAS is never called and its
thread pool would only add start-up time.
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
KINDS = ("validate", "build-catgroup", "check-axioms", "factor-set",
         "cohomology-h2", "obstruction", "schreier", "classify", "roundtrip")


class InputError(Exception):
    pass


def _read_scenario(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(obj, dict):
        raise InputError("scenario must be a JSON object")
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise InputError(f"unsupported schema_version {obj.get('schema_version')!r}")
    return obj


def _load_scenario(path, kind):
    obj = _read_scenario(path)
    if obj.get("kind") != kind:
        raise InputError(f"scenario kind {obj.get('kind')!r} does not match "
                         f"subcommand {kind!r}")
    inputs, options = obj.get("inputs", {}), obj.get("options", {})
    if not (isinstance(inputs, dict) and isinstance(options, dict)):
        raise InputError("inputs and options must be JSON objects")
    return inputs, options


def _decode(section, name, build, where="inputs", default=None):
    """build(section[name]), or default when name is absent and a default
    is given; a missing or malformed value is an InputError that names its
    path `<where>.<name>` in the scenario."""
    if name not in section:
        if default is not None:
            return default
        raise InputError(f"{where}.{name}: missing")
    try:
        return build(section[name])
    except KeyError as exc:
        raise InputError(f"{where}.{name}: missing field {exc}") from exc
    except (XmodcatError, TypeError, ValueError) as exc:
        raise InputError(f"{where}.{name}: {exc}") from exc


def _group(obj):
    return FiniteGroup(obj["table"])


def _gamma_module(gamma):
    def build(obj):
        grp = _group(obj)
        return GammaModule(grp, GammaAction(gamma, grp, obj["act"]))
    return build


def _module(inputs):
    from .crossed import BraidedGammaCrossedModule
    return _decode(inputs, "module", BraidedGammaCrossedModule.from_json)


def _cochain3(M, N):
    from .cohomology import Cochain3
    return lambda obj: Cochain3(M, N, obj["assoc"], obj["braid"],
                                obj["tensor"], obj["comp"])


def _ints(obj):
    return [int(v) for v in obj]


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
    return _decode(options, "seed", int, "options", default=0)


def _report_axioms(lines, report):
    ok = True
    for e in report.entries:
        status = "pass" if e.ok else f"FAIL x{e.fail_count} witness={e.first_witness}"
        lines.append(f"{e.key}: {status}")
        ok = ok and e.ok
    return ok


def run_validate(inputs, options, guard):
    m = _module(inputs)
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
    m = _module(inputs)
    G = build_catgroup(m, guard)
    lines = [f"objects: {G.n_obj}", f"morphisms: {G.n_mor}",
             f"grades: {G.gamma.order}",
             f"kernel-morphisms: {ker(G).n_mor}"]
    data = {"objects": G.n_obj, "morphisms": G.n_mor,
            "grades": G.gamma.order}
    if _decode(options, "dump", _bool, "options", default=False):
        data["category"] = G.to_json()
    return 0, lines, data


def run_check_axioms(inputs, options, guard):
    from . import samples
    from .catgroups import build_catgroup, check_axioms
    mods = []
    if "module" in inputs:
        mods.append(_module(inputs))
    count = _decode(options, "random_count", int, "options", default=0)
    symmetric = _decode(options, "symmetric", _bool, "options", default=False)
    if count:
        mods.extend(samples.random_corpus(_seed(options), count))
    if not mods:
        raise InputError("check-axioms needs a module or a random_count")
    lines = []
    all_ok = True
    for i, m in enumerate(mods):
        G = build_catgroup(m, guard)
        rep = check_axioms(G, symmetric=symmetric)
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
    m = _module(inputs)
    G = build_catgroup(m, guard)
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
    gamma = _decode(inputs, "gamma", _group)
    Q = _decode(inputs, "Q", _gamma_module(gamma))
    B = _decode(inputs, "B", _gamma_module(gamma))
    method = _decode(options, "method", _h2_method, "options", default="snf")
    res = h2(Q, B, guard=guard, method=method)
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
    gamma = _decode(inputs, "gamma", _group)
    M = _decode(inputs, "M", _gamma_module(gamma))
    N = _decode(inputs, "N", _gamma_module(gamma))
    Mp = _decode(inputs, "Mp", _gamma_module(gamma))
    Np = _decode(inputs, "Np", _gamma_module(gamma))
    h = _decode(inputs, "h", _cochain3(M, N))
    hp = _decode(inputs, "hp", _cochain3(Mp, Np))
    phi = _decode(inputs, "phi", _ints)
    f = _decode(inputs, "f", _ints)
    decide = _decode(options, "decide_vanishing", _bool, "options",
                     default=True)
    k = obstruction(phi, f, h, hp, Qmod=M)
    ok3, wit = is_3cocycle(k, guard)
    lines = [f"cocycle: {ok3}" + ("" if ok3 else f" witness={wit}")]
    data = {"obstruction": k.to_json(), "cocycle": ok3}
    if decide:
        vanish = class_vanishes(k, (M, N, h), (Mp, Np, hp), phi, f,
                                guard=guard)
        lines.append(f"vanishes: {vanish}")
        data["vanishes"] = vanish
    lines.append("result: all-pass" if ok3 else "result: axiom-failure")
    return (0 if ok3 else 1), lines, data


def run_schreier(inputs, options, guard):
    from .extensions import schreier_bijection_check
    m = _module(inputs)
    Q = _decode(inputs, "Q", _gamma_module(m.gamma))
    psi = _decode(inputs, "psi", _ints)
    rep = schreier_bijection_check(m, Q, psi, guard=guard)
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
    m = _module(inputs)
    Q = _decode(inputs, "Q", _gamma_module(m.gamma))
    psi = _decode(inputs, "psi", _ints)
    res = classify(m, Q, psi, guard=guard)
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
    m = _module(inputs)
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


RUNNERS = {
    "validate": run_validate,
    "build-catgroup": run_build_catgroup,
    "check-axioms": run_check_axioms,
    "factor-set": run_factor_set,
    "cohomology-h2": run_cohomology_h2,
    "obstruction": run_obstruction,
    "schreier": run_schreier,
    "classify": run_classify,
    "roundtrip": run_roundtrip,
}


def run_scenario_text(kind, path, guard):
    """Execute one scenario; returns (exit_code, report_text, data)."""
    inputs, options = _load_scenario(path, kind)
    code, lines, data = RUNNERS[kind](inputs, options, guard)
    text = "\n".join(lines) + "\n"
    return code, text, data


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
            kind = _read_scenario(sc).get("kind")
            if kind not in RUNNERS:
                raise InputError(f"unknown kind {kind!r}")
            code, text, _ = run_scenario_text(kind, sc, guard)
        except SearchSpaceTooLarge as exc:
            print(f"{sc.name}: guard tripped: {exc}")
            worst = max(worst, 3)
            continue
        except (InputError, XmodcatError) as exc:
            print(f"{sc.name}: input error: {exc}")
            worst = max(worst, 2)
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
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} scenario file")
        p.add_argument("scenario", help="path to the scenario JSON file")
        p.add_argument("--json", dest="json_path", default=None,
                       help="also write the report as JSON to this path")
        p.add_argument("--guard", type=int, default=DEFAULT_GUARD,
                       help="enumeration guard (candidate count)")
        p.add_argument("--threads", type=int, default=1,
                       help="parallelism degree (reports are identical at any value)")
    p = sub.add_parser("corpus", help="run the bundled golden scenarios")
    p.add_argument("path", nargs="?", default=None,
                   help="scenario directory (bundled corpus by default)")
    p.add_argument("--update", action="store_true",
                   help="rewrite the expected reports")
    p.add_argument("--guard", type=int, default=DEFAULT_GUARD)
    p.add_argument("--threads", type=int, default=1)
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
    if getattr(args, "threads", 1) < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return 2
    if args.command == "corpus":
        return run_corpus(args.path, args.update, args.guard)
    try:
        code, text, data = run_scenario_text(args.command, args.scenario,
                                             args.guard)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except SearchSpaceTooLarge as exc:
        print(f"guard tripped: {exc}", file=sys.stderr)
        return 3
    except XmodcatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump({"kind": args.command, "exit_code": code, "report": data},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
