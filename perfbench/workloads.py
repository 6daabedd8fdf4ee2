"""The four workloads: seeded inputs, one pass, and an independent oracle.

A workload is a list of `Instance`s.  `build_<name>(seed, root)` makes the
inputs from the seed and only hands the library those inputs; `oracle_<name>`
fills in each instance's expected verdict by a route other than the timed
call, outside the timed region.  `run_pass` runs every instance once on a
fresh copy of its inputs, so no pass sees caches a previous pass filled.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from xmodcat import (catgroups, cli, cohomology, crossed, extensions,
                     functors, groups, samples)

DEFAULT_GUARD = 2 ** 32


@dataclass
class Instance:
    """One call into the program.  `run(*args)` returns an outcome;
    `verdict(outcome)` is the part the oracle predicts, and `expected` is
    the oracle's value for it."""
    name: str
    part: str
    run: Callable
    args: tuple
    expected: Any = None
    verdict: Callable = field(default=lambda outcome: outcome[0])


@dataclass
class PassResult:
    wall_s: float
    parts: dict
    outcomes: list
    failures: list


def run_pass(instances):
    """One pass: every instance once, timed; an exception (a guard trip
    included) is that instance's outcome, so it counts as a failure."""
    parts = dict.fromkeys((i.part for i in instances), 0.0)
    outcomes, failures = [], []
    wall = 0.0
    for inst in instances:
        args = copy.deepcopy(inst.args)
        t0 = time.perf_counter()
        try:
            out = inst.run(*args)
        except Exception as exc:  # recorded as this instance's failure
            out = ("error", f"{type(exc).__name__}: {exc}")
        dt = time.perf_counter() - t0
        parts[inst.part] += dt
        wall += dt
        outcomes.append(out)
        if out[0] == "error" or inst.verdict(out) != inst.expected:
            failures.append(f"{inst.name}: got {_short(inst.verdict(out))}, "
                            f"expected {_short(inst.expected)}")
    return PassResult(wall, parts, outcomes, failures)


def _short(value, limit=160):
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


# -- seeded relabelling ---------------------------------------------------------
# Isomorphic copies keep every invariant and every search size, so the work
# of a pass does not depend on the seed, while the tables the program sees do.

def _perm(rng, n):
    rest = list(range(1, n))
    rng.shuffle(rest)
    return [0] + rest


def _relabel_group(G, p):
    n = G.order
    tbl = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            tbl[p[a]][p[b]] = p[G.mul(a, b)]
    return groups.FiniteGroup(tbl)


def _relabel_rows(rows, p_dom, p_val):
    out = []
    for row in rows:
        new = [0] * len(row)
        for x, v in enumerate(row):
            new[p_dom[x]] = p_val[v]
        out.append(new)
    return out


def _relabel_gmodule(Mod, p):
    G = _relabel_group(Mod.group, p)
    return groups.GammaModule(
        G, groups.GammaAction(Mod.gamma, G, _relabel_rows(Mod.act.act, p, p)))


def _relabel_xmod(M, pb, pd):
    B, D = _relabel_group(M.B, pb), _relabel_group(M.D, pd)
    d = [0] * B.order
    for b, x in enumerate(M.d):
        d[pb[b]] = pd[x]
    theta = [None] * D.order
    for x, row in enumerate(_relabel_rows(M.theta, pb, pb)):
        theta[pd[x]] = row
    eta = [None] * D.order
    for x, row in enumerate(_relabel_rows(M.eta, pd, pb)):
        eta[pd[x]] = row
    gam = M.gamma
    return crossed.BraidedGammaCrossedModule(
        B, D, d, theta, eta, gam,
        groups.GammaAction(gam, B, _relabel_rows(M.act_b.act, pb, pb)),
        groups.GammaAction(gam, D, _relabel_rows(M.act_d.act, pd, pd)))


def _module(G, gamma=None, alpha=None):
    gamma = gamma or groups.trivial_group()
    if alpha is None:
        return groups.GammaModule(G, groups.trivial_action(gamma, G))
    return groups.GammaModule(G, groups.action_from_automorphism(gamma, G, alpha))


Z2 = groups.cyclic(2)
Z4 = groups.cyclic(4)
K4 = groups.klein_four()
TRIV = groups.trivial_group()
NEG4 = [0, 3, 2, 1]


# -- coherence ------------------------------------------------------------------

# Rungs of Z_n -> Z_n with Gamma = Z2 negating: n_mor = 2 n^2 = 128, 288, 512.
LADDER = (8, 12, 16)
# Mutants per rung, sized so the broken part is in the range of the valid
# part; they stay off the top rung so a pass fits twice in a run.
MUTANTS = {8: 6, 12: 3}


def ladder_module(rng, n):
    """Z_n -> Z_n, d = multiplication by a seeded k, Z2 negating both,
    relabelled by seeded permutations."""
    Zn = groups.cyclic(n)
    neg = groups.action_from_automorphism(Z2, Zn, [(-x) % n for x in range(n)])
    k = rng.randrange(n)
    m = samples.abelian_module(Zn, Zn, [(k * x) % n for x in range(n)],
                               Z2, neg, neg)
    return _relabel_xmod(m, _perm(rng, n), _perm(rng, n))


def _coherence(module):
    rep = catgroups.check_axioms(catgroups.build_catgroup(module))
    return rep.ok, rep.first_failure()


def build_coherence(seed, root=None):
    rng = random.Random(seed)
    rungs = {n: ladder_module(rng, n) for n in LADDER}
    out = [Instance(f"ladder{n}", "valid_s", _coherence, (m,))
           for n, m in rungs.items()]
    out += [Instance(f"corpus{i}", "valid_s", _coherence, (m,))
            for i, m in enumerate(samples.standard_corpus())]
    for n, count in MUTANTS.items():
        for j, (mutant, _, desc) in enumerate(
                samples.random_breaking_mutations(rng, [rungs[n]], count)):
            out.append(Instance(f"ladder{n}-mutant{j}:{desc}", "broken_s",
                                _coherence, (mutant,)))
    return out


def oracle_coherence(instances):
    for inst in instances:
        inst.expected = crossed.validate(copy.deepcopy(inst.args[0])).ok


def coherence_context():
    """Computed (not allocated) int64 table sizes of each rung, in bytes:
    `comp` + `tmor` are n_mor^2 each; the largest `nat_assoc` temporary is
    (n_mor / |Gamma|)^3."""
    out = {}
    for n in LADDER:
        n_mor = 2 * n * n
        out[f"ladder{n}.n_mor"] = n_mor
        out[f"ladder{n}.comp_tmor_bytes_computed"] = 2 * n_mor * n_mor * 8
        out[f"ladder{n}.nat_assoc_bytes_computed"] = (n_mor // 2) ** 3 * 8
    return out


# -- cohomology -----------------------------------------------------------------

def _elementary(invariants):
    """Prime-power decomposition, as a sorted tuple: equal exactly when the
    finite abelian groups are isomorphic."""
    out = []
    for m in invariants:
        p = 2
        while m > 1:
            q = 1
            while m % p == 0:
                m //= p
                q *= p
            if q > 1:
                out.append(q)
            p += 1
    return tuple(sorted(out))


def _ext(q_invariants, b_invariants):
    """Ext(Q, B) = sum over invariant factors of Z_gcd(m_i, n_j)."""
    return _elementary([math.gcd(m, n) for m in q_invariants
                        for n in b_invariants])


def _h2(Q, B, guard, method="snf"):
    res = cohomology.h2(Q, B, guard=guard, method=method)
    return (_elementary(res.invariants),
            tuple(f.flat() for f in res.representatives))


def build_cohomology(seed, root=None):
    rng = random.Random(seed)
    Z2xZ4 = groups.direct_product(Z2, Z4)
    out = []
    # Trivial Gamma: the oracle is Ext(Q, B) from the invariant factors.
    for name, Q, qinv in (("Z6/Z2", groups.cyclic(6), [6]),
                          ("Z2xZ4/Z2", Z2xZ4, [2, 4])):
        Qm = _relabel_gmodule(_module(Q), _perm(rng, Q.order))
        Bm = _relabel_gmodule(_module(Z2), _perm(rng, 2))
        inst = Instance(name, "h2_s", _h2, (Qm, Bm, DEFAULT_GUARD))
        inst.expected = _ext(qinv, [2])
        out.append(inst)
    # Gamma = Z2 acting nontrivially: the oracle is method="brute".
    for name, Q, qa, B, ba in (("K4sw/K4sw", K4, [0, 2, 1, 3], K4, [0, 2, 1, 3]),
                               ("Z4neg/Z4neg", Z4, NEG4, Z4, NEG4)):
        Qm = _relabel_gmodule(_module(Q, Z2, qa), _perm(rng, Q.order))
        Bm = _relabel_gmodule(_module(B, Z2, ba), _perm(rng, B.order))
        out.append(Instance(name, "h2_s", _h2, (Qm, Bm, DEFAULT_GUARD),
                            verdict=lambda outcome: outcome))
    return out


def oracle_cohomology(instances):
    for inst in instances:
        if inst.expected is None:
            Q, B, guard = copy.deepcopy(inst.args)
            inst.expected = _h2(Q, B, guard, method="brute")


# -- classify -------------------------------------------------------------------

def _classify(M, Q, psi, guard):
    res = extensions.classify(M, Q, psi, guard=guard)
    return res.obstructed, res.class_count, json.dumps(res.to_json(),
                                                       sort_keys=True)


def _schreier(M, Q, psi, guard):
    rep = extensions.schreier_bijection_check(M, Q, psi, guard=guard)
    return rep.ok, rep.functor_class_count, rep.extension_class_count


def _relabel_type(rng, Q, psi):
    p = _perm(rng, Q.group.order)
    new_psi = [0] * len(psi)
    for u, v in enumerate(psi):
        new_psi[p[u]] = v
    return _relabel_gmodule(Q, p), new_psi


def _schreier_suite():
    """The criterion-6 scenarios: (module, Q, psi)."""
    return [
        (samples.abelian_module(Z2, TRIV, [0, 0]), _module(Z2), [0, 0]),
        (samples.abelian_module(Z2, Z2, [0, 1]), _module(Z2), [0, 0]),
        (samples.abelian_module(Z2, TRIV, [0, 0]), _module(Z4), [0] * 4),
        (samples.abelian_module(Z4, Z2, [0, 1, 0, 1]), _module(Z4), [0] * 4),
        (samples.abelian_module(Z2, TRIV, [0, 0], Z2,
                                groups.trivial_action(Z2, Z2),
                                groups.trivial_action(Z2, TRIV)),
         _module(Z4, Z2, NEG4), [0] * 4),
        (samples.abelian_module(Z4, TRIV, [0] * 4, Z2,
                                groups.action_from_automorphism(Z2, Z4, NEG4),
                                groups.trivial_action(Z2, TRIV)),
         _module(Z2, Z2), [0, 0]),
        (samples.abelian_module(Z2, Z4, [0, 2]), _module(Z2), [0, 1]),
    ]


def build_classify(seed, root=None):
    rng = random.Random(seed)
    out = []
    # Unobstructed: B = Z4, D = 1, Q = Z4; the search runs to exhaustion.
    M = samples.abelian_module(Z4, TRIV, [0] * 4)
    Q, psi = _relabel_type(rng, _module(Z4), [0] * 4)
    out.append(Instance("Z4/Z4", "unobstructed_s", _classify,
                        (M, Q, psi, DEFAULT_GUARD), verdict=lambda o: o[:2]))
    # Obstructed: the classify_obstructed corpus module (Z4 -> Z4, d = 2x,
    # Gamma negating B) over Q = K4 with each surjective psi onto pi0 = Z2.
    Mo = samples.abelian_module(Z4, Z4, [0, 2, 0, 2], Z2,
                                groups.action_from_automorphism(Z2, Z4, NEG4),
                                groups.trivial_action(Z2, Z4))
    for base_psi in ([0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0]):
        Qk, psi = _relabel_type(rng, _module(K4, Z2), base_psi)
        out.append(Instance(f"K4/obstructed psi={base_psi}", "obstructed_s",
                            _classify, (Mo, Qk, psi, DEFAULT_GUARD),
                            verdict=lambda o: o[:2]))
    for i, (Ms, Qs, psi_s) in enumerate(_schreier_suite()):
        Qs, psi_s = _relabel_type(rng, Qs, psi_s)
        out.append(Instance(f"schreier{i}", "schreier_s", _schreier,
                            (Ms, Qs, psi_s, DEFAULT_GUARD), expected=True))
    return out


def oracle_classify(instances):
    """obstructed == no functor of the type exists (the enumeration that
    homotopy_classes partitions is empty); class_count == |H2(Q, pi1)|."""
    for inst in instances:
        if inst.part == "schreier_s":
            continue
        M, Q, psi, guard = copy.deepcopy(inst.args)
        found = functors.enumerate_functors(
            catgroups.dis(Q), catgroups.build_catgroup(M), psi, guard=guard)
        obstructed = not found
        count = 0 if obstructed else cohomology.h2(Q, M.pi1()).class_count
        inst.expected = (obstructed, count)


# -- corpus ---------------------------------------------------------------------

def _scenarios(root, seed):
    base = os.path.join(root, "src", "xmodcat", "corpus")
    files = sorted(f for f in os.listdir(base) if f.endswith(".json"))
    random.Random(seed).shuffle(files)     # the seed picks the order
    return base, files


def _cli_process(root, *argv):
    """A CLI child; it inherits the worker's environment, which run.py sets
    (PYTHONPATH to src/, no XMODCAT_SEED)."""
    proc = subprocess.run([sys.executable, "-m", "xmodcat.cli", *argv],
                          capture_output=True, cwd=root, timeout=120)
    return proc.returncode, proc.stdout.decode("utf-8")


def _cli_inprocess(kind, path):
    code, text, _ = cli.run_scenario_text(kind, path, DEFAULT_GUARD)
    return code, text


def _corpus_inprocess():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run_corpus(None, False, DEFAULT_GUARD)
    return code, buf.getvalue()


def build_corpus(seed, root, inprocess=False):
    """One instance per golden scenario, each its own `python -m xmodcat.cli`
    process, then `xmodcat corpus` once.  With `inprocess`, the same calls
    run inside this process instead, where spans can see them."""
    base, files = _scenarios(root, seed)
    out = []
    for f in files:
        path = os.path.join(base, f)
        with open(path, encoding="utf-8") as fh:
            kind = json.load(fh)["kind"]
        with open(path[:-len(".json")] + ".expected.txt", encoding="utf-8") as fh:
            want = fh.read()
        if inprocess:
            run, args = _cli_inprocess, (kind, path)
        else:
            run, args = _cli_process, (root, kind, path)
        out.append(Instance(f, "scenario_s", run, args, expected=(0, want),
                            verdict=lambda o: o))
    want = "".join(f"{f}: match\n" for f in sorted(files))
    if inprocess:
        run, args = _corpus_inprocess, ()
    else:
        run, args = _cli_process, (root, "corpus")
    out.append(Instance("corpus", "batch_s", run, args, expected=(0, want),
                        verdict=lambda o: o))
    return out


def oracle_corpus(instances):
    """The expected reports are read from the golden files at build time."""


BUILD = {"coherence": build_coherence, "cohomology": build_cohomology,
         "classify": build_classify, "corpus": build_corpus}
ORACLE = {"coherence": oracle_coherence, "cohomology": oracle_cohomology,
          "classify": oracle_classify, "corpus": oracle_corpus}
