"""Cross-module invariants quantified over instance families."""

import itertools
import random

import numpy as np
import pytest

from xmodcat import catgroups as cg
from xmodcat import cohomology as ch
from xmodcat import extensions as ex
from xmodcat import functors as fn
from xmodcat import groups as g
from xmodcat import samples
from xmodcat.errors import SearchSpaceTooLarge

Z2 = g.cyclic(2)
Z4 = g.cyclic(4)
TRIV = g.trivial_group()


def module(G, gamma=None, alpha=None):
    gamma = gamma or TRIV
    if alpha is None:
        return g.GammaModule(G, g.trivial_action(gamma, G))
    return g.GammaModule(G, g.action_from_automorphism(gamma, G, alpha))


def test_built_categories_are_strict():
    for m in samples.standard_corpus():
        G = cg.build_catgroup(m)
        objs = np.arange(G.n_obj)
        expect = G.idm[G.tob[G.tob[objs[:, None, None], objs[None, :, None]],
                             objs[None, None, :]]]
        assert np.array_equal(G.aset, expect)
        assert np.array_equal(G.lset, G.idm)
        assert np.array_equal(G.rset, G.idm)
        assert np.array_equal(G.tob, m.D.np_table)


def test_class_count_is_zero_or_h2():
    neg4 = [0, 3, 2, 1]
    cases = [
        (module(Z2), module(Z2), None),
        (module(Z4), module(Z2), None),
        (module(Z2, Z2), module(Z2, Z2), None),
        (module(Z4, Z2, neg4), module(Z2, Z2), None),
    ]
    rng = random.Random(40)
    for Qm, Nm, _ in cases:
        D = cg.dis(Qm)
        expected = ch.h2(Qm, Nm).class_count
        for trial in range(4):
            h = ch.random_cochain3(Qm, Nm, rng)
            if not ch.is_3cocycle(h)[0]:
                continue
            T = cg.build_reduced(Qm, Nm, h)
            classes = fn.homotopy_classes(D, T, phi=list(range(Qm.group.order)))
            assert len(classes) in (0, expected), (Qm, Nm, len(classes))


def test_vanishing_stable_under_witness_perturbation():
    # shifting a found comparison witness by any homotopy keeps it coherent
    # and inside the enumerated set, so the existence verdict is unchanged
    Qm = module(Z2)
    G0 = cg.build_reduced(Qm, Qm)
    D = cg.dis(Qm)
    functors = fn.enumerate_functors(D, G0, phi=[0, 1])
    assert functors
    keys = {F.key() for F in functors}
    F = functors[0]
    for combo in itertools.product(*[fn._allowed(G0, int(F.obj[x]), int(F.obj[x]))
                                     for x in range(D.n_obj)]):
        theta = list(combo)
        if int(theta[D.unit]) != int(G0.idm[G0.unit]):
            continue
        shifted_obj = F.obj.copy()
        shifted_mor = np.array([
            int(G0.comp[theta[int(D.tgt[m])],
                        int(G0.comp[F.mor[m],
                                    G0.inv[theta[int(D.src[m])]]])])
            for m in range(D.n_mor)])
        shifted_ft = np.array([
            [int(G0.comp[theta[int(D.tob[x, y])],
                         int(G0.comp[F.ftilde[x, y],
                                     G0.inv[int(G0.tmor[theta[x], theta[y]])]]
                             )])
             for y in range(D.n_obj)] for x in range(D.n_obj)])
        shifted = fn.GradedFunctor(D, G0, shifted_obj, shifted_mor,
                                   shifted_ft, F.fstar)
        assert fn.check_graded_functor(shifted).ok
        assert shifted.key() in keys
        assert fn.find_homotopy(F, shifted) is not None


def test_search_guards_raise():
    # each trip reports the whole search space: 8^6 cocycle tables, 8^3
    # coboundaries, one object map times 2^6 comparison tables, and the
    # 2 translates of the one non-unit fibre
    Qm = module(Z4)
    B8 = module(g.cyclic(8))
    with pytest.raises(SearchSpaceTooLarge) as trip:
        ch.enumerate_symmetric_cocycles(Qm, B8, guard=10)
    assert trip.value.size == 262144
    with pytest.raises(SearchSpaceTooLarge) as trip:
        ch.all_coboundaries(Qm, B8, guard=10)
    assert trip.value.size == 512
    M = samples.abelian_module(Z2, TRIV, [0, 0])
    T = cg.build_catgroup(M)
    D = cg.dis(Qm)
    with pytest.raises(SearchSpaceTooLarge) as trip:
        fn.enumerate_functors(D, T, phi=[0] * 4, guard=1)
    assert trip.value.size == 64
    ext = ex.extension_from_functor(
        fn.homotopy_classes(cg.dis(module(Z2)), T, phi=[0, 0])[0][0])
    with pytest.raises(SearchSpaceTooLarge) as trip:
        ex.are_equivalent(ext, ext, guard=0)
    assert trip.value.size == 2


def test_cli_guard_exit_code(tmp_path, capsys):
    import json

    from xmodcat import cli

    m = samples.abelian_module(Z2, TRIV, [0, 0])
    path = tmp_path / "s.json"
    path.write_text(json.dumps({
        "schema_version": 1, "kind": "schreier",
        "inputs": {"module": m.to_json(),
                   "Q": {"table": [[0, 1], [1, 0]], "act": [[0, 1]]},
                   "psi": [0, 0]},
        "options": {}}))
    code = cli.main(["schreier", str(path), "--guard", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert "guard" in err


def test_schreier_counts_equal_h2_when_unobstructed():
    M = samples.abelian_module(Z4, Z2, [0, 1, 0, 1])
    Qm = module(Z2)
    rep = ex.schreier_bijection_check(M, Qm, [0, 0])
    assert rep.ok
    assert rep.functor_class_count == ch.h2(Qm, M.pi1()).class_count


def test_classify_count_matches_exhaustive_enumeration():
    neg = g.action_from_automorphism(Z2, Z4, [0, 3, 2, 1])
    cases = [
        (samples.abelian_module(Z2, TRIV, [0, 0]), module(Z2), [0, 0]),
        (samples.abelian_module(Z4, TRIV, [0] * 4, Z2, neg,
                                g.trivial_action(Z2, TRIV)),
         module(Z2, Z2), [0, 0]),
        (samples.abelian_module(Z2, Z4, [0, 2]), module(Z2), [0, 1]),
    ]
    for M, Qm, psi in cases:
        res = ex.classify(M, Qm, psi)
        rep = ex.schreier_bijection_check(M, Qm, psi)
        assert not res.obstructed
        assert res.class_count == rep.extension_class_count
