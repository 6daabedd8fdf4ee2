import itertools
import random

import numpy as np
import pytest

from xmodcat import catgroups as cg
from xmodcat import cohomology as ch
from xmodcat import crossed as xm
from xmodcat import extensions as ex
from xmodcat import functors as fn
from xmodcat import groups as g
from xmodcat import samples
from xmodcat.errors import BadChoice, NotStrict

Z2 = g.cyclic(2)
Z4 = g.cyclic(4)
Z8 = g.cyclic(8)
TRIV = g.trivial_group()


def module(G, gamma=None, alpha=None):
    gamma = gamma or TRIV
    if alpha is None:
        return g.GammaModule(G, g.trivial_action(gamma, G))
    return g.GammaModule(G, g.action_from_automorphism(gamma, G, alpha))


def test_identity_functor_coherent_and_regular():
    for m in samples.standard_corpus():
        G = cg.build_catgroup(m)
        F = fn.identity_functor(G)
        assert fn.check_graded_functor(F).ok
        assert fn.is_regular(F)


def test_canonical_factor_set_on_built_categories():
    m = samples.q8_i_module(True)
    G = cg.build_catgroup(m)
    fs = fn.extract_factor_set(G)
    assert fn.validate_factor_set(fs).ok
    assert fs.theta_is_identity()
    assert fn.is_regular_factor_set(fs)
    # the grade action on objects is the module action
    for s in range(m.gamma.order):
        for x in range(m.D.order):
            assert int(fs.obj_maps[s][x]) == m.act_d(s, x)


def test_factor_set_trivial_grading_is_identity_datum():
    m = samples.s3_a3_module(False)
    G = cg.build_catgroup(m)
    fs = fn.extract_factor_set(G)
    assert np.array_equal(fs.obj_maps[0], np.arange(G.n_obj))
    assert np.array_equal(fs.mor_maps[0], np.arange(cg.ker(G).n_mor))
    assert fs.theta_is_identity()


def test_perturbed_choices_still_give_valid_factor_set():
    # kernel-valued perturbation of the stability choices; an order-4
    # kernel element makes the comparison isomorphisms nontrivial
    m = samples.abelian_module(Z4, Z2, [0, 0, 0, 0], Z2,
                               g.trivial_action(Z2, Z4),
                               g.trivial_action(Z2, Z2))
    G = cg.build_catgroup(m)
    ups = fn.canonical_choices(G).copy()
    b0 = 1
    for x in range(G.n_obj):
        ups[1, x] = G.record(1, b0, int(G.tgt[ups[1, x]]))
    fs = fn.extract_factor_set(G, ups)
    assert fn.validate_factor_set(fs).ok
    assert not fs.theta_is_identity()


@pytest.mark.parametrize("field, key, value", [
    ("obj", "object-map-range", lambda G: G.n_obj + 5),
    ("mor", "morphism-map-range", lambda G: G.n_mor + 5),
    ("mor", "morphism-map-range", lambda G: -1),
], ids=["object-past-end", "morphism-past-end", "morphism-negative"])
def test_out_of_range_map_is_reported(field, key, value):
    G = cg.build_catgroup(samples.s3_a3_module(False))
    F = fn.identity_functor(G)
    getattr(F, field)[3] = value(G)
    rep = fn.check_graded_functor(F)
    assert [e.key for e in rep.entries] == ["object-map-range",
                                            "morphism-map-range"]
    assert rep.first_failure() == (key, (3,))
    assert rep[key].fail_count == 1


@pytest.mark.parametrize("field, key, value, where", [
    ("ftilde", "comparison-typing", lambda G: G.n_mor + 5, (1, 2)),
    ("ftilde", "comparison-typing", lambda G: -2, (1, 2)),
    ("fstar", "unit-comparison-typing", lambda G: G.n_mor + 5, (0,)),
], ids=["ftilde-past-end", "ftilde-minus-two", "fstar-past-end"])
def test_out_of_range_comparison_fails_its_typing(field, key, value, where):
    G = cg.build_catgroup(samples.s3_a3_module(False))
    F = fn.identity_functor(G)
    if field == "ftilde":
        F.ftilde[1, 2] = value(G)
    else:
        F.fstar = value(G)
    rep = fn.check_graded_functor(F)
    assert len(rep.entries) == 13
    assert not rep[key].ok
    assert rep[key].first_witness == where
    assert rep[key].fail_count == 1


def test_bad_choices_rejected():
    m = samples.s3_a3_module(True)
    G = cg.build_catgroup(m)
    ups = fn.canonical_choices(G).copy()
    ups[1, 0] = int(ups[0, 0])  # wrong grade
    with pytest.raises(BadChoice):
        fn.extract_factor_set(G, ups)


@pytest.mark.parametrize("value", [lambda G: G.n_mor + 5, lambda G: -2],
                         ids=["past-end", "minus-two"])
def test_out_of_range_choice_is_refused(value):
    G = cg.build_catgroup(samples.s3_a3_module(True))
    ups = fn.canonical_choices(G).copy()
    ups[1, 0] = value(G)
    with pytest.raises(BadChoice):
        fn.extract_factor_set(G, ups)


def test_morphism_to_functor_identity_and_strict():
    m = samples.s3_a3_module(False)
    G = cg.build_catgroup(m)
    ident = xm.identity_morphism(m)
    F = fn.morphism_to_functor(ident, G, G)
    assert F == fn.identity_functor(G)
    # zero degree-2 part gives identity comparison payloads
    assert all(int(G.pay[int(F.ftilde[x, y])]) == 0
               for x in range(6) for y in range(6))


def test_morphism_to_functor_nonzero_phi():
    m = xm.BraidedGammaCrossedModule(
        Z2, Z2, [0, 0], [[0, 1], [0, 1]], [[0, 0], [0, 0]])
    P, K = m.pi0(), m.pi1()
    phi = ch.SymmetricCochain2(P, K, [[0, 0], [0, 1]], [[0], [0]])
    ident = g.identity_hom(Z2)
    mor = xm.CrossedMorphism(m, m, ident, ident, phi)
    assert xm.validate_morphism(mor).ok
    G = cg.build_catgroup(m)
    F = fn.morphism_to_functor(mor, G, G)
    assert fn.check_graded_functor(F).ok
    assert fn.is_regular(F)
    emb = m.pi1_embedding()
    assert int(G.pay[int(F.ftilde[1, 1])]) == emb[1]
    assert fn.functor_to_morphism(F) == mor


def test_conjugation_induced_functor_extracts_zero_phi():
    # a morphism coming from an equivariant group map has no degree-2 part
    m = samples.s3_a3_module(False)
    S3 = m.D
    t = next(x for x in range(6) if S3.element_order(x) == 2)
    f0 = g.GroupHom(S3, S3, [S3.conj(t, x) for x in range(6)])
    f1 = g.GroupHom(m.B, m.B, [
        next(i for i in range(m.B.order) if m.d[i] == f0(m.d[b]))
        for b in range(m.B.order)])
    mor = xm.CrossedMorphism(m, m, f1, f0)
    assert xm.validate_morphism(mor).ok
    G = cg.build_catgroup(m)
    F = fn.morphism_to_functor(mor, G, G)
    extracted = fn.functor_to_morphism(F)
    assert extracted == mor
    assert extracted.phi.is_zero()


def test_translation_bijection_small_pair():
    M = samples.abelian_module(Z2, Z4, [0, 2])
    Mp = samples.abelian_module(Z4, Z2, [0, 1, 0, 1])
    G, T = cg.build_catgroup(M), cg.build_catgroup(Mp)
    morphs = fn.enumerate_crossed_morphisms(M, Mp)
    funcs = fn.enumerate_regular_functors(G, T)
    images = [fn.morphism_to_functor(m, G, T) for m in morphs]
    assert len({F.key() for F in images}) == len(images)
    assert {F.key() for F in images} == {F.key() for F in funcs}
    for m, F in zip(morphs, images):
        assert fn.functor_to_morphism(F) == m
    for F in funcs:
        assert fn.morphism_to_functor(fn.functor_to_morphism(F), G, T) == F


def test_catgroup_to_crossed_roundtrip_corpus():
    for m in samples.standard_corpus():
        G = cg.build_catgroup(m)
        m2 = fn.catgroup_to_crossed(G)
        assert m2 == m
        assert cg.build_catgroup(m2) == G


def test_catgroup_to_crossed_trivial_kernel():
    m = xm.BraidedGammaCrossedModule(
        TRIV, Z4, [0], [[0]] * 4, [[0] * 4 for _ in range(4)])
    G = cg.build_catgroup(m)
    m2 = fn.catgroup_to_crossed(G)
    assert m2.B.order == 1


def test_nonstrict_reduced_rejected():
    Qm = module(Z2)
    h0 = ch.zero_cochain3(Qm, Qm)
    assoc = [[[0, 0], [0, 0]], [[0, 0], [0, 1]]]
    h = ch.Cochain3(Qm, Qm, assoc, h0.braid, h0.tensor, h0.comp)
    G = cg.build_reduced(Qm, Qm, h)
    with pytest.raises(NotStrict):
        fn.catgroup_to_crossed(G)


def test_is_homotopy_identity_and_violations():
    Qm = module(Z2)
    G0 = cg.build_reduced(Qm, Qm)
    D = cg.dis(Qm)
    classes = fn.homotopy_classes(D, G0, phi=[0, 1])
    assert len(classes) == 2
    F = classes[0][0]
    ok, _ = fn.is_homotopy(G0.idm[F.obj], F, F)
    assert ok
    F2 = classes[1][0]
    ok, reason = fn.is_homotopy(G0.idm[F.obj], F, F2)
    assert not ok
    assert fn.find_homotopy(F, F2) is None


def test_homotopy_search_without_candidates_is_not_refused():
    # types [0, 1] and [0, 0] send object 1 to different grade-1 classes:
    # the unit has two candidate arrows and object 1 none, so the search has
    # no candidates at all, and no guard refuses it
    M = samples.abelian_module(Z4, Z4, [0, 2, 0, 2])
    S, T = cg.dis(module(Z2)), cg.build_catgroup(M)
    F1 = fn.enumerate_functors(S, T, phi=[0, 1])[0]
    F0 = fn.enumerate_functors(S, T, phi=[0, 0])[0]
    for guard in (1, 2):
        assert fn.find_homotopy(F1, F0, guard=guard) is None


@pytest.mark.parametrize("value", [lambda G: G.n_mor + 5, lambda G: -2],
                         ids=["past-end", "minus-two"])
def test_out_of_range_homotopy_entry_fails_typing(value):
    G = cg.build_catgroup(samples.s3_a3_module(False))
    F = fn.identity_functor(G)
    theta = G.idm[F.obj].copy()
    assert fn.is_homotopy(theta, F, F) == (True, None)
    theta[2] = value(G)
    assert fn.is_homotopy(theta, F, F) == (False, ("typing", 2))


def test_homotopy_class_counts_match_cohomology():
    Qm = module(Z2)
    G0 = cg.build_reduced(Qm, Qm)
    D = cg.dis(Qm)
    n = ch.h2(Qm, Qm).class_count
    assert len(fn.homotopy_classes(D, G0, phi=[0, 1])) == n
    assert len(fn.homotopy_classes(D, D, phi=[0, 1])) == 1


def test_obstructed_type_has_no_classes():
    Qm = module(Z2)
    h0 = ch.zero_cochain3(Qm, Qm)
    htw = ch.Cochain3(Qm, Qm, h0.assoc, [[0, 0], [0, 1]], h0.tensor, h0.comp)
    Gtw = cg.build_reduced(Qm, Qm, htw)
    assert cg.check_axioms(Gtw).ok
    assert fn.homotopy_classes(cg.dis(Qm), Gtw, phi=[0, 1]) == []


def test_normalized_enumeration_matches_full_enumeration_tiny():
    """Oracle: enumerate ALL functor records (not just normalized ones) on
    the smallest instance and partition them fully; the normalized
    enumeration must see the same number of homotopy classes."""
    Qm = module(Z2)
    G0 = cg.build_reduced(Qm, Qm)
    D = cg.dis(Qm)
    full = []
    # object map is forced; enumerate every comparison table and unit
    options = [fn._allowed(G0, int(G0.tob[u, v]), (u + v) % 2)
               for u in range(2) for v in range(2)]
    for combo in itertools.product(*options):
        for fstar in fn._allowed(G0, 0, 0):
            ft = np.array(combo, dtype=np.int64).reshape(2, 2)
            mor = np.zeros(D.n_mor, dtype=np.int64)
            for m in range(D.n_mor):
                mor[m] = G0.idm[int(D.src[m])]
            F = fn.GradedFunctor(D, G0, np.arange(2), mor, ft, fstar)
            if fn.check_graded_functor(F).ok:
                full.append(F)
    classes = fn.partition_by_homotopy(full)
    assert len(full) == 4  # two free choices survive coherence, twice fstar
    assert len(classes) == 2
    normalized = fn.homotopy_classes(D, G0, phi=[0, 1])
    assert len(normalized) == len(classes)


def test_regularity_violation_detected():
    # asymmetric comparison table on a symmetric instance
    m = xm.BraidedGammaCrossedModule(
        Z2, Z2, [0, 0], [[0, 1], [0, 1]], [[0, 0], [0, 0]])
    G = cg.build_catgroup(m)
    F = fn.identity_functor(G)
    ft = F.ftilde.copy()
    emb = m.pi1_embedding()
    ft[0, 1] = G.record(0, emb[1], int(G.tob[0, 1]))
    F2 = fn.GradedFunctor(G, G, F.obj, F.mor, ft, F.fstar)
    assert not fn.is_regular(F2)


@pytest.mark.parametrize("field, where, value", [
    ("mor", 3, lambda G: G.n_mor + 5),
    ("mor", 3, lambda G: -2),
    ("mor", -1, lambda G: G.n_mor + 5),
    ("obj", 3, lambda G: G.n_obj + 5),
    ("ftilde", 3, lambda G: G.n_mor + 5),
], ids=["morphism-past-end", "morphism-minus-two", "graded-morphism-past-end",
        "object-past-end", "comparison-past-end"])
def test_out_of_range_functor_is_not_regular(field, where, value):
    G = cg.build_catgroup(samples.s3_a3_module(True))
    F = fn.identity_functor(G)
    assert fn.is_regular(F)
    getattr(F, field).flat[where] = value(G)
    assert not fn.is_regular(F)


def test_category_without_lifts_is_not_regular():
    # the grade-1 part of a Gamma=Z2 category, graded over Z2 again: no
    # arrow has grade index 1, so there is no canonical action to respect
    K = cg.ker(cg.build_catgroup(samples.s3_a3_module(True)))
    T = cg.GradedCatGroup(Z2, K.n_obj, K.src, K.tgt, K.grd, K.pay, K.comp,
                          K.tob, K.tmor, K.unit, K.idm, K.aset, K.lset,
                          K.rset, K.cset, [K.idm[K.unit], -1])
    with pytest.raises(BadChoice, match="grade index 1 out of object 0"):
        fn.canonical_choices(T)
    assert not fn.is_regular(fn.identity_functor(T))


@pytest.mark.parametrize("x", [0, 2])
def test_theta_unit_reports_each_failing_grade_and_object(x):
    fs = fn.extract_factor_set(cg.build_catgroup(samples.s3_a3_module(True)))
    assert fn.validate_factor_set(fs)["theta-unit"].ok
    fs.theta[0][1][x] = (fs.theta[0][1][x] + 1) % fs.kernel.n_mor
    check = fn.validate_factor_set(fs)["theta-unit"]
    assert check.fail_count == 1
    assert check.witnesses == ((1, x),)


# -- _functor_into against the per-morphism record loops it replaces -----------

def _record_loop(S, T, obj, payload, qq):
    """Morphism m of S goes to the arrow of T of grade grd m into
    obj[tgt m] with payload payload(m); the comparison at (x, y) has payload
    qq(x, y)."""
    n = S.n_obj
    mor = [T.record(int(S.grd[m]), payload(m), int(obj[S.tgt[m]]))
           for m in range(S.n_mor)]
    ft = [[T.record(0, qq(x, y), int(obj[S.tob[x, y]])) for y in range(n)]
          for x in range(n)]
    return fn.GradedFunctor(S, T, obj, mor, ft, int(T.idm[T.unit]))


def _morphism_loop(mor, G, T):
    M, Bp = mor.source, mor.target.B
    proj, embp = M.pi0_projection(), mor.target.pi1_embedding()
    phi, f1 = mor.phi, mor.f1.map
    return _record_loop(
        G, T, mor.f0.map,
        lambda m: Bp.mul(embp[phi.qg[proj(int(G.src[m]))][int(G.grd[m])]],
                         f1[int(G.pay[m])]),
        lambda x, y: embp[phi.qq[proj(x)][proj(y)]])


def _z8_mod_4():
    """Z8 -> Z8, b -> 4b, gamma negating the target only: gamma moves the
    classes of Z8 / 4 and the kernel is cyclic of order 4, so the grade
    parts at the source and at the target of a graded arrow can differ."""
    neg = g.action_from_automorphism(Z2, Z8, [(-x) % 8 for x in range(8)])
    return samples.abelian_module(Z8, Z8, [(4 * b) % 8 for b in range(8)],
                                  Z2, g.trivial_action(Z2, Z8), neg)


def test_morphism_to_functor_matches_the_record_loop():
    pairs = [(M, M) for M in samples.standard_corpus() + [_z8_mod_4()]] + [
        (samples.abelian_module(Z2, Z4, [0, 2]),
         samples.abelian_module(Z4, Z2, [0, 1, 0, 1]))]
    rng = random.Random(3)
    for M, Mp in pairs:
        G, T = cg.build_catgroup(M), cg.build_catgroup(Mp)
        morphs = fn.enumerate_crossed_morphisms(M, Mp)
        # a seeded sample of at most 64 per pair
        for mor in rng.sample(morphs, min(64, len(morphs))):
            assert fn.morphism_to_functor(mor, G, T) == _morphism_loop(mor, G, T)


def test_functor_from_extension_matches_the_record_loop():
    neg = g.action_from_automorphism(Z2, Z4, [0, 3, 2, 1])
    cases = [(samples.abelian_module(Z4, Z2, [0, 1, 0, 1]), module(Z4)),
             (samples.abelian_module(Z4, TRIV, [0] * 4, Z2, neg,
                                     g.trivial_action(Z2, TRIV)),
              module(Z2, Z2)),
             (samples.abelian_module(Z2, TRIV, [0, 0], Z2,
                                     g.trivial_action(Z2, Z2),
                                     g.trivial_action(Z2, TRIV)),
              module(Z4, Z2, [0, 3, 2, 1]))]
    exts = [e for M, Q in cases for cls in ex.schreier_bijection_check(
        M, Q, [0] * Q.group.order).extension_classes for e in cls]
    assert len(exts) > 4
    for e in exts:
        f = ex.extract_section_cochain(e)
        obj = [e.eps(v) for v in e.canonical_section()]
        F = ex.functor_from_extension(e)
        assert F == _record_loop(F.source, F.target, obj,
                                 lambda m: f.qg[int(F.source.src[m])][
                                     int(F.source.grd[m])],
                                 lambda u, v: f.qq[u][v])


def test_reduce_abelian_functor_matches_the_record_loop():
    neg = g.action_from_automorphism(Z2, Z4, [0, 3, 2, 1])
    for m in [samples.abelian_module(Z4, Z4, [0, 2, 0, 2]),
              samples.abelian_module(Z4, Z4, [0, 2, 0, 2], Z2, neg,
                                     g.trivial_action(Z2, Z4)),
              _z8_mod_4()]:
        B, D, P = m.B, m.D, m.pi0()
        proj, emb = m.pi0_projection(), m.pi1_embedding()
        q = P.group.order
        # least representatives of the classes, and least preimages of
        # their defects under the product and the grade action
        reps = [min(x for x in D.elements() if proj(x) == r) for r in range(q)]

        def pre(x):
            return min(b for b in B.elements() if m.d[b] == x)

        beta = [[pre(D.mul(D.mul(reps[r], reps[s]),
                           D.inv(reps[P.group.mul(r, s)])))
                 for s in range(q)] for r in range(q)]
        gamm = [[pre(D.mul(m.act_d(s, reps[r]), D.inv(reps[P.act(s, r)])))
                 for s in range(m.gamma.order)] for r in range(q)]
        _, H = cg.reduce_abelian(m)
        S = H.source
        assert H == _record_loop(
            S, H.target, reps,
            lambda i: B.mul(emb[int(S.pay[i])],
                            gamm[int(S.src[i])][int(S.grd[i])]),
            lambda r, s: beta[r][s])
