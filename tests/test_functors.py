import itertools
import random
from functools import partial

import numpy as np
import pytest

from xmodcat import catgroups as cg
from xmodcat import cohomology as ch
from xmodcat import crossed as xm
from xmodcat import extensions as ex
from xmodcat import functors as fn
from xmodcat import groups as g
from xmodcat import samples
from xmodcat.errors import (
    BadChoice,
    FNotConstantOnCosets,
    NotCoherent,
    NotRegular,
    NotRegularFactorSet,
    NotStrict,
    WrongType,
)

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


def theta_is_identity_by_loop(fs):
    """The entrywise reference for FactorSet.theta_is_identity."""
    gam, K = fs.base.gamma, fs.kernel
    return all(fs.theta[s][t][x] == K.idm[fs.obj_maps[gam.mul(s, t)][x]]
               for s in gam.elements() for t in gam.elements()
               for x in range(K.n_obj))


def test_canonical_factor_set_on_built_categories():
    m = samples.q8_i_module(True)
    G = cg.build_catgroup(m)
    fs = fn.extract_factor_set(G)
    assert fn.validate_factor_set(fs).ok
    assert fs.theta_is_identity()
    assert theta_is_identity_by_loop(fs)
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
    assert not theta_is_identity_by_loop(fs)


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
    with pytest.raises(NotStrict) as exc:
        fn.catgroup_to_crossed(G)
    assert str(exc.value) == "associativity constraint is not the identity"


# -- every refusal of the translation layer ------------------------------------

def _z4_onto_z2():
    """Z4 -> Z2, b -> b mod 2: three grade-1 arrows into the unit besides
    its identity, with sources 1, 0, 1."""
    return cg.build_catgroup(samples.abelian_module(Z4, Z2, [0, 1, 0, 1]))


def _unit_not_zero():
    G = _z4_onto_z2()
    G.unit = 1
    return G


def _unit_constraint_edited():
    G = _z4_onto_z2()
    G.lset[1] = G.record(0, 2, 1)
    return G


def _object_tensor_not_associative():
    # the associator is rewritten to match the edited object tensor, so the
    # tensor alone is refused
    G = cg.build_catgroup(samples.abelian_module(Z4, Z4, [0, 2, 0, 2]))
    # a copy: a built category's tob is the object group's own table
    G.tob = G.tob.copy()
    G.tob[1, 1] = 0
    o = np.arange(G.n_obj)
    G.aset[:] = G.idm[G.tob[G.tob[o[:, None, None], o[None, :, None]],
                            o[None, None, :]]]
    return G


def _factor_set_not_regular():
    # a nonzero composition cochain: theta^{1,1} is not the identity
    Qm = module(Z2, Z2)
    h0 = ch.zero_cochain3(Qm, Qm)
    h = ch.Cochain3(Qm, Qm, h0.assoc, h0.braid, h0.tensor,
                    [[[0, 0], [0, 0]], [[0, 0], [0, 1]]])
    return cg.build_reduced(Qm, Qm, h)


def _unit_arrows(G):
    return [m for m in range(G.n_mor) if G.grd[m] == 0 and G.tgt[m] == G.unit
            and m != G.idm[G.unit]]


def _unit_arrows_not_closed():
    G = _z4_onto_z2()
    b = _unit_arrows(G)
    G.tmor[b[0], b[1]] = G.idm[1]
    return G


def _conjugation_leaves_kernel():
    G = _z4_onto_z2()
    G.tmor[G.idm[1], _unit_arrows(G)[0]] = G.idm[0]
    return G


def _braiding_leaves_kernel():
    G = _z4_onto_z2()
    G.cset[1, 1] = G.idm[1]
    return G


def _factor_set_moves_kernel_arrows():
    # Z2 -> Z2 with d = 0 and a trivial Z2-grading.  The composites that
    # give the grade-1 action on the arrows b: y -> y with payload 1 are
    # edited to land in 1 + y: that map is still a strict tensor
    # endomorphism of the kernel, so the factor set stays regular
    triv = g.trivial_action(Z2, Z2)
    G = cg.build_catgroup(samples.abelian_module(Z2, Z2, [0, 0], Z2, triv, triv))
    ups, inv = fn.canonical_choices(G), G.inv.copy()
    for y in range(2):
        m = G.record(0, 1, y)
        G.comp[ups[1, G.tgt[m]], G.comp[m, inv[ups[1, G.src[m]]]]] = \
            G.record(0, 1, (1 + y) % 2)
    return G


def _rebuilt_module_invalid():
    G = cg.build_catgroup(samples.abelian_module(Z4, Z4, [0, 2, 0, 2]))
    G.cset[1, 0] = G.record(0, 2, 1)
    return G


@pytest.mark.parametrize("category, error, message", [
    (_unit_not_zero, NotStrict, "unit object must be index 0"),
    (_unit_constraint_edited, NotStrict, "unit constraints are not identities"),
    (_object_tensor_not_associative, NotStrict,
     "object tensor is not a group law: associativity fails at (1, 1, 2)"),
    (_factor_set_not_regular, NotRegularFactorSet,
     "canonical factor set is not regular"),
    (_unit_arrows_not_closed, NotStrict,
     "grade-1 arrows into the unit are not closed"),
    (_conjugation_leaves_kernel, NotStrict,
     "conjugation leaves the kernel arrows"),
    (_braiding_leaves_kernel, NotStrict,
     "braiding composite leaves the kernel arrows"),
    (_factor_set_moves_kernel_arrows, NotRegularFactorSet,
     "factor set moves kernel arrows away"),
    (_rebuilt_module_invalid, NotStrict,
     "rebuilt module fails validation: AxiomReport("
     "braid-additive-right: FAIL x10 @ (1, 0, 0); "
     "braid-additive-left: FAIL x6 @ (1, 2, 0); "
     "braid-action-left: FAIL x2 @ (1, 0))"),
], ids=["unit-not-zero", "unit-constraint", "object-tensor",
        "factor-set-not-regular", "unit-arrows-not-closed", "conjugation",
        "braiding", "moves-kernel-arrows", "rebuilt-module-invalid"])
def test_catgroup_to_crossed_refusals(category, error, message):
    with pytest.raises(error) as exc:
        fn.catgroup_to_crossed(category())
    assert type(exc.value) is error
    assert str(exc.value) == message


def _reduced_identity():
    return fn.identity_functor(cg.build_reduced(module(Z2), module(Z2)))


def _incoherent():
    F = fn.identity_functor(cg.build_catgroup(samples.s3_a3_module(False)))
    F.ftilde[1, 2] = F.target.n_mor + 5
    return F


def _transported_identity():
    # the identity of Z3 -> Z3 (d = id) transported along the isomorphism
    # 2 -> 1 of payload 1: coherent, but its object map is not a hom
    G = cg.build_catgroup(samples.abelian_module(g.cyclic(3), g.cyclic(3),
                                                 [0, 1, 2]))
    th = G.idm.copy()
    th[2] = G.record(0, 1, 1)
    o, ms = np.arange(G.n_obj), np.arange(G.n_mor)
    mor = G.comp[th[G.tgt], G.comp[ms, G.inv[th[G.src]]]]
    ft = G.comp[th[G.tob], G.inv[G.tmor[th[o[:, None]], th[o[None, :]]]]]
    F = fn.GradedFunctor(G, G, G.tgt[th], mor, ft, int(G.idm[0]))
    assert fn.check_graded_functor(F).ok and not fn.is_regular(F)
    return F


# The refusals below read the payloads of a coherent regular functor.  On
# a built target, coherence and regularity already imply that they pass, so
# each case edits the label `pay` of one target arrow that coherence and
# regularity do not read.

def _z4_mod_2(gamma=False):
    triv = g.trivial_action(Z2, Z4)
    return cg.build_catgroup(samples.abelian_module(
        Z4, Z4, [0, 2, 0, 2], *((Z2, triv, triv) if gamma else ())))


def _payload_depends_on_target():
    G = _z4_mod_2()
    G.pay[G.record(0, 1, 2)] = 3
    return fn.identity_functor(G)


def _comparison_payload(value):
    """The functor of Z4 -> Z4 (d = 2b) into Z4 x Z2 -> Z4 ((a, c) -> 2a)
    with f1(b) = (b, 0) and comparison payload (0, 1) on the class of 1:
    that arrow into 0 lies outside f1's image, and its label is set to
    value."""
    B2 = g.direct_product(Z4, Z2)
    M = samples.abelian_module(Z4, Z4, [0, 2, 0, 2])
    Mp = samples.abelian_module(B2, Z4, [2 * (e // 2) % 4 for e in range(8)])
    phi = ch.SymmetricCochain2(M.pi0(), Mp.pi1(), [[0, 0], [0, 1]], [[0], [0]])
    mor = xm.CrossedMorphism(M, Mp, g.GroupHom(Z4, B2, [0, 2, 4, 6]),
                             g.identity_hom(Z4), phi)
    S, T = cg.build_catgroup(M), cg.build_catgroup(Mp)
    F = fn.morphism_to_functor(mor, S, T)
    assert fn.functor_to_morphism(F) == mor
    T.pay[T.record(0, 1, 0)] = value
    return F


def _grade_part_payload(value):
    G = _z4_mod_2(gamma=True)
    G.pay[G.record(1, 0, 2)] = value
    return fn.identity_functor(G)


@pytest.mark.parametrize("functor, error, message", [
    (_reduced_identity, WrongType,
     "translation requires categories built from modules"),
    (_incoherent, NotCoherent,
     "functor fails coherence: ('comparison-typing', (1, 2))"),
    (_transported_identity, NotRegular, "functor is not regular"),
    (_payload_depends_on_target, NotRegular,
     "grade-1 payload of 1 depends on its target object"),
    (partial(_comparison_payload, 2), FNotConstantOnCosets,
     "comparison payload at (1, 3) is not in the kernel"),
    (partial(_comparison_payload, 4), FNotConstantOnCosets,
     "comparison at (1, 3) differs within its coset"),
    (partial(_grade_part_payload, 1), FNotConstantOnCosets,
     "grade part at (2, 1) is not in the kernel"),
    (partial(_grade_part_payload, 2), FNotConstantOnCosets,
     "grade part at (2, 1) differs within its coset"),
], ids=["reduced-source", "incoherent", "object-map-not-a-hom",
        "payload-depends-on-target", "comparison-outside-kernel",
        "comparison-differs", "grade-part-outside-kernel",
        "grade-part-differs"])
def test_functor_to_morphism_refusals(functor, error, message):
    with pytest.raises(error) as exc:
        fn.functor_to_morphism(functor())
    assert type(exc.value) is error
    assert str(exc.value) == message


def _bump(table, index, value=None):
    """The edit of a factor set that sets table[index] to value, or adds 1
    to it modulo the 18 kernel arrows of the S3 / A3 category."""
    def edit(fs):
        t = getattr(fs, table)
        for i in index[:-1]:
            t = t[i]
        t[index[-1]] = (t[index[-1]] + 1) % 18 if value is None else value
    return edit


@pytest.mark.parametrize("edit, failures", [
    (_bump("theta", (1, 1, 2)),
     {"theta-monoidal-natural": (20, ("natural", 1, 1, 2)),
      "theta-cocycle": (5, (0, 1, 1, 2))}),
    (_bump("theta", (1, 0, 3), -1),
     {"theta-unit": (1, (1, 3)),
      "theta-monoidal-natural": (20, ("natural", 1, 0, 3)),
      "theta-cocycle": (5, (0, 1, 0, 3))}),
    (_bump("mor_maps", (1, 3)),
     {"grade-1-functor": (1, ("morphism-map-typing", (3,))),
      "theta-monoidal-natural": (15, ("natural", 0, 1, 3)),
      "theta-cocycle": (4, (1, 0, 0, 3))}),
    (_bump("mor_maps", (0, 4)),
     {"grade-one-identity": (1, None),
      "grade-0-functor": (1, ("morphism-map-typing", (4,))),
      "theta-monoidal-natural": (16, ("natural", 0, 0, 4)),
      "theta-cocycle": (4, (0, 0, 0, 4))}),
    (_bump("ftildes", (1, 1, 2)),
     {"grade-1-functor": (1, ("comparison-typing", (1, 2))),
      "theta-monoidal-natural": (4, ("monoidal", 0, 1, 1, 2))}),
    (_bump("fstars", (1,)),
     {"grade-1-functor": (1, ("right-unit-compat", (0,))),
      "theta-monoidal-natural": (3, ("unit", 0, 1))}),
], ids=["theta", "theta-at-grade-one", "morphism-map", "grade-one-morphism-map",
        "comparison", "unit-comparison"])
def test_validate_factor_set_reports_every_family_on_edits(edit, failures):
    fs = fn.extract_factor_set(cg.build_catgroup(samples.s3_a3_module(True)))
    assert fs.kernel.n_mor == 18
    edit(fs)
    keys = ["grade-one-identity", "grade-0-functor", "grade-1-functor",
            "theta-unit", "theta-monoidal-natural", "theta-cocycle"]
    rep = fn.validate_factor_set(fs)
    assert [(c.key, c.fail_count, c.first_witness) for c in rep.entries] == \
        [(k, *failures.get(k, (0, None))) for k in keys]


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



# -- theta's gathers against the per-instance loops they replace ---------------

def _theta_loops(fs):
    """The witnesses of theta-monoidal-natural and theta-cocycle, one
    instance at a time, in scan order."""
    K, gam = fs.kernel, fs.base.gamma
    comp, tmor = K._comp, K._tmor
    ng = gam.order
    natural = []
    for s in range(ng):
        for t in range(ng):
            st = gam.mul(s, t)
            th = fs.theta[s][t]
            for m in range(K.n_mor):
                x, y = int(K.src[m]), int(K.tgt[m])
                lhs = comp[th[y], fs.mor_maps[s][fs.mor_maps[t][m]]]
                rhs = comp[fs.mor_maps[st][m], th[x]]
                if lhs != rhs or lhs < 0:
                    natural.append(("natural", s, t, m))
            for x in range(K.n_obj):
                for y in range(K.n_obj):
                    fx, fy = int(fs.obj_maps[t][x]), int(fs.obj_maps[t][y])
                    comp_ft = comp[fs.mor_maps[s][fs.ftildes[t][x, y]],
                                   fs.ftildes[s][fx, fy]]
                    lhs = comp[fs.ftildes[st][x, y], tmor[th[x], th[y]]]
                    rhs = comp[th[int(K.tob[x, y])], comp_ft]
                    if lhs != rhs or lhs < 0:
                        natural.append(("monoidal", s, t, x, y))
            lhs = comp[th[K.unit],
                       comp[fs.mor_maps[s][fs.fstars[t]], fs.fstars[s]]]
            if lhs != fs.fstars[st] or lhs < 0:
                natural.append(("unit", s, t))
    cocycle = []
    for s, t, u in itertools.product(range(ng), repeat=3):
        st, tu = gam.mul(s, t), gam.mul(t, u)
        for x in range(K.n_obj):
            fux = int(fs.obj_maps[u][x])
            lhs = comp[fs.theta[st][u][x], fs.theta[s][t][fux]]
            rhs = comp[fs.theta[s][tu][x], fs.mor_maps[s][fs.theta[t][u][x]]]
            if lhs != rhs or lhs < 0:
                cocycle.append((s, t, u, x))
    return natural, cocycle


def test_theta_families_match_the_loops():
    rng = random.Random(7)
    for m in [samples.s3_a3_module(True), samples.z4_negation_module(),
              samples.d4_modules(True)[0]]:
        G = cg.build_catgroup(m)
        for trial in range(12):
            fs = fn.extract_factor_set(G)
            ng, no, nk = G.gamma.order, G.n_obj, fs.kernel.n_mor
            # one entry of theta, a morphism map or a comparison, -1 allowed
            table = [fs.theta[rng.randrange(ng)][rng.randrange(ng)],
                     fs.mor_maps[rng.randrange(ng)],
                     fs.ftildes[rng.randrange(ng)][rng.randrange(no)]][trial % 3]
            table[rng.randrange(len(table))] = rng.randrange(-1, nk)
            rep = fn.validate_factor_set(fs)
            for key, wits in zip(("theta-monoidal-natural", "theta-cocycle"),
                                 _theta_loops(fs)):
                assert (rep[key].fail_count, rep[key].witnesses) == \
                    (len(wits), tuple(wits[:16]))

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
