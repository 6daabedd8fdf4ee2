import itertools

import pytest

from xmodcat import catgroups as cg
from xmodcat import cohomology as ch
from xmodcat import extensions as ex
from xmodcat import functors as fn
from xmodcat import groups as g
from xmodcat import samples
from xmodcat.errors import BadSection, ShapeMismatch, WrongType

Z2 = g.cyclic(2)
Z4 = g.cyclic(4)
TRIV = g.trivial_group()


def module(G, gamma=None, alpha=None):
    gamma = gamma or TRIV
    if alpha is None:
        return g.GammaModule(G, g.trivial_action(gamma, G))
    return g.GammaModule(G, g.action_from_automorphism(gamma, G, alpha))


def z4_over_z2_extension():
    """0 -> Z/2 -> Z/4 -> Z/2 -> 0 of type (Z/2 -> Z/4, 1 |-> 2)."""
    M = samples.abelian_module(Z2, Z4, [0, 2])
    Qm = module(Z2)
    Em = module(Z4)
    j = g.GroupHom(Z2, Z4, [0, 2])
    p = g.GroupHom(Z4, Z2, [0, 1, 0, 1])
    eps = g.identity_hom(Z4)
    return ex.GammaModuleExtension(M, Qm, Em, j, p, eps)


def split_extension(M, Qm):
    """B x Q with eps(b, u) = d(b)."""
    B = M.B
    E = g.direct_product(Qm.group, B)
    nb = B.order
    Em = module(E)
    j = g.GroupHom(B, E, [b for b in range(nb)])
    p = g.GroupHom(E, Qm.group, [x // nb for x in range(E.order)])
    eps = g.GroupHom(E, M.D, [M.d[x % nb] for x in range(E.order)])
    return ex.GammaModuleExtension(M, Qm, Em, j, p, eps)


def test_extension_validation():
    ext = z4_over_z2_extension()
    assert ext.is_valid
    M = samples.abelian_module(Z2, TRIV, [0, 0])
    s = split_extension(M, module(Z2))
    assert s.is_valid


def test_induced_psi_examples():
    M = samples.abelian_module(Z2, TRIV, [0, 0])
    s = split_extension(M, module(Z2))
    assert list(ex.induced_psi(s).map) == [0, 0]
    ext = z4_over_z2_extension()
    psi = ex.induced_psi(ext)
    # eps is the identity, so psi is the isomorphism onto coker d
    assert list(psi.map) == [0, 1]


def test_extract_section_cochain_z4():
    ext = z4_over_z2_extension()
    f = ex.extract_section_cochain(ext, [0, 1])
    assert f.qq[1][1] == 1  # e_1 + e_1 = 2 = j(1)
    assert ch.is_2cocycle(f)[0]
    with pytest.raises(BadSection):
        ex.extract_section_cochain(ext, [1, 1])
    with pytest.raises(BadSection):
        ex.extract_section_cochain(ext, [0, 2])


def test_sections_of_the_wrong_shape_are_refused():
    """A section must have one value in [0, |E|) per element of Q; a short,
    long or negative one is refused before it is read."""
    ext = z4_over_z2_extension()
    for section in ([0, -1], [0, 1, 2], [0]):
        with pytest.raises(BadSection):
            ex.extract_section_cochain(ext, section)
        with pytest.raises(BadSection):
            ex.functor_from_extension(ext, section)


def construction_cases():
    """(M, Q) pairs for the Schreier construction; the last has a
    non-trivial gamma-action on Q and on D."""
    neg4 = [0, 3, 2, 1]
    return [
        (samples.abelian_module(Z2, Z2, [0, 1]), module(Z2)),
        (samples.abelian_module(Z4, Z2, [0, 1, 0, 1]), module(Z4)),
        (samples.abelian_module(Z2, Z4, [0, 2], Z2, g.trivial_action(Z2, Z2),
                                g.action_from_automorphism(Z2, Z4, neg4)),
         module(Z4, Z2, neg4)),
    ]


def eps_laws_hold(ext):
    problems = ext.validate()
    return ("eps is not a homomorphism" not in problems
            and "eps is not equivariant" not in problems)


def normalized_maps(Q, D):
    return [(0,) + tail for tail in itertools.product(
        D.elements(), repeat=Q.group.order - 1)]


def test_crossed_product_returns_its_cocycle_under_the_canonical_section():
    for M, Qm in construction_cases():
        assert M.is_valid
        Bm = g.GammaModule(M.B, M.act_b)
        reps = 0
        for f in ch.all_cocycles(Qm, Bm):
            for F in normalized_maps(Qm, M.D):
                ext = ex._crossed_product(M, Qm, f.qq, f.qg, F)
                if not eps_laws_hold(ext):
                    continue
                reps += 1
                assert ext.is_valid
                assert ex.extract_section_cochain(ext) == f
        assert reps > 0


def test_schreier_filter_is_the_crossed_products_eps_laws():
    """F passes the Schreier check's filter (its defect in D is d . f)
    exactly when eps of the crossed product is an equivariant
    homomorphism."""
    for M, Qm in construction_cases():
        Bm = g.GammaModule(M.B, M.act_b)
        verdicts = set()
        for f in ch.all_cocycles(Qm, Bm):
            df = tuple([[M.d[b] for b in row] for row in t]
                       for t in (f.qq, f.qg))
            for F in normalized_maps(Qm, M.D):
                accepted = tuple(g.section_defect(Qm, M.D, M.act_d, F,
                                                  M.D.elements())) == df
                ext = ex._crossed_product(M, Qm, f.qq, f.qg, F)
                assert accepted == eps_laws_hold(ext), (f.flat(), F)
                verdicts.add(accepted)
        assert verdicts == {True, False}


def test_crossed_product_of_the_zero_cocycle_is_the_direct_product():
    for M, Qm in construction_cases():
        q, ng = Qm.group.order, Qm.gamma.order
        ext = ex._crossed_product(M, Qm, [[0] * q] * q, [[0] * ng] * q,
                                  [0] * q)
        assert ext.E.group == g.direct_product(Qm.group, M.B)


def test_extension_from_functor_split_and_twisted():
    M = samples.abelian_module(Z2, TRIV, [0, 0])
    Qm = module(Z2)
    T = cg.build_catgroup(M)
    S = cg.dis(Qm)
    classes = fn.homotopy_classes(S, T, phi=[0, 0])
    assert len(classes) == 2
    exts = [ex.extension_from_functor(cls[0]) for cls in classes]
    invs = sorted(tuple(g.abelian_invariants(e.E.group)) for e in exts)
    assert invs == [(2, 2), (4,)]
    for e in exts:
        assert e.is_valid
        assert list(ex.induced_psi(e).map) == [0, 0]


def test_extension_from_functor_gamma_twisted():
    # negation on B = Z/4, nonzero grade component in the cochain
    neg = g.action_from_automorphism(Z2, Z4, [0, 3, 2, 1])
    M = samples.abelian_module(Z4, TRIV, [0] * 4, Z2, neg,
                               g.trivial_action(Z2, TRIV))
    Qm = module(Z2, Z2)
    T = cg.build_catgroup(M)
    S = cg.dis(Qm)
    classes = fn.homotopy_classes(S, T, phi=[0, 0])
    found_twisted = False
    for cls in classes:
        e = ex.extension_from_functor(cls[0])
        assert e.is_valid
        f = ex.extract_section_cochain(e)
        if any(f.qg[u][1] for u in range(2)):
            found_twisted = True
    assert found_twisted


def test_functor_from_extension_roundtrip_and_sections():
    ext = z4_over_z2_extension()
    M, Qm = ext.module, ext.Q
    T = cg.build_catgroup(M)
    S = cg.dis(Qm)
    F = ex.functor_from_extension(ext, [0, 1], target_cat=T, source_cat=S)
    assert fn.check_graded_functor(F).ok
    # the rebuilt crossed product is equivalent to the original
    back = ex.extension_from_functor(F)
    assert ex.are_equivalent(ext, back) is not None
    # section change shifts the cochain by a coboundary
    f1 = ex.extract_section_cochain(ext, [0, 1])
    f3 = ex.extract_section_cochain(ext, [0, 3])
    diff = f1.sub(f3)
    Bmod = g.GammaModule(M.B, M.act_b)
    cob_flats = {d.flat() for d in ch.all_coboundaries(Qm, Bmod)}
    assert diff.flat() in cob_flats


def test_split_section_gives_zero_cochain():
    M = samples.abelian_module(Z2, TRIV, [0, 0])
    Qm = module(Z2)
    s = split_extension(M, Qm)
    f = ex.extract_section_cochain(s)
    assert f.is_zero()


def test_are_equivalent_self_is_identity():
    ext = z4_over_z2_extension()
    alpha = ex.are_equivalent(ext, ext)
    assert alpha is not None
    assert list(alpha.map) == list(range(4))


def test_inequivalent_z4_vs_klein():
    M = samples.abelian_module(Z2, TRIV, [0, 0])
    Qm = module(Z2)
    T = cg.build_catgroup(M)
    S = cg.dis(Qm)
    classes = fn.homotopy_classes(S, T, phi=[0, 0])
    e1 = ex.extension_from_functor(classes[0][0])
    e2 = ex.extension_from_functor(classes[1][0])
    assert ex.are_equivalent(e1, e2) is None


def test_homotopic_functors_give_equivalent_extensions():
    M = samples.abelian_module(Z2, TRIV, [0, 0])
    Qm = module(Z2)
    T = cg.build_catgroup(M)
    S = cg.dis(Qm)
    classes = fn.homotopy_classes(S, T, phi=[0, 0])
    for cls in classes:
        base = ex.extension_from_functor(cls[0])
        for other in cls[1:]:
            alpha = ex.are_equivalent(base, ex.extension_from_functor(other))
            assert alpha is not None


def test_roundtrip_extension_functor_extension_all_sections():
    ext = z4_over_z2_extension()
    T = cg.build_catgroup(ext.module)
    S = cg.dis(ext.Q)
    for e1 in (1, 3):
        F = ex.functor_from_extension(ext, [0, e1], target_cat=T,
                                      source_cat=S)
        back = ex.extension_from_functor(F)
        assert ex.are_equivalent(ext, back) is not None


def test_schreier_trivial_kernel_group_single_split_class():
    M = samples.abelian_module(TRIV, Z2, [0])
    rep = ex.schreier_bijection_check(M, module(Z2), [0, 0])
    assert rep.ok
    assert rep.functor_class_count == 1
    only = rep.extension_classes[0][0]
    assert g.abelian_invariants(only.E.group) == [2]


def test_schreier_scenarios():
    M = samples.abelian_module(Z2, TRIV, [0, 0])
    rep = ex.schreier_bijection_check(M, module(Z2), [0, 0])
    assert rep.ok and rep.functor_class_count == 2
    # trivial kernel: single split class
    Miso = samples.abelian_module(Z2, Z2, [0, 1])
    rep = ex.schreier_bijection_check(Miso, module(Z2), [0, 0])
    assert rep.ok and rep.functor_class_count == 1
    # nontrivial gamma
    neg4 = g.action_from_automorphism(Z2, Z4, [0, 3, 2, 1])
    Mg = samples.abelian_module(Z2, TRIV, [0, 0], Z2,
                                g.trivial_action(Z2, Z2),
                                g.trivial_action(Z2, TRIV))
    rep = ex.schreier_bijection_check(Mg, g.GammaModule(Z4, neg4), [0] * 4)
    assert rep.ok
    assert rep.functor_class_count == ch.h2(
        g.GammaModule(Z4, neg4), g.GammaModule(Z2, g.trivial_action(Z2, Z2))
    ).class_count


def test_induced_psi_constant_on_classes():
    M = samples.abelian_module(Z2, Z4, [0, 2])
    Qm = module(Z2)
    rep = ex.schreier_bijection_check(M, Qm, [0, 1])
    for cls in rep.extension_classes:
        psis = {tuple(ex.induced_psi(e).map) for e in cls}
        assert len(psis) == 1


def test_classify_classical_module_extensions():
    M = samples.abelian_module(Z2, TRIV, [0, 0])
    res = ex.classify(M, module(Z2), [0, 0])
    assert not res.obstructed
    assert res.class_count == 2
    assert res.h2_invariants == [2]
    invs = sorted(tuple(g.abelian_invariants(e.E.group))
                  for e in res.representatives)
    assert invs == [(2, 2), (4,)]


def test_classify_iso_boundary_single_class():
    Miso = samples.abelian_module(Z2, Z2, [0, 1])
    res = ex.classify(Miso, module(Z2), [0, 0])
    assert not res.obstructed
    assert res.class_count == 1
    assert res.h2_invariants == []


def test_classify_obstructed_instance():
    # negation upstairs, trivial action downstairs: the pulled-back class
    # does not vanish, and independently no extension exists
    neg = g.action_from_automorphism(Z2, Z4, [0, 3, 2, 1])
    M = samples.abelian_module(Z4, Z4, [0, 2, 0, 2], Z2, neg,
                               g.trivial_action(Z2, Z4))
    Qm = module(Z2, Z2)
    res = ex.classify(M, Qm, [0, 1])
    assert res.obstructed
    assert res.class_count == 0
    rep = ex.schreier_bijection_check(M, Qm, [0, 1])
    assert rep.functor_class_count == 0
    assert rep.extension_class_count == 0
    # the same module with the zero map is unobstructed
    res0 = ex.classify(M, Qm, [0, 0])
    assert not res0.obstructed
    assert res0.class_count == ch.h2(Qm, M.pi1()).class_count


def test_classify_requires_abelian():
    with pytest.raises(WrongType):
        ex.classify(samples.s3_a3_module(False), module(Z2), [0, 0])


def test_induced_psi_rejects_inconsistent_structural_map():
    from xmodcat.errors import NotWellDefined

    M = samples.abelian_module(Z2, Z2, [0, 0])
    K = g.klein_four()
    bad = ex.GammaModuleExtension(
        M, module(Z2), module(K),
        g.GroupHom(Z2, K, [0, 1]),
        g.GroupHom(K, Z2, [0, 0, 1, 1]),
        g.GroupHom(K, Z2, [0, 1, 0, 1]))
    assert not bad.is_valid
    with pytest.raises(NotWellDefined):
        ex.induced_psi(bad)


def test_induced_psi_refuses_a_p_that_is_not_surjective():
    ext = z4_over_z2_extension()
    bad = ex.GammaModuleExtension(ext.module, ext.Q, ext.E, ext.j,
                                  g.GroupHom(Z4, Z2, [0] * 4),
                                  g.GroupHom(Z4, Z4, [0] * 4))
    with pytest.raises(BadSection, match="no preimage of 1"):
        ex.induced_psi(bad)


def _extension(M, Q, E, act, j, p, eps):
    """An extension record over E with the given action rows, unvalidated."""
    Em = g.GammaModule(E, g.GammaAction(M.gamma, E, act))
    return ex.GammaModuleExtension(M, Q, Em, g.GroupHom(M.B, E, j),
                                   g.GroupHom(E, Q.group, p),
                                   g.GroupHom(E, M.D, eps))


def test_validate_reports_each_equivariance_law_once_in_order():
    # eps fails at grade 1 after p has failed there too
    K4 = g.klein_four()
    neg = g.action_from_automorphism(Z2, Z4, [0, 3, 2, 1])
    M = samples.abelian_module(Z2, Z4, [0, 2], Z2, g.trivial_action(Z2, Z2),
                               neg)
    ext = _extension(M, module(Z2, Z2, [0, 1]), K4,
                     [[0, 1, 2, 3], [0, 2, 1, 3]], [0, 1], [0, 0, 1, 1],
                     [0, 2, 0, 2])
    assert list(g._equivariance_failures(ext.eps.map, ext.E.act.act,
                                         M.act_d.act)) == [(1, 1), (1, 2)]
    assert ext.validate() == ["j is not equivariant", "p is not equivariant",
                              "eps is not equivariant"]
    # j and p fail at both nonzero grades of Z/3
    Z3 = g.cyclic(3)
    M3 = samples.abelian_module(Z2, TRIV, [0, 0], Z3, g.trivial_action(Z3, Z2),
                                g.trivial_action(Z3, TRIV))
    cyc = g.action_from_automorphism(Z3, K4, [0, 2, 3, 1]).act
    ext3 = _extension(M3, module(Z2, Z3, [0, 1]), K4, cyc, [0, 1],
                      [0, 1, 0, 1], [0] * 4)
    assert ext3.validate() == ["image of j differs from kernel of p",
                               "j is not equivariant", "p is not equivariant"]


def test_validate_refuses_an_extension_graded_by_another_group():
    # E is graded by Z/3 over a module graded by the trivial group
    M = samples.abelian_module(Z2, Z4, [0, 2])
    E = g.GammaModule(Z4, g.trivial_action(g.cyclic(3), Z4))
    ext = ex.GammaModuleExtension(M, module(Z2), E, g.GroupHom(Z2, Z4, [0, 2]),
                                  g.GroupHom(Z4, Z2, [0, 1, 0, 1]),
                                  g.identity_hom(Z4))
    with pytest.raises(ShapeMismatch):
        ext.validate()


def test_canonical_section_refuses_a_p_that_is_not_surjective():
    ext = z4_over_z2_extension()
    bad = ex.GammaModuleExtension(ext.module, ext.Q, ext.E, ext.j,
                                  g.GroupHom(Z4, Z2, [0] * 4), ext.eps)
    with pytest.raises(BadSection):
        bad.canonical_section()


def test_a_non_injective_j_reads_its_least_preimage():
    # j = 2x on Z/4 sends 1 and 3 to 2; the defect 1 + 1 = 2 reads as 1
    M = samples.abelian_module(Z4, TRIV, [0] * 4)
    ext = _extension(M, module(Z2), Z4, [[0, 1, 2, 3]], [0, 2, 0, 2],
                     [0, 1, 0, 1], [0] * 4)
    assert "j is not injective" in ext.validate()
    assert ex.extract_section_cochain(ext, [0, 1]).qq == ((0, 0), (0, 1))
    # 0 and 1 both go to 0 under j, and j2 tells them apart: b = 0 gives
    # the identity, b = 1 would give no isomorphism
    e1 = _extension(M, module(Z2), Z4, [[0, 1, 2, 3]], [0, 0, 2, 1],
                    [0, 1, 0, 1], [0] * 4)
    e2 = _extension(M, module(Z2), Z4, [[0, 1, 2, 3]], [0, 2, 2, 1],
                    [0, 1, 0, 1], [0] * 4)
    assert list(ex.are_equivalent(e1, e2).map) == [0, 1, 2, 3]


def test_are_equivalent_refuses_a_defect_off_the_image_of_j():
    # the image {0, 1} of j misses 2 in the kernel {0, 2} of p
    M = samples.abelian_module(Z2, TRIV, [0, 0])
    ext = _extension(M, module(Z2), Z4, [[0, 1, 2, 3]], [0, 1],
                     [0, 1, 0, 1], [0] * 4)
    with pytest.raises(BadSection):
        ex.are_equivalent(ext, ext)


def test_psi_over_another_gamma_is_refused():
    # Q graded by Z/2, the module by the trivial group: refused before the
    # equivariance scan reads a grade the module does not have
    M = samples.abelian_module(Z2, Z4, [0, 2])
    Qm = module(Z2, Z2)
    with pytest.raises(ShapeMismatch, match="different gamma"):
        ex.classify(M, Qm, [0, 1])
    with pytest.raises(ShapeMismatch, match="different gamma"):
        ex.schreier_bijection_check(M, Qm, [0, 1])
