import pytest

from xmodcat import groups as g
from xmodcat import crossed as xm
from xmodcat import samples
from xmodcat.cohomology import SymmetricCochain2, is_2cocycle, zero_cochain2
from xmodcat.errors import (
    NotComposable,
    NotGammaStable,
    NotNormal,
    QuotientNotAbelian,
    ShapeMismatch,
)

Z2 = g.cyclic(2)
Z4 = g.cyclic(4)


def degenerate_module():
    return xm.BraidedGammaCrossedModule(
        Z2, Z2, [0, 0], [[0, 1], [0, 1]], [[0, 0], [0, 0]])


def test_validate_q8_conjugation_all_pass():
    m = samples.q8_i_module(False)
    report = m.validate()
    assert report.ok
    assert {e.key for e in report.entries} >= {
        "lifted-conjugation", "boundary-conjugation", "braid-additive-right",
        "braid-additive-left", "braid-boundary", "braid-action-right",
        "braid-action-left", "action-equivariant", "braid-equivariant"}


def test_validate_degenerate_module():
    assert degenerate_module().is_valid


def test_validate_broken_braid_boundary():
    # nonzero eta value with zero boundary cannot hit a commutator equation
    m = xm.BraidedGammaCrossedModule(
        Z2, Z4, [0, 2], [[0, 1]] * 4, [[0] * 4 for _ in range(4)])
    assert m.is_valid
    eta = [[0] * 4 for _ in range(4)]
    eta[1][1] = 1
    bad = xm.BraidedGammaCrossedModule(Z2, Z4, [0, 2], [[0, 1]] * 4, eta)
    report = bad.validate()
    assert not report.ok
    enmap = {e.key: e for e in report.entries}
    assert not enmap["braid-boundary"].ok
    assert enmap["braid-boundary"].first_witness == (1, 1)


def test_conjugation_module_examples():
    m = samples.s3_a3_module(False)
    assert m.is_valid
    z4m = samples.z4_negation_module()
    assert z4m.is_valid
    assert not any(v for row in z4m.eta for v in row)
    S3 = g.symmetric3()
    transposition = next(x for x in range(6) if S3.element_order(x) == 2)
    H = g.subgroup_generated(S3, [transposition])
    with pytest.raises(NotNormal):
        xm.conjugation_module(S3, H)


def test_conjugation_module_refuses_a_nonabelian_quotient():
    # the trivial subgroup is normal, but S3 itself is not abelian
    with pytest.raises(QuotientNotAbelian):
        xm.conjugation_module(g.symmetric3(), [0])


def test_conjugation_module_gamma_stability():
    # the order-3 subgroup of S3 is stable under every automorphism, but a
    # non-stable subset must be rejected before anything else is built
    Z4g = g.cyclic(4)
    act = g.action_from_automorphism(Z2, Z4g, [0, 3, 2, 1])
    m = xm.conjugation_module(Z4g, [0, 2], Z2, act)
    assert m.is_valid
    with pytest.raises(NotGammaStable):
        bad_act = g.GammaAction(Z2, g.klein_four(),
                                [[0, 1, 2, 3], [0, 2, 1, 3]])
        xm.conjugation_module(g.klein_four(), [0, 1], Z2, bad_act)


def test_pi0_pi1_examples():
    m = samples.q8_i_module(False)
    assert list(m.pi0().abelian.invariants) == [2]
    # the boundary is an inclusion, so its kernel is trivial
    assert list(m.pi1().abelian.invariants) == []
    ident = xm.BraidedGammaCrossedModule(
        Z2, Z2, [0, 1], [[0, 1], [0, 1]], [[0, 0], [0, 0]])
    assert ident.pi0().group.order == 1
    assert ident.pi1().group.order == 1
    degen = degenerate_module()
    assert list(degen.pi0().abelian.invariants) == [2]
    assert list(degen.pi1().abelian.invariants) == [2]


def test_pi0_gamma_action_induced():
    m = samples.z4_negation_module()
    P = m.pi0()
    assert P.group.order == 2
    assert g.check_action(P.act)


def test_is_symmetric():
    assert degenerate_module().is_symmetric()
    assert samples.s3_a3_module(False).is_symmetric()
    # biadditive braiding x*y on Z/4 with zero boundary is not symmetric
    eta = [[(x * y) % 4 for y in range(4)] for x in range(4)]
    m = xm.BraidedGammaCrossedModule(Z4, Z4, [0] * 4, [[0, 1, 2, 3]] * 4, eta)
    assert m.is_valid
    assert not m.is_symmetric()
    B = m.B
    assert B.mul(m.eta[1][1], m.eta[1][1]) != 0


def test_is_abelian():
    doubling = xm.BraidedGammaCrossedModule(
        Z2, Z4, [0, 2], [[0, 1]] * 4, [[0] * 4 for _ in range(4)])
    assert xm.is_abelian(doubling)
    assert not xm.is_abelian(samples.s3_a3_module(False))
    assert not xm.is_abelian(samples.q8_i_module(False))


def test_symmetric_braid_axioms_coincide():
    # with a symmetric braiding, each left axiom instance is the symmetry
    # transform of a right instance, and conversely
    for m in [samples.s3_a3_module(False), samples.q8_i_module(False),
              degenerate_module()]:
        assert m.is_symmetric()
        B, D, eta, th = m.B, m.D, m.eta, m.theta
        for x in D.elements():
            for y in D.elements():
                for z in D.elements():
                    lhs = B.inv(B.mul(eta[z][x], th[x][eta[z][y]]))
                    rhs = B.mul(th[x][eta[y][z]], eta[x][z])
                    assert lhs == rhs
        for x in D.elements():
            for b in B.elements():
                lhs = B.mul(eta[m.d[b]][x], th[x][b])
                via_left = B.mul(B.inv(eta[x][m.d[b]]), th[x][b])
                assert lhs == b
                assert B.mul(eta[x][m.d[b]], b) == th[x][b]
                assert via_left == b


def test_braid_unit_rows_vanish():
    for m in samples.standard_corpus():
        for x in m.D.elements():
            assert m.eta[x][0] == 0
            assert m.eta[0][x] == 0


def test_kernel_central_and_action_trivial():
    for m in samples.standard_corpus():
        ker = m.kernel_elements()
        Z = set(g.center(m.B))
        assert set(ker) <= Z
        assert m.pi0().group.is_abelian
        for a in ker:
            for x in m.D.elements():
                assert m.theta[x][a] == a


def test_validate_morphism_identity_and_broken():
    m = samples.s3_a3_module(False)
    ident = xm.identity_morphism(m)
    assert xm.validate_morphism(ident).ok
    # a conjugation automorphism preserving the subgroup induces a morphism
    S3 = m.D
    t = next(x for x in range(6) if S3.element_order(x) == 2)
    f0 = g.GroupHom(S3, S3, [S3.conj(t, x) for x in range(6)])
    ker_embed = m.pi1_embedding()
    emb = tuple(range(m.B.order))
    f1 = g.GroupHom(m.B, m.B, [
        next(i for i in range(m.B.order) if m.d[i] == f0(m.d[b]))
        for b in range(m.B.order)])
    mor = xm.CrossedMorphism(m, m, f1, f0)
    assert xm.validate_morphism(mor).ok
    # inversion on B against the identity on D breaks the commuting square
    bad = xm.CrossedMorphism(m, m, g.GroupHom(m.B, m.B, [0, 2, 1]),
                             g.identity_hom(m.D))
    rep = xm.validate_morphism(bad)
    assert not rep.ok
    assert not rep["boundary-compat"].ok
    assert rep["boundary-compat"].first_witness is not None


def test_compose_morphisms_identity_and_zero():
    m = samples.s3_a3_module(False)
    ident = xm.identity_morphism(m)
    comp = xm.compose_morphisms(ident, ident)
    assert comp == ident
    with pytest.raises(NotComposable):
        xm.compose_morphisms(xm.identity_morphism(samples.q8_i_module(False)),
                             ident)


def test_compose_morphisms_nonzero_phi():
    # degenerate module: coker = Z/2, ker = Z/2; nonzero degree-2 parts add
    m = degenerate_module()
    P, K = m.pi0(), m.pi1()
    nonzero = SymmetricCochain2(P, K, [[0, 0], [0, 1]], [[0], [0]])
    ident = g.identity_hom(Z2)
    m1 = xm.CrossedMorphism(m, m, ident, ident, nonzero)
    m2 = xm.CrossedMorphism(m, m, ident, ident, nonzero)
    assert xm.validate_morphism(m1).ok
    comp = xm.compose_morphisms(m2, m1)
    # pointwise sum: 1 + 1 = 0 in Z/2
    assert comp.phi.qq == zero_cochain2(P, K).qq
    assert is_2cocycle(comp.phi)[0]
    m3 = xm.compose_morphisms(m1, xm.identity_morphism(m))
    assert m3 == m1
    m4 = xm.compose_morphisms(xm.identity_morphism(m), m1)
    assert m4 == m1


def test_compose_morphisms_associative_on_sample():
    m = degenerate_module()
    P, K = m.pi0(), m.pi1()
    nonzero = SymmetricCochain2(P, K, [[0, 0], [0, 1]], [[0], [0]])
    ident = g.identity_hom(Z2)
    flip = g.GroupHom(Z2, Z2, [0, 1])
    ms = [xm.identity_morphism(m),
          xm.CrossedMorphism(m, m, ident, flip, nonzero),
          xm.CrossedMorphism(m, m, ident, ident, nonzero)]
    for a in ms:
        for b in ms:
            for c in ms:
                lhs = xm.compose_morphisms(a, xm.compose_morphisms(b, c))
                rhs = xm.compose_morphisms(xm.compose_morphisms(a, b), c)
                assert lhs == rhs


def test_json_roundtrip():
    m = samples.q8_i_module(True)
    again = xm.BraidedGammaCrossedModule.from_json(m.to_json())
    assert again == m


def test_compose_refuses_an_f1_that_leaves_the_kernel():
    # phi of m1 takes the value 1 in ker d' = Z/2; f1 of m2 sends it to 1,
    # which is off ker d'' = 0 of the isomorphism Z/2 -> Z/2
    m = degenerate_module()
    iso = samples.abelian_module(Z2, Z2, [0, 1])
    ident = g.identity_hom(Z2)
    phi = SymmetricCochain2(m.pi0(), m.pi1(), [[0, 0], [0, 1]], [[0], [0]])
    m1 = xm.CrossedMorphism(m, m, ident, ident, phi)
    m2 = xm.CrossedMorphism(m, iso, ident, ident)
    with pytest.raises(ShapeMismatch):
        xm.compose_morphisms(m2, m1)
    # with phi zero no value leaves the kernel
    m0 = xm.CrossedMorphism(m, m, ident, ident)
    assert xm.compose_morphisms(m2, m0).phi.qq == ((0, 0), (0, 0))


def _composite_phi_by_entry(m2, m1):
    """The third component of m2 after m1, entry by entry:
    phi(r, s) = f1'(phi1(r, s)) + phi2(fbar r, fbar s) and
    phi(r, t) = f1'(phi1(r, t)) + phi2(fbar r, t), with f1' read on the
    kernels and fbar the map m1 induces on cokernels."""
    M, Mm, Mpp = m1.source, m1.target, m2.target
    N2, q = Mpp.pi1().group, M.pi0().group.order
    ker2 = list(Mpp.pi1_embedding())
    on_ker = [ker2.index(m2.f1(e)) for e in Mm.pi1_embedding()]
    proj, proj_m = M.pi0_projection(), Mm.pi0_projection()
    fbar = [proj_m(m1.f0(min(x for x in M.D.elements() if proj(x) == r)))
            for r in range(q)]
    p1, p2 = m1.phi, m2.phi
    qq = [[N2.mul(on_ker[p1.qq[r][s]], p2.qq[fbar[r]][fbar[s]])
           for s in range(q)] for r in range(q)]
    qg = [[N2.mul(on_ker[p1.qg[r][t]], p2.qg[fbar[r]][t])
           for t in range(M.gamma.order)] for r in range(q)]
    return qq, qg


def test_compose_morphisms_through_a_non_identity_cokernel_map():
    # Gamma = Z/2 acts by negation throughout and every boundary is zero:
    # M = Mm = (Z/2 -> Z/4), Mpp = (Z/4 -> Z/4).  f0 of m1 is 1 |-> 3, so
    # the induced map on cokernels is negation on Z/4, and f1 of m2 is
    # 1 |-> 2, so phi1 is pushed into another kernel
    neg = {2: [0, 1], 4: [0, 3, 2, 1]}

    def zero_module(B, D):
        return samples.abelian_module(
            B, D, [0] * B.order, Z2,
            g.action_from_automorphism(Z2, B, neg[B.order]),
            g.action_from_automorphism(Z2, D, neg[D.order]))

    M, Mpp = zero_module(Z2, Z4), zero_module(Z4, Z4)
    phi1 = SymmetricCochain2(
        M.pi0(), M.pi1(),
        [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 1], [0, 1, 1, 0]],
        [[0, 0], [0, 1], [0, 0], [0, 1]])
    phi2 = SymmetricCochain2(
        M.pi0(), Mpp.pi1(),
        [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]],
        [[0, 0], [0, 1], [0, 2], [0, 3]])
    m1 = xm.CrossedMorphism(M, M, g.identity_hom(Z2),
                            g.GroupHom(Z4, Z4, [0, 3, 2, 1]), phi1)
    m2 = xm.CrossedMorphism(M, Mpp, g.GroupHom(Z2, Z4, [0, 2]),
                            g.identity_hom(Z4), phi2)
    comp = xm.compose_morphisms(m2, m1)
    qq, qg = _composite_phi_by_entry(m2, m1)
    assert (comp.phi.qq, comp.phi.qg) == (
        tuple(map(tuple, qq)), tuple(map(tuple, qg)))
    assert comp.phi.Q == M.pi0() and comp.phi.B == Mpp.pi1()
    # phi(1, 2) = 2 * 0 + phi2(3, 2) and phi(1, t) = 2 * 1 + phi2(3, t)
    assert comp.phi.qq[1][2] == 1 and comp.phi.qg[1][1] == 1


def test_compose_refuses_a_grade_value_that_leaves_the_kernel():
    # over Gamma = Z/2, phi1 is zero on Q x Q and 1 at (1, 1) on Q x Gamma;
    # f1 of m2 sends that value off ker d'' = 0 of the isomorphism
    triv = g.trivial_action(Z2, Z2)
    m = samples.abelian_module(Z2, Z2, [0, 0], Z2, triv, triv)
    iso = samples.abelian_module(Z2, Z2, [0, 1], Z2, triv, triv)
    ident = g.identity_hom(Z2)
    phi = SymmetricCochain2(m.pi0(), m.pi1(), [[0, 0], [0, 0]], [[0, 0], [0, 1]])
    m1 = xm.CrossedMorphism(m, m, ident, ident, phi)
    m2 = xm.CrossedMorphism(m, iso, ident, ident)
    with pytest.raises(ShapeMismatch, match="off the boundary's kernel"):
        xm.compose_morphisms(m2, m1)


def _over_z4(m, qq11):
    """A morphism m -> m, identity on B and D, whose phi is valued in a
    trivial Z/4 module instead of pi1 of m, with qq[1][1] = qq11."""
    ident = g.identity_hom(Z2)
    Z4mod = g.GammaModule(Z4, g.trivial_action(m.gamma, Z4))
    phi = SymmetricCochain2(m.pi0(), Z4mod, [[0, 0], [0, qq11]], [[0], [0]])
    return xm.CrossedMorphism(m, m, ident, ident, phi)


def test_compose_refuses_a_first_phi_off_its_ends_before_reading_it():
    # phi of m1 takes the value 3, past the two-element kernel of m, which
    # indexed a table of that kernel before its modules were checked
    m = samples.abelian_module(Z2, Z2, [0, 0])
    m1 = _over_z4(m, 3)
    assert not xm.validate_morphism(m1).ok
    with pytest.raises(ShapeMismatch, match="m1's phi"):
        xm.compose_morphisms(xm.identity_morphism(m), m1)


def test_compose_refuses_a_second_phi_off_its_ends():
    m = samples.abelian_module(Z2, Z2, [0, 0])
    for qq11 in (0, 3):
        m2 = _over_z4(m, qq11)
        assert not xm.validate_morphism(m2).ok
        with pytest.raises(ShapeMismatch, match="m2's phi"):
            xm.compose_morphisms(m2, xm.identity_morphism(m))
