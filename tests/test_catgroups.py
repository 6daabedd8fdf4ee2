import random
import tracemalloc
from functools import partial
from itertools import chain

import numpy as np
import pytest

from xmodcat import catgroups as cg
from xmodcat import cohomology as ch
from xmodcat import crossed as xm
from xmodcat import groups as g
from xmodcat import samples
from xmodcat.errors import DEFAULT_GUARD, SearchSpaceTooLarge, ShapeMismatch
from xmodcat.functors import check_graded_functor

Z2 = g.cyclic(2)
Z4 = g.cyclic(4)
TRIV = g.trivial_group()


def module(G, gamma=None, alpha=None):
    gamma = gamma or TRIV
    if alpha is None:
        return g.GammaModule(G, g.trivial_action(gamma, G))
    return g.GammaModule(G, g.action_from_automorphism(gamma, G, alpha))


def test_morphism_count_is_product():
    for m in samples.standard_corpus():
        G = cg.build_catgroup(m)
        assert G.n_mor == m.B.order * m.D.order * m.gamma.order


def test_composition_matches_payload_formula():
    m = samples.q8_i_module(True)
    G = cg.build_catgroup(m)
    B, gam = m.B, m.gamma
    rng = random.Random(0)
    for _ in range(100):
        f = rng.randrange(G.n_mor)
        cands = np.nonzero(G.src == G.tgt[f])[0]
        gm = int(cands[rng.randrange(len(cands))])
        c = int(G.comp[gm, f])
        assert c >= 0
        # second payload acts on the first by the grade of the second
        expect_pay = B.mul(m.act_b(int(G.grd[gm]), int(G.pay[f])),
                           int(G.pay[gm]))
        assert int(G.pay[c]) == expect_pay
        assert int(G.grd[c]) == gam.mul(int(G.grd[gm]), int(G.grd[f]))


def test_trivial_kernel_means_graded_translations_only():
    m = xm.BraidedGammaCrossedModule(
        TRIV, Z4, [0], [[0]] * 4, [[0] * 4 for _ in range(4)],
        Z2, g.trivial_action(Z2, TRIV),
        g.action_from_automorphism(Z2, Z4, [0, 3, 2, 1]))
    assert m.is_valid
    G = cg.build_catgroup(m)
    assert G.n_mor == 8
    for i in range(G.n_mor):
        s, x = int(G.grd[i]), int(G.src[i])
        assert int(G.tgt[i]) == m.act_d(s, x)


def test_check_axioms_passes_on_corpus():
    for m in samples.standard_corpus():
        rep = cg.check_axioms(cg.build_catgroup(m))
        assert rep.ok, (m, rep)


def test_symmetric_corpus_braiding_squares_to_identity():
    for m in samples.standard_corpus():
        if m.is_symmetric():
            rep = cg.check_axioms(cg.build_catgroup(m), symmetric=True)
            assert rep.ok


def test_nonsymmetric_braiding_passes_hexagons_but_not_symmetry():
    m = samples.nonsymmetric_braiding_module()
    assert m.is_valid and not m.is_symmetric()
    G = cg.build_catgroup(m)
    assert cg.check_axioms(G).ok
    rep = cg.check_axioms(G, symmetric=True)
    assert not rep.ok
    assert rep["symmetry"].first_witness == (1, 1)


def test_braid_mutation_breaks_something():
    m = samples.s3_a3_module(False)
    eta = [list(r) for r in m.eta]
    eta[1][2] = (eta[1][2] + 1) % m.B.order
    mutant = xm.BraidedGammaCrossedModule(m.B, m.D, m.d, m.theta, eta)
    assert not mutant.is_valid
    rep = cg.check_axioms(cg.build_catgroup(mutant))
    assert not rep.ok
    keys = {e.key for e in rep.failed()}
    assert keys & {"braiding-typing", "naturality-braiding",
                   "hexagon-left", "hexagon-right"}


def test_ker_restricts_to_grade_one():
    m = samples.q8_i_module(True)
    G = cg.build_catgroup(m)
    K = cg.ker(G)
    assert K.n_mor == m.B.order * m.D.order
    assert (K.grd == 0).all()
    assert cg.check_axioms(K).ok


def test_build_reduced_zero_is_strict_symmetric():
    Qm = module(Z2)
    G = cg.build_reduced(Qm, Qm)
    rep = cg.check_axioms(G, symmetric=True)
    assert rep.ok
    assert (G.aset == G.idm[0]).all() or G.n_obj > 1
    # strict: every constraint is an identity morphism
    assert all(int(G.aset[r, s, t]) == int(G.idm[(r + s + t) % 2])
               for r in range(2) for s in range(2) for t in range(2))


def test_dis_is_reduced_on_trivial_coefficients():
    Qm = module(Z4, Z2, [0, 3, 2, 1])
    D = cg.dis(Qm)
    assert D.n_obj == 4
    assert D.n_mor == 4 * 2
    assert cg.check_axioms(D).ok
    assert D.meta["N"].group.order == 1


def test_reduced_composition_matches_payload_formula():
    import random

    # negation downstairs forces a nonzero composition component in the
    # skeletal cochain of the doubling module
    m = samples.abelian_module(Z4, Z4, [0, 2, 0, 2], Z2,
                               g.trivial_action(Z2, Z4),
                               g.action_from_automorphism(Z2, Z4, [0, 3, 2, 1]))
    assert m.is_valid
    h, _ = cg.reduce_abelian(m)
    assert any(v for plane in h.comp for row in plane for v in row)
    Mm, Nm = h.M, h.N
    rng = random.Random(23)
    G = cg.build_reduced(Mm, Nm, h)
    N, gam = Nm.group, Mm.gamma
    for _ in range(100):
        f = rng.randrange(G.n_mor)
        cands = np.nonzero(G.src == G.tgt[f])[0]
        gm = int(cands[rng.randrange(len(cands))])
        c = int(G.comp[gm, f])
        tau, sig = int(G.grd[gm]), int(G.grd[f])
        r = int(G.src[f])
        expect = N.mul(N.mul(Nm.act(tau, int(G.pay[f])), int(G.pay[gm])),
                       h.comp[r][tau][sig])
        assert int(G.pay[c]) == expect
        assert int(G.grd[c]) == gam.mul(tau, sig)


def test_random_non_cocycle_fails_axioms():
    Qm = module(Z2)
    rng = random.Random(0)
    found = False
    for _ in range(60):
        h = ch.random_cochain3(Qm, Qm, rng)
        G = cg.build_reduced(Qm, Qm, h)
        if not cg.check_axioms(G).ok:
            found = True
            break
    assert found


def test_cocycle_test_matches_axiom_check():
    Qm = module(Z2, Z2)
    rng = random.Random(1)
    for _ in range(20):
        h = ch.random_cochain3(Qm, Qm, rng)
        ok, _ = ch.is_3cocycle(h)
        assert ok == cg.check_axioms(cg.build_reduced(Qm, Qm, h)).ok


def test_reduce_abelian_outputs_verified_cocycle_and_functor():
    neg = g.action_from_automorphism(Z2, Z4, [0, 3, 2, 1])
    cases = [
        samples.abelian_module(Z4, Z4, [0, 2, 0, 2]),
        samples.abelian_module(Z2, Z4, [0, 2]),
        samples.abelian_module(Z4, Z4, [0, 2, 0, 2], Z2, neg, neg),
        samples.abelian_module(Z4, Z4, [0, 2, 0, 2], Z2, neg,
                               g.trivial_action(Z2, Z4)),
    ]
    for m in cases:
        h, H = cg.reduce_abelian(m)
        assert ch.is_3cocycle(h)[0]
        assert check_graded_functor(H).ok


def test_reduce_abelian_obstruction_carrier_has_nonzero_tensor_part():
    # negation upstairs against the trivial action downstairs leaves a
    # kernel-valued twist in the tensor component
    neg = g.action_from_automorphism(Z2, Z4, [0, 3, 2, 1])
    m = samples.abelian_module(Z4, Z4, [0, 2, 0, 2], Z2, neg,
                               g.trivial_action(Z2, Z4))
    h, _ = cg.reduce_abelian(m)
    assert not h.is_zero()
    assert h.tensor[1][1][1] == 1


def test_category_equality_and_json():
    m = samples.s3_a3_module(False)
    G1 = cg.build_catgroup(m)
    G2 = cg.build_catgroup(m)
    assert G1 == G2
    # a category equals itself and an equal rebuilt copy, and an edit of
    # either side shows
    rebuilt = cg.GradedCatGroup(**_tables(G1))
    assert G1 == G1 and rebuilt == G1 and G1 == rebuilt
    G2.cset[1, 2] = (G2.cset[1, 2] + 1) % G2.n_mor
    assert G2 == G2 and G2 != G1 and G1 != G2
    blob = G1.to_json()
    assert blob["objects"] == 6
    assert len(blob["morphisms"]) == G1.n_mor


def test_pi_partitions():
    m = samples.abelian_module(Z2, Z4, [0, 2])
    G = cg.build_catgroup(m)
    labels, count = G.pi0_partition()
    assert count == 2
    proj = m.pi0_projection()
    assert labels == [proj(x) for x in range(4)]
    assert len(G.pi1_morphisms()) == 1  # kernel of the boundary is trivial


def test_naturality_witness_is_a_failing_triple():
    G = cg.build_catgroup(samples.s3_a3_module(False))
    G.aset[1, 2, 3] = G.record(0, 1, int(G.tgt[G.aset[1, 2, 3]]))
    entry = cg.check_axioms(G)["naturality-assoc"]
    assert not entry.ok
    assert all(len(w) == 3 for w in entry.witnesses)

    def comp(g, f):
        return -1 if g < 0 or f < 0 else int(G.comp[g, f])

    def ten(a, b):
        return -1 if a < 0 or b < 0 else int(G.tmor[a, b])

    u, v, w = entry.first_witness
    assert G.grd[u] == G.grd[v] == G.grd[w]
    lhs = comp(int(G.aset[G.tgt[u], G.tgt[v], G.tgt[w]]), ten(ten(u, v), w))
    rhs = comp(ten(u, ten(v, w)), int(G.aset[G.src[u], G.src[v], G.src[w]]))
    assert lhs != rhs or lhs < 0


def _tables(G):
    """The constructor arguments of G, read from its public attributes."""
    return dict(gamma=G.gamma, n_obj=G.n_obj, src=G.src, tgt=G.tgt,
                grd=G.grd, pay=G.pay, comp=G.comp, tob=G.tob, tmor=G.tmor,
                unit=G.unit, idm=G.idm, aset=G.aset, lset=G.lset,
                rset=G.rset, cset=G.cset, uI=G.uI, meta=G.meta)


@pytest.mark.parametrize("field, value", [
    ("comp", lambda G: -2),
    ("comp", lambda G: G.n_mor),
    ("tmor", lambda G: -2),
    ("src", lambda G: G.n_obj),
    ("tob", lambda G: -1),
    ("pay", lambda G: -1),
], ids=["comp-minus-two", "comp-past-end", "tmor-minus-two",
        "src-past-end", "tob-negative", "pay-negative"])
def test_out_of_range_index_is_refused(field, value):
    G = cg.build_catgroup(samples.s3_a3_module(False))
    tables = _tables(G)
    bad = getattr(G, field).copy()
    bad.flat[3] = value(G)
    tables[field] = bad
    with pytest.raises(ShapeMismatch):
        cg.GradedCatGroup(**tables)


@pytest.mark.parametrize("field, as_list", [
    ("comp", False), ("comp", True), ("pay", False),
], ids=["comp-int64", "comp-python-int", "pay-int64"])
def test_entry_past_int32_is_refused_before_it_is_narrowed(field, as_list):
    # 2**32 + 1 narrowed to int32 wraps to 1, an index in range
    G = cg.build_catgroup(samples.s3_a3_module(False))
    tables = _tables(G)
    bad = getattr(G, field).astype(np.int64)
    bad.flat[3] = 2 ** 32 + 1
    assert bad.astype(np.int32).flat[3] == 1
    tables[field] = bad.tolist() if as_list else bad
    with pytest.raises(ShapeMismatch, match=f"{field} holds an index outside"):
        cg.GradedCatGroup(**tables)


def test_public_tables_leave_out_the_undefined_slot():
    m = samples.s3_a3_module(True)
    G = cg.build_catgroup(m)
    n = G.n_mor
    assert n == m.B.order * m.D.order * m.gamma.order
    for name, shape in (("src", (n,)), ("tgt", (n,)), ("grd", (n,)),
                        ("inv", (n,)), ("comp", (n, n)), ("tmor", (n, n))):
        table = getattr(G, name)
        assert table.shape == shape
        assert table.dtype == np.int32
        assert table.nbytes == 4 * table.size
    blob = G.to_json()
    assert blob["composition"] == G.comp.tolist()
    assert blob["tensor"]["morphisms"] == G.tmor.tolist()
    assert len(blob["morphisms"]) == n
    rebuilt = cg.GradedCatGroup(**_tables(G))
    assert rebuilt == G
    assert rebuilt.to_json() == blob


def test_undefined_arrow_propagates_and_edits_write_through():
    G = cg.build_catgroup(samples.s3_a3_module(False))
    # index -1 reads the undefined slot of every padded table
    assert G._comp[-1, 0] == G._comp[0, -1] == G._tmor[-1, 0] == -1
    assert G._src[-1] == G._tgt[-1] == G._grd[-1] == G._inv[-1] == -1
    g, f = (int(v) for v in np.argwhere(G.comp >= 0)[5])
    G.comp[g, f] = -1
    rep = cg.check_axioms(G)
    assert rep.first_failure() == ("composition-defined", (g, f))



def test_reports_after_an_edit_do_not_depend_on_an_earlier_check():
    # two equal categories edited the same way, one of them checked before
    # the edit: the inverses are read from the edited composition table
    m = samples.standard_corpus()[0]
    G, H = cg.build_catgroup(m), cg.build_catgroup(m)
    cg.check_axioms(G)
    for C in (G, H):
        C.comp[1, 1] = 2
    assert G == H
    assert np.array_equal(G.inv, H.inv)
    reports = [[(e.key, e.fail_count, e.witnesses)
                for e in cg.check_axioms(C).entries] for C in (G, H)]
    assert reports[0] == reports[1]
    assert ("inverses", 1, ((1,),)) in reports[0]

# -- generator-reduced scans against the exhaustive ones -----------------------

_REDUCED = (
    ("tensor-interchange", cg._interchange,
     cg._interchange_on_generators, cg._INTERCHANGE_NEEDS),
    ("naturality-assoc", cg._nat_assoc,
     cg._nat_assoc_on_generators, cg._NAT_ASSOC_NEEDS),
)


def _reduced_scans_agree(G):
    """Assert that check_axioms reports tensor-interchange and
    naturality-assoc exactly as their exhaustive scans do, and that where
    a family's preconditions pass its generator scan gives the exhaustive
    verdict.  Returns the (key, verdict) of each generator scan that ran."""
    rep = cg.check_axioms(G)
    passed = {e.key for e in rep.entries if e.ok}
    ran = []
    for key, exhaustive, on_generators, needs in _REDUCED:
        full = exhaustive(G)
        got = rep[key]
        assert (got.ok, got.fail_count, got.first_witness) == \
            (full.ok, full.fail_count, full.first_witness), key
        assert got.witnesses == full.witnesses, key
        if needs <= passed:
            assert on_generators(G, cg._lifts(G), cg._grade1_generators(G)) == \
                full.ok, key
            ran.append((key, full.ok))
    return ran


def test_generator_scans_match_exhaustive_on_corpus():
    for m in samples.standard_corpus():
        assert _reduced_scans_agree(cg.build_catgroup(m)) == [
            ("tensor-interchange", True), ("naturality-assoc", True)]


def test_generator_scans_match_exhaustive_on_random_modules_and_mutants():
    mods = samples.random_corpus(20260808, 200, max_order=8)
    mutants = samples.random_breaking_mutations(
        random.Random(20260808), samples.standard_corpus() + mods[:50], 100)
    assert len(mutants) == 100
    ran = set()
    for m in mods + [mutant for mutant, _, _ in mutants]:
        ran.update(_reduced_scans_agree(cg.build_catgroup(m)))
    assert ran == {("tensor-interchange", True), ("tensor-interchange", False),
                   ("naturality-assoc", True), ("naturality-assoc", False)}


def test_generator_scans_match_exhaustive_on_random_cochains():
    neg4 = module(Z4, Z2, [0, 3, 2, 1])
    Z3neg = module(g.cyclic(3), Z2, [0, 2, 1])
    pairs = [(module(Z2), module(Z2)), (module(Z2, Z2), module(Z2, Z2)),
             (neg4, module(Z2, Z2)), (module(Z2, Z2), neg4),
             (Z3neg, Z3neg), (module(Z4, Z2), neg4)]
    rng = random.Random(20260808)
    ran = set()
    for M, N in pairs:
        for _ in range(20):
            G = cg.build_reduced(M, N, ch.random_cochain3(M, N, rng))
            ran.update(_reduced_scans_agree(G))
    assert ("tensor-interchange", False) in ran
    assert ("naturality-assoc", False) in ran


def _cochain(M, N, **parts):
    h = ch.zero_cochain3(M, N)
    return ch.Cochain3(M, N, parts.get("assoc", h.assoc), h.braid,
                       parts.get("tensor", h.tensor), h.comp)


def test_interchange_failure_found_by_the_generator_scan():
    # one tensor twist on grade-s arrows: typed, but not bifunctorial
    M, N = module(Z4, Z2, [0, 3, 2, 1]), module(Z2, Z2)
    tensor = [[[0, int((r, s) == (1, 1))] for s in range(4)] for r in range(4)]
    G = cg.build_reduced(M, N, _cochain(M, N, tensor=tensor))
    assert _reduced_scans_agree(G) == [("tensor-interchange", False)]
    assert [e.key for e in cg.check_axioms(G).failed()] == [
        "tensor-interchange", "naturality-assoc"]


def test_naturality_assoc_failure_found_by_the_generator_scan():
    # an associator that grade s does not preserve: s.a(1,1,1) != a(1,1,1)
    M, N = module(Z2, Z2), module(Z4, Z2, [0, 3, 2, 1])
    assoc = [[[1 if (r, s, t) == (1, 1, 1) else 0 for t in range(2)]
              for s in range(2)] for r in range(2)]
    G = cg.build_reduced(M, N, _cochain(M, N, assoc=assoc))
    assert _reduced_scans_agree(G) == [("tensor-interchange", True),
                                       ("naturality-assoc", False)]
    assert "naturality-assoc" in [e.key for e in cg.check_axioms(G).failed()]


@pytest.mark.parametrize("pos", [0, 1, 2], ids=["first", "second", "third"])
def test_associator_unnatural_in_one_variable(pos):
    # twist a(x, y, z) by the automorphism of payload 2 wherever the
    # pos-th object is 1: natural in the other two variables only
    G = cg.build_catgroup(samples.abelian_module(Z4, Z2, [0, 1, 0, 1]))
    for idx in np.ndindex(G.aset.shape):
        if idx[pos] == 1:
            a = int(G.aset[idx])
            G.aset[idx] = G.comp[a, G.record(0, 2, int(G.src[a]))]
    assert _reduced_scans_agree(G) == [("tensor-interchange", True),
                                       ("naturality-assoc", False)]
    assert cg.check_axioms(G)["naturality-assoc"].fail_count == 256


def _closure(G, arrows):
    """Every composite of the given arrows, identities included."""
    have = set(map(int, G.idm)) | set(map(int, arrows))
    while True:
        cur = np.array(sorted(have))
        comps = G.comp[cur[:, None], cur[None, :]]
        more = set(map(int, comps[comps >= 0])) - have
        if not more:
            return have
        have |= more


def _assert_generates_grade_one(G):
    gens = cg._grade1_generators(G)
    grade1 = set(map(int, np.nonzero(G.grd == 0)[0]))
    assert list(gens) == sorted(set(map(int, gens)))
    assert set(map(int, gens)) <= grade1
    assert _closure(G, gens) == grade1
    return len(gens), len(grade1)


def test_grade_one_generators_generate_the_grade_one_groupoid():
    rng = random.Random(20261018)
    cats = [cg.build_catgroup(m) for m in
            samples.standard_corpus() + samples.random_corpus(20261018, 40)]
    M, N = module(Z4, Z2, [0, 3, 2, 1]), module(Z2, Z2)
    cats += [cg.build_reduced(M, N, ch.random_cochain3(M, N, rng))
             for _ in range(5)]
    # d not surjective: two components of the grade-1 groupoid
    split = cg.build_catgroup(samples.abelian_module(Z2, Z4, [0, 2]))
    assert split.pi0_partition()[1] == 2
    for G in cats + [split]:
        _assert_generates_grade_one(G)
    sizes = [_assert_generates_grade_one(cg.build_catgroup(_ladder(n, k)))
             for n, k in ((8, 3), (12, 5), (16, 7))]
    assert all(gens < grade1 for gens, grade1 in sizes)


def test_each_grade_one_generator_is_new():
    # an arrow is picked only when the earlier picks do not generate it
    G = cg.build_catgroup(_ladder(8, 2))
    gens = list(cg._grade1_generators(G))
    for i, k in enumerate(gens):
        assert int(k) not in _closure(G, gens[:i])


def test_lifts_are_least_arrows_of_each_grade():
    G = cg.build_catgroup(samples.s3_a3_module(True))
    ups = cg._lifts(G)
    assert (ups[0] == G.idm).all()
    for s in range(1, G.gamma.order):
        for x in range(G.n_obj):
            assert ups[s, x] == min(m for m in range(G.n_mor)
                                    if G.grd[m] == s and G.src[m] == x)


# -- blocked exhaustive scans against one-piece references ---------------------

def _one_piece(key, chunks):
    """The check of an axiom from its (failure mask, witness arrays) chunks,
    each mask built whole and every failure located by argwhere."""
    checks = []
    for bad, arrays in chunks:
        rows = np.argwhere(bad)
        checks.append(xm.AxiomCheck(
            key, (tuple(int(w[tuple(r)]) for w in arrays) for r in rows),
            len(rows)))
    return xm.AxiomCheck(key, chain.from_iterable(c.witnesses for c in checks),
                         sum(c.fail_count for c in checks))


def _interchange_one_piece(G, arrows=None):
    """tensor-interchange as one (P x P) square per grade pair, over the
    composable pairs (g, f) with g in arrows[grd g] (every g by default)."""
    comp, tmor = G._comp, G._tmor
    gsel, fsel = np.nonzero(G.tgt[None, :] == G.src[:, None])
    if arrows is not None:
        # each arrows[s] holds grade-s arrows only
        keep = np.isin(gsel, np.concatenate(arrows))
        gsel, fsel = gsel[keep], fsel[keep]
    pair_grade = G.grd[gsel] * G.gamma.order + G.grd[fsel]

    def chunks():
        for key in np.unique(pair_grade):
            sel = pair_grade == key
            g1, f1 = gsel[sel], fsel[sel]
            gi, fi, gj, fj = np.broadcast_arrays(
                g1[:, None], f1[:, None], g1[None, :], f1[None, :])
            lhs = tmor[comp[gi, fi], comp[gj, fj]]
            rhs = comp[tmor[gi, gj], tmor[fi, fj]]
            yield ~((lhs == rhs) & (lhs >= 0)), (gi, fi, gj, fj)
    return _one_piece("tensor-interchange", chunks())


def _nat_assoc_one_piece(G, arrows=None):
    """naturality-assoc as one (P x P x P) cube per grade, over
    arrows[s]^3 (every grade-s arrow by default)."""
    comp, tmor, aset, SRC, TGT = G._comp, G._tmor, G.aset, G._src, G._tgt

    def chunks():
        for s in range(G.gamma.order):
            sel = np.nonzero(G.grd == s)[0] if arrows is None else arrows[s]
            if not len(sel):
                continue
            u, v, w = np.broadcast_arrays(
                sel[:, None, None], sel[None, :, None], sel[None, None, :])
            lhs = comp[aset[TGT[u], TGT[v], TGT[w]], tmor[tmor[u, v], w]]
            rhs = comp[tmor[u, tmor[v, w]], aset[SRC[u], SRC[v], SRC[w]]]
            yield ~((lhs == rhs) & (lhs >= 0)), (u, v, w)
    return _one_piece("naturality-assoc", chunks())


def _tensor_typing_one_piece(G):
    """tensor-typing on the whole list of same-grade pairs at once."""
    SRC, TGT, GRD, tob = G._src, G._tgt, G._grd, G.tob
    isel, jsel = np.nonzero(G.grd[:, None] == G.grd[None, :])
    tt = G._tmor[isel, jsel]
    ok = (SRC[tt] == tob[SRC[isel], SRC[jsel]]) & \
        (TGT[tt] == tob[TGT[isel], TGT[jsel]]) & (GRD[tt] == GRD[isel])
    return cg._entry("tensor-typing", ok, [isel, jsel])


def _ladder(n, k):
    """Z_n -> Z_n, d = multiplication by k, Z2 negating both."""
    Zn = g.cyclic(n)
    neg = g.action_from_automorphism(Z2, Zn, [(-x) % n for x in range(n)])
    return samples.abelian_module(Zn, Zn, [(k * x) % n for x in range(n)],
                                  Z2, neg, neg)


def _associative_per_morphism(G):
    """composition-associative one morphism h at a time: every (g, f)
    with tgt f = src g, where h o g is defined in comp."""
    comp = G._comp
    gsel, fsel = np.nonzero(G.tgt[None, :] == G.src[:, None])

    def chunks():
        for h in range(G.n_mor):
            gmask = comp[h, gsel] >= 0
            g1, f1 = gsel[gmask], fsel[gmask]
            lhs = comp[h, comp[g1, f1]]
            rhs = comp[comp[h, g1], f1]
            yield (lhs != rhs) | (lhs < 0), (np.full_like(g1, h), g1, f1)
    return _one_piece("composition-associative", chunks())


_BLOCKED = ((cg._associative, _associative_per_morphism),
            (cg._tensor_typing, _tensor_typing_one_piece),
            (cg._interchange, _interchange_one_piece),
            (cg._nat_assoc, _nat_assoc_one_piece))
# the two coherence evaluators, which also run on the generating arrow sets
_EVALUATORS = _BLOCKED[2:]


def _generating_arrows(G):
    """[union(k, idm)] + ups[1:], the arrow sets of the generator pass of
    check_axioms, each ascending; lifts that do not exist are left out."""
    ups = cg._lifts(G)
    return [np.union1d(cg._grade1_generators(G), G.idm)] + \
        [np.sort(u[u >= 0]) for u in ups[1:]]


def _agrees_at_every_block(monkeypatch, G, blocked, reference):
    """Assert that blocked gives reference's fail count and witnesses at
    every block size; returns the reference (key, ok)."""
    want = reference(G)
    # 1 and 7 split every scan into many blocks; 2^10 and the shipped
    # size split the larger ones mid-way
    for block in (1, 7, 1 << 10, cg._BLOCK):
        monkeypatch.setattr(cg, "_BLOCK", block)
        got = blocked(G)
        assert (got.key, got.fail_count, got.witnesses) == \
            (want.key, want.fail_count, want.witnesses), block
    monkeypatch.undo()
    return want.key, want.ok


def _blocked_scans_agree(monkeypatch, G, scans=_BLOCKED):
    """Assert that each blocked scan, and both coherence evaluators on the
    generating arrow sets, agree with their references at every block
    size; returns the reference (key, ok)s of the scans."""
    seen = {_agrees_at_every_block(monkeypatch, G, *scan) for scan in scans}
    arrows = _generating_arrows(G)
    for blocked, reference in _EVALUATORS:
        _agrees_at_every_block(monkeypatch, G, partial(blocked, arrows=arrows),
                               partial(reference, arrows=arrows))
    return seen


def test_blocked_scans_match_the_one_piece_scans(monkeypatch):
    # eight ladder mutants, seven of the n_mor-128 rung and one of the 288
    rng = random.Random(20261018)
    mutants = [m for base, count in ((_ladder(8, 3), 7), (_ladder(12, 5), 1))
               for m, _, _ in samples.random_breaking_mutations(rng, [base], count)]
    mutants += [m for m, _, _ in samples.random_breaking_mutations(
        rng, samples.standard_corpus(), 12)]
    seen = set()
    for m in mutants:
        seen |= _blocked_scans_agree(monkeypatch, cg.build_catgroup(m))
    assert {("tensor-typing", False), ("tensor-interchange", False),
            ("naturality-assoc", False)} <= seen
    # the valid ladder rungs to n_mor 512: tensor-typing on every pair, the
    # evaluators on the generating arrow sets only
    for n, k in ((8, 3), (12, 5), (16, 7)):
        assert _blocked_scans_agree(
            monkeypatch, cg.build_catgroup(_ladder(n, k)), _BLOCKED[1:2]) == {
                ("tensor-typing", True)}


def test_associativity_reads_its_instances_from_the_composition_table(monkeypatch):
    # comp edited to be defined where tgt != src, then undefined or wrong
    # where tgt = src: the scan takes its (h, g) pairs from comp, its
    # (g, f) pairs from the types
    rng = random.Random(20261018)
    scans = _BLOCKED[:1]
    mods = [m for m in samples.standard_corpus() if m.D.order > 1]
    for m in mods[:6] + [_ladder(8, 3)]:
        G = cg.build_catgroup(m)
        assert _blocked_scans_agree(monkeypatch, G, scans) == {
            ("composition-associative", True)}
        off = np.argwhere(G.src[:, None] != G.tgt[None, :])
        h, g_ = (int(v) for v in off[rng.randrange(len(off))])
        elsewhere = np.nonzero(G.src != G.src[g_])[0]
        G.comp[h, g_] = elsewhere[rng.randrange(len(elsewhere))]
        # each (h, g, f) with f into src g is an instance, and fails:
        # h o (g o f) is undefined but at f = id, where (h o g) o id is
        # undefined instead
        into = [int(f) for f in np.nonzero(G.tgt == G.src[g_])[0]]
        got = _associative_per_morphism(G)
        assert got.fail_count == len(into)
        assert got.witnesses == tuple((h, g_, f) for f in into[:16])
        assert _blocked_scans_agree(monkeypatch, G, scans) == {
            ("composition-associative", False)}
        on = np.argwhere(G.src[:, None] == G.tgt[None, :])
        for value in (-1, rng.randrange(G.n_mor)):
            G.comp[tuple(on[rng.randrange(len(on))])] = value
        assert _blocked_scans_agree(monkeypatch, G, scans) == {
            ("composition-associative", False)}


def test_blocked_scans_fail_squares_with_both_sides_undefined(monkeypatch):
    # one side of each square reads its own tables with their undefined
    # entries as -2 and the other comp, so lhs != rhs alone must fail a
    # square whose two sides are undefined
    rng = random.Random(20261019)
    scans = _EVALUATORS
    mods = [m for m in samples.standard_corpus() if m.D.order > 1]
    for m in mods[:3] + [_ladder(8, 3)]:
        G = cg.build_catgroup(m)
        comp, tmor = G._comp, G._tmor
        on = np.argwhere(G.src[:, None] == G.tgt[None, :])
        same = np.argwhere(G.grd[:, None] == G.grd[None, :])
        g_, f_ = (int(v) for v in on[rng.randrange(len(on))])
        G.comp[g_, f_] = -1
        G.tmor[g_, g_] = -1
        # and a wrong arrow at one more defined entry of each table
        for table, where in ((G.comp, on), (G.tmor, same)):
            pos = tuple(where[rng.randrange(len(where))])
            table[pos] = (table[pos] + rng.randrange(1, G.n_mor)) % G.n_mor
        # the interchange square (g, f, g, f) and the naturality-assoc
        # triple (g, g, g) now have both sides undefined
        assert tmor[comp[g_, f_], comp[g_, f_]] == -1
        assert comp[tmor[g_, g_], tmor[f_, f_]] == -1
        assert comp[G.aset[(G.tgt[g_],) * 3], tmor[tmor[g_, g_], g_]] == -1
        assert comp[tmor[g_, tmor[g_, g_]], G.aset[(G.src[g_],) * 3]] == -1
        assert _blocked_scans_agree(monkeypatch, G, scans) == {
            ("tensor-interchange", False), ("naturality-assoc", False)}
        # an associator made undefined, then another a non-identity grade-1
        # arrow: naturality-assoc's rows of comp at the distinct associators
        # then hold the padding row and more than n_obj rows
        grade1 = np.setdiff1d(np.nonzero(G.grd == 0)[0], G.idm)
        at = rng.sample(range(G.aset.size), 2)
        for pos, value in zip(at, (-1, int(grade1[rng.randrange(len(grade1))]))):
            G.aset.flat[pos] = value
            assert _agrees_at_every_block(
                monkeypatch, G, cg._nat_assoc, _nat_assoc_one_piece) == (
                    "naturality-assoc", False)
        distinct, _ = cg._distinct(G.aset, G.n_mor + 1)
        assert distinct[-1] == G.n_mor and len(distinct) > G.n_obj


def test_entry_counts_every_failure_and_keeps_the_first_sixteen():
    ok = np.random.default_rng(7).random((6, 5)) < 0.3
    failing = [(i, j) for i in range(6) for j in range(5) if not ok[i, j]]
    assert len(failing) > 16
    e = cg._entry("k", ok)
    assert (e.fail_count, e.witnesses) == (len(failing), tuple(failing[:16]))
    # witness arrays of the mask's shape, or broadcasting to it
    rows = np.arange(6)[:, None] * 10 + np.zeros((6, 5), dtype=np.int64)
    e = cg._entry("k", ok, [rows, np.arange(5)])
    assert e.fail_count == len(failing)
    assert e.witnesses == tuple((10 * i, j) for i, j in failing[:16])
    assert cg._entry("k", np.ones((6, 5), dtype=bool), [rows]).witnesses == ()
    # across blocks the count continues and the cap is shared
    check = cg._tally("k", [(~ok, None), (~ok, [rows, np.arange(5)])])
    assert check.fail_count == 2 * len(failing)
    assert check.witnesses == tuple(failing[:16])
    short = ~ok
    short[3:] = False
    first = [w for w in failing if w[0] < 3]
    assert 0 < len(first) < 16
    check = cg._tally("k", [(short, None), (~ok, [rows, np.arange(5)])])
    assert check.fail_count == len(first) + len(failing)
    assert check.witnesses == tuple(first) + tuple(
        (10 * i, j) for i, j in failing[:16 - len(first)])


def test_failing_category_check_stays_within_its_memory_bound():
    mutant, _, desc = samples.random_breaking_mutations(
        random.Random(0), [_ladder(12, 5)], 1)[0]
    G = cg.build_catgroup(mutant)
    assert G.n_mor == 288
    tracemalloc.start()
    try:
        rep = cg.check_axioms(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # both families took the exhaustive scan, and found failures
    assert not rep["tensor-interchange"].ok and not rep["naturality-assoc"].ok
    assert not cg._INTERCHANGE_NEEDS <= {e.key for e in rep.entries if e.ok}
    assert peak < 32 << 20, (desc, peak)


def test_valid_category_build_and_check_stay_near_the_tables_they_keep():
    # the n_mor-512 rung: comp and tmor are written in place, row block by
    # row block, and check_axioms makes no copy of comp: its peak above
    # the tables reads 1.85 MB, and one more copy of comp (1 MB) exceeds this
    # the first check in a process allocates some memory for good
    cg.check_axioms(cg.build_catgroup(_ladder(4, 1)))
    tracemalloc.start()
    try:
        G = cg.build_catgroup(_ladder(16, 7))
        kept, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        rep = cg.check_axioms(G)
        check_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.n_mor == 512 and rep.ok
    tables = G._comp.nbytes + G._tmor.nbytes
    assert kept >= tables
    assert build_peak <= 1.5 * tables, (build_peak, tables)
    assert check_peak - kept <= 2.25 * 2 ** 20, (check_peak, kept)


def test_failing_rung_check_stays_near_the_tables_it_keeps():
    # the actD mutant of the n_mor-512 rung fails both families, so each
    # takes its exhaustive scan there, with per-grade tables of 2^16 entries
    mutant, _, desc = samples.random_breaking_mutations(
        random.Random(0), [_ladder(16, 7)], 1)[0]
    cg.check_axioms(cg.build_catgroup(_ladder(4, 1)))
    tracemalloc.start()
    try:
        G = cg.build_catgroup(mutant)
        kept = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rep = cg.check_axioms(G)
        check_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert desc.startswith("actD") and G.n_mor == 512
    assert not rep["tensor-interchange"].ok and not rep["naturality-assoc"].ok
    assert check_peak - kept <= 3.4 * 2 ** 20, (desc, check_peak, kept)


def test_blocked_scans_match_the_one_piece_scans_on_ragged_targets(monkeypatch):
    # one arrow's target moved in place: its old target then receives one
    # grade-t arrow fewer than the others and its new one one more, so the
    # scans' per-object lists of arrows are padded with -1
    rng = random.Random(20261020)
    bases = [_ladder(4, 1), _ladder(6, 5)] + [m for m, _, _ in
             samples.random_breaking_mutations(rng, [_ladder(6, 1)], 2)]
    seen = set()
    for m in bases:
        G = cg.build_catgroup(m)
        arrow = rng.randrange(G.n_mor)
        others = [x for x in range(G.n_obj) if x != G.tgt[arrow]]
        G.tgt[arrow] = rng.choice(others)
        counts = np.bincount(G.grd * G.n_obj + G.tgt,
                             minlength=G.gamma.order * G.n_obj)
        assert counts.min() < counts.max(), m
        seen |= _blocked_scans_agree(monkeypatch, G)
    assert {("composition-associative", False), ("tensor-typing", False),
            ("tensor-interchange", False)} <= seen


def test_interchange_squares_are_no_wider_than_their_own_targets(monkeypatch):
    # every grade-1 arrow of the n_mor-128 rung moved to target 0, which
    # then receives 64 grade-1 arrows and every other object none: a square
    # padded to that width over all sources and grades is (64 * 64)^2
    # instances, where its composable pairs give at most (8 * 64)^2
    G = cg.build_catgroup(_ladder(8, 3))
    G.tgt[G.grd == 0] = 0
    assert _agrees_at_every_block(monkeypatch, G, cg._interchange,
                                  _interchange_one_piece) == (
                                      "tensor-interchange", False)
    # the instances evaluated: the sum of the block masks' sizes
    scanned, tally = [], cg._tally

    def counted(key, blocks):
        def sized():
            for bad, witness_arrays in blocks:
                scanned.append(bad.size)
                yield bad, witness_arrays
        return tally(key, sized())
    monkeypatch.setattr(cg, "_tally", counted)
    assert cg._interchange(G).fail_count == 516096
    gsel, fsel = np.nonzero(G.tgt[None, :] == G.src[:, None])
    pairs = np.bincount(G.grd[gsel] * G.gamma.order + G.grd[fsel])
    assert sum(scanned) <= int((pairs.astype(np.int64) ** 2).sum())


def test_layout_keeps_every_flat_index_within_int32_whatever_the_guard():
    # the padded tables are (n_mor + 1)^2 entries, and the scans index them
    # flat: n_mor 46339 fits, 46340 does not, even at a guard of 2^40
    ceiling = 2 ** 31 - 1
    for ng, n_pay, n_obj in ((1, 46339, 1), (2, 152, 152)):
        n = ng * n_pay * n_obj
        assert (n + 1) ** 2 <= ceiling
        layout = cg._layout(ng, n_pay, n_obj, 2 ** 40)
        assert layout.shape == (3, n) and layout.dtype == np.int32
    assert len(cg._layout(1, 46339, 1, DEFAULT_GUARD)[0]) == 46339
    for ng, n_pay, n_obj, guard in ((1, 46340, 1, DEFAULT_GUARD),
                                    (2, 153, 153, 2 ** 40)):
        n = ng * n_pay * n_obj
        with pytest.raises(SearchSpaceTooLarge) as trip:
            cg._layout(ng, n_pay, n_obj, guard)
        assert (trip.value.size, trip.value.guard) == ((n + 1) ** 2, ceiling)
    # a built category is refused there, before any table is allocated
    m = _ladder(153, 1)
    tracemalloc.start()
    try:
        with pytest.raises(SearchSpaceTooLarge) as trip:
            cg.build_catgroup(m, guard=2 ** 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trip.traceback[-1].name == "_layout"
    assert peak < 1 << 20


def test_counts_and_witnesses_are_python_ints():
    mutants = samples.random_breaking_mutations(
        random.Random(3), [_ladder(4, 1), _ladder(6, 5)], 4)
    failed = 0
    for mutant, _, _ in mutants:
        for e in cg.check_axioms(cg.build_catgroup(mutant)).entries:
            assert type(e.fail_count) is int
            assert all(type(v) is int for w in e.witnesses for v in w), e
            failed += not e.ok
    assert failed


def test_a_second_check_reads_an_in_place_edit_of_comp():
    # comp edited at the composite (g (x) g) o (f (x) f) that the
    # interchange square (g, f, g, f) reads: a check made before the edit
    # must leave no copy of comp behind
    m = _ladder(4, 1)
    G, H = cg.build_catgroup(m), cg.build_catgroup(m)
    assert cg.check_axioms(G).ok
    g_, f_ = (int(v) for v in np.argwhere(G.comp >= 0)[7])
    x, y = int(G.tmor[g_, g_]), int(G.tmor[f_, f_])
    for C in (G, H):
        C.comp[x, y] = (C.comp[x, y] + 1) % C.n_mor
    assert G == H
    reports = [[(e.key, e.fail_count, e.witnesses)
                for e in cg.check_axioms(C).entries] for C in (G, H)]
    assert reports[0] == reports[1]
    assert {key: count for key, count, _ in reports[0]}["tensor-interchange"]


# -- both builders against a per-morphism reference ----------------------------

def _reference(gam, O, n_pay, source, comp_pay, ten_pay, assoc_pay, braid_pay):
    """Every table of a built category, one arrow at a time.  An arrow is
    (grade s, payload b, target y), listed with the grade slowest and the
    target fastest; source(f) is its source, comp_pay(g, f) the payload of
    g o f, ten_pay(f, g) that of f (x) g, and assoc_pay(x, y, z) and
    braid_pay(x, y) those of the grade-1 constraints."""
    arrows = [(s, b, y) for s in range(gam.order) for b in range(n_pay)
              for y in range(O.order)]
    index = {a: i for i, a in enumerate(arrows)}
    n = len(arrows)
    src = [source(f) for f in arrows]
    comp = np.full((n, n), -1)
    tmor = np.full((n, n), -1)
    for i, f in enumerate(arrows):
        for j, g_ in enumerate(arrows):
            if src[j] == f[2]:
                comp[j, i] = index[(gam.mul(g_[0], f[0]), comp_pay(g_, f),
                                    g_[2])]
            if f[0] == g_[0]:
                tmor[i, j] = index[(f[0], ten_pay(f, g_), O.mul(f[2], g_[2]))]
    objs = range(O.order)
    idm = [index[(0, 0, x)] for x in objs]
    return dict(
        src=src, tgt=[f[2] for f in arrows], grd=[f[0] for f in arrows],
        pay=[f[1] for f in arrows], comp=comp, tob=O.table, tmor=tmor,
        idm=idm, lset=idm, rset=idm,
        aset=[[[index[(0, assoc_pay(x, y, z), O.mul(O.mul(x, y), z))]
                for z in objs] for y in objs] for x in objs],
        cset=[[index[(0, braid_pay(x, y), O.mul(y, x))] for y in objs]
              for x in objs],
        uI=[index[(s, 0, 0)] for s in range(gam.order)])


def _reference_catgroup(m):
    """(b, s): x -> y with s.x = d(b) y; (c, t) o (b, s) = (t(b) c, ts);
    (b, s) (x) (c, s) = (b theta_y(c), s) for (b, s) into y; constraints
    are identities but the braiding, which carries eta."""
    B, D, gam = m.B, m.D, m.gamma
    return _reference(
        gam, D, B.order,
        lambda f: m.act_d(gam.inv(f[0]), D.mul(m.d[f[1]], f[2])),
        lambda g_, f: B.mul(m.act_b(g_[0], f[1]), g_[1]),
        lambda f, g_: B.mul(f[1], m.theta[f[2]][g_[1]]),
        lambda x, y, z: 0, lambda x, y: m.eta[x][y])


def _reference_reduced(M, N, h):
    """(a, s): r -> s.r; composites and tensors add payloads (the outer
    grade acting on the inner payload of a composite) plus the comp and
    tensor components of h at the sources; constraints carry h."""
    gam, Ng = M.gamma, N.group

    def source(f):
        return M.act(gam.inv(f[0]), f[2])

    return _reference(
        gam, M.group, Ng.order, source,
        lambda g_, f: Ng.mul(Ng.mul(N.act(g_[0], f[1]), g_[1]),
                             h.comp[source(f)][g_[0]][f[0]]),
        lambda f, g_: Ng.mul(Ng.mul(f[1], g_[1]),
                             h.tensor[source(f)][source(g_)][f[0]]),
        lambda x, y, z: h.assoc[x][y][z], lambda x, y: h.braid[x][y])


def _assert_tables(monkeypatch, build, expected):
    """Assert that build() gives the expected tables at every block size
    of the row-blocked table writes."""
    for block in (1, 7, 1 << 10, cg._BLOCK):
        monkeypatch.setattr(cg, "_BLOCK", block)
        G = build()
        for name, table in expected.items():
            assert np.array_equal(getattr(G, name), np.asarray(table)), \
                (name, block)
        assert G.unit == 0
    monkeypatch.undo()


def test_builders_match_the_per_morphism_reference(monkeypatch):
    rng = random.Random(5)
    mods = samples.standard_corpus() + samples.random_corpus(20261018, 30)
    reduced = 0
    for m in mods:
        _assert_tables(monkeypatch, partial(cg.build_catgroup, m),
                       _reference_catgroup(m))
        if m.is_abelian_module():
            P, K = m.pi0(), m.pi1()
            for h in [ch.zero_cochain3(P, K)] + \
                    [ch.random_cochain3(P, K, rng) for _ in range(2)]:
                _assert_tables(monkeypatch, partial(cg.build_reduced, P, K, h),
                               _reference_reduced(P, K, h))
                reduced += 1
    assert reduced >= 20


def test_built_category_cannot_rewrite_a_cached_group():
    """A built category's object tensor is the object group's cached
    np_table, and cyclic(4) is shared by every caller in the process: an
    in-place edit is refused instead of rewriting Z4."""
    G = cg.build_catgroup(samples.abelian_module(Z4, Z4, [0, 2, 0, 2]))
    assert np.shares_memory(G.tob, g.cyclic(4).np_table)
    with pytest.raises(ValueError):
        G.tob[1, 1] = 0
    assert g.cyclic(4).np_table.tolist() == [list(r) for r in Z4.table]
