import itertools
import random

import numpy as np
import pytest

from xmodcat import groups as g
from xmodcat import samples
from xmodcat.errors import (
    MatrixShapeMismatch,
    NoInverse,
    NotAssociative,
    NotNormal,
    ShapeMismatch,
)


def closure_table(order_hint, gens, mul):
    """Oracle: generate a multiplication table by closure from generators."""
    elems = [()]  # words, canonicalized by the external mul on frozen images
    # represent elements as their action images: here mul works on opaque
    # values, so we close over a seed set instead
    seen = list(gens)
    frontier = list(gens)
    while frontier:
        x = frontier.pop()
        for y in list(seen):
            for z in (mul(x, y), mul(y, x)):
                if z not in seen:
                    seen.append(z)
                    frontier.append(z)
    seen = sorted(seen)
    pos = {v: i for i, v in enumerate(seen)}
    return [[pos[mul(a, b)] for b in seen] for a in seen], seen


def test_group_from_table_z2():
    G = g.group_from_table([[0, 1], [1, 0]])
    assert G.order == 2 and G.is_abelian


def test_group_from_table_no_inverse():
    with pytest.raises(NoInverse) as err:
        g.group_from_table([[0, 1], [1, 1]])
    assert err.value.witness == (1,)


def test_group_from_table_not_square():
    with pytest.raises(ShapeMismatch):
        g.group_from_table([[0, 1], [1]])


def test_s3_table_by_closure_oracle():
    # oracle: close two permutations of {0,1,2} under composition
    def mul(p, q):
        return tuple(p[q[i]] for i in range(3))

    table, elems = closure_table(6, [(1, 0, 2), (0, 2, 1), (0, 1, 2)], mul)
    assert len(elems) == 6
    normalized = g.normalize_identity(table)
    G = g.group_from_table(normalized)
    assert G.order == 6 and not G.is_abelian
    assert g.is_isomorphic(G, g.symmetric3())


def test_normalize_identity_moves_the_identity_to_index_zero():
    # Z3 with k written as (k + 2) % 3, so its identity is 2
    table = [[(a + b + 1) % 3 for b in range(3)] for a in range(3)]
    assert g.normalize_identity(table) == [list(r) for r in g.cyclic(3).table]


def test_not_associative_detected():
    tbl = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
    with pytest.raises((NotAssociative, NoInverse)):
        g.group_from_table(tbl)


def _scan_witness(tbl):
    """Oracle: the lexicographically first (a, b, c) with (ab)c != a(bc),
    by comparing every triple at once, or None."""
    t = np.asarray(tbl, dtype=np.int64)
    bad = np.argwhere(t[t, :] != t[:, t])
    return tuple(int(v) for v in bad[0]) if len(bad) else None


def _relabel(tbl, perm):
    """The table with element x renamed perm[x]."""
    out = [[0] * len(tbl) for _ in tbl]
    for a, row in enumerate(tbl):
        for b, v in enumerate(row):
            out[perm[a]][perm[b]] = perm[v]
    return out


# A Latin square with identity 0 in which every element is its own
# inverse: a loop of order 5 that is no group, since Z5 has one involution.
_LOOP5 = [[0, 1, 2, 3, 4],
          [1, 0, 3, 4, 2],
          [2, 4, 0, 1, 3],
          [3, 2, 4, 0, 1],
          [4, 3, 1, 2, 0]]


def _product(s, t):
    """The product table of s and t, with (a, b) packed as a * |t| + b."""
    k = len(t)
    return [[s[a1][a2] * k + t[b1][b2] for a2 in range(len(s)) for b2 in range(k)]
            for a1 in range(len(s)) for b1 in range(k)]


def _light_cases():
    rng = random.Random(20261018)
    extra = (g.cyclic(7), g.quaternion8(), g.dihedral(6),
             g.direct_product(g.klein_four(), g.cyclic(4)))
    distinct = {G.table for m in samples.standard_corpus()
                for G in (m.B, m.D, m.gamma)} | {G.table for G in extra}
    tables = [[list(r) for r in t] for t in sorted(distinct)]
    for t in list(tables):
        for _ in range(2):
            perm = [0] + rng.sample(range(1, len(t)), len(t) - 1)
            tables.append(_relabel(t, perm))
    cases = [(t, "group") for t in tables]
    # Single-entry mutants off the identity row and column that neither
    # make nor break a 0 entry, so every element keeps its inverse and the
    # table reaches the associativity check.
    for t in tables:
        n = len(t)
        if n < 3:
            continue
        for _ in range(4):
            a, b = rng.randrange(1, n), rng.randrange(1, n)
            if t[a][b] == 0:
                continue
            mutant = [list(r) for r in t]
            mutant[a][b] = rng.choice([v for v in range(1, n) if v != t[a][b]])
            cases.append((mutant, "mutant"))
    # In the loop times a group, the least element outside the identity
    # is a middle; only a later generator can show the failure.
    loops = [_LOOP5] + [_product(_LOOP5, t)
                        for t in ([[0, 1], [1, 0]], g.cyclic(3).table)]
    for t in list(loops):
        perm = [0] + rng.sample(range(1, len(t)), len(t) - 1)
        loops.append(_relabel(t, perm))
    return cases + [(t, "loop") for t in loops]


def test_light_test_agrees_with_the_full_scan():
    """Light's test over a generating set accepts exactly the associative
    tables, and a rejected table raises with the full scan's witness."""
    kinds = {"group": 0, "mutant": 0, "loop": 0}
    for tbl, kind in _light_cases():
        want = _scan_witness(tbl)
        assert g._light_associative(tuple(map(tuple, tbl))) == (want is None)
        if want is None:
            assert g.group_from_table(tbl).order == len(tbl)
        else:
            with pytest.raises(NotAssociative) as err:
                g.group_from_table(tbl)
            assert err.value.witness == want
            assert str(err.value) == f"associativity fails at {want}"
        kinds[kind] += want is not None
    assert kinds["group"] == 0
    assert kinds["mutant"] >= 40 and kinds["loop"] == 6


def test_cancellation_rows_and_columns():
    for G in (g.symmetric3(), g.quaternion8(), g.dihedral(4), g.cyclic(6)):
        n = G.order
        for a in range(n):
            assert sorted(G.table[a]) == list(range(n))
            assert sorted(G.table[b][a] for b in range(n)) == list(range(n))


def test_subgroup_generated():
    S3 = g.symmetric3()
    assert g.subgroup_generated(S3, []) == (0,)
    assert g.subgroup_generated(g.cyclic(6), [2]) == (0, 2, 4)
    transposition = next(x for x in range(6) if S3.element_order(x) == 2)
    assert len(g.subgroup_generated(S3, [transposition])) == 2


def test_commutator_subgroup():
    assert g.commutator_subgroup(g.cyclic(8)) == (0,)
    Q8 = g.quaternion8()
    assert g.commutator_subgroup(Q8) == (0, 2)
    S3 = g.symmetric3()
    A3 = g.subgroup_generated(S3, [1])
    assert g.commutator_subgroup(S3) == A3
    assert len(A3) == 3


def test_center():
    assert g.center(g.cyclic(5)) == tuple(range(5))
    assert g.center(g.quaternion8()) == (0, 2)
    assert g.center(g.symmetric3()) == (0,)


def test_quotient_by_whole_group():
    S3 = g.symmetric3()
    Q, p = g.quotient(S3, range(6))
    assert Q.order == 1 and set(p.map) == {0}


def test_quotient_z4():
    Q, p = g.quotient(g.cyclic(4), [0, 2])
    assert Q.order == 2
    assert p.map == (0, 1, 0, 1)


def test_quotient_not_normal():
    S3 = g.symmetric3()
    transposition = next(x for x in range(6) if S3.element_order(x) == 2)
    H = g.subgroup_generated(S3, [transposition])
    with pytest.raises(NotNormal) as err:
        g.quotient(S3, H)
    assert err.value.witness is not None


def test_quotient_projection_properties():
    for G, N in ((g.cyclic(8), (0, 4)), (g.quaternion8(), (0, 2)),
                 (g.dihedral(4), (0, 2))):
        Q, p = g.quotient(G, N)
        assert p.is_hom() and p.is_surjective()
        assert p.kernel_elements() == tuple(sorted(N))


def test_check_hom_and_action():
    Z4, Z2 = g.cyclic(4), g.cyclic(2)
    assert g.check_hom(g.GroupHom(Z4, Z2, [0, 1, 0, 1]))
    assert not g.check_hom(g.GroupHom(Z4, Z2, [0, 1, 1, 0]))
    assert g.check_action(g.trivial_action(Z2, Z4))
    negation = g.action_from_automorphism(Z2, Z4, [0, 3, 2, 1])
    assert g.check_action(negation)
    bad = g.GammaAction(Z2, Z4, [[0, 1, 2, 3], [0, 0, 2, 2]])
    assert not g.check_action(bad)


def test_abelian_invariants():
    assert g.abelian_invariants(g.trivial_group()) == []
    assert g.abelian_invariants(g.klein_four()) == [2, 2]
    assert g.abelian_invariants(g.cyclic(6)) == [6]
    assert g.abelian_invariants(g.direct_product(g.cyclic(2), g.cyclic(4))) == [2, 4]


def test_abelian_invariants_product_and_divisibility():
    cases = [g.cyclic(n) for n in (1, 2, 3, 4, 5, 6, 8, 9, 12)]
    cases += [g.klein_four(), g.direct_product(g.cyclic(2), g.cyclic(6)),
              g.direct_product(g.cyclic(4), g.cyclic(4))]
    for G in cases:
        invs = g.abelian_invariants(G)
        prod = 1
        for d in invs:
            prod *= d
        assert prod == G.order
        for a, b in zip(invs, invs[1:]):
            assert b % a == 0


def test_decomposition_coords_roundtrip():
    G = g.direct_product(g.cyclic(2), g.cyclic(4))
    dec = g.decompose_abelian(G)
    for x in range(G.order):
        assert dec.from_coords(dec.coords[x]) == x


def test_hom_kernel_image_examples():
    ker, img = g.hom_kernel_image([2], [2], [[1]])
    assert ker.invariants == [] and img.invariants == [2]
    ker, img = g.hom_kernel_image([4], [4], [[2]])
    assert ker.invariants == [2] and img.invariants == [2]
    ker, img = g.hom_kernel_image([4, 2], [6], [[0, 0]])
    assert sorted(ker.invariants) == [2, 4] and img.invariants == []
    with pytest.raises(MatrixShapeMismatch):
        g.hom_kernel_image([2], [2], [[1, 0]])
    with pytest.raises(MatrixShapeMismatch):
        g.hom_kernel_image([4], [8], [[1]])  # 4 * 1 != 0 mod 8


@pytest.mark.parametrize("dom, cod", [([2], [0]), ([2], [-2]), ([0], [2]),
                                      ([-4, 2], [2])])
def test_hom_kernel_image_refuses_invariants_below_one(dom, cod):
    with pytest.raises(MatrixShapeMismatch):
        g.hom_kernel_image(dom, cod, [[1] * len(dom)] * len(cod))


def test_hom_kernel_image_into_the_trivial_group():
    ker, img = g.hom_kernel_image([4, 2], [], [])
    assert sorted(ker.invariants) == [2, 4] and img.invariants == []


def brute_hom_kernel_image(dom_invs, cod_invs, matrix):
    """Oracle: enumerate elements of the domain, map them, read off orders."""
    dom = list(itertools.product(*(range(d) for d in dom_invs)))
    def apply(x):
        return tuple(sum(matrix[i][j] * x[j] for j in range(len(dom_invs))) % m
                     for i, m in enumerate(cod_invs))
    kernel = [x for x in dom if all(v == 0 for v in apply(x))]
    image = sorted({apply(x) for x in dom})
    return len(kernel), len(image)


def test_hom_kernel_image_against_enumeration():
    cases = [
        ([2], [4], [[2]]),
        ([4], [2], [[1]]),
        ([2, 2], [2, 2], [[1, 1], [0, 1]]),
        ([4, 2], [4, 2], [[2, 0], [1, 1]]),
        ([8], [4], [[1]]),
        ([2, 4], [8], [[4, 2]]),
        ([16], [16], [[4]]),
        ([2, 8], [2, 8], [[1, 0], [4, 2]]),
    ]
    for dom, cod, mat in cases:
        kn, im = brute_hom_kernel_image(dom, cod, mat)
        ker, img = g.hom_kernel_image(dom, cod, mat)
        assert ker.order == kn, (dom, cod, mat)
        assert img.order == im, (dom, cod, mat)


def abelian_types_up_to(n):
    """Invariant-factor lists (d1 | d2 | ...) of abelian groups of order <= n."""
    out = []

    def build(prefix, minimum, budget):
        for d in range(max(2, minimum), budget + 1):
            if prefix and d % prefix[-1] != 0:
                continue
            out.append(prefix + [d])
            build(prefix + [d], d, budget // d)

    build([], 2, n)
    return out


def test_hom_kernel_image_sweep_up_to_16():
    """Oracle sweep: for every pair of abelian groups of order <= 16 and a
    deterministic sample of well-defined matrices, the linear-algebra
    route matches brute-force enumeration."""
    import random

    types = abelian_types_up_to(16)
    rng = random.Random(2024)
    for dom in types:
        for cod in types:
            if not dom or not cod:
                continue
            rows, cols = len(cod), len(dom)
            # valid entry m_ij must satisfy dom_j * m_ij == 0 mod cod_i
            steps = [[cod[i] // _gcd(cod[i], dom[j]) for j in range(cols)]
                     for i in range(rows)]
            mats = []
            mats.append([[0] * cols for _ in range(rows)])
            mats.append([[steps[i][j] % cod[i] for j in range(cols)]
                         for i in range(rows)])
            for _ in range(2):
                mats.append([[steps[i][j] * rng.randrange(
                    cod[i] // steps[i][j]) for j in range(cols)]
                    for i in range(rows)])
            for mat in mats:
                kn, im = brute_hom_kernel_image(dom, cod, mat)
                ker, img = g.hom_kernel_image(dom, cod, mat)
                assert ker.order == kn, (dom, cod, mat)
                assert img.order == im, (dom, cod, mat)
                prod = 1
                for d in ker.invariants:
                    prod *= d
                assert prod == kn


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_enumerate_homs_counts():
    # Hom(Z/4, Z/2) has 2 elements; Hom(Z/2, Z/4) has 2; Hom(K4, Z/2) has 4
    assert len(list(g.enumerate_homs(g.cyclic(4), g.cyclic(2)))) == 2
    assert len(list(g.enumerate_homs(g.cyclic(2), g.cyclic(4)))) == 2
    assert len(list(g.enumerate_homs(g.klein_four(), g.cyclic(2)))) == 4
    # Aut(Z/4) = 2, Aut(K4) = S3
    assert len(g.enumerate_automorphisms(g.cyclic(4))) == 2
    assert len(g.enumerate_automorphisms(g.klein_four())) == 6


def test_is_isomorphic():
    assert g.is_isomorphic(g.dihedral(3), g.symmetric3())
    assert not g.is_isomorphic(g.dihedral(4), g.quaternion8())
    assert not g.is_isomorphic(g.cyclic(4), g.klein_four())


def test_least_preimages_against_a_min_scan():
    rng = random.Random(18)
    for _ in range(300):
        n = rng.randrange(1, 9)
        mapping = [rng.randrange(n) for _ in range(rng.randrange(0, 12))]
        expect = [min((i for i, v in enumerate(mapping) if v == t), default=-1)
                  for t in range(n)]
        assert g.least_preimages(mapping, n) == expect, mapping
    # an injective map gets its inverse table, with -1 off its image
    assert g.least_preimages((0, 3, 1), 5) == [0, 2, -1, 1, -1]


def test_equivariance_failures_against_the_double_loop():
    # the order-2 grading group acting through a random automorphism on
    # each side, and a random map that is rarely equivariant
    rng = random.Random(18)
    groups_ = [g.cyclic(4), g.klein_four(), g.cyclic(3), g.symmetric3()]
    for _ in range(200):
        G, H = rng.choice(groups_), rng.choice(groups_)
        act_g = rng.choice(g.enumerate_automorphisms(G))
        act_h = rng.choice(g.enumerate_automorphisms(H))
        dom = [list(range(G.order)), [act_g(x) for x in range(G.order)]]
        cod = [list(range(H.order)), [act_h(y) for y in range(H.order)]]
        mapping = [rng.randrange(H.order) for _ in range(G.order)]
        expect = [(s, x) for s in range(2) for x in range(G.order)
                  if mapping[dom[s][x]] != cod[s][mapping[x]]]
        assert list(g._equivariance_failures(mapping, dom, cod)) == expect
