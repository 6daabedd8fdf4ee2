import itertools
import math
import random

import pytest

from xmodcat import cohomology as ch
from xmodcat import groups as g
from xmodcat.errors import NotNormalized, ShapeMismatch, WrongType

Z2 = g.cyclic(2)
Z3 = g.cyclic(3)
Z4 = g.cyclic(4)
K4 = g.klein_four()
TRIV = g.trivial_group()


def module(G, gamma=None, alpha=None):
    gamma = gamma or TRIV
    if alpha is None:
        return g.GammaModule(G, g.trivial_action(gamma, G))
    return g.GammaModule(G, g.action_from_automorphism(gamma, G, alpha))


S3 = g.dihedral(3)


def s3_module(G):
    """G with S3 = dihedral(3) acting: on Z3 by the sign (reflections
    negate), on K4 through Aut(K4) = S3 (r^a s^b moves the nonzero element
    1 + i to 1 + (a + (-1)^b i) mod 3), on any other G trivially."""
    rows = []
    for x in range(S3.order):
        a, b = x % 3, x // 3
        if G == Z3:
            rows.append([0, 1, 2] if b == 0 else [0, 2, 1])
        elif G == K4:
            rows.append([0] + [1 + (a + (-1) ** b * i) % 3 for i in range(3)])
        else:
            rows.append(list(range(G.order)))
    return g.GammaModule(G, g.GammaAction(S3, G, rows))


def s3_pairs():
    """(Q, B) pairs over the nonabelian S3 small enough for enumeration."""
    return [(s3_module(Z3), s3_module(K4)), (s3_module(Z3), s3_module(Z3)),
            (s3_module(K4), s3_module(Z2)), (s3_module(Z2), s3_module(K4))]


def criterion_4_pairs():
    """The (Q, B) pairs of the acceptance dual-path grid."""
    groups = [TRIV, Z2, Z3, Z4, K4]
    options = {1: [None], 2: [None], 3: [None, [0, 2, 1]],
               4: [None, [0, 3, 2, 1]]}

    def actions(G):
        return [None, [0, 2, 1, 3], [0, 1, 3, 2]] if G is K4 \
            else options[G.order]

    out = [(module(Qg), module(Bg)) for Qg in groups for Bg in groups]
    for Qg in groups:
        for Bg in groups:
            out += [(module(Qg, Z2, qa), module(Bg, Z2, ba))
                    for qa in actions(Qg) for ba in actions(Bg)]
    return out


def small_pairs():
    """(Q, B) pairs with |Q|, |B| <= 4 over gamma in {1, Z/2}, with every
    order-2 action combination."""
    groups = [g.cyclic(2), g.cyclic(3), g.cyclic(4), K4]
    out = []
    for Qg in groups:
        for Bg in groups:
            out.append((module(Qg), module(Bg)))
    invols = {
        2: [None],
        3: [None, [0, 2, 1]],
        4: [None, [0, 3, 2, 1]],
    }
    k4_invols = [None, [0, 2, 1, 3], [0, 1, 3, 2]]
    for Qg in groups:
        for Bg in groups:
            qa = k4_invols if Qg is K4 else invols[Qg.order]
            ba = k4_invols if Bg is K4 else invols[Bg.order]
            for a1 in qa:
                for a2 in ba:
                    out.append((module(Qg, Z2, a1), module(Bg, Z2, a2)))
    return out


def test_cochain_normalization_enforced():
    Q = module(Z2)
    with pytest.raises(NotNormalized):
        ch.SymmetricCochain2(Q, Q, [[1, 0], [0, 0]], [[0], [0]])
    with pytest.raises(WrongType):
        ch.SymmetricCochain2(module(g.symmetric3()), Q,
                             [[0] * 6] * 6, [[0]] * 6)


def test_cochain_qg_normalization_enforced():
    Q = module(Z2, Z2)
    qq = [[0, 0], [0, 0]]
    with pytest.raises(NotNormalized, match="at the identity grade"):
        ch.SymmetricCochain2(Q, Q, qq, [[0, 0], [1, 0]])
    with pytest.raises(NotNormalized, match="at the unit of Q"):
        ch.SymmetricCochain2(Q, Q, qq, [[0, 1], [0, 0]])


def test_is_2cocycle_examples():
    Q = module(Z2)
    assert ch.is_2cocycle(ch.zero_cochain2(Q, Q))[0]
    # the extension cocycle of Z/4 over Z/2
    f = ch.SymmetricCochain2(Q, Q, [[0, 0], [0, 1]], [[0], [0]])
    assert ch.is_2cocycle(f)[0]
    # a symmetry breaker on Z/3 coefficients
    Q3 = module(Z3)
    f = ch.SymmetricCochain2(Q3, Q3, [[0, 0, 0], [0, 0, 1], [0, 2, 0]],
                             [[0]] * 3)
    ok, witness = ch.is_2cocycle(f)
    assert not ok
    assert witness[0] in ("symmetry", "addition")
    assert witness[1] is not None


def test_is_2cocycle_symmetry_witness():
    # an asymmetric bilinear form on K4 = Z2 x Z2 passes every identity
    # but symmetry: b((a, b), (c, d)) = a d, with (a, b) packed as 2a + b
    Q, B = module(K4), module(Z2)
    f = ch.SymmetricCochain2(Q, B, [[(x >> 1) * (y & 1) for y in range(4)]
                                    for x in range(4)], [[0]] * 4)
    assert ch.is_2cocycle(f) == (False, ("symmetry", (1, 2)))


def test_coboundary2_examples():
    Q = module(Z2)
    assert ch.coboundary2(Q, Q, [0, 0]).is_zero()
    Q4 = module(Z4)
    assert ch.coboundary2(Q4, Q4, [0, 1, 2, 3]).is_zero()
    B4 = module(Z4)
    d = ch.coboundary2(Q, B4, [0, 1])
    assert d.qq[1][1] == 2
    with pytest.raises(NotNormalized):
        ch.coboundary2(Q, Q, [1, 0])


def test_coboundary2_refuses_values_outside_the_coefficients():
    """A 1-cochain value outside [0, |B|) is refused like a wrong length,
    not read from the end of a table or past it."""
    Q, B = module(Z4), module(Z2)
    for g_table in ([0, -1, 0, -1], [0, 1, 0, -2], [0, 5, 0, 0]):
        with pytest.raises(ShapeMismatch):
            ch.coboundary2(Q, B, g_table)


def test_every_coboundary_is_a_cocycle():
    for Q, B in small_pairs():
        if Q.group.order > 4 or B.group.order > 4:
            continue
        for tail in itertools.product(range(B.group.order),
                                      repeat=Q.group.order - 1):
            d = ch.coboundary2(Q, B, (0,) + tail)
            assert ch.is_2cocycle(d)[0]
        break  # the full sweep runs in the acceptance suite


def test_cocycle_plus_coboundary_stays_in_class():
    Q = module(Z2, Z2)
    B = module(Z4, Z2, [0, 3, 2, 1])
    res = ch.h2(Q, B)
    cobs = ch.all_coboundaries(Q, B)
    for z in res.representatives:
        for d in cobs[:4]:
            shifted = z.add(d)
            assert ch.is_2cocycle(shifted)[0]
            assert ch.canonical_class_rep(shifted, cobs).flat() == \
                ch.canonical_class_rep(z, cobs).flat()


def test_h2_z2_z2_has_order_two():
    Q = module(Z2)
    # every identity instance cancels: the cocycle system has no rows but
    # still one unknown per coordinate
    keys = ch._keys(Q.group.order, Q.gamma.order)
    rows, moduli = ch._delta2(Q, Q, keys)
    assert rows.shape == (0, len(keys)) and moduli == []
    res = ch.h2(Q, Q, method="both")
    assert res.class_count == 2
    assert res.invariants == [2]


def test_h2_trivial_coefficients():
    # a trivial B, and a trivial Q (no free cochain entries) over Gamma = 1
    # and Gamma = Z2
    pairs = [(module(Z4), module(TRIV))]
    pairs += [(module(TRIV, gamma), module(Bg, gamma))
              for gamma in (None, Z2) for Bg in (Z2, Z4)]
    for Q, B in pairs:
        res = ch.h2(Q, B, method="both")
        assert res.class_count == 1
        assert res.invariants == []


def test_h2_gamma_trivial_actions():
    Q = module(Z2, Z2)
    B = module(Z2, Z2)
    res = ch.h2(Q, B, method="both")
    assert res.class_count == 4
    assert res.invariants == [2, 2]


@pytest.mark.parametrize("Qg, q_invariants", [
    (g.cyclic(6), [6]), (g.direct_product(Z2, Z4), [2, 4])],
    ids=["Z6-Z2", "Z2xZ4-Z2"])
def test_h2_is_ext_for_trivial_gamma(Qg, q_invariants):
    # with Gamma trivial, symmetric H^2(Q, B) is Ext(Q, B): one factor
    # Z/gcd(m_i, n_j) per pair of invariant factors of Q and B
    res = ch.h2(module(Qg), module(Z2))
    ext = [d for d in (math.gcd(m, 2) for m in q_invariants) if d > 1]
    assert res.invariants == ext
    assert res.class_count == len(res.representatives) == math.prod(ext)
    assert all(ch.is_2cocycle(f)[0] for f in res.representatives)


def test_h2_dual_path_sample():
    # a slice of the dual-path comparison; the full grid runs in acceptance
    rng = random.Random(4)
    pairs = small_pairs()
    rng.shuffle(pairs)
    for Q, B in pairs[:10]:
        snf = ch.h2(Q, B, method="snf")
        brute = ch.h2(Q, B, method="brute")
        assert snf.invariants == brute.invariants
        assert [f.flat() for f in snf.representatives] == \
            [f.flat() for f in brute.representatives]


def test_h2_dual_path_nonabelian_gamma():
    for Q, B in s3_pairs():
        snf = ch.h2(Q, B, method="snf")
        brute = ch.h2(Q, B, method="brute")
        assert snf.invariants == brute.invariants
        assert [f.flat() for f in snf.representatives] == \
            [f.flat() for f in brute.representatives]


def _random_symmetric(Q, B, rng):
    q, gn, b = Q.group.order, Q.gamma.order, B.group.order
    qq = [[0] * q for _ in range(q)]
    for u in range(1, q):
        for v in range(u, q):
            qq[u][v] = qq[v][u] = rng.randrange(b)
    qg = [[0] + [rng.randrange(b) if u else 0 for _ in range(1, gn)]
          for u in range(q)]
    return ch.SymmetricCochain2(Q, B, qq, qg)


def _rows_accept(f, keys, rows, moduli):
    coords = f.B.abelian.coords
    vec = [c for kind, u, v in keys for c in coords[getattr(f, kind)[u][v]]]
    return all(sum(a * x for a, x in zip(row, vec)) % m == 0
               for row, m in zip(rows, moduli))


def test_cocycle_rows_agree_with_is_2cocycle():
    """Membership in the kernel of the integer rows of delta^2 is decided
    exactly as the literal identities of is_2cocycle decide it."""
    rng = random.Random(20261018)
    verdicts = set()
    pairs = criterion_4_pairs() + s3_pairs() + \
        [(s3_module(K4), s3_module(Z3))]
    assert len(pairs) == 111
    for Q, B in pairs:
        keys = ch._keys(Q.group.order, Q.gamma.order)
        rows, moduli = ch._delta2(Q, B, keys)
        q, b = Q.group.order, B.group.order
        cochains = [_random_symmetric(Q, B, rng) for _ in range(8)]
        for _ in range(4):
            d = ch.coboundary2(Q, B, [0] + [rng.randrange(b)
                                            for _ in range(q - 1)])
            cochains += [d, d.add(_random_symmetric(Q, B, rng))]
        if b ** len(keys) <= 1 << 16:
            cochains += ch.enumerate_symmetric_cocycles(Q, B)[:8]
        for f in cochains:
            verdict = ch.is_2cocycle(f)[0]
            assert _rows_accept(f, keys, rows, moduli) == verdict, (Q, B, f.flat())
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_cochain_values_must_lie_in_the_coefficient_group():
    Q = module(Z2)
    for v in (2, -1):
        with pytest.raises(ShapeMismatch):
            ch.SymmetricCochain2(Q, Q, [[0, 0], [0, v]], [[0], [0]])
    h0 = ch.zero_cochain3(Q, Q)
    for v in (7, -1):
        with pytest.raises(ShapeMismatch):
            ch.Cochain3(Q, Q, h0.assoc, [[0, 0], [0, v]], h0.tensor, h0.comp)
        with pytest.raises(ShapeMismatch):
            ch.Cochain3(Q, Q, [[[0, 0], [0, 0]], [[0, 0], [0, v]]],
                        h0.braid, h0.tensor, h0.comp)


def test_all_cocycles_counts():
    Q = module(Z2)
    zs = ch.all_cocycles(Q, Q)
    assert len(zs) == 2  # both normalized tables are cocycles, no coboundaries
    assert all(ch.is_2cocycle(z)[0] for z in zs)


def _class_layer_pairs():
    """Every other pair of the dual-path grid, which leaves out K4/K4 with
    Gamma = Z2 acting trivially (256 classes, 35 s of oracle calls), and
    the nonabelian-Gamma pairs."""
    return criterion_4_pairs()[::2] + s3_pairs()


def test_all_cocycles_are_the_enumerated_cocycles():
    for Q, B in _class_layer_pairs():
        assert [z.flat() for z in ch.all_cocycles(Q, B)] == \
            sorted(z.flat() for z in ch.enumerate_symmetric_cocycles(Q, B))


def test_class_group_adds_canonical_representatives():
    """Entry (i, j) of the class group is the class of the least table in
    the coset of rep_i + rep_j, found by the per-element oracle."""
    for Q, B in _class_layer_pairs():
        res = ch.h2(Q, B)
        cobs = ch.all_coboundaries(Q, B)
        reps = [f.flat() for f in res.representatives]
        assert [[reps.index(ch.canonical_class_rep(a.add(b), cobs).flat())
                 for b in res.representatives]
                for a in res.representatives] == list(map(list, res.group.table))


def test_cochain3_normalization_and_random():
    M = module(Z2, Z2)
    N = module(Z4, Z2, [0, 3, 2, 1])
    rng = random.Random(11)
    h = ch.random_cochain3(M, N, rng)
    assert h.assoc[0][1][1] == 0 and h.braid[1][0] == 0
    assert h.comp[1][0][1] == 0 and h.tensor[1][1][0] == 0
    with pytest.raises(NotNormalized):
        bad = [[[1] * 2 for _ in range(2)] for _ in range(2)]
        ch.Cochain3(M, M, bad, [[0, 0], [0, 0]],
                    [[[0, 0]] * 2] * 2, [[[0, 0]] * 2] * 2)


def test_pullback_pushforward_examples():
    M = module(Z2)
    N = module(Z2)
    rng = random.Random(3)
    h = ch.random_cochain3(M, N, rng)
    same = ch.pullback3([0, 1], M, h)
    assert same == h
    zero_pull = ch.pullback3([0, 0], M, h)
    assert zero_pull.is_zero()
    N4 = module(Z4)
    doubled = ch.pushforward3([0, 2], N4, h)
    assert doubled.braid[1][1] == (2 * h.braid[1][1]) % 4


def test_obstruction_examples():
    M = module(Z2)
    rng = random.Random(5)
    h = ch.random_cochain3(M, M, rng)
    assert ch.obstruction([0, 1], [0, 1], h, h).is_zero()
    hp = ch.random_cochain3(M, M, rng)
    k = ch.obstruction([0, 1], [0, 0], ch.zero_cochain3(M, M), hp)
    assert k == hp
    # pointwise difference on a nonzero instance
    k2 = ch.obstruction([0, 1], [0, 1], h, hp)
    dm = M.group.mul
    di = M.group.inv
    assert k2.braid[1][1] == dm(hp.braid[1][1], di(h.braid[1][1]))


def test_is_3cocycle_zero_and_determinism():
    M = module(Z2, Z2)
    N = module(Z2, Z2)
    assert ch.is_3cocycle(ch.zero_cochain3(M, N))[0]
    rng = random.Random(17)
    for _ in range(6):
        h = ch.random_cochain3(M, N, rng)
        first = ch.is_3cocycle(h)
        second = ch.is_3cocycle(h)
        assert first == second


def test_braid_component_cocycle_regression():
    # the braiding-only table with value 1 at (1, 1) is a valid cocycle
    # whose class is an obstruction witness (no functor reaches it)
    M = module(Z2)
    h0 = ch.zero_cochain3(M, M)
    h = ch.Cochain3(M, M, h0.assoc, [[0, 0], [0, 1]], h0.tensor, h0.comp)
    assert ch.is_3cocycle(h)[0]


def test_obstruction_of_cocycles_is_cocycle():
    M = module(Z2, Z2)
    h0 = ch.zero_cochain3(M, M)
    htw = ch.Cochain3(M, M, h0.assoc, [[0, 0], [0, 1]], h0.tensor, h0.comp)
    for h, hp in [(h0, htw), (htw, h0), (htw, htw)]:
        assert ch.is_3cocycle(h)[0] and ch.is_3cocycle(hp)[0]
        k = ch.obstruction([0, 1], [0, 1], h, hp)
        assert ch.is_3cocycle(k)[0]


def test_class_vanishes_examples():
    M = module(Z2)
    h0 = ch.zero_cochain3(M, M)
    assert ch.class_vanishes(h0, (M, M, h0), (M, M, h0), [0, 1], [0, 1])
    htw = ch.Cochain3(M, M, h0.assoc, [[0, 0], [0, 1]], h0.tensor, h0.comp)
    k = ch.obstruction([0, 1], [0, 1], h0, htw)
    assert not ch.class_vanishes(k, (M, M, h0), (M, M, htw), [0, 1], [0, 1])
