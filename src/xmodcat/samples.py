"""Reference instances and seeded random generators.

The standard corpus collects the named conjugation modules plus small
abelian and braided-twisted instances; the random generator produces
validated modules only, by sampling from constructions that are closed
under validation and rejecting the rare invalid draw.
"""

from __future__ import annotations

import random

from .crossed import BraidedGammaCrossedModule, conjugation_module
from .groups import (
    GammaAction,
    _equivariance_failures,
    action_from_automorphism,
    cyclic,
    dihedral,
    direct_product,
    enumerate_automorphisms,
    enumerate_homs,
    klein_four,
    quaternion8,
    subgroup_generated,
    symmetric3,
    trivial_action,
    trivial_group,
)

Z2 = cyclic(2)


def abelian_module(B, D, d, gamma=None, act_b=None, act_d=None):
    """The abelian crossed module on a homomorphism of abelian groups."""
    theta = [list(range(B.order)) for _ in range(D.order)]
    eta = [[0] * D.order for _ in range(D.order)]
    return BraidedGammaCrossedModule(B, D, d, theta, eta, gamma, act_b, act_d)


def eta_twisted_module(B, D, d, eta, gamma=None, act_b=None, act_d=None):
    """Abelian groups with trivial boundary action and a braiding table."""
    theta = [list(range(B.order)) for _ in range(D.order)]
    return BraidedGammaCrossedModule(B, D, d, theta, eta, gamma, act_b, act_d)


def s3_a3_module(gamma=False):
    """Conjugation module on the alternating subgroup of S3; the order-2
    grading group acts by conjugation with a reflection."""
    S3 = symmetric3()
    A3 = subgroup_generated(S3, [1])
    if not gamma:
        return conjugation_module(S3, A3)
    refl = next(x for x in range(6) if S3.element_order(x) == 2)
    act = action_from_automorphism(Z2, S3, [S3.conj(refl, x) for x in range(6)])
    return conjugation_module(S3, A3, Z2, act)


def q8_i_module(gamma=False):
    """Conjugation module on the i-generated subgroup of the quaternion
    group; the grading group acts by conjugation with i."""
    Q8 = quaternion8()
    I4 = subgroup_generated(Q8, [1])
    if not gamma:
        return conjugation_module(Q8, I4)
    act = action_from_automorphism(Z2, Q8, [Q8.conj(1, x) for x in range(8)])
    return conjugation_module(Q8, I4, Z2, act)


def d4_modules(gamma=False):
    """Conjugation modules on every index-2 normal subgroup of the order-8
    dihedral group (each contains the center)."""
    D4 = dihedral(4)
    derived = subgroup_generated(D4, [D4.mul(D4.mul(x, y),
                                             D4.mul(D4.inv(x), D4.inv(y)))
                                      for x in range(8) for y in range(8)])
    out = []
    seen = set()
    for gens in ([1], [2, 4], [2, 5]):
        N = subgroup_generated(D4, gens)
        if len(N) != 4 or N in seen or not set(derived) <= set(N):
            continue
        seen.add(N)
        if not gamma:
            out.append(conjugation_module(D4, N))
        else:
            rot = 1
            act = action_from_automorphism(
                Z2, D4, [D4.conj(rot, x) for x in range(8)])
            if all(act(1, n) in set(N) for n in N):
                out.append(conjugation_module(D4, N, Z2, act))
    return out


def z4_negation_module():
    """The index-2 subgroup of Z/4 with the grading group negating."""
    Z4 = cyclic(4)
    act = action_from_automorphism(Z2, Z4, [0, 3, 2, 1])
    return conjugation_module(Z4, [0, 2], Z2, act)


def biadditive_eta_module():
    """Trivial boundary on Z/2 -> Z/2 x Z/2 with a nonzero braiding
    pairing on the quotient."""
    B = cyclic(2)
    D = klein_four()
    d = [0, 0]
    eta = [[0] * 4 for _ in range(4)]
    for x in range(4):
        for y in range(4):
            # pairing <(a,b), (c,d)> = ad - bc is alternating biadditive
            a, bb = divmod(x, 2)
            c, dd = divmod(y, 2)
            eta[x][y] = (a * dd + bb * c) % 2
    return eta_twisted_module(B, D, d, eta)


def nonsymmetric_braiding_module():
    """Zero boundary on Z/4 with the multiplicative pairing as braiding;
    braided but not symmetric, so it distinguishes the two hexagon
    orientations."""
    Z4 = cyclic(4)
    eta = [[(x * y) % 4 for y in range(4)] for x in range(4)]
    return eta_twisted_module(Z4, Z4, [0] * 4, eta)


def standard_corpus(gamma=True):
    """The named validated modules used across the test suite."""
    Z4 = cyclic(4)
    out = [
        s3_a3_module(False),
        q8_i_module(False),
        abelian_module(Z2, Z4, [0, 2]),
        abelian_module(Z4, Z4, [0, 2, 0, 2]),
        abelian_module(Z2, trivial_group(), [0, 0]),
        biadditive_eta_module(),
        nonsymmetric_braiding_module(),
    ]
    out.extend(d4_modules(False))
    if gamma:
        out.append(s3_a3_module(True))
        out.append(q8_i_module(True))
        out.extend(d4_modules(True))
        out.append(z4_negation_module())
        neg = action_from_automorphism(Z2, Z4, [0, 3, 2, 1])
        out.append(abelian_module(
            Z4, Z4, [0, 2, 0, 2], Z2, neg, neg))
    for m in out:
        if not m.is_valid:
            raise AssertionError(f"corpus module failed validation: {m}")
    return out


_SMALL_GROUPS = None


def small_group_catalog():
    global _SMALL_GROUPS
    if _SMALL_GROUPS is None:
        _SMALL_GROUPS = [
            ("1", trivial_group()),
            ("C2", cyclic(2)),
            ("C3", cyclic(3)),
            ("C4", cyclic(4)),
            ("C2xC2", klein_four()),
            ("C6", cyclic(6)),
            ("S3", symmetric3()),
            ("C8", cyclic(8)),
            ("C2xC4", direct_product(cyclic(2), cyclic(4))),
            ("D4", dihedral(4)),
            ("Q8", quaternion8()),
        ]
    return _SMALL_GROUPS


def _random_involutive_action(rng, gamma, G, stable=None):
    """A gamma-action of the order-2 group by a random involution of G
    preserving the given subset; falls back to the trivial action."""
    autos = [a for a in enumerate_automorphisms(G)
             if all(a(a(x)) == x for x in G.elements())]
    if stable is not None:
        sset = set(stable)
        autos = [a for a in autos if all(a(x) in sset for x in stable)]
    alpha = autos[rng.randrange(len(autos))]
    return action_from_automorphism(gamma, G, alpha.map)


def random_module(rng: random.Random, max_order=8):
    """One validated module: a conjugation instance, an abelian boundary,
    or a braiding-twisted abelian instance, at random."""
    for _ in range(200):
        kind = rng.randrange(3)
        gamma_on = rng.random() < 0.5
        gamma = Z2 if gamma_on else trivial_group()
        if kind == 0:
            name, G = small_group_catalog()[
                rng.randrange(len(small_group_catalog()))]
            if G.order > max_order:
                continue
            from .groups import commutator_subgroup, is_normal
            derived = commutator_subgroup(G)
            candidates = []
            for x in range(G.order):
                N = subgroup_generated(G, list(derived) + [x])
                if is_normal(G, N) is None and N not in candidates:
                    candidates.append(N)
            N = candidates[rng.randrange(len(candidates))]
            act = (trivial_action(gamma, G) if not gamma_on
                   else _random_involutive_action(rng, gamma, G, N))
            try:
                return conjugation_module(G, N, gamma, act)
            except Exception:
                continue
        abelians = [(n, G) for n, G in small_group_catalog()
                    if G.is_abelian and G.order <= max_order]
        _, B = abelians[rng.randrange(len(abelians))]
        _, D = abelians[rng.randrange(len(abelians))]
        act_b = (trivial_action(gamma, B) if not gamma_on
                 else _random_involutive_action(rng, gamma, B))
        act_d = (trivial_action(gamma, D) if not gamma_on
                 else _random_involutive_action(rng, gamma, D))
        homs = [f for f in enumerate_homs(B, D) if not any(
            _equivariance_failures(f.map, act_b.act, act_d.act))]
        if not homs:
            continue
        d = homs[rng.randrange(len(homs))]
        if kind == 1:
            m = abelian_module(B, D, d.map, gamma, act_b, act_d)
            if m.is_valid:
                return m
            continue
        # braiding-twisted: random eta, keep only if everything validates
        kerd = [b for b in B.elements() if d(b) == 0]
        eta = [[kerd[rng.randrange(len(kerd))] for _ in range(D.order)]
               for _ in range(D.order)]
        for x in range(D.order):
            eta[0][x] = 0
            eta[x][0] = 0
        m = eta_twisted_module(B, D, d.map, eta, gamma, act_b, act_d)
        if m.is_valid:
            return m
    raise RuntimeError("random module generation failed to converge")


def random_corpus(seed, count, max_order=8):
    rng = random.Random(seed)
    return [random_module(rng, max_order=max_order) for _ in range(count)]


def random_breaking_mutations(rng: random.Random, modules, count):
    """Single-entry table mutations that break validation.

    Each result is (mutant, base, description); draws that still validate
    are discarded.
    """
    out = []
    attempts = 0
    while len(out) < count and attempts < 200 * count:
        attempts += 1
        base = modules[rng.randrange(len(modules))]
        B, D, gam = base.B, base.D, base.gamma
        d = list(base.d)
        theta = [list(r) for r in base.theta]
        eta = [list(r) for r in base.eta]
        ab = [list(r) for r in base.act_b.act]
        ad = [list(r) for r in base.act_d.act]
        # name: (table, first row, rows, columns, values); the identity
        # grade's action rows are never mutated
        tables = {"eta": (eta, 0, D.order, D.order, B.order),
                  "theta": (theta, 0, D.order, B.order, B.order),
                  "actB": (ab, 1, gam.order, B.order, B.order),
                  "actD": (ad, 1, gam.order, D.order, D.order)}
        name = rng.choice(list(tables))
        table, first, rows, cols, values = tables[name]
        if first == rows:
            continue
        r, c = rng.randrange(first, rows), rng.randrange(cols)
        old = table[r][c]
        table[r][c] = rng.randrange(values)
        if table[r][c] == old:
            continue
        desc = f"{name}[{r}][{c}]"
        mutant = BraidedGammaCrossedModule(
            B, D, d, theta, eta, gam,
            GammaAction(gam, B, ab), GammaAction(gam, D, ad))
        if mutant.is_valid:
            continue
        out.append((mutant, base, desc))
    if len(out) < count:
        raise RuntimeError("could not find enough validation-breaking mutations")
    return out
