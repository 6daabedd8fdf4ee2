"""Symmetric equivariant cochains in degrees 1-3, cocycle and coboundary
tests, and the degree-2 cohomology of a pair of gamma-modules.

A degree-2 cochain is a table f on Q^2 plus a mixed table on Q x Gamma,
with values in the coefficient module B; both are normalized to vanish
whenever an argument is a unit.  Degree-2 cohomology is computed along two
routes: exhaustive enumeration of symmetric tables, and an integer-linear
route through the Smith normal form backend.  Both apply one cocycle
system, the four identity families written once as integer rows over B's
invariant-factor coordinates (_identities, _delta2); the test suite checks
those rows against the literal identities of is_2cocycle and the two
routes against each other.

Convention note: in the mixed identity family ("action-addition") the same
grade acts on every degree-1 term, i.e.

    s.f(x, y) + f(xy, s) = f(x, s) + f(y, s) + f(s.x, s.y).

This is the reading forced by the comparison square that the identity comes
from, where a single grade moves both tensor factors at once; it is pinned
here explicitly because the mixed family is the one place a different
convention could hide.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import zlinalg
from .errors import (
    DEFAULT_GUARD,
    NotNormalized,
    ShapeMismatch,
    UnknownMethod,
    WrongType,
    candidates,
)
from .groups import (
    FiniteGroup,
    GammaModule,
    _equivariant_hom,
    decompose_abelian,
    index_table,
    section_defect,
)


def _require_same_gamma(Q, B):
    if Q.gamma != B.gamma:
        raise ShapeMismatch("modules live over different gamma groups")


# -- normalized cochains ------------------------------------------------------

# The tables of a normalized cochain of degree 2 and of degree 3, in
# argument order, each with its axes: "M" runs over the elements of the
# domain module, "G" over the grades of Gamma.  comp's axes are the source
# object, the outer grade and the inner grade.
_TABLES2 = (("qq", "MM"), ("qg", "MG"))
_TABLES3 = (("assoc", "MMM"), ("braid", "MM"), ("tensor", "MMG"),
            ("comp", "MGG"))


def _shape3(M, axes):
    return tuple(M.group.order if a == "M" else M.gamma.order for a in axes)


def _entries(table, depth):
    """The entries of a nested table with depth axes, in C order."""
    for _ in range(depth - 1):
        table = itertools.chain.from_iterable(table)
    return table


def _at_unit(table, axis):
    """The entries of a nested table at index 0 along axis, nested."""
    return table[0] if axis == 0 else [_at_unit(row, axis - 1) for row in table]


class _Cochain:
    """A normalized cochain on a domain module valued in a coefficient
    module: one table per (name, axes) entry of _SPEC, held as nested
    tuples of ints that vanish wherever an argument is a unit, that is at
    index 0 of any axis.  _MODULES names the attributes holding the domain
    and the coefficient module."""

    __slots__ = ()
    _SPEC = _MODULES = ()

    def _read(self, M, N, *tables):
        _require_same_gamma(M, N)
        if not M.group.is_abelian or not N.group.is_abelian:
            raise WrongType("cochain modules must be abelian")
        dom, val = self._MODULES
        setattr(self, dom, M)
        setattr(self, val, N)
        unit = {"M": f"the unit of {dom}", "G": "the identity grade"}
        tables = [index_table(t, _shape3(M, axes), N.group.order, name)
                  for (name, axes), t in zip(self._SPEC, tables)]
        for (name, axes), table in zip(self._SPEC, tables):
            for i, a in enumerate(axes):
                if any(_entries(_at_unit(table, i), len(axes) - 1)):
                    raise NotNormalized(f"{name} table nonzero at {unit[a]}")
            setattr(self, name, table)

    def _modules(self):
        return tuple(getattr(self, a) for a in self._MODULES)

    def _tables(self):
        """The tables in _SPEC order."""
        return tuple(getattr(self, name) for name, _ in self._SPEC)

    @classmethod
    def _zero(cls, M, N):
        return cls(M, N, *(np.zeros(_shape3(M, axes), dtype=np.int64)
                           for _, axes in cls._SPEC))

    def __eq__(self, other):
        return (isinstance(other, type(self))
                and self._modules() == other._modules()
                and self._tables() == other._tables())

    def __hash__(self):
        return hash(self._tables())

    def flat(self):
        """Every entry: the tables in _SPEC order, each in C order."""
        return tuple(itertools.chain.from_iterable(
            _entries(getattr(self, name), len(axes))
            for name, axes in self._SPEC))

    def is_zero(self):
        return not any(self.flat())

    def add(self, other):
        """The entrywise sum; a cochain over other modules is refused."""
        if not isinstance(other, type(self)) or \
                self._modules() != other._modules():
            raise ShapeMismatch("cochains over different modules")
        M, N = self._modules()
        return type(self)(M, N, *(N.group.np_table[np.array(a), np.array(b)]
                                  for a, b in zip(self._tables(),
                                                  other._tables())))

    def neg(self):
        N = self._modules()[1]
        return self.pushforward(N.group.inverses, N)

    def sub(self, other):
        return self.add(other.neg())

    def pullback(self, phi, P):
        """The cochain over P that reads this one at phi(x) for every x on
        an "M" axis; phi is the table of an equivariant homomorphism from P
        into the domain."""
        M, N = self._modules()
        along = {"M": phi, "G": range(M.gamma.order)}
        return type(self)(P, N, *(
            np.array(t)[np.ix_(*(along[a] for a in axes))]
            for (_, axes), t in zip(self._SPEC, self._tables())))

    def pushforward(self, fmap, Nmod):
        """The cochain valued in Nmod whose entries are fmap of this one's;
        fmap is the table of an equivariant homomorphism from the
        coefficient module to Nmod."""
        fmap = np.array(fmap)
        return type(self)(self._modules()[0], Nmod,
                          *(fmap[np.array(t)] for t in self._tables()))


class SymmetricCochain2(_Cochain):
    """Normalized 2-cochain: tables over Q^2 and Q x Gamma valued in B."""

    __slots__ = ("Q", "B") + tuple(name for name, _ in _TABLES2)
    _SPEC, _MODULES = _TABLES2, ("Q", "B")

    def __init__(self, Q: GammaModule, B: GammaModule, qq, qg):
        self._read(Q, B, qq, qg)

    def to_json(self):
        return {"domain": "Q2+QGamma",
                "values": {"qq": [list(r) for r in self.qq],
                           "qgamma": [list(r) for r in self.qg]}}


def zero_cochain2(Q, B):
    return SymmetricCochain2._zero(Q, B)


def is_2cocycle(f: SymmetricCochain2):
    """Check the four symmetric cocycle identity families.

    Returns (True, None) or (False, (family, witness)); the witness is the
    lexicographically first failing tuple in a fixed scan order.
    """
    Q, B = f.Q.group, f.B.group
    gam = f.Q.gamma
    actQ, actB = f.Q.act, f.B.act
    qq, qg = f.qq, f.qg
    for x in range(Q.order):
        for s in range(gam.order):
            for t in range(gam.order):
                lhs = B.mul(actB(t, qg[x][s]), qg[actQ(s, x)][t])
                if lhs != qg[x][gam.mul(t, s)]:
                    return False, ("action-composition", (x, s, t))
    for x in range(Q.order):
        for y in range(Q.order):
            for s in range(gam.order):
                lhs = B.mul(actB(s, qq[x][y]), qg[Q.mul(x, y)][s])
                rhs = B.mul(B.mul(qg[x][s], qg[y][s]),
                            qq[actQ(s, x)][actQ(s, y)])
                if lhs != rhs:
                    return False, ("action-addition", (x, y, s))
    for x in range(Q.order):
        for y in range(Q.order):
            for z in range(Q.order):
                lhs = B.mul(qq[y][z], qq[x][Q.mul(y, z)])
                rhs = B.mul(qq[x][y], qq[Q.mul(x, y)][z])
                if lhs != rhs:
                    return False, ("addition", (x, y, z))
    for x in range(Q.order):
        for y in range(Q.order):
            if qq[x][y] != qq[y][x]:
                return False, ("symmetry", (x, y))
    return True, None


def coboundary2(Q: GammaModule, B: GammaModule, g_table):
    """The 2-coboundary of a normalized 1-cochain g: Q -> B."""
    g_table = index_table(g_table, (Q.group.order,), B.group.order,
                          "1-cochain")
    if g_table[0] != 0:
        raise NotNormalized("1-cochain must vanish at the unit")
    qq, qg = section_defect(Q, B.group, B.act, g_table, B.group.elements())
    return SymmetricCochain2(Q, B, qq, qg)


def all_coboundaries(Q, B, guard=DEFAULT_GUARD):
    """Every 2-coboundary, one per normalized 1-cochain g."""
    tails = candidates([range(B.group.order)] * (Q.group.order - 1), guard)
    return [coboundary2(Q, B, (0,) + tail) for tail in tails]


# -- degree-2 cohomology ------------------------------------------------------

@dataclass
class H2Result:
    invariants: list
    representatives: list       # canonical SymmetricCochain2, sorted
    class_count: int
    group: FiniteGroup          # addition on canonical class representatives
    method: str

    @property
    def order(self):
        return self.class_count


_CHUNK = 1 << 16   # most candidates per vectorized block, unless |B| is more


def _keys(q, g):
    """The free entries of a normalized 2-cochain, in order: f(u, v) for
    u, v != 0, then f(u, s) for u, s != 0."""
    return ([("qq", u, v) for u in range(1, q) for v in range(1, q)]
            + [("qg", u, s) for u in range(1, q) for s in range(1, g)])


def _cochain(Q, B, keys, vals):
    """The normalized cochain with value vals[i] at keys[i]; where keys
    holds f(u, v) but not f(v, u), both get its value."""
    at = dict(zip(keys, vals))
    q, g = Q.group.order, Q.gamma.order
    qq = [[at.get(("qq", u, v), at.get(("qq", v, u), 0)) for v in range(q)]
          for u in range(q)]
    qg = [[at.get(("qg", u, s), 0) for s in range(g)] for u in range(q)]
    return SymmetricCochain2(Q, B, qq, qg)


def _identities(Q):
    """Every instance of the four families of is_2cocycle, in its order,
    as a list of terms (t, sign, key) that says sum(sign * t.f(key)) = 0;
    terms with a unit argument are dropped."""
    Qg, gam, act = Q.group, Q.gamma, Q.act
    q, g = Qg.order, gam.order

    def eq(*terms):
        return [(t, sign, (kind, u, v))
                for t, sign, kind, u, v in terms if u and v]

    out = [eq((t, 1, "qg", x, s), (0, 1, "qg", act(s, x), t),
              (0, -1, "qg", x, gam.mul(t, s)))
           for x in range(q) for s in range(g) for t in range(g)]
    out += [eq((s, 1, "qq", x, y), (0, 1, "qg", Qg.mul(x, y), s),
               (0, -1, "qg", x, s), (0, -1, "qg", y, s),
               (0, -1, "qq", act(s, x), act(s, y)))
            for x in range(q) for y in range(q) for s in range(g)]
    out += [eq((0, 1, "qq", y, z), (0, 1, "qq", x, Qg.mul(y, z)),
               (0, -1, "qq", x, y), (0, -1, "qq", Qg.mul(x, y), z))
            for x in range(q) for y in range(q) for z in range(q)]
    out += [eq((0, 1, "qq", x, y), (0, -1, "qq", y, x))
            for x in range(q) for y in range(q)]
    return out


def _delta2(Q, B, keys):
    """The cocycle system as (rows, moduli): distinct nonzero integer rows
    over B's invariant-factor coordinates of the entries at keys (r per
    key, in order), reduced mod one modulus each, as an int64 array of
    shape (rows, r len(keys)) even when there are no rows.  A cochain is
    a cocycle exactly when every row vanishes mod its modulus.  Where keys
    holds f(u, v) but not f(v, u), both share its coordinates."""
    dec = B.abelian
    r = len(dec.invariants)
    pos = {}
    for i, key in enumerate(keys):
        pos[key] = i * r
        if key[0] == "qq":
            pos.setdefault(("qq", key[2], key[1]), i * r)
    act = [B.action_matrix(t) for t in range(B.gamma.order)]
    rows = {}
    for terms in _identities(Q):
        for a, m in enumerate(dec.invariants):
            row = [0] * (len(keys) * r)
            for t, sign, key in terms:
                for c in range(r):
                    row[pos[key] + c] += sign * act[t][a][c]
            row = tuple(v % m for v in row)
            if any(row):
                rows.setdefault((row, m))
    return (np.array([row for row, _ in rows], dtype=np.int64)
            .reshape(len(rows), len(keys) * r), [m for _, m in rows])


def enumerate_symmetric_cocycles(Q, B, guard=DEFAULT_GUARD):
    """All normalized symmetric 2-cocycles, by exhaustive table enumeration.

    The candidates are every assignment of f(u, v) for u <= v and of
    f(u, s), so symmetry holds by construction; each row of the cocycle
    system, folded onto those entries, is a vectorized filter.  Candidates
    are scanned in blocks that share every digit but the lowest `low`; a
    row that reads only the shared digits accepts or rejects a whole block.
    """
    q, g, b = Q.group.order, Q.gamma.order, B.group.order
    keys = [k for k in _keys(q, g) if k[0] == "qg" or k[1] <= k[2]]
    k = len(keys)
    low = min(k, 1)
    while low < k and b ** (low + 1) <= _CHUNK:
        low += 1
    blocks = candidates([range(b)] * (k - low), guard, size=b ** low)
    if not keys:
        return [zero_cochain2(Q, B)]
    coords = np.array(B.abelian.coords, dtype=np.int64)
    filters = []
    for row, m in zip(*_delta2(Q, B, keys)):
        coef = np.array(row, dtype=np.int64).reshape(k, -1)
        used = np.flatnonzero(coef.any(axis=1))
        filters.append((used.tolist(), coef[used] @ coords.T % m, m))
    filters.sort(key=lambda f: f[0][0] < low)   # block-wide rows first
    grid = list(np.indices((b,) * low).reshape(low, -1)[::-1])
    survivors = []
    for block in blocks:
        digits = grid + list(block[::-1])
        for used, tables, m in filters:
            ok = sum(tables[i][digits[j]] for i, j in enumerate(used)) % m == 0
            if not isinstance(ok, np.ndarray):
                if ok:
                    continue
                break
            keep = np.flatnonzero(ok)
            if len(keep) < len(ok):
                digits[:low] = [d[keep] for d in digits[:low]]
                if not len(keep):
                    break
        else:
            cols = np.broadcast_arrays(*digits)
            survivors += [_cochain(Q, B, keys, c)
                          for c in np.array(cols).T.tolist()]
    return survivors


def _flat_add(Bt, a, b):
    return tuple(Bt[x][y] for x, y in zip(a, b))


def _cochain_from_flat(Q, B, flat):
    q, gn = Q.group.order, Q.gamma.order
    qq = [flat[i * q:(i + 1) * q] for i in range(q)]
    qg = [flat[q * q + i * gn: q * q + (i + 1) * gn] for i in range(q)]
    return SymmetricCochain2(Q, B, qq, qg)


def canonical_class_rep(f, coboundaries):
    """Lexicographically least table in the coboundary coset of f."""
    Bt, z = f.B.group.table, f.flat()
    return _cochain_from_flat(
        f.Q, f.B, min(_flat_add(Bt, z, d.flat()) for d in coboundaries))


def _classes(Q, B, cocycles, guard, method):
    """The H2Result of cocycles, flat tables that meet every class, and
    the map from every cocycle's flat table to its class index.

    Each class's coset is built once: the first of cocycles met in it plus
    every coboundary.  Classes are numbered by their least table, which is
    their representative, and the group table looks up rep_i + rep_j.
    """
    Bt = B.group.table
    cobs = {d.flat() for d in all_coboundaries(Q, B, guard=guard)}
    cosets, seen = [], set()
    for z in cocycles:
        if z not in seen:
            cosets.append({_flat_add(Bt, z, d) for d in cobs})
            seen |= cosets[-1]
    cosets.sort(key=min)
    reps = [min(c) for c in cosets]
    index = {z: i for i, c in enumerate(cosets) for z in c}
    grp = FiniteGroup([[index[_flat_add(Bt, a, b)] for b in reps]
                       for a in reps])
    res = H2Result(
        invariants=[int(d) for d in decompose_abelian(grp).invariants],
        representatives=[_cochain_from_flat(Q, B, k) for k in reps],
        class_count=len(reps),
        group=grp,
        method=method,
    )
    return res, index


def _h2_brute(Q, B, guard):
    cocycles = enumerate_symmetric_cocycles(Q, B, guard=guard)
    return _classes(Q, B, (z.flat() for z in cocycles), guard, "brute")


def _h2_snf(Q, B, guard):
    q = Q.group.order
    keys = _keys(q, Q.gamma.order)
    dec = B.abelian
    r = len(dec.invariants)
    n = len(keys) * r
    ker_gens = zlinalg.congruence_kernel_gens(*_delta2(Q, B, keys))
    # coboundary image generators: delta of one generator of B at one u
    delta_cols = []
    for u in range(1, q):
        for gen in dec.generators:
            g_table = [0] * q
            g_table[u] = gen
            d = coboundary2(Q, B, g_table)
            delta_cols.append([c for kind, x, y in keys
                               for c in dec.coords[getattr(d, kind)[x][y]]])
    pres = zlinalg.subquotient_presentation(ker_gens, delta_cols,
                                            list(dec.invariants) * len(keys))
    Bt = B.group.table
    gens = [_cochain(Q, B, keys, [dec.from_coords(lift[i:i + r])
                                  for i in range(0, n, r)]).flat()
            for lift in pres.lifts]
    zero, elts = zero_cochain2(Q, B).flat(), []
    for combo in itertools.product(*(range(d) for d in pres.invariants)):
        elt = zero
        for c, gen in zip(combo, gens):
            for _ in range(c):
                elt = _flat_add(Bt, elt, gen)
        elts.append(elt)
    return _classes(Q, B, elts, guard, "snf")


def all_cocycles(Q, B, guard=DEFAULT_GUARD):
    """Every normalized symmetric 2-cocycle: the union of the classes of
    the snf route, sorted for determinism."""
    _require_same_gamma(Q, B)
    _, index = _h2_snf(Q, B, guard)
    return [_cochain_from_flat(Q, B, z) for z in sorted(index)]


def h2(Q: GammaModule, B: GammaModule, guard=DEFAULT_GUARD, method="snf"):
    """Degree-2 symmetric cohomology of Q with coefficients in B.

    method is "snf" (integer-linear route), "brute" (exhaustive table
    enumeration, subject to the guard), or "both" (run both, insist they
    agree, return the snf result).
    """
    _require_same_gamma(Q, B)
    if method == "brute":
        return _h2_brute(Q, B, guard)[0]
    if method == "snf":
        return _h2_snf(Q, B, guard)[0]
    if method == "both":
        snf = _h2_snf(Q, B, guard)[0]
        brute = _h2_brute(Q, B, guard)[0]
        if snf.invariants != brute.invariants:
            raise AssertionError(
                f"h2 paths disagree: snf {snf.invariants} vs brute {brute.invariants}")
        if snf.representatives != brute.representatives:
            raise AssertionError("h2 paths produce different class representatives")
        return snf
    raise UnknownMethod(f"unknown h2 method {method!r}")


# -- degree-3 cochains --------------------------------------------------------

class Cochain3(_Cochain):
    """Normalized 3-cochain: one table valued in N per entry of _TABLES3."""

    __slots__ = ("M", "N") + tuple(name for name, _ in _TABLES3)
    _SPEC, _MODULES = _TABLES3, ("M", "N")

    def __init__(self, M: GammaModule, N: GammaModule, assoc, braid, tensor, comp):
        self._read(M, N, assoc, braid, tensor, comp)

    def to_json(self):
        return {name: np.array(t).tolist()
                for (name, _), t in zip(_TABLES3, self._tables())}

    @staticmethod
    def from_json(M, N, obj):
        """The 3-cochain over M and N of a to_json object."""
        return Cochain3(M, N, *(obj[name] for name, _ in _TABLES3))


def zero_cochain3(M, N):
    return Cochain3._zero(M, N)


def random_cochain3(M, N, rng):
    """A random normalized 3-cochain (not necessarily a cocycle)."""
    m, g, n = M.group.order, M.gamma.order, N.group.order
    assoc, braid, tensor, comp = map(np.array, zero_cochain3(M, N)._tables())
    for r in range(1, m):
        for s in range(1, m):
            braid[r][s] = rng.randrange(n)
            for t in range(1, m):
                assoc[r][s][t] = rng.randrange(n)
            for t in range(1, g):
                tensor[r][s][t] = rng.randrange(n)
        for t in range(1, g):
            for u in range(1, g):
                comp[r][t][u] = rng.randrange(n)
    return Cochain3(M, N, assoc, braid, tensor, comp)


def pullback3(phi, Qmod: GammaModule, h: Cochain3):
    """Pull a 3-cochain back along an equivariant homomorphism into its M."""
    return h.pullback(_equivariant_hom(Qmod, h.M, phi, "pullback map"), Qmod)


def pushforward3(fmap, Nmod: GammaModule, h: Cochain3):
    """Push a 3-cochain's values forward along an equivariant hom on N."""
    fmap = _equivariant_hom(h.N, Nmod, fmap, "pushforward map")
    return h.pushforward(fmap, Nmod)


def obstruction(phi, f, h: Cochain3, hprime: Cochain3, Qmod=None):
    """phi^* h' - f_* h, valued in the coefficient module of h'."""
    src = Qmod if Qmod is not None else h.M
    pulled = pullback3(phi, src, hprime)
    pushed = pushforward3(f, hprime.N, h)
    return pulled.sub(pushed)


def is_3cocycle(h: Cochain3, guard=DEFAULT_GUARD):
    """Whether h satisfies the degree-3 cocycle conditions.

    Decided by building the skeletal graded categorical group on h (under
    guard) and checking its coherence, which stops at the first failing
    family (`catgroups.check_axioms`); that categorical characterization
    is the authoritative test here.
    """
    from . import catgroups

    G = catgroups.build_reduced(h.M, h.N, h, guard)
    report = catgroups.check_axioms(G)
    if report.ok:
        return True, None
    return False, report.first_failure()


def class_vanishes(k: Cochain3, source, target, phi, f=None,
                   guard=DEFAULT_GUARD):
    """Whether the degree-3 class of k is trivial, decided operationally:
    a functor of the given type between the two skeletal models exists
    exactly when the obstruction class vanishes, so the existence search
    is the test; it stops at the first coherent functor.

    source is (M, N, h) with N and h possibly None (discrete model);
    target is (M', N', h'); phi and f give the type.  The supplied k is
    checked against the recomputed obstruction when both sides carry
    coefficients.
    """
    from . import catgroups, functors

    Qmod, Nsrc, h = source
    Mp, Np, hp = target
    if Nsrc is None:
        S = catgroups.dis(Qmod, guard)
        f_tab = None
    else:
        S = catgroups.build_reduced(Qmod, Nsrc, h, guard)
        f_tab = list(f)
    T = catgroups.build_reduced(Mp, Np, hp, guard)
    if h is not None and f is not None:
        recomputed = obstruction(phi, f, h, hp, Qmod=Qmod)
        if recomputed != k:
            raise ShapeMismatch("supplied cochain differs from the obstruction "
                                "of the given type")
    ok3, _ = is_3cocycle(k, guard)
    if not ok3:
        return False
    f_map = None
    if f_tab is not None:
        f_map = [T.record(0, v, T.unit) for v in f_tab]
    # T is skeletal, so there is one object map and the search is sized in
    # full before its first candidate, as enumerate_functors sizes it
    found = functors._functors(S, T, phi, f_map, guard)
    return next(found, None) is not None
