"""Finite groups as multiplication tables over element indices.

The identity is always index 0 and every constructor index-normalizes its
output, so equal tables mean equal groups and golden files stay stable.
Everything here is immutable after validation and safe to share.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from math import lcm

from . import zlinalg
from .errors import (
    GroupError,
    MatrixShapeMismatch,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotClosed,
    NotNormal,
    ShapeMismatch,
)


# The dtype of every numpy index table: the group tables here and a built
# category's tables (catgroups), whose largest flat index, below
# (n_mor + 1)^2, the category builders keep within it.  A string, so this
# module names it without loading numpy.
INDEX_DTYPE = "int32"


class FiniteGroup:
    """A finite group given by an n x n multiplication table of indices."""

    __slots__ = ("table", "order", "_inv", "_abelian", "_np", "_hash")

    def __init__(self, table, _validated=False):
        tbl = tuple(tuple(map(operator.index, row)) for row in table)
        self.table = tbl
        self.order = len(tbl)
        self._inv = None
        self._abelian = None
        self._np = None
        self._hash = None
        if not _validated:
            _validate_table(tbl)

    # -- basic structure ---------------------------------------------------

    @property
    def identity(self):
        return 0

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inverses[a]

    @property
    def inverses(self):
        if self._inv is None:
            inv = [0] * self.order
            for a in range(self.order):
                for b in range(self.order):
                    if self.table[a][b] == 0 and self.table[b][a] == 0:
                        inv[a] = b
                        break
            self._inv = tuple(inv)
        return self._inv

    def conj(self, g, x):
        """g x g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def elements(self):
        return range(self.order)

    def element_order(self, a):
        x, n = a, 1
        while x != 0:
            x = self.mul(x, a)
            n += 1
        return n

    @property
    def is_abelian(self):
        if self._abelian is None:
            self._abelian = all(
                self.table[a][b] == self.table[b][a]
                for a in range(self.order) for b in range(self.order)
            )
        return self._abelian

    @property
    def np_table(self):
        if self._np is None:
            import numpy as np
            self._np = np.asarray(self.table, dtype=INDEX_DTYPE)
            self._np.flags.writeable = False
        return self._np

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.table)
        return self._hash

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"

    def to_json(self):
        return {"order": self.order, "table": [list(r) for r in self.table]}

    @staticmethod
    def from_json(obj):
        """The group of a to_json object, whose order, if given, is checked."""
        group = FiniteGroup(obj["table"])
        if obj.get("order", group.order) != group.order:
            raise ShapeMismatch(f"order {obj['order']} does not match the "
                                f"table's {group.order} rows")
        return group


def index_table(values, shape, bound, name, error=ShapeMismatch):
    """values as nested tuples of ints of the given shape, each in [0, bound)
    and read with operator.index, so a numpy integer passes and a float,
    string or None does not; anything else raises error, naming the table."""
    try:
        rows = tuple(values)
    except TypeError:
        rows = None
    if rows is None or len(rows) != shape[0]:
        raise error(f"{name} table has wrong shape")
    if len(shape) > 1:
        return tuple(index_table(row, shape[1:], bound, name, error)
                     for row in rows)
    try:
        row = tuple(map(operator.index, rows))
    except TypeError:
        raise error(f"{name} table holds a non-integer") from None
    if row and not (0 <= min(row) and max(row) < bound):
        raise error(f"{name} value outside [0, {bound})")
    return row


def _validate_table(tbl):
    n = len(tbl)
    if n == 0:
        raise NoIdentity("empty table")
    for i, row in enumerate(tbl):
        if len(row) != n:
            raise ShapeMismatch(f"row {i} has length {len(row)}, expected {n}")
    for i in range(n):
        for j in range(n):
            v = tbl[i][j]
            if not 0 <= v < n:
                raise NotClosed("entry out of range", (i, j))
    for j in range(n):
        if tbl[0][j] != j:
            raise NoIdentity("0 is not a left identity", (0, j))
        if tbl[j][0] != j:
            raise NoIdentity("0 is not a right identity", (j, 0))
    for a in range(n):
        if not any(tbl[a][b] == 0 and tbl[b][a] == 0 for b in range(n)):
            raise NoInverse("element has no two-sided inverse", (a,))
    if not _light_associative(tbl):
        raise NotAssociative("associativity fails", _associativity_witness(tbl))


def _magma_generators(tbl):
    """A set that generates the table's magma (with the identity 0) under
    multiplication alone: greedily the least element not yet reached, each
    pair of reached elements multiplied once, O(n^2) in all."""
    n = len(tbl)
    reached = [False] * n
    reached[0] = True
    elems, gens = [0], []
    for g in range(1, n):
        if reached[g]:
            continue
        gens.append(g)
        reached[g] = True
        todo = [g]
        while todo:
            x = todo.pop()
            elems.append(x)
            row = tbl[x]
            for y in elems:
                for z in (row[y], tbl[y][x]):
                    if not reached[z]:
                        reached[z] = True
                        todo.append(z)
    return gens


def _light_associative(tbl):
    """Light's test: the middles a with (xa)y = x(ay) for all x, y are closed
    under the product (Clifford & Preston, The Algebraic Theory of
    Semigroups I, 1.2), so the table is associative exactly when every
    generator of its magma is a middle.  0 is one, being the identity."""
    for a in _magma_generators(tbl):
        row_a = tbl[a]
        for x, row_x in enumerate(tbl):
            if tbl[row_x[a]] != tuple(map(row_x.__getitem__, row_a)):
                return False
    return True


def _associativity_witness(tbl):
    """The lexicographically first (a, b, c) with (ab)c != a(bc), by a scan
    of every triple; the table must have one."""
    import numpy as np
    t = np.asarray(tbl, dtype=np.int64)
    lhs = t[t, :]            # lhs[a,b,c] = (ab)c
    rhs = t[:, t]            # rhs[a,b,c] = a(bc)
    return tuple(np.argwhere(lhs != rhs)[0].tolist())


def group_from_table(table):
    """Validate a square index table and wrap it as a FiniteGroup.

    The identity must sit at index 0; use normalize_identity first if it
    does not.
    """
    return FiniteGroup(table)


def normalize_identity(table):
    """Re-index a group table so the identity lands at index 0."""
    n = len(table)
    ident = None
    for e in range(n):
        if all(table[e][x] == x == table[x][e] for x in range(n)):
            ident = e
            break
    if ident is None:
        raise NoIdentity("no two-sided identity")
    if ident == 0:
        return [list(r) for r in table]
    perm = [ident] + [x for x in range(n) if x != ident]
    pos = least_preimages(perm, n)
    return [[pos[table[perm[i]][perm[j]]] for j in range(n)] for i in range(n)]


# -- standard constructions ------------------------------------------------

@lru_cache(maxsize=None)
def trivial_group():
    return FiniteGroup(((0,),), _validated=True)


@lru_cache(maxsize=None)
def cyclic(n):
    return FiniteGroup(
        tuple(tuple((i + j) % n for j in range(n)) for i in range(n)),
        _validated=True,
    )


def twisted_product(G, H, twist):
    """The table of G x H with (a, b) packed as a * |H| + b and
    (a1, b1)(a2, b2) = (a1 a2, b1 b2 twist[a1][a2])."""
    nh = H.order
    return [[G.mul(a1, a2) * nh + H.mul(H.mul(b1, b2), twist[a1][a2])
             for a2 in G.elements() for b2 in H.elements()]
            for a1 in G.elements() for b1 in H.elements()]


def direct_product(G, H):
    """Product group with (a, b) packed as a * |H| + b."""
    zero = [[0] * G.order] * G.order
    return FiniteGroup(twisted_product(G, H, zero), _validated=True)


@lru_cache(maxsize=None)
def klein_four():
    return direct_product(cyclic(2), cyclic(2))


@lru_cache(maxsize=None)
def dihedral(n):
    """Dihedral group of order 2n; element r^a s^b has index a + n*b."""
    def mul(x, y):
        a, b = x % n, x // n
        c, d = y % n, y // n
        return (a + (c if b == 0 else -c)) % n + n * ((b + d) % 2)
    return FiniteGroup(
        [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]
    )


def symmetric3():
    return dihedral(3)


@lru_cache(maxsize=None)
def quaternion8():
    """Order-8 group with i at index 1; i^2 = j^2 = (ij)^2."""
    # element a^p b^q with a of order 4, b^2 = a^2, b a = a^-1 b; index p + 4q
    def mul(x, y):
        p, q = x % 4, x // 4
        r, s = y % 4, y // 4
        if q == 0:
            pp, qq = (p + r) % 4, s
        else:
            pp, qq = (p - r) % 4, 1 + s
        if qq == 2:
            pp, qq = (pp + 2) % 4, 0
        return pp + 4 * qq
    return FiniteGroup([[mul(x, y) for y in range(8)] for x in range(8)])


# -- subgroup machinery ----------------------------------------------------

def _words(G, gens):
    """{element: word} over the subgroup gens generates, each word a tuple
    of positions in gens: the breadth-first closure of the identity under
    right multiplication by gens, which in a finite group is the generated
    subgroup, since an inverse is a power."""
    words = {0: ()}
    frontier = [0]
    for x in frontier:
        for i, g in enumerate(gens):
            y = G.mul(x, g)
            if y not in words:
                words[y] = words[x] + (i,)
                frontier.append(y)
    return words


def subgroup_generated(G, gens):
    """Smallest subgroup containing gens, ascending."""
    return tuple(sorted(_words(G, list(gens))))


def commutator_subgroup(G):
    comms = {G.mul(G.mul(x, y), G.inv(G.mul(y, x)))
             for x in range(G.order) for y in range(G.order)}
    return subgroup_generated(G, comms)


def center(G):
    return tuple(
        z for z in range(G.order)
        if all(G.mul(z, x) == G.mul(x, z) for x in range(G.order))
    )


def is_normal(G, N):
    """Return None if normal, else a witness (g, n) with g n g^-1 not in N."""
    Nset = set(N)
    for g in range(G.order):
        for n in N:
            if G.conj(g, n) not in Nset:
                return (g, n)
    return None


def subgroup_as_group(G, elems):
    """Re-index a subgroup as its own FiniteGroup.

    Elements are sorted ascending, which puts the identity at index 0.
    Returns (group, embedding) where embedding[i] is the G-index of i.
    """
    elems = tuple(sorted(set(elems)))
    if elems[0] != 0:
        raise GroupError("subgroup does not contain the identity")
    pos = least_preimages(elems, G.order)
    k = len(elems)
    tbl = [[0] * k for _ in range(k)]
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            tbl[i][j] = pos[G.mul(a, b)]
            if tbl[i][j] < 0:
                raise NotClosed("subset not closed", (a, b))
    return FiniteGroup(tbl, _validated=True), elems


def quotient(G, N):
    """Quotient by a normal subgroup.

    Cosets are indexed by their least member, sorted ascending (so the
    identity coset is index 0).  Returns (quotient group, projection).
    """
    witness = is_normal(G, N)
    if witness is not None:
        raise NotNormal("subgroup is not normal", witness)
    Nset = sorted(set(N))
    rep_of = [-1] * G.order
    reps = []
    for x in range(G.order):
        if rep_of[x] >= 0:
            continue
        coset = sorted(G.mul(x, n) for n in Nset)
        least = coset[0]
        reps.append(least)
        for y in coset:
            rep_of[y] = least
    reps.sort()
    idx = least_preimages(reps, G.order)
    k = len(reps)
    tbl = [[idx[rep_of[G.mul(reps[i], reps[j])]] for j in range(k)]
           for i in range(k)]
    Q = FiniteGroup(tbl)
    proj = GroupHom(G, Q, tuple(idx[rep_of[x]] for x in range(G.order)))
    return Q, proj


# -- homomorphisms and actions ----------------------------------------------

class GroupHom:
    """A map of element indices between two finite groups."""

    __slots__ = ("domain", "codomain", "map")

    def __init__(self, domain, codomain, mapping):
        self.domain = domain
        self.codomain = codomain
        self.map = index_table(mapping, (domain.order,), codomain.order,
                               "hom")

    def __call__(self, a):
        return self.map[a]

    def is_hom(self):
        if self.map[0] != 0:
            return False
        t = self.map
        return all(
            t[self.domain.mul(a, b)] == self.codomain.mul(t[a], t[b])
            for a in range(self.domain.order) for b in range(self.domain.order)
        )

    def compose(self, other):
        """self after other."""
        if other.codomain != self.domain:
            raise ShapeMismatch("homs not composable")
        return GroupHom(other.domain, self.codomain,
                        tuple(self.map[v] for v in other.map))

    def kernel_elements(self):
        return tuple(a for a in range(self.domain.order) if self.map[a] == 0)

    def is_injective(self):
        return len(set(self.map)) == self.domain.order

    def is_surjective(self):
        return len(set(self.map)) == self.codomain.order

    def __eq__(self, other):
        return (isinstance(other, GroupHom) and self.map == other.map
                and self.domain == other.domain and self.codomain == other.codomain)

    def __hash__(self):
        return hash((self.domain, self.codomain, self.map))


def identity_hom(G):
    return GroupHom(G, G, range(G.order))


def check_hom(f):
    return f.is_hom()


class GammaAction:
    """A left action of gamma on a target group, as a |gamma| x |target| table."""

    __slots__ = ("gamma", "target", "act")

    def __init__(self, gamma, target, act):
        self.gamma = gamma
        self.target = target
        self.act = index_table(act, (gamma.order, target.order),
                               target.order, "action")

    def __call__(self, s, x):
        return self.act[s][x]

    def is_action(self):
        return next(_action_failures(self), None) is None

    def __eq__(self, other):
        return (isinstance(other, GammaAction) and self.act == other.act
                and self.gamma == other.gamma and self.target == other.target)

    def __hash__(self):
        return hash((self.gamma, self.target, self.act))


def _action_failures(action):
    """Witnesses of the failing action laws: identity, bijective rows,
    multiplicative rows, and compatibility with the product of gamma."""
    G, T, act = action.gamma, action.target, action.act
    for x in T.elements():
        if act[0][x] != x:
            yield ("identity", x)
    for s in G.elements():
        if len(set(act[s])) != T.order:
            yield ("bijective", s)
        for x in T.elements():
            for y in T.elements():
                if act[s][T.mul(x, y)] != T.mul(act[s][x], act[s][y]):
                    yield ("multiplicative", s, x, y)
        for t in G.elements():
            st = G.mul(s, t)
            for x in T.elements():
                if act[st][x] != act[s][act[t][x]]:
                    yield ("composition", s, t, x)


def _equivariance_failures(mapping, act_dom, act_cod):
    """Every (s, x) with mapping[s.x] != s.mapping[x], s-major: the places
    where mapping fails to commute with the action tables act_dom on its
    domain and act_cod on its codomain."""
    for s, row in enumerate(act_dom):
        cod = act_cod[s]
        for x, sx in enumerate(row):
            if mapping[sx] != cod[mapping[x]]:
                yield (s, x)


def least_preimages(mapping, n):
    """The least index that mapping sends to each of n targets, -1 where
    there is none: the inverse table of an injective map, the least member
    of each fibre of any other."""
    out = [-1] * n
    for i in reversed(range(len(mapping))):
        out[mapping[i]] = i
    return out


def section_defect(Q, G, act, sec, lift):
    """The normalized defect of a set-section sec: Q -> G, read through
    lift: qq[u][v] = lift[sec[u] sec[v] sec[uv]^-1] and
    qg[u][s] = lift[(s.sec[u]) sec[s.u]^-1], where act(s, x) is s.x on G
    and Q is a gamma-module.  Entries read -1 wherever lift does.  Yields
    qq, then qg, so a caller comparing with a known defect can stop at qq."""
    mul, qmul, inv = G.table, Q.group.table, G.inverses
    yield [[lift[mul[mul[sec[u]][sec[v]]][inv[sec[qmul[u][v]]]]]
            for v in Q.group.elements()] for u in Q.group.elements()]
    yield [[lift[mul[act(s, sec[u])][inv[sec[Q.act(s, u)]]]]
            for s in Q.gamma.elements()] for u in Q.group.elements()]


def trivial_action(gamma, target):
    return GammaAction(gamma, target,
                       [list(range(target.order))] * gamma.order)


def action_from_automorphism(gamma, target, alpha):
    """Action of a cyclic gamma where the generator (index 1) acts by alpha."""
    rows = [list(range(target.order))]
    row = list(alpha)
    for _ in range(1, gamma.order):
        rows.append(row)
        row = [alpha[v] for v in row]
    return GammaAction(gamma, target, rows)


def check_action(a):
    return a.is_action()


class GammaModule:
    """A finite group together with a validated gamma action."""

    __slots__ = ("group", "gamma", "act", "_abelian")

    def __init__(self, group, action, _validated=False):
        if action.target != group:
            raise ShapeMismatch("action target is not the given group")
        self.group = group
        self.gamma = action.gamma
        self.act = action
        self._abelian = None
        if not _validated and not action.is_action():
            raise GroupError("invalid gamma action")

    @property
    def abelian(self):
        if self._abelian is None:
            self._abelian = decompose_abelian(self.group)
        return self._abelian

    def action_matrix(self, s):
        """The automorphism of s, as an integer matrix on generator coords."""
        dec = self.abelian
        cols = [dec.coords[self.act(s, g)] for g in dec.generators]
        r = len(dec.invariants)
        return [[cols[j][i] for j in range(r)] for i in range(r)]

    def __eq__(self, other):
        return (isinstance(other, GammaModule) and self.group == other.group
                and self.act == other.act)

    def __hash__(self):
        return hash((self.group, self.act))

    def __repr__(self):
        return f"GammaModule(order={self.group.order}, gamma={self.gamma.order})"


# -- finite abelian structure ------------------------------------------------

class FiniteAbelianGroup:
    """An abelian FiniteGroup with an invariant-factor decomposition.

    invariants is [d1, ..., dr] with d1 | d2 | ... and all di > 1;
    generators[i] is the element index generating the i-th factor; coords
    maps each element to its coefficient tuple.  Construction verifies the
    decomposition by rebuilding the full coordinate bijection.
    """

    __slots__ = ("group", "invariants", "generators", "coords")

    def __init__(self, group, invariants, generators, coords):
        self.group = group
        self.invariants = tuple(invariants)
        self.generators = tuple(generators)
        self.coords = tuple(tuple(c) for c in coords)

    def from_coords(self, vec):
        x = 0
        for g, k, d in zip(self.generators, vec, self.invariants):
            k %= d
            for _ in range(k):
                x = self.group.mul(x, g)
        return x

    def __repr__(self):
        return f"FiniteAbelianGroup({list(self.invariants)})"


def decompose_abelian(G):
    """Invariant-factor decomposition of an abelian group.

    Splits off an element of maximal order, decomposes the quotient, and
    lifts its generators to elements of the same order; the coordinate map
    is then rebuilt and checked to be a bijection.
    """
    if not G.is_abelian:
        raise GroupError("group is not abelian")
    if G.order == 1:
        return FiniteAbelianGroup(G, (), (), ((),))
    orders = [G.element_order(a) for a in range(G.order)]
    exponent = lcm(*orders)
    g1 = min(a for a in range(G.order) if orders[a] == exponent)
    gens = [g1]
    gen_orders = [exponent]
    sub = subgroup_generated(G, [g1])
    while len(sub) < G.order:
        Q, proj = quotient(G, sub)
        qorders = [Q.element_order(a) for a in range(Q.order)]
        qexp = lcm(*qorders)
        qg = min(a for a in range(Q.order) if qorders[a] == qexp)
        lift = None
        for x in range(G.order):
            if proj(x) == qg and G.element_order(x) == qexp:
                lift = x
                break
        if lift is None:
            raise GroupError("no order-preserving lift; table is not a group")
        gens.append(lift)
        gen_orders.append(qexp)
        sub = subgroup_generated(G, gens)
    # descending orders -> ascending divisibility
    pairs = sorted(zip(gen_orders, gens))
    invariants = [p[0] for p in pairs]
    generators = [p[1] for p in pairs]
    coords = [None] * G.order
    count = 0
    for vec in itertools.product(*(range(d) for d in invariants)):
        x = 0
        for g, k in zip(generators, vec):
            for _ in range(k):
                x = G.mul(x, g)
        if coords[x] is not None:
            raise GroupError("decomposition failed to be a bijection")
        coords[x] = vec
        count += 1
    if count != G.order:
        raise GroupError("decomposition does not cover the group")
    return FiniteAbelianGroup(G, invariants, generators, coords)


def abelian_invariants(G):
    """Invariant factors of an abelian group; trivial group gives []."""
    return list(decompose_abelian(G).invariants)


# -- presented-abelian-group linear algebra ---------------------------------

def hom_kernel_image(dom_invariants, cod_invariants, matrix):
    """Kernel and image of a map of presented finite abelian groups.

    The domain and codomain are given by invariant factors; `matrix` sends
    generator j of the domain to the codomain element with coordinates
    matrix[:, j].  Both answers come back as zlinalg.Presented with
    generator lifts (domain coordinates for the kernel, codomain
    coordinates for the image), computed by integer matrix reduction.
    """
    dom = [int(d) for d in dom_invariants]
    cod = [int(d) for d in cod_invariants]
    F = [list(map(int, row)) for row in matrix]
    if len(F) != len(cod) or any(len(r) != len(dom) for r in F):
        raise MatrixShapeMismatch(
            f"matrix shape {len(F)}x{len(F[0]) if F else 0} does not match "
            f"{len(cod)}x{len(dom)}")
    if any(d < 1 for d in dom + cod):
        raise MatrixShapeMismatch("every invariant factor must be at least 1")
    for j, d in enumerate(dom):
        col = [F[i][j] * d for i in range(len(cod))]
        if any(v % m for v, m in zip(col, cod)):
            raise MatrixShapeMismatch("matrix does not respect the relations")
    # the width of the system is len(dom) even when cod has no factors
    import numpy as np
    ker_gens = zlinalg.congruence_kernel_gens(
        np.array(F, dtype=object).reshape(len(cod), len(dom)), cod)
    kernel = zlinalg.presentation_from_generators(ker_gens, dom)
    img_gens = [[F[i][j] for i in range(len(cod))] for j in range(len(dom))]
    image = zlinalg.presentation_from_generators(img_gens, cod)
    return kernel, image


# -- hom/automorphism enumeration (desk scale) -------------------------------

def enumerate_homs(G, H):
    """All homomorphisms G -> H, by backtracking over generator images."""
    gens = _magma_generators(G.table)
    words = _words(G, gens)
    for images in itertools.product(range(H.order), repeat=len(gens)):
        mapping = [0] * G.order
        for x, word in words.items():
            v = 0
            for i in word:
                v = H.mul(v, images[i])
            mapping[x] = v
        f = GroupHom(G, H, mapping)
        if f.is_hom():
            yield f


def enumerate_automorphisms(G):
    return [f for f in enumerate_homs(G, G) if f.is_injective()]


def is_isomorphic(G, H, cap=64):
    """Backtracking isomorphism search for groups of order <= cap."""
    if G.order != H.order:
        return False
    if G.order > cap:
        raise GroupError(f"isomorphism search capped at order {cap}")
    if sorted(G.element_order(a) for a in G.elements()) != \
       sorted(H.element_order(a) for a in H.elements()):
        return False
    return any(f.is_injective() for f in enumerate_homs(G, H))
