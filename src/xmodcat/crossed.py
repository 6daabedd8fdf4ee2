"""Braided equivariant crossed modules and their morphisms.

A module here is a pair of finite groups B (written additively in error
messages) and D (multiplicatively), a boundary map d: B -> D, an action
theta of D on B, a braiding table eta: D x D -> B, and compatible actions
of a common finite group Gamma on B and D.  Validation is eager: every
axiom is scanned and all failures are collected, because the downstream
category builder silently relies on each one.
"""

from __future__ import annotations

from itertools import islice

from .errors import (
    GroupError,
    NotComposable,
    NotGammaStable,
    NotNormal,
    QuotientNotAbelian,
    ShapeMismatch,
)
from .groups import (
    FiniteGroup,
    GammaAction,
    GammaModule,
    GroupHom,
    _action_failures,
    _equivariance_failures,
    commutator_subgroup,
    identity_hom,
    index_table,
    is_normal,
    least_preimages,
    quotient,
    subgroup_as_group,
    trivial_action,
    trivial_group,
)

_WITNESS_CAP = 16


class AxiomCheck:
    """One axiom's verdict: how many instances fail it and the first 16 of
    them.  Without fail_count, `witnesses` must hold every failing instance.
    """

    __slots__ = ("key", "fail_count", "witnesses")

    def __init__(self, key, witnesses=(), fail_count=None):
        if fail_count is None:
            witnesses = tuple(witnesses)
            fail_count = len(witnesses)
        self.key = key
        self.fail_count = int(fail_count)
        self.witnesses = tuple(islice(witnesses, _WITNESS_CAP))

    @property
    def ok(self):
        return self.fail_count == 0

    @property
    def first_witness(self):
        return self.witnesses[0] if self.witnesses else None

    def __repr__(self):
        if self.ok:
            return f"{self.key}: ok"
        return f"{self.key}: FAIL x{self.fail_count} @ {self.first_witness}"


class AxiomReport:
    """Per-axiom verdicts of a module, morphism, category or functor.

    The checks come from any iterable, read in order and only as far as a
    question needs them: `ok` and `first_failure` stop at the first failing
    check, `report[key]` at that key, and `entries`, `failed` and the repr
    read them all.  Each check is read once and kept, and iteration goes by
    position among the kept checks, so nested loops see every check once.
    A read that raises leaves the checks after it unreadable: every later
    read past the kept checks raises RuntimeError, so a report cut short
    is never read as whole.
    """

    def __init__(self, entries):
        self._read = []
        self._unread = iter(entries)
        self._cut = None

    def _pull(self, count=None):
        """Keep up to count more checks (with None, all of them)."""
        if self._cut is not None:
            raise RuntimeError("an earlier read of this report raised") \
                from self._cut
        try:
            self._read.extend(islice(self._unread, count))
        except BaseException as exc:
            self._cut = exc
            raise

    def __iter__(self):
        i = 0
        while True:
            if i == len(self._read):
                self._pull(1)
                if i == len(self._read):
                    return
            yield self._read[i]
            i += 1

    @property
    def entries(self):
        """Every check, in order, as a list."""
        self._pull()
        return self._read

    @property
    def ok(self):
        return all(e.ok for e in self)

    def failed(self):
        return [e for e in self if not e.ok]

    def first_failure(self):
        for e in self:
            if not e.ok:
                return (e.key, e.first_witness)
        return None

    def __getitem__(self, key):
        for e in self:
            if e.key == key:
                return e
        raise KeyError(key)

    def __repr__(self):
        bad = self.failed()
        if not bad:
            return f"AxiomReport(ok, {len(self.entries)} checks)"
        return "AxiomReport(" + "; ".join(repr(e) for e in bad) + ")"


class BraidedGammaCrossedModule:
    """The tuple (B, D, d, theta, eta) with compatible Gamma-actions."""

    __slots__ = ("B", "D", "d", "theta", "eta", "gamma", "act_b", "act_d",
                 "_report", "_pi0", "_pi1")

    def __init__(self, B, D, d, theta, eta, gamma=None, act_b=None, act_d=None):
        self.B = B
        self.D = D
        self.d = index_table(d, (B.order,), D.order, "boundary")
        self.theta = index_table(theta, (D.order, B.order), B.order, "theta")
        self.eta = index_table(eta, (D.order, D.order), B.order, "eta")
        self.gamma = gamma if gamma is not None else trivial_group()
        self.act_b = act_b if act_b is not None else trivial_action(self.gamma, B)
        self.act_d = act_d if act_d is not None else trivial_action(self.gamma, D)
        self._report = None
        self._pi0 = None
        self._pi1 = None
        if self.act_b.gamma != self.gamma or self.act_d.gamma != self.gamma:
            raise ShapeMismatch("actions must share the module's gamma")
        if self.act_b.target != B or self.act_d.target != D:
            raise ShapeMismatch("action targets do not match B and D")

    # -- validation ---------------------------------------------------------

    def validate(self):
        """Full axiom scan; cached after the first call."""
        if self._report is None:
            self._report = self._validate()
        return self._report

    @property
    def is_valid(self):
        return self.validate().ok

    def _validate(self):
        B, D, d, th, eta = self.B, self.D, self.d, self.theta, self.eta
        gam, ab, ad = self.gamma, self.act_b, self.act_d
        return AxiomReport([
            AxiomCheck("boundary-hom", (
                (b, c) for b in B.elements() for c in B.elements()
                if d[B.mul(b, c)] != D.mul(d[b], d[c]))),
            AxiomCheck("theta-identity", (
                (b,) for b in B.elements() if th[0][b] != b)),
            AxiomCheck("theta-rows-bijective", (
                (x,) for x in D.elements() if len(set(th[x])) != B.order)),
            AxiomCheck("theta-rows-additive", (
                (x, b, c) for x in D.elements() for b in B.elements()
                for c in B.elements()
                if th[x][B.mul(b, c)] != B.mul(th[x][b], th[x][c]))),
            AxiomCheck("theta-action", (
                (x, y, b) for x in D.elements() for y in D.elements()
                for b in B.elements()
                if th[D.mul(x, y)][b] != th[x][th[y][b]])),
            AxiomCheck("gammaB-action", _action_failures(ab)),
            AxiomCheck("gammaD-action", _action_failures(ad)),
            AxiomCheck("boundary-equivariant",
                       _equivariance_failures(d, ab.act, ad.act)),
            # theta d = mu: the action along the boundary is conjugation in B
            AxiomCheck("lifted-conjugation", (
                (b, c) for b in B.elements() for c in B.elements()
                if th[d[b]][c] != B.mul(B.mul(b, c), B.inv(b)))),
            # d(theta_x b) = x d(b) x^-1
            AxiomCheck("boundary-conjugation", (
                (x, b) for x in D.elements() for b in B.elements()
                if d[th[x][b]] != D.conj(x, d[b]))),
            # eta(x, yz) = eta(x, y) + theta_y eta(x, z)
            AxiomCheck("braid-additive-right", (
                (x, y, z) for x in D.elements() for y in D.elements()
                for z in D.elements()
                if eta[x][D.mul(y, z)] != B.mul(eta[x][y], th[y][eta[x][z]]))),
            # eta(xy, z) = theta_x eta(y, z) + eta(x, z)
            AxiomCheck("braid-additive-left", (
                (x, y, z) for x in D.elements() for y in D.elements()
                for z in D.elements()
                if eta[D.mul(x, y)][z] != B.mul(th[x][eta[y][z]], eta[x][z]))),
            # d eta(x, y) = x y x^-1 y^-1
            AxiomCheck("braid-boundary", (
                (x, y) for x in D.elements() for y in D.elements()
                if d[eta[x][y]] != D.mul(D.mul(x, y),
                                         D.mul(D.inv(x), D.inv(y))))),
            # eta(d b, x) + theta_x b = b
            AxiomCheck("braid-action-right", (
                (b, x) for b in B.elements() for x in D.elements()
                if B.mul(eta[d[b]][x], th[x][b]) != b)),
            # eta(x, d b) + b = theta_x b
            AxiomCheck("braid-action-left", (
                (x, b) for x in D.elements() for b in B.elements()
                if B.mul(eta[x][d[b]], b) != th[x][b])),
            # s(theta_x b) = theta_{s x}(s b)
            AxiomCheck("action-equivariant", (
                (s, x, b) for s in gam.elements() for x in D.elements()
                for b in B.elements()
                if ab(s, th[x][b]) != th[ad(s, x)][ab(s, b)])),
            # s eta(x, y) = eta(s x, s y)
            AxiomCheck("braid-equivariant", (
                (s, x, y) for s in gam.elements() for x in D.elements()
                for y in D.elements()
                if ab(s, eta[x][y]) != eta[ad(s, x)][ad(s, y)])),
        ])

    # -- homotopy groups ------------------------------------------------------

    def kernel_elements(self):
        return tuple(b for b in self.B.elements() if self.d[b] == 0)

    def pi1(self):
        """Ker d as a gamma-module, re-indexed with its own identity at 0.

        Also verifies the derived facts: Ker d is central in B and the
        induced action of Coker d on it is trivial.
        """
        if self._pi1 is None:
            ker = self.kernel_elements()
            sub, embed = subgroup_as_group(self.B, ker)
            for a in ker:
                for b in self.B.elements():
                    if self.B.mul(a, b) != self.B.mul(b, a):
                        raise GroupError(
                            f"kernel element {a} is not central (witness {b})")
                for x in self.D.elements():
                    if self.theta[x][a] != a:
                        raise GroupError(
                            f"induced action on the kernel is not trivial at ({x}, {a})")
            pos = least_preimages(embed, self.B.order)
            rows = [[pos[row[e]] for e in embed] for row in self.act_b.act]
            for s, row in enumerate(rows):
                if -1 in row:
                    raise NotGammaStable(f"kernel not stable under grade {s}")
            mod = GammaModule(sub, GammaAction(self.gamma, sub, rows))
            self._pi1 = (mod, embed)
        return self._pi1[0]

    def pi1_embedding(self):
        self.pi1()
        return self._pi1[1]

    def pi0(self):
        """Coker d as a gamma-module; cosets indexed by least member."""
        if self._pi0 is None:
            img = subgroup_as_group(self.D, set(self.d))[1]
            Q, proj = quotient(self.D, img)
            if not Q.is_abelian:
                raise QuotientNotAbelian("cokernel of the boundary is not abelian")
            rows = []
            for s in self.gamma.elements():
                row = [0] * Q.order
                for x in self.D.elements():
                    row[proj(x)] = proj(self.act_d(s, x))
                rows.append(row)
            mod = GammaModule(Q, GammaAction(self.gamma, Q, rows))
            self._pi0 = (mod, proj)
        return self._pi0[0]

    def pi0_projection(self):
        self.pi0()
        return self._pi0[1]

    # -- predicates -----------------------------------------------------------

    def is_symmetric(self):
        B, D, eta = self.B, self.D, self.eta
        return all(B.mul(eta[x][y], eta[y][x]) == 0
                   for x in D.elements() for y in D.elements())

    def is_abelian_module(self):
        if not (self.B.is_abelian and self.D.is_abelian):
            return False
        if any(self.theta[x][b] != b
               for x in self.D.elements() for b in self.B.elements()):
            return False
        return not any(v for row in self.eta for v in row)

    def __eq__(self, other):
        return (isinstance(other, BraidedGammaCrossedModule)
                and self.B == other.B and self.D == other.D
                and self.d == other.d and self.theta == other.theta
                and self.eta == other.eta and self.gamma == other.gamma
                and self.act_b == other.act_b and self.act_d == other.act_d)

    def __hash__(self):
        return hash((self.B, self.D, self.d, self.theta, self.eta))

    def __repr__(self):
        return (f"BraidedGammaCrossedModule(|B|={self.B.order}, "
                f"|D|={self.D.order}, |gamma|={self.gamma.order})")

    def to_json(self):
        return {
            "B": self.B.to_json(),
            "D": self.D.to_json(),
            "d": list(self.d),
            "theta": [list(r) for r in self.theta],
            "eta": [list(r) for r in self.eta],
            "gamma": self.gamma.to_json(),
            "actB": [list(r) for r in self.act_b.act],
            "actD": [list(r) for r in self.act_d.act],
        }

    @staticmethod
    def from_json(obj):
        B = FiniteGroup.from_json(obj["B"])
        D = FiniteGroup.from_json(obj["D"])
        gamma = FiniteGroup.from_json(obj["gamma"])
        return BraidedGammaCrossedModule(
            B, D, obj["d"], obj["theta"], obj["eta"], gamma,
            GammaAction(gamma, B, obj["actB"]),
            GammaAction(gamma, D, obj["actD"]))


def validate(module):
    return module.validate()


def conjugation_module(G, N, gamma=None, act=None):
    """The braided module (N, G, inclusion, conjugation, commutator).

    Requires N normal, the quotient G/N abelian, and N stable under the
    gamma-action on G.  The result validates by construction.
    """
    witness = is_normal(G, N)
    if witness is not None:
        raise NotNormal("subgroup is not normal", witness)
    Nset = set(N)
    derived = commutator_subgroup(G)
    if not set(derived) <= Nset:
        missing = min(set(derived) - Nset)
        raise QuotientNotAbelian(
            f"quotient is nonabelian: commutator {missing} lies outside the subgroup")
    gamma = gamma if gamma is not None else trivial_group()
    act = act if act is not None else trivial_action(gamma, G)
    for s in gamma.elements():
        for n in N:
            if act(s, n) not in Nset:
                raise NotGammaStable(f"grade {s} moves {n} out of the subgroup")
    B, embed = subgroup_as_group(G, N)
    pos = least_preimages(embed, G.order)
    d = tuple(embed)
    theta = tuple(tuple(pos[G.conj(x, e)] for e in embed) for x in G.elements())
    eta = tuple(tuple(pos[G.mul(G.mul(x, y), G.mul(G.inv(x), G.inv(y)))]
                      for y in G.elements()) for x in G.elements())
    act_b = GammaAction(gamma, B,
                        [[pos[act(s, e)] for e in embed] for s in gamma.elements()])
    m = BraidedGammaCrossedModule(B, G, d, theta, eta, gamma, act_b, act)
    report = m.validate()
    if not report.ok:
        raise QuotientNotAbelian(f"construction failed validation: {report}")
    return m


def pi0(module):
    return module.pi0()


def pi1(module):
    return module.pi1()


def is_symmetric(module):
    return module.is_symmetric()


def is_abelian(module):
    return module.is_abelian_module()


# -- morphisms ----------------------------------------------------------------

class CrossedMorphism:
    """A morphism (f1, f0, phi) between braided gamma-crossed modules."""

    __slots__ = ("source", "target", "f1", "f0", "phi")

    def __init__(self, source, target, f1: GroupHom, f0: GroupHom,
                 phi: SymmetricCochain2 = None):
        self.source = source
        self.target = target
        self.f1 = f1
        self.f0 = f0
        if phi is None:
            from .cohomology import zero_cochain2
            phi = zero_cochain2(source.pi0(), target.pi1())
        self.phi = phi

    def __eq__(self, other):
        return (isinstance(other, CrossedMorphism)
                and self.source == other.source and self.target == other.target
                and self.f1 == other.f1 and self.f0 == other.f0
                and self.phi == other.phi)

    def __hash__(self):
        return hash((self.f1, self.f0, self.phi))

    def __repr__(self):
        return f"CrossedMorphism(f1={list(self.f1.map)}, f0={list(self.f0.map)})"


def identity_morphism(module):
    return CrossedMorphism(module, module,
                           identity_hom(module.B), identity_hom(module.D))


def validate_morphism(m: CrossedMorphism):
    """Axiom report for a morphism between its stored ends."""
    M, Mp = m.source, m.target
    f1, f0 = m.f1, m.f0
    if f1.domain != M.B or f1.codomain != Mp.B:
        raise ShapeMismatch("f1 does not run between the B groups")
    if f0.domain != M.D or f0.codomain != Mp.D:
        raise ShapeMismatch("f0 does not run between the D groups")
    entries = [
        AxiomCheck("f1-hom", (
            (b, c) for b in M.B.elements() for c in M.B.elements()
            if f1(M.B.mul(b, c)) != Mp.B.mul(f1(b), f1(c)))),
        AxiomCheck("f0-hom", (
            (x, y) for x in M.D.elements() for y in M.D.elements()
            if f0(M.D.mul(x, y)) != Mp.D.mul(f0(x), f0(y)))),
        AxiomCheck("f1-equivariant",
                   _equivariance_failures(f1.map, M.act_b.act, Mp.act_b.act)),
        AxiomCheck("f0-equivariant",
                   _equivariance_failures(f0.map, M.act_d.act, Mp.act_d.act)),
        AxiomCheck("boundary-compat", (
            (b,) for b in M.B.elements() if f0(M.d[b]) != Mp.d[f1(b)])),
        AxiomCheck("action-compat", (
            (x, b) for x in M.D.elements() for b in M.B.elements()
            if f1(M.theta[x][b]) != Mp.theta[f0(x)][f1(b)])),
        AxiomCheck("braid-compat", (
            (x, y) for x in M.D.elements() for y in M.D.elements()
            if f1(M.eta[x][y]) != Mp.eta[f0(x)][f0(y)])),
    ]
    phi_ok = _phi_over_ends(m)
    entries.append(AxiomCheck("phi-modules", () if phi_ok else ((),)))
    if phi_ok:
        from .cohomology import is_2cocycle
        ok, witness = is_2cocycle(m.phi)
        entries.append(AxiomCheck("phi-cocycle", () if ok else (witness,)))
    return AxiomReport(entries)


def _phi_over_ends(m: CrossedMorphism):
    """Whether m's phi is a cochain on pi0 of its source valued in pi1 of
    its target."""
    return m.phi.Q == m.source.pi0() and m.phi.B == m.target.pi1()


def compose_morphisms(m2: CrossedMorphism, m1: CrossedMorphism):
    """m2 after m1, with third component f1'_* phi + f0^* phi'.  A phi
    that is not over (pi0 of its source, pi1 of its target) is refused
    (ShapeMismatch) before any of its values is read."""
    if m1.target != m2.source:
        raise NotComposable("morphism ends do not match")
    for name, m in (("m1", m1), ("m2", m2)):
        if not _phi_over_ends(m):
            raise ShapeMismatch(f"{name}'s phi is not over pi0 of its source "
                                "and pi1 of its target")
    M, Mm, Mpp = m1.source, m1.target, m2.target
    f1 = m2.f1.compose(m1.f1)
    f0 = m2.f0.compose(m1.f0)
    Q = M.pi0()
    # ker(d') index -> ker(d'') index through f1 of the middle stage, -1
    # where f1 leaves ker(d'')
    pos2 = least_preimages(Mpp.pi1_embedding(), Mpp.B.order)
    on_ker = [pos2[m2.f1(e)] for e in Mm.pi1_embedding()]
    # induced map on cokernels: coset of x -> coset of f0(x)
    proj_m = Mm.pi0_projection()
    reps = least_preimages(M.pi0_projection().map, Q.group.order)
    fbar = [proj_m(m1.f0(x)) for x in reps]
    if any(on_ker[v] < 0 for v in m1.phi.flat()):
        raise ShapeMismatch("f1 moves a phi value off the boundary's kernel")
    phi = m1.phi.pushforward(on_ker, Mpp.pi1()).add(m2.phi.pullback(fbar, Q))
    return CrossedMorphism(M, Mpp, f1, f0, phi)
