"""Gamma-module extensions of the type of an abelian crossed module:
crossed products, equivalence search, the dictionary between extensions
and monoidal functors out of the discrete model, and the obstruction-based
classification.

Two independent routes are kept deliberately separate: extensions are
compared by exhaustive isomorphism search over section translates, while
functors are compared by homotopy search; the bijection between the two
sides is asserted, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import cohomology
from .catgroups import GradedCatGroup, build_catgroup, dis, reduce_abelian
from .cohomology import SymmetricCochain2, is_2cocycle, pullback3
from .crossed import BraidedGammaCrossedModule
from .errors import (
    DEFAULT_GUARD,
    BadSection,
    NotCoherent,
    NotWellDefined,
    ShapeMismatch,
    WrongType,
    candidates,
)
from .functors import (
    GradedFunctor,
    _functor_into,
    check_graded_functor,
    find_homotopy,
    homotopy_classes,
    partition,
)
from .groups import (
    FiniteGroup,
    GammaAction,
    GammaModule,
    GroupHom,
    _equivariance_failures,
    _equivariant_hom,
    index_table,
    least_preimages,
    section_defect,
    twisted_product,
)


class GammaModuleExtension:
    """An exact sequence 0 -> B -> E -> Q -> 0 of gamma-modules together
    with a structural map eps: E -> D satisfying eps . j = d."""

    __slots__ = ("module", "Q", "E", "j", "p", "eps")

    def __init__(self, module: BraidedGammaCrossedModule, Q: GammaModule,
                 E: GammaModule, j: GroupHom, p: GroupHom, eps: GroupHom):
        self.module = module
        self.Q = Q
        self.E = E
        self.j = j
        self.p = p
        self.eps = eps

    def validate(self):
        M, Q, E = self.module, self.Q, self.E
        if not M.is_abelian_module():
            raise WrongType("extensions require an abelian crossed module")
        if self.j.domain != M.B or self.j.codomain != E.group:
            raise ShapeMismatch("j must run B -> E")
        if self.p.domain != E.group or self.p.codomain != Q.group:
            raise ShapeMismatch("p must run E -> Q")
        if self.eps.domain != E.group or self.eps.codomain != M.D:
            raise ShapeMismatch("eps must run E -> D")
        if E.gamma != M.gamma or Q.gamma != M.gamma:
            raise ShapeMismatch("E and Q must be graded by the module's gamma")
        maps = (("j", self.j, M.act_b, E.act), ("p", self.p, E.act, Q.act),
                ("eps", self.eps, E.act, M.act_d))
        problems = [f"{name} is not a homomorphism"
                    for name, f, _, _ in maps if not f.is_hom()]
        if not self.j.is_injective():
            problems.append("j is not injective")
        if not self.p.is_surjective():
            problems.append("p is not surjective")
        if set(self.j.map) != set(self.p.kernel_elements()):
            problems.append("image of j differs from kernel of p")
        problems += [f"{name} is not equivariant" for name, f, dom, cod in maps
                     if any(_equivariance_failures(f.map, dom.act, cod.act))]
        if any(self.eps(self.j(b)) != M.d[b] for b in M.B.elements()):
            problems.append("eps . j differs from the boundary")
        return problems

    @property
    def is_valid(self):
        return not self.validate()

    def canonical_section(self):
        """e_u = least preimage of u, with e_0 = 0."""
        section = least_preimages(self.p.map, self.Q.group.order)
        if -1 in section:
            raise BadSection(f"p has no preimage of {section.index(-1)}")
        return section

    def __repr__(self):
        return (f"GammaModuleExtension(|B|={self.module.B.order}, "
                f"|E|={self.E.group.order}, |Q|={self.Q.group.order})")

    def to_json(self):
        return {"E": self.E.group.to_json(),
                "actE": [list(r) for r in self.E.act.act],
                "j": list(self.j.map), "p": list(self.p.map),
                "eps": list(self.eps.map)}


def induced_psi(ext: GammaModuleExtension):
    """The homomorphism Q -> Coker d with psi . p = q . eps.

    Raises BadSection when p misses a class of Q (`canonical_section`)
    and NotWellDefined when the value depends on the chosen preimage; both
    signal an invalid extension.
    """
    ext.canonical_section()
    M = ext.module
    proj = M.pi0_projection()
    psi = [None] * ext.Q.group.order
    for e in ext.E.group.elements():
        u = ext.p(e)
        v = proj(ext.eps(e))
        if psi[u] is None:
            psi[u] = v
        elif psi[u] != v:
            raise NotWellDefined(
                f"structural map is not constant on the fiber of {u}")
    return GroupHom(ext.Q.group, M.pi0().group, psi)


def extract_section_cochain(ext: GammaModuleExtension, section=None):
    """The normalized 2-cochain measured by a section of p."""
    M, Q, E = ext.module, ext.Q, ext.E
    if section is None:
        section = ext.canonical_section()
    section = index_table(section, (Q.group.order,), E.group.order,
                          "section", BadSection)
    if section[0] != 0:
        raise BadSection("section must send the unit to the unit")
    for u in Q.group.elements():
        if ext.p(section[u]) != u:
            raise BadSection(f"section value at {u} is not a preimage")
    qq, qg = section_defect(Q, E.group, E.act, section,
                            least_preimages(ext.j.map, E.group.order))
    if any(-1 in row for row in qq + qg):
        raise BadSection("section defect left the kernel of p")
    Bmod = GammaModule(M.B, M.act_b)
    return SymmetricCochain2(Q, Bmod, qq, qg)


def extension_from_functor(F: GradedFunctor):
    """The crossed product extension attached to a coherent functor from
    the discrete model on Q into the category built on an abelian module."""
    S, T = F.source, F.target
    if T.meta.get("kind") != "module":
        raise WrongType("target must be a category built from a module")
    M: BraidedGammaCrossedModule = T.meta["module"]
    if not M.is_abelian_module():
        raise WrongType("extensions require an abelian crossed module")
    if S.meta.get("kind") != "reduced":
        raise WrongType("source must be a discrete (reduced) model")
    Qmod: GammaModule = S.meta["M"]
    if S.meta["N"].group.order != 1:
        raise WrongType("source must have trivial unit endomorphisms")
    if int(F.obj[S.unit]) != T.unit:
        raise WrongType("functor must send the unit object to the unit")
    rep = check_graded_functor(F)
    if not rep.ok:
        raise NotCoherent(f"functor fails coherence: {rep.first_failure()}")
    # the grade-s arrow u -> s.u with the identity payload, at [u, s]
    lifts = S.record(np.arange(Qmod.gamma.order), 0, np.asarray(Qmod.act.act).T)
    fqq = T.pay[F.ftilde].tolist()
    fqg = T.pay[F.mor[lifts]].tolist()
    ext = _crossed_product(M, Qmod, fqq, fqg, F.obj)
    problems = ext.validate()
    if problems:
        raise NotCoherent(f"crossed product failed validation: {problems}")
    return ext


def functor_from_extension(ext: GammaModuleExtension, section=None,
                           target_cat: GradedCatGroup = None,
                           source_cat: GradedCatGroup = None):
    """The monoidal functor defined by a section of p.

    The section cochain is verified to land in B and to satisfy the
    symmetric cocycle identities; the assembled record is verified through
    the generic coherence checker.
    """
    M, Qmod = ext.module, ext.Q
    f = extract_section_cochain(ext, section)
    ok, witness = is_2cocycle(f)
    if not ok:
        raise BadSection(f"section cochain fails a cocycle identity at {witness}")
    if section is None:
        section = ext.canonical_section()
    T = target_cat if target_cat is not None else build_catgroup(M)
    S = source_cat if source_cat is not None else dis(Qmod)
    obj = [ext.eps(section[u]) for u in range(Qmod.group.order)]
    # the discrete model's only payload is the identity
    F = _functor_into(S, T, obj, [0], f.qq, f.qg)
    rep = check_graded_functor(F)
    if not rep.ok:
        raise BadSection(f"section functor fails coherence: {rep.first_failure()}")
    return F


def are_equivalent(ext: GammaModuleExtension, ext2: GammaModuleExtension,
                   guard=DEFAULT_GUARD):
    """Equivalence search: an isomorphism E -> E' fixing B and Q and
    commuting with the structural maps, or None.

    Candidates translate a fixed section fiberwise; the first hit in
    lexicographic candidate order is returned.
    """
    if ext.module != ext2.module or ext.Q != ext2.Q:
        raise ShapeMismatch("extensions must share the module and the base")
    Qmod = ext.Q
    E1, E2 = ext.E, ext2.E
    if E1.group.order != E2.group.order:
        return None
    sec = ext.canonical_section()
    q = Qmod.group.order
    fibers = [[e for e in E2.group.elements() if ext2.p(e) == u]
              for u in range(1, q)]
    # x = j(b) sec[p(x)] with b = parts[x]
    jinv = least_preimages(ext.j.map, E1.group.order)
    parts = [jinv[E1.group.mul(x, E1.group.inv(sec[u]))]
             for x, u in enumerate(ext.p.map)]
    if -1 in parts:
        raise BadSection("section defect left the kernel of p")
    for combo in candidates(fibers, guard):
        alpha_u = [0] + list(combo)
        table = [E2.group.mul(ext2.j(b), alpha_u[u])
                 for b, u in zip(parts, ext.p.map)]
        if len(set(table)) != len(table):
            continue
        alpha = GroupHom(E1.group, E2.group, table)
        if not alpha.is_hom():
            continue
        if any(_equivariance_failures(table, E1.act.act, E2.act.act)):
            continue
        if any(ext2.eps(alpha(x)) != ext.eps(x) for x in E1.group.elements()):
            continue
        return alpha
    return None


def _functor_classes(M: BraidedGammaCrossedModule, Qmod: GammaModule, psi,
                     guard):
    """The functor side of type psi: the built category T of M, the discrete
    model S of Qmod and the homotopy classes of functors S -> T, as
    (S, T, classes).  Cokernel indexing and the grade-1 class labels of T
    must agree, since psi is read as a label map."""
    T = build_catgroup(M, guard)
    S = dis(Qmod, guard)
    labels, count = T.pi0_partition()
    proj = M.pi0_projection()
    if count != M.pi0().group.order:
        raise ShapeMismatch("class count differs from the cokernel order")
    for x in range(M.D.order):
        if labels[x] != proj(x):
            raise ShapeMismatch("class labels differ from cokernel indexing")
    return S, T, homotopy_classes(S, T, psi, guard=guard)


@dataclass
class SchreierReport:
    functor_class_count: int
    extension_class_count: int
    well_defined: bool
    injective: bool
    surjective: bool
    reverse_homotopies: bool
    functor_classes: list = field(repr=False, default_factory=list)
    extension_classes: list = field(repr=False, default_factory=list)

    @property
    def ok(self):
        return (self.functor_class_count == self.extension_class_count
                and self.well_defined and self.injective and self.surjective
                and self.reverse_homotopies)


def schreier_bijection_check(M: BraidedGammaCrossedModule, Qmod: GammaModule,
                             psi, guard=DEFAULT_GUARD):
    """Check the correspondence between homotopy classes of functors of
    type (psi, 0) and equivalence classes of extensions inducing psi.

    The functor side is enumerated through the category machinery and
    partitioned by homotopy search; the extension side is built from every
    symmetric 2-cocycle paired with every compatible representative map and
    partitioned by isomorphism search.
    """
    psi = _equivariant_hom(Qmod, M.pi0(), psi, "psi")
    S, T, classes = _functor_classes(M, Qmod, psi, guard)

    Bmod = GammaModule(M.B, M.act_b)
    cocycles = cohomology.all_cocycles(Qmod, Bmod, guard=guard)
    proj = M.pi0_projection()
    rep_sets = [[x for x in M.D.elements() if proj(x) == psi[u]] if u else [0]
                for u in Qmod.group.elements()]
    exts = []
    for f in cocycles:
        # F is a representative map of f exactly when its defect is d . f
        df = tuple([[M.d[b] for b in row] for row in t] for t in (f.qq, f.qg))
        for Fmap in candidates(rep_sets, guard):
            if any(t != dt for t, dt in zip(
                    section_defect(Qmod, M.D, M.act_d, Fmap, M.D.elements()),
                    df)):
                continue
            ext = _crossed_product(M, Qmod, f.qq, f.qg, Fmap)
            if ext.is_valid and induced_psi(ext).map == psi:
                exts.append(ext)
    ext_classes = partition(
        exts, lambda rep, ext: are_equivalent(rep, ext, guard=guard) is not None)

    omega = [extension_from_functor(cls[0]) for cls in classes]
    well_defined = True
    for cls, image in zip(classes, omega):
        for other in cls[1:]:
            if are_equivalent(image, extension_from_functor(other),
                              guard=guard) is None:
                well_defined = False
    injective = True
    for i in range(len(omega)):
        for jdx in range(i + 1, len(omega)):
            if are_equivalent(omega[i], omega[jdx], guard=guard) is not None:
                injective = False
    surjective = True
    for cls in ext_classes:
        if not any(are_equivalent(cls[0], im, guard=guard) is not None
                   for im in omega):
            surjective = False
    # equivalent extensions must come from homotopic functors
    reverse = True
    for cls in ext_classes:
        base = functor_from_extension(cls[0], target_cat=T, source_cat=S)
        for other in cls[1:]:
            F2 = functor_from_extension(other, target_cat=T, source_cat=S)
            if find_homotopy(base, F2, guard=guard) is None:
                reverse = False
    return SchreierReport(len(classes), len(ext_classes), well_defined,
                          injective, surjective, reverse,
                          classes, ext_classes)


def _crossed_product(M, Qmod, qq, qg, Fmap):
    """The crossed product B x_(qq, qg) Q with (b, u) packed as u * |B| + b,
    and eps sending (b, u) to d(b) Fmap[u]."""
    B, D, gam = M.B, M.D, M.gamma
    nb = B.order
    n = nb * Qmod.group.order
    E = FiniteGroup(twisted_product(Qmod.group, B, qq))
    rows = [[Qmod.act(s, u) * nb + B.mul(M.act_b(s, b), qg[u][s])
             for u in Qmod.group.elements() for b in B.elements()]
            for s in gam.elements()]
    Emod = GammaModule(E, GammaAction(gam, E, rows))
    j = GroupHom(B, E, list(range(nb)))
    p = GroupHom(E, Qmod.group, [x // nb for x in range(n)])
    eps = GroupHom(E, D, [D.mul(M.d[x % nb], Fmap[x // nb]) for x in range(n)])
    return GammaModuleExtension(M, Qmod, Emod, j, p, eps)


@dataclass
class ClassifyResult:
    obstructed: bool
    h2_invariants: list
    class_count: int
    representatives: list = field(repr=False, default_factory=list)
    obstruction: object = None

    def to_json(self):
        return {
            "obstructed": self.obstructed,
            "h2_invariants": list(self.h2_invariants),
            "class_count": self.class_count,
            "representatives": [e.to_json() for e in self.representatives],
        }


def classify(M: BraidedGammaCrossedModule, Qmod: GammaModule, psi,
             guard=DEFAULT_GUARD):
    """Obstruction-based classification of extensions of type M inducing psi.

    Pulls the skeletal 3-cochain of the built category back along psi,
    decides vanishing by the existence search into the reduced model, and
    when unobstructed returns one representative extension per degree-2
    cohomology class of (Q, ker d).
    """
    if not M.is_abelian_module():
        raise WrongType("classification requires an abelian crossed module")
    psi = _equivariant_hom(Qmod, M.pi0(), psi, "psi")
    h, _ = reduce_abelian(M, guard)
    k = pullback3(psi, Qmod, h)
    P, K = M.pi0(), M.pi1()
    vanishes = cohomology.class_vanishes(
        k, (Qmod, None, None), (P, K, h), psi, guard=guard)
    if not vanishes:
        return ClassifyResult(True, [], 0, [], k)
    Kmod = M.pi1()
    res = cohomology.h2(Qmod, Kmod, guard=guard)
    _, _, classes = _functor_classes(M, Qmod, psi, guard)
    if len(classes) != res.class_count:
        raise AssertionError(
            f"class count {len(classes)} differs from |H2| = {res.class_count}")
    reps = [extension_from_functor(cls[0]) for cls in classes]
    return ClassifyResult(False, res.invariants, len(classes), reps, k)
