"""Graded symmetric monoidal functors between finite graded categorical
groups: coherence checking, regularity, factor sets, the translation
between crossed-module morphisms and functors, homotopies, and exhaustive
enumeration of functor homotopy classes.

Enumeration is restricted to normalized candidates (unit object and unit
comparison sent to the identity); every survivor is re-verified through
the generic coherence checker, and partitioning into homotopy classes is
done by explicit homotopy search.
"""

from __future__ import annotations

import math

import numpy as np

from .catgroups import GradedCatGroup, _entry, _lifts, build_catgroup, ker
from .cohomology import SymmetricCochain2
from .crossed import (
    AxiomCheck,
    AxiomReport,
    BraidedGammaCrossedModule,
    CrossedMorphism,
)
from .errors import (
    DEFAULT_GUARD,
    BadChoice,
    FNotConstantOnCosets,
    NotCoherent,
    NotRegular,
    NotRegularFactorSet,
    NotStrict,
    ShapeMismatch,
    WrongType,
    candidates,
)
from .groups import FiniteGroup, GammaAction, GroupHom, least_preimages


class GradedFunctor:
    """A functor record: object map, morphism map, comparison isomorphisms
    ftilde, and the unit comparison fstar."""

    __slots__ = ("source", "target", "obj", "mor", "ftilde", "fstar")

    def __init__(self, source, target, obj, mor, ftilde, fstar):
        self.source = source
        self.target = target
        self.obj = np.asarray(obj, dtype=np.int64)
        self.mor = np.asarray(mor, dtype=np.int64)
        self.ftilde = np.asarray(ftilde, dtype=np.int64)
        self.fstar = int(fstar)
        if len(self.obj) != source.n_obj or len(self.mor) != source.n_mor:
            raise ShapeMismatch("functor tables do not match the source")
        if self.ftilde.shape != (source.n_obj, source.n_obj):
            raise ShapeMismatch("comparison table has wrong shape")

    def __eq__(self, other):
        if not isinstance(other, GradedFunctor):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and np.array_equal(self.obj, other.obj)
                and np.array_equal(self.mor, other.mor)
                and np.array_equal(self.ftilde, other.ftilde)
                and self.fstar == other.fstar)

    def __repr__(self):
        return f"GradedFunctor(obj={self.obj.tolist()}, fstar={self.fstar})"

    def key(self):
        return (tuple(self.obj.tolist()), tuple(self.mor.tolist()),
                tuple(map(tuple, self.ftilde.tolist())), self.fstar)


def identity_functor(G: GradedCatGroup):
    return GradedFunctor(G, G, np.arange(G.n_obj), np.arange(G.n_mor),
                         G.idm[G.tob], int(G.idm[G.unit]))


def check_graded_functor(F: GradedFunctor):
    """Functoriality, grade preservation, naturality of the comparison,
    and the three monoidal coherence families.

    A comparison entry or unit comparison outside the target's morphisms
    fails its typing family and reads as undefined in the later ones."""
    S, T = F.source, F.target
    obj, mor = F.obj, F.mor
    ft, fstar = T.arrows(F.ftilde), int(T.arrows(F.fstar))
    ms = np.arange(S.n_mor)
    entries = [
        _entry("object-map-range", (obj >= 0) & (obj < T.n_obj),
               [np.arange(S.n_obj)]),
        _entry("morphism-map-range", (mor >= 0) & (mor < T.n_mor), [ms]),
    ]
    if not (entries[0].ok and entries[1].ok):
        # every later check indexes the target's tables through the maps
        return AxiomReport(entries)
    # the target's padded tables: an undefined (-1) index reads -1
    src, tgt, grd, comp, tmor = T._src, T._tgt, T._grd, T._comp, T._tmor
    ok = (src[mor] == obj[S.src]) & (tgt[mor] == obj[S.tgt]) & \
        (grd[mor] == S.grd)
    entries.append(_entry("morphism-map-typing", ok, [ms]))
    entries.append(_entry("functor-identities", mor[S.idm] == T.idm[obj],
                          [np.arange(S.n_obj)]))

    gsel, fsel = np.nonzero(S.comp >= 0)
    lhs = mor[S.comp[gsel, fsel]]
    rhs = comp[mor[gsel], mor[fsel]]
    entries.append(_entry("functor-composition", (lhs == rhs) & (rhs >= 0),
                          [gsel, fsel]))

    x2 = np.arange(S.n_obj)[:, None]
    y2 = np.arange(S.n_obj)[None, :]
    ok = (src[ft] == T.tob[obj[x2], obj[y2]]) & \
        (tgt[ft] == obj[S.tob]) & (grd[ft] == 0)
    entries.append(_entry("comparison-typing", ok))

    isel, jsel = np.nonzero(S.grd[:, None] == S.grd[None, :])
    lhs = comp[ft[S.tgt[isel], S.tgt[jsel]], tmor[mor[isel], mor[jsel]]]
    rhs = comp[mor[S.tmor[isel, jsel]], ft[S.src[isel], S.src[jsel]]]
    entries.append(_entry("comparison-natural", (lhs == rhs) & (lhs >= 0),
                          [isel, jsel]))

    x3 = np.arange(S.n_obj)[:, None, None]
    y3 = np.arange(S.n_obj)[None, :, None]
    z3 = np.arange(S.n_obj)[None, None, :]
    lhs = comp[comp[ft[x3, S.tob[y3, z3]], tmor[T.idm[obj[x3]], ft[y3, z3]]],
               T.aset[obj[x3], obj[y3], obj[z3]]]
    rhs = comp[comp[mor[S.aset[x3, y3, z3]], ft[S.tob[x3, y3], z3]],
               tmor[ft[x3, y3], T.idm[obj[z3]]]]
    entries.append(_entry("assoc-compat", (lhs == rhs) & (lhs >= 0)))

    xs = np.arange(S.n_obj)
    lhs = comp[comp[mor[S.rset], ft[xs, S.unit]], tmor[T.idm[obj], fstar]]
    entries.append(_entry("right-unit-compat",
                          (lhs == T.rset[obj]) & (lhs >= 0), [xs]))
    lhs = comp[comp[mor[S.lset], ft[S.unit, xs]], tmor[fstar, T.idm[obj]]]
    entries.append(_entry("left-unit-compat",
                          (lhs == T.lset[obj]) & (lhs >= 0), [xs]))

    lhs = comp[ft[y2, x2], T.cset[obj[x2], obj[y2]]]
    rhs = comp[mor[S.cset], ft[x2, y2]]
    entries.append(_entry("braiding-compat", (lhs == rhs) & (lhs >= 0)))

    ok = (src[fstar] == T.unit) & (tgt[fstar] == obj[S.unit]) & (grd[fstar] == 0)
    entries.append(_entry("unit-comparison-typing", np.asarray([ok])))
    ss = np.arange(S.gamma.order)
    lhs = comp[mor[S.uI], fstar]
    rhs = comp[fstar, T.uI[ss]]
    entries.append(_entry("unit-comparison-natural",
                          (lhs == rhs) & (lhs >= 0), [ss]))

    return AxiomReport(entries)


def canonical_choices(G: GradedCatGroup):
    """Least grade-s morphism out of each object, with the identity at
    grade 1; these witness grading stability."""
    ups = _lifts(G)
    if (ups < 0).any():
        s, x = [int(v) for v in np.argwhere(ups < 0)[0]]
        raise BadChoice(f"no morphism of grade index {s} out of object {x}")
    return ups


class FactorSet:
    """Per-grade monoidal self-functors of the grade-1 subcategory plus the
    comparison isomorphisms between their composites."""

    __slots__ = ("base", "kernel", "obj_maps", "mor_maps", "ftildes",
                 "fstars", "theta")

    def __init__(self, base, kernel, obj_maps, mor_maps, ftildes, fstars, theta):
        self.base = base
        self.kernel = kernel
        self.obj_maps = obj_maps
        self.mor_maps = mor_maps
        self.ftildes = ftildes
        self.fstars = fstars
        self.theta = theta

    def functor(self, s):
        return GradedFunctor(self.kernel, self.kernel, self.obj_maps[s],
                             self.mor_maps[s], self.ftildes[s],
                             int(self.fstars[s]))

    def theta_is_identity(self):
        st_obj = np.asarray(self.obj_maps)[self.base.gamma.np_table]
        return np.array_equal(self.theta, self.kernel.idm[st_obj])


def extract_factor_set(G: GradedCatGroup, choices=None):
    """Factor set induced by stability choices (canonical by default).

    choices[s][x] must be a grade-s morphism out of x, the identity at
    grade 1; BadChoice otherwise.
    """
    if choices is None:
        choices = canonical_choices(G)
    ups = np.asarray(choices, dtype=np.int64)
    ng = G.gamma.order
    if ups.shape != (ng, G.n_obj):
        raise ShapeMismatch("choices must be |gamma| x objects")
    # an entry outside [0, n_mor) reads as the undefined arrow, of no type
    ups = G.arrows(ups)
    for s in range(ng):
        for x in range(G.n_obj):
            m = int(ups[s, x])
            if int(G._grd[m]) != s or int(G._src[m]) != x:
                raise BadChoice(f"choice at grade {s}, object {x} has wrong type")
            if s == 0 and m != int(G.idm[x]):
                raise BadChoice("grade-1 choices must be identities")
    K = ker(G)
    keep, remap = K.meta["keep"], K.meta["remap"]
    comp, inv = G._comp, G._inv

    def to_ker(m):
        r = remap[m]
        if (r < 0).any():
            raise BadChoice("composite failed to land in the grade-1 part")
        return r

    gam = G.gamma
    obj_maps, mor_maps, ftildes, fstars = [], [], [], []
    for s in range(ng):
        up = ups[s]
        obj_maps.append(G.tgt[up])
        # up(y) o m o up(x)^-1 for each grade-1 arrow m: x -> y
        mor_maps.append(to_ker(comp[up[G.tgt[keep]],
                                    comp[keep, inv[up[G.src[keep]]]]]))
        ftildes.append(to_ker(comp[up[G.tob],
                                   inv[G._tmor[up[:, None], up[None, :]]]]))
        fstars.append(int(to_ker(comp[up[G.unit], inv[G.uI[s]]])))
    theta = [[to_ker(comp[ups[gam.mul(s, t)],
                          comp[inv[ups[t]], inv[ups[s, obj_maps[t]]]]]).tolist()
              for t in range(ng)] for s in range(ng)]
    return FactorSet(G, K, obj_maps, mor_maps, ftildes, fstars, theta)


def validate_factor_set(fs: FactorSet):
    """Identity at grade 1, per-grade coherent monoidal functors, monoidal
    naturality of theta, and the composition square."""
    entries = []
    G, K = fs.base, fs.kernel
    gam = G.gamma
    ng = gam.order
    ok = np.array_equal(fs.obj_maps[0], np.arange(K.n_obj)) and \
        np.array_equal(fs.mor_maps[0], np.arange(K.n_mor))
    entries.append(AxiomCheck("grade-one-identity", (), int(not ok)))
    for s in range(ng):
        rep = check_graded_functor(fs.functor(s))
        entries.append(AxiomCheck(f"grade-{s}-functor",
                                  () if rep.ok else (rep.first_failure(),)))
    # theta^{1,s} and theta^{s,1} are identities, at (s, x)
    theta, obj, mor, ft = (np.asarray(t, dtype=np.int64) for t in (
        fs.theta, fs.obj_maps, fs.mor_maps, fs.ftildes))
    ident = K.idm[obj]
    entries.append(_entry("theta-unit", (theta[0] == ident) &
                          (theta[:, 0] == ident)))
    # theta^{s,t} natural and monoidal: F^s F^t -> F^{st}; the kernel's
    # padded tables read -1 at an undefined (-1) index
    comp, tmor = K._comp, K._tmor
    x2 = np.arange(K.n_obj)[:, None]
    y2 = np.arange(K.n_obj)[None, :]
    bad = []
    for s in range(ng):
        for t in range(ng):
            st = gam.mul(s, t)
            th = theta[s, t]
            lhs = comp[th[K.tgt], mor[s, mor[t]]]
            rhs = comp[mor[st], th[K.src]]
            bad += [("natural", s, t, m)
                    for m in np.flatnonzero((lhs != rhs) | (lhs < 0)).tolist()]
            comp_ft = comp[mor[s, ft[t]], ft[s, obj[t, x2], obj[t, y2]]]
            lhs = comp[ft[st], tmor[th[x2], th[y2]]]
            rhs = comp[th[K.tob], comp_ft]
            bad += [("monoidal", s, t, x, y)
                    for x, y in np.argwhere((lhs != rhs) | (lhs < 0)).tolist()]
            lhs = comp[th[K.unit],
                       comp[mor[s, fs.fstars[t]], fs.fstars[s]]]
            if lhs != fs.fstars[st] or lhs < 0:
                bad.append(("unit", s, t))
    entries.append(AxiomCheck("theta-monoidal-natural", bad))
    # theta^{st,u}_x o theta^{s,t}_{F^u x} = theta^{s,tu}_x o F^s theta^{t,u}_x,
    # at (s, t, u, x)
    gt = gam.np_table
    gs = np.arange(ng)
    s4, t4, u4, x4 = np.ix_(gs, gs, gs, np.arange(K.n_obj))
    lhs = comp[theta[gt[s4, t4], u4, x4], theta[s4, t4, obj[u4, x4]]]
    rhs = comp[theta[s4, gt[t4, u4], x4], mor[s4, theta[t4, u4, x4]]]
    entries.append(_entry("theta-cocycle", (lhs == rhs) & (lhs >= 0)))
    return AxiomReport(entries)


def is_regular_factor_set(fs: FactorSet):
    if not fs.theta_is_identity():
        return False
    return all(is_regular(fs.functor(s)) for s in range(fs.base.gamma.order))


# -- regularity ----------------------------------------------------------------

def is_regular(F: GradedFunctor):
    """Strict on object and grade-1 morphism tensors, symmetric comparison,
    and equivariant for the canonical gamma-actions on both ends."""
    S, T = F.source, F.target
    # a morphism or comparison outside the target reads as undefined
    obj, mor, ft = F.obj, T.arrows(F.mor), T.arrows(F.ftilde)
    if not ((obj >= 0) & (obj < T.n_obj)).all() or (mor < 0).any() or \
            (ft < 0).any():
        return False
    if not np.array_equal(T.tob[obj[:, None], obj[None, :]], obj[S.tob]):
        return False
    g1 = np.nonzero(S.grd == 0)[0]
    lhs = T._tmor[mor[g1[:, None]], mor[g1[None, :]]]
    if not ((lhs == mor[S.tmor[g1[:, None], g1[None, :]]]) & (lhs >= 0)).all():
        return False
    # comparison morphisms are labelled by payload; symmetry is equality of
    # the labels, the endpoints differ whenever the object tensor does
    if T.pay is not None:
        ok = np.array_equal(T.pay[ft], T.pay[ft.T])
    else:
        ok = np.array_equal(ft, ft.T)
    if not ok or S.gamma.order == 1:
        return ok
    # without a lift of every grade there is no canonical action to respect
    ups_s, ups_t = _lifts(S), _lifts(T)
    if (ups_s < 0).any() or (ups_t < 0).any():
        return False
    if not np.array_equal(T.tgt[ups_t][:, obj], obj[S.tgt[ups_s]]):
        return False
    # grade s acts on a grade-1 arrow m: x -> y as up(y) o m o up(x)^-1
    fm = mor[g1]
    inv_s, inv_t = S._inv, T._inv
    for s in range(1, S.gamma.order):
        sm = S._comp[ups_s[s, S.tgt[g1]],
                     S._comp[g1, inv_s[ups_s[s, S.src[g1]]]]]
        tm = T._comp[ups_t[s, T._tgt[fm]],
                     T._comp[fm, inv_t[ups_t[s, T._src[fm]]]]]
        if not ((sm >= 0) & (tm >= 0) & (mor[sm] == tm)).all():
            return False
    return True


# -- crossed-module morphisms <-> functors -------------------------------------

def morphism_to_functor(m: CrossedMorphism, source_cat=None, target_cat=None):
    """The functor with object map f0, grade-1 payload map f1, and
    comparison taken from the degree-2 component on cokernel classes."""
    M, Mp = m.source, m.target
    G = source_cat if source_cat is not None else build_catgroup(M)
    T = target_cat if target_cat is not None else build_catgroup(Mp)
    cls = np.asarray(M.pi0_projection().map, dtype=np.int64)
    embp = np.asarray(Mp.pi1_embedding(), dtype=np.int64)
    qq = embp[np.asarray(m.phi.qq, dtype=np.int64)]
    qg = embp[np.asarray(m.phi.qg, dtype=np.int64)]
    return _functor_into(G, T, m.f0.map, m.f1.map,
                         qq[cls[:, None], cls[None, :]], qg[cls])


def _functor_into(S, T, obj, pay, qq, qg):
    """The functor into the built category T that sends a grade-s
    morphism x -> y with payload b to the grade-s morphism into obj[y] with
    payload qg[x, s] pay[b], with comparison x (x) y -> x y of payload
    qq[x, y] and the identity unit comparison."""
    Bt = T.meta["module"].B.np_table
    obj, pay, qq, qg = (np.asarray(a, dtype=np.int64)
                        for a in (obj, pay, qq, qg))
    mor = T.record(S.grd, Bt[qg[S.src, S.grd], pay[S.pay]], obj[S.tgt])
    ft = T.record(0, qq, obj[S.tob])
    return GradedFunctor(S, T, obj, mor, ft, int(T.idm[T.unit]))


def _on_cosets(kidx, keys, outside, differs):
    """The kernel index kidx (-1 off the kernel) of the first entry, in C
    order, of each coset; keys numbers the cosets of the entries 0, 1, ...
    FNotConstantOnCosets names the first entry, in C order, that lies off
    the kernel (message outside) or differs from the first of its coset
    (message differs), each formatted with the entry's index."""
    _, first = np.unique(keys, return_index=True)
    seen = kidx.ravel()[first]
    bad = (kidx < 0) | (kidx != seen[keys])
    if bad.any():
        at = tuple(np.argwhere(bad)[0].tolist())
        raise FNotConstantOnCosets(
            (outside if kidx[at] < 0 else differs).format(*at))
    return seen


def functor_to_morphism(F: GradedFunctor):
    """Extract (f1, f0, phi) from a regular coherent functor between built
    categories; raises when the functor fails coherence, regularity, or the
    descent condition on cosets."""
    S, T = F.source, F.target
    if S.meta.get("kind") != "module" or T.meta.get("kind") != "module":
        raise WrongType("translation requires categories built from modules")
    rep = check_graded_functor(F)
    if not rep.ok:
        raise NotCoherent(f"functor fails coherence: {rep.first_failure()}")
    if not is_regular(F):
        raise NotRegular("functor is not regular")
    M: BraidedGammaCrossedModule = S.meta["module"]
    Mp: BraidedGammaCrossedModule = T.meta["module"]
    f0 = GroupHom(M.D, Mp.D, F.obj)
    # the payload of the image of the grade-1 arrow b into y, at (b, y)
    pays = T.pay[F.mor[S.record(0, np.arange(M.B.order)[:, None],
                                np.arange(M.D.order))]]
    moved = (pays != pays[:, S.unit, None]).any(axis=1)
    if moved.any():
        raise NotRegular(f"grade-1 payload of {int(moved.argmax())} depends "
                         "on its target object")
    f1 = GroupHom(M.B, Mp.B, pays[:, S.unit])
    P = M.pi0()
    Kp = Mp.pi1()
    kpos = np.asarray(least_preimages(Mp.pi1_embedding(), Mp.B.order),
                      dtype=np.int64)
    q, ng = P.group.order, M.gamma.order
    cls = np.asarray(M.pi0_projection().map, dtype=np.int64)
    qq = _on_cosets(kpos[T.pay[F.ftilde]], cls[:, None] * q + cls,
                    "comparison payload at ({}, {}) is not in the kernel",
                    "comparison at ({}, {}) differs within its coset")
    ss = np.arange(ng)
    act_d = np.asarray(M.act_d.act, dtype=np.int64)
    grade_parts = F.mor[S.record(ss, 0, act_d.T)]
    qg = _on_cosets(kpos[T.pay[grade_parts]], cls[:, None] * ng + ss,
                    "grade part at ({}, {}) is not in the kernel",
                    "grade part at ({}, {}) differs within its coset")
    phi = SymmetricCochain2(P, Kp, qq.reshape(q, q), qg.reshape(q, ng))
    return CrossedMorphism(M, Mp, f1, f0, phi)


def catgroup_to_crossed(G: GradedCatGroup):
    """Rebuild the crossed module from a strict graded categorical group.

    Requires strict constraints, a group structure on objects with the
    unit at index 0, and a regular canonical factor set.
    """
    if G.unit != 0:
        raise NotStrict("unit object must be index 0")
    objs = np.arange(G.n_obj)
    expect = G.idm[G.tob[G.tob[objs[:, None, None], objs[None, :, None]],
                         objs[None, None, :]]]
    if not np.array_equal(G.aset, expect):
        raise NotStrict("associativity constraint is not the identity")
    if not np.array_equal(G.lset, G.idm) or not np.array_equal(G.rset, G.idm):
        raise NotStrict("unit constraints are not identities")
    try:
        D = FiniteGroup([list(r) for r in G.tob.tolist()])
    except Exception as exc:
        raise NotStrict(f"object tensor is not a group law: {exc}") from exc
    fs = extract_factor_set(G)
    if not is_regular_factor_set(fs):
        raise NotRegularFactorSet("canonical factor set is not regular")
    # grade-1 arrows into the unit object form B, identity first; pos maps
    # each arrow, the undefined one included, to its place in B, -1 off B
    one = int(G.idm[G.unit])
    bmors = np.concatenate([[one], np.nonzero(
        (G.grd == 0) & (G.tgt == G.unit) & (np.arange(G.n_mor) != one))[0]])
    pos = np.full(G.n_mor + 1, -1, dtype=np.int64)
    pos[bmors] = np.arange(len(bmors))

    def in_b(arrows, error, message):
        table = pos[arrows]
        if (table < 0).any():
            raise error(message)
        return table.tolist()

    tmor = G._tmor
    B = FiniteGroup(in_b(tmor[bmors[:, None], bmors], NotStrict,
                         "grade-1 arrows into the unit are not closed"))
    # the identities of the object inverses
    inv = G.idm[list(D.inverses)]
    theta = in_b(tmor[tmor[G.idm[:, None], bmors], inv[:, None]], NotStrict,
                 "conjugation leaves the kernel arrows")
    eta = in_b(tmor[tmor[G.cset, inv[:, None]], inv], NotStrict,
               "braiding composite leaves the kernel arrows")
    # grade s acts on B through the factor set, read at B's kernel positions
    keep, remap = fs.kernel.meta["keep"], fs.kernel.meta["remap"]
    act_b = in_b(keep[np.asarray(fs.mor_maps)[:, remap[bmors]]],
                 NotRegularFactorSet, "factor set moves kernel arrows away")
    gam = G.gamma
    module = BraidedGammaCrossedModule(
        B, D, G.src[bmors], theta, eta, gam,
        GammaAction(gam, B, act_b), GammaAction(gam, D, fs.obj_maps))
    report = module.validate()
    if not report.ok:
        raise NotStrict(f"rebuilt module fails validation: {report}")
    return module


# -- homotopies ----------------------------------------------------------------

def is_homotopy(theta, F: GradedFunctor, F2: GradedFunctor):
    """Whether the per-object grade-1 family theta is a monoidal natural
    isomorphism from F to F2."""
    if F.source != F2.source or F.target != F2.target:
        return False, ("ends", None)
    S, T = F.source, F.target
    # an entry outside [0, n_mor) reads as the undefined arrow and fails typing
    th = T.arrows(theta)
    if len(th) != S.n_obj:
        raise ShapeMismatch("homotopy table must assign one morphism per object")
    # the target's padded tables: an undefined (-1) index reads -1
    src, tgt, grd, comp, tmor = T._src, T._tgt, T._grd, T._comp, T._tmor
    ok = (src[th] == F.obj) & (tgt[th] == F2.obj) & (grd[th] == 0)
    if not ok.all():
        return False, ("typing", int(np.nonzero(~ok)[0][0]))
    lhs = comp[th[S.tgt], F.mor]
    rhs = comp[F2.mor, th[S.src]]
    ok = (lhs == rhs) & (lhs >= 0)
    if not ok.all():
        return False, ("naturality", int(np.nonzero(~ok)[0][0]))
    x2 = np.arange(S.n_obj)[:, None]
    y2 = np.arange(S.n_obj)[None, :]
    lhs = comp[F2.ftilde, tmor[th[x2], th[y2]]]
    rhs = comp[th[S.tob], F.ftilde]
    ok = (lhs == rhs) & (lhs >= 0)
    if not ok.all():
        bad = np.argwhere(~ok)[0]
        return False, ("comparison", (int(bad[0]), int(bad[1])))
    lhs = int(comp[th[S.unit], F.fstar])
    if lhs != F2.fstar or lhs < 0:
        return False, ("unit", None)
    return True, None


def find_homotopy(F: GradedFunctor, F2: GradedFunctor, guard=DEFAULT_GUARD):
    """Exhaustive search for a homotopy F -> F2; None when there is none.

    Functors with different object maps can still be homotopic as long as
    the objects are connected by grade-1 isomorphisms.
    """
    T = F.target
    options = [_allowed(T, int(F.obj[x]), int(F2.obj[x]))
               for x in range(F.source.n_obj)]
    for combo in candidates(options, guard):
        theta = list(combo)
        if is_homotopy(theta, F, F2)[0]:
            return theta
    return None


def partition(items, same):
    """The first-member partition: each item joins the first class whose
    first member rep has same(rep, item), or starts a class of its own."""
    classes = []
    for x in items:
        for cls in classes:
            if same(cls[0], x):
                cls.append(x)
                break
        else:
            classes.append([x])
    return classes


def partition_by_homotopy(functors, guard=DEFAULT_GUARD):
    """Group functor records into homotopy classes (list of lists)."""
    return partition(
        functors, lambda rep, F: find_homotopy(F, rep, guard=guard) is not None)


# -- exhaustive functor enumeration --------------------------------------------

def _allowed(T: GradedCatGroup, src, tgt, grade=0):
    return [int(m) for m in np.nonzero(
        (T.grd == grade) & (T.src == src) & (T.tgt == tgt))[0]]


def enumerate_functors(G: GradedCatGroup, T: GradedCatGroup, phi, f_map=None,
                       guard=DEFAULT_GUARD):
    """All normalized coherent graded symmetric monoidal functors G -> T
    whose object map lies over phi (a map to grade-1 classes of T) and
    whose grade-1 unit-endomorphism map is f_map.

    G must be a skeletal (reduced-model) category with unit 0.  Candidates
    are enumerated over comparison and grade tables, filtered through the
    generic coherence checker.  The guard bounds the object maps times the
    candidates of each one.
    """
    return list(_functors(G, T, phi, f_map, guard))


def _functors(G, T, phi, f_map, guard):
    """enumerate_functors, one functor at a time."""
    if G.meta.get("kind") != "reduced":
        raise WrongType("enumeration requires a reduced-model source")
    labels, _ = T.pi0_partition()
    labels = list(labels)
    phi = [int(v) for v in phi]
    if len(phi) != G.n_obj:
        raise ShapeMismatch("type map must cover the source objects")
    pi1_src = G.pi1_morphisms()
    if f_map is None:
        if len(pi1_src) != 1:
            raise WrongType("a payload map is required when the source has "
                            "nontrivial unit endomorphisms")
        f_map = [int(T.idm[T.unit])]
    f_map = [int(v) for v in f_map]
    if len(f_map) != len(pi1_src):
        raise ShapeMismatch("payload map must cover the source unit arrows")
    # the sorted unit endomorphisms of a reduced model are indexed exactly
    # by their payloads; the morphism-map assembly below relies on it
    for i, mm in enumerate(pi1_src):
        if int(G.pay[mm]) != i:
            raise ShapeMismatch("source unit arrows are not payload-indexed")
    if phi[G.unit] != labels[T.unit]:
        return
    nm, ng = G.n_obj, G.gamma.order
    obj_fibers = [[T.unit] if u == G.unit else
                  [o for o in range(T.n_obj) if labels[o] == phi[u]]
                  for u in range(nm)]
    n_maps = math.prod(map(len, obj_fibers))
    pair_keys = [(u, v) for u in range(1, nm) for v in range(u, nm)]
    grade_keys = [(u, s) for u in range(1, nm) for s in range(1, ng)]
    Mt = G.tob
    actM = np.asarray(G.meta["M"].act.act, dtype=np.int64)
    inv = T._inv
    for obj_combo in candidates(obj_fibers, guard):
        obj = np.asarray(obj_combo, dtype=np.int64)
        options = [_allowed(T, int(T.tob[obj[u], obj[v]]), int(obj[Mt[u, v]]))
                   for (u, v) in pair_keys]
        options += [_allowed(T, int(obj[u]), int(obj[actM[s, u]]), grade=s)
                    for (u, s) in grade_keys]
        for combo in candidates(options, guard, size=n_maps):
            t2 = dict(zip(pair_keys, combo))
            ts = dict(zip(grade_keys, combo[len(pair_keys):]))
            F = _assemble_functor(G, T, obj, t2, ts, f_map, actM, inv)
            if F is not None and check_graded_functor(F).ok:
                yield F


def _assemble_functor(G, T, obj, t2, ts, f_map, actM, inv):
    """Fill the full comparison and morphism tables from free entries; inv
    is T's padded inverse table."""
    nm = G.n_obj
    ft = np.zeros((nm, nm), dtype=np.int64)
    # the target's padded tables: an undefined (-1) index reads -1
    comp, tmor = T._comp, T._tmor
    # a grade-1 arrow with payload a into w goes to f_map[a] (x) id_obj[w]
    fm = np.asarray(f_map, dtype=np.int64)
    for u in range(nm):
        ft[G.unit, u] = T.idm[obj[u]]
        ft[u, G.unit] = T.idm[obj[u]]
    ft[G.unit, G.unit] = T.idm[obj[G.unit]]
    for (u, v), m in t2.items():
        ft[u, v] = m
    # remaining entries (u > v) from the braiding compatibility
    for u in range(1, nm):
        for v in range(1, u):
            c = G.cset[v, u]
            fcs = tmor[fm[G.pay[c]], T.idm[obj[G.tgt[c]]]]
            ft[u, v] = comp[comp[fcs, ft[v, u]], inv[T.cset[obj[v], obj[u]]]]
    # a grade-s arrow out of u is its payload at s.u after the grade part
    mor = tmor[fm[G.pay], T.idm[obj[actM[G.grd, G.src]]]]
    for m in np.nonzero(G.grd != 0)[0]:
        s, u = int(G.grd[m]), int(G.src[m])
        mor[m] = comp[mor[m], ts[(u, s)] if u != G.unit else T.uI[s]]
    if (ft < 0).any() or (mor < 0).any():
        return None
    return GradedFunctor(G, T, obj, mor, ft, int(T.idm[T.unit]))


def homotopy_classes(G: GradedCatGroup, T: GradedCatGroup, phi, f_map=None,
                     guard=DEFAULT_GUARD):
    """Coherent functors of the given type, partitioned by homotopy.

    Returns a list of classes, each a list of functor records whose first
    member is the enumeration-order representative.
    """
    functors = enumerate_functors(G, T, phi, f_map=f_map, guard=guard)
    return partition_by_homotopy(functors, guard=guard)


def enumerate_crossed_morphisms(M, Mp, guard=DEFAULT_GUARD):
    """Every morphism (f1, f0, phi) between two crossed modules.

    Pairs of homomorphisms are filtered through the full morphism axioms;
    the degree-2 components run over all symmetric cocycles.
    """
    from . import cohomology
    from .crossed import validate_morphism
    from .groups import enumerate_homs

    out = []
    P = M.pi0()
    Kp = Mp.pi1()
    cocycles = cohomology.all_cocycles(P, Kp, guard=guard)
    f0s = list(enumerate_homs(M.D, Mp.D))
    f1s = list(enumerate_homs(M.B, Mp.B))
    for f0 in f0s:
        for f1 in f1s:
            probe = CrossedMorphism(M, Mp, f1, f0)
            rep = validate_morphism(probe)
            if not rep.ok:
                continue
            for phi in cocycles:
                out.append(CrossedMorphism(M, Mp, f1, f0, phi))
    return out


def enumerate_regular_functors(G: GradedCatGroup, T: GradedCatGroup,
                               guard=DEFAULT_GUARD):
    """Every regular coherent graded symmetric monoidal functor between two
    built categories, with identity unit comparison.

    Candidates are generated from hom pairs on the underlying groups plus
    kernel-valued comparison tables constant on boundary cosets (the
    descent condition satisfied by every regular functor); each record is
    kept only if the generic coherence checker and the regularity predicate
    accept it.
    """
    from .groups import enumerate_homs

    if G.meta.get("kind") != "module" or T.meta.get("kind") != "module":
        raise WrongType("regular-functor enumeration requires built categories")
    M: BraidedGammaCrossedModule = G.meta["module"]
    Mp: BraidedGammaCrossedModule = T.meta["module"]
    q = M.pi0().group.order
    kerp = Mp.kernel_elements()
    ng = M.gamma.order
    keys_qq = [(r, s) for r in range(1, q) for s in range(1, q)]
    keys_qg = [(r, s) for r in range(1, q) for s in range(1, ng)]
    options = [list(enumerate_homs(M.D, Mp.D)), list(enumerate_homs(M.B, Mp.B))]
    options += [kerp] * (len(keys_qq) + len(keys_qg))
    out = []
    cls = np.asarray(M.pi0_projection().map, dtype=np.int64)
    for f0, f1, *combo in candidates(options, guard):
        if any(f0(M.d[b]) != Mp.d[f1(b)] for b in M.B.elements()):
            continue
        fqq = np.zeros((q, q), dtype=np.int64)
        fqg = np.zeros((q, ng), dtype=np.int64)
        for (r, s), v in zip(keys_qq, combo):
            fqq[r, s] = v
        for (r, s), v in zip(keys_qg, combo[len(keys_qq):]):
            fqg[r, s] = v
        F = _functor_into(G, T, f0.map, f1.map,
                          fqq[cls[:, None], cls[None, :]], fqg[cls])
        if check_graded_functor(F).ok and is_regular(F):
            out.append(F)
    return out
