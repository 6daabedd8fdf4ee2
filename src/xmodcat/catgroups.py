"""Braided gamma-graded categorical groups as finite tables.

A category here is a flat morphism list with numpy composition/tensor
tables, so the coherence checker is vectorized table scanning.  Two
builders produce instances: `build_catgroup` from a crossed module
(objects = D, a grade-s morphism x -> y is a pair (b, s) with s.x = d(b)y)
and `build_reduced` from a pair of gamma-modules and a degree-3 cochain
(the skeletal model).  Both use one morphism index layout
    index = (grade * n_pay + payload) * n_obj + target,
written once, in `_record`; every other module reaches it through
`GradedCatGroup.record`.  Each builder computes only its sources and the
payloads of composites, tensors and constraints, and `_assemble` turns
them into the tables, one block of rows at a time.

A category's tables are listed once, with their axes, in `_TABLES`.  An
undefined composite or tensor is the index -1.  Every morphism-indexed
table is stored with one trailing slot per morphism axis that holds -1,
so indexing with -1 reads -1 and an undefined arrow propagates through
plain numpy indexing.  `GradedCatGroup` allocates that slot for every
such table it is given, but for the `comp` and `tmor` that `_assemble`
writes into padded storage of its own (`_Padded`), and its constructor
keeps the invariant it needs: morphism indices lie in [-1, n_mor) and
object indices in [0, n_obj).

Every table is stored as `groups.INDEX_DTYPE` (int32).  The largest index
the scans form is a flat index into a padded n_mor + 1 square, below
(n_mor + 1)^2, so `_layout` refuses a category where that would not fit.
"""

from __future__ import annotations

from math import prod

import numpy as np

from .cohomology import Cochain3, zero_cochain3
from .crossed import _WITNESS_CAP, AxiomCheck, AxiomReport
from .errors import DEFAULT_GUARD, NotStrict, SearchSpaceTooLarge, ShapeMismatch
from .groups import (INDEX_DTYPE, GammaModule, least_preimages, section_defect,
                     trivial_group)


class _Padded:
    """A table its builder allocated with the trailing -1 slots already in
    place, which `_padded` keeps instead of copying."""

    __slots__ = ("table",)

    def __init__(self, table):
        self.table = table


def _padded(table):
    """INDEX_DTYPE table with one more slot, holding -1, at the end of every
    axis: the builder's own storage for a `_Padded` table, else a copy."""
    if isinstance(table, _Padded):
        return table.table
    table = np.asarray(table)
    out = np.full([k + 1 for k in table.shape], -1, dtype=INDEX_DTYPE)
    out[tuple(slice(k) for k in table.shape)] = table
    return out


def _unpadded(table, ndim):
    """table as given, in its own dtype: without the trailing -1 slots of
    its ndim axes if its builder padded it (`_Padded`)."""
    if isinstance(table, _Padded):
        return table.table[(slice(-1),) * ndim]
    return np.asarray(table)


def _check_range(name, table, lo, hi):
    """Refuse (ShapeMismatch) a table holding an entry outside [lo, hi)."""
    if table.size and (table.min() < lo or table.max() >= hi):
        raise ShapeMismatch(f"{name} holds an index outside [{lo}, {hi})")


def _record(n_pay, n_obj, grade, payload, target, out=None):
    """Morphism index of the arrow of a built category with the given
    grade and payload into target; plain arithmetic, so it also works on
    whole arrays, and with out the same arithmetic is written into out in
    place."""
    if out is None:
        return (grade * n_pay + payload) * n_obj + target
    np.multiply(grade, n_pay, out=out)
    out += payload
    out *= n_obj
    out += target
    return out


# A category's tables, in the order the constructor checks them, each with
# its axes and what its entries index: M a morphism, O an object, G a grade.
# A table with a morphism axis has only morphism axes and is stored padded.
_TABLES = (("src", "M", "O"), ("tgt", "M", "O"), ("tob", "OO", "O"),
           ("grd", "M", "G"), ("comp", "MM", "M"), ("tmor", "MM", "M"),
           ("idm", "O", "M"), ("aset", "OOO", "M"), ("lset", "O", "M"),
           ("rset", "O", "M"), ("cset", "OO", "M"), ("uI", "G", "M"))


def _stored(name, axes):
    """The attribute that holds a table of _TABLES: `_<name>` if padded."""
    return f"_{name}" if "M" in axes else name


def _with_views(cls):
    """cls with a property under each padded table's name that reads the
    table without its -1 slots."""
    def view(stored, cut):
        return property(lambda self: getattr(self, stored)[cut])
    for name, axes, _ in _TABLES:
        if "M" in axes:
            setattr(cls, name, view(_stored(name, axes),
                                    (slice(-1),) * len(axes)))
    return cls


@_with_views
class GradedCatGroup:
    """Finite graded monoidal groupoid data; all tables are numpy arrays.

    The tables are those of `_TABLES`, each morphism's payload `pay`, and
    the derived `inv`.  A table with a morphism axis is stored padded, as
    `_<name>`: one trailing slot on every morphism axis holds -1, the
    undefined arrow.  Index -1 therefore reads that slot, so a composite or
    tensor with an undefined factor is undefined without any masking, and
    consumers index the padded tables and `_inv` directly.  The public
    attributes are views that leave the slot out.  The constructor refuses
    (ShapeMismatch) a table of the wrong shape, a morphism index outside
    [-1, n_mor), an object index outside [0, n_obj), a grade outside the
    grading group and a negative payload, since a padded table would
    silently read a real row at -2.  Each table is checked as given, before
    it is narrowed to INDEX_DTYPE, where an out-of-range entry would wrap.
    """

    __slots__ = ("gamma", "n_obj", "pay", "unit", "meta") + tuple(
        _stored(name, axes) for name, axes, _ in _TABLES)

    def __init__(self, gamma, n_obj, src, tgt, grd, pay, comp, tob, tmor,
                 unit, idm, aset, lset, rset, cset, uI, meta=None):
        given = locals()        # the tables, by their names in _TABLES
        self.gamma = gamma
        self.n_obj = int(n_obj)
        self.unit = int(unit)
        self.meta = meta or {}
        tables = {name: _unpadded(given[name], len(axes))
                  for name, axes, _ in _TABLES}
        n, no = len(tables["src"]), self.n_obj
        size = {"M": n, "O": no, "G": gamma.order}
        if not 0 <= self.unit < no:
            raise ShapeMismatch(f"unit object {self.unit} outside [0, {no})")
        pay = np.asarray(pay)
        if pay.shape != (n,):
            raise ShapeMismatch(f"pay has shape {pay.shape}, expected {(n,)}")
        _check_range("pay", pay, 0, np.iinfo(INDEX_DTYPE).max + 1)
        self.pay = pay.astype(INDEX_DTYPE, copy=False)
        for name, axes, value in _TABLES:
            t = tables[name]
            shape = tuple(size[a] for a in axes)
            if t.shape != shape:
                raise ShapeMismatch(f"{name} has shape {t.shape}, expected {shape}")
            _check_range(name, t, -1 if value == "M" else 0, size[value])
            setattr(self, _stored(name, axes), _padded(given[name])
                    if "M" in axes else t.astype(INDEX_DTYPE, copy=False))

    @property
    def n_mor(self):
        return len(self._src) - 1

    @property
    def _inv(self):
        """Padded `inv`, read from `comp` on every access, since tables are
        edited in place; a reader in a loop reads it once."""
        comp = self.comp
        both = (comp == self.idm[self.src][None, :]) & \
            (comp.T == self.idm[self.tgt][None, :])
        return _padded(np.where(both.any(axis=0), both.argmax(axis=0), -1))

    @property
    def inv(self):
        """The least two-sided inverse of each morphism; -1 where none
        exists."""
        return self._inv[:-1]

    def arrows(self, idx):
        """idx with every entry outside [0, n_mor) read as the undefined
        arrow -1, so it can index the padded tables."""
        idx = np.asarray(idx, dtype=np.int64)
        return np.where((idx >= 0) & (idx < self.n_mor), idx, -1)

    def record(self, grade, payload, target):
        """Morphism index from the shared (grade, payload, target) layout."""
        return _record(self.meta["n_pay"], self.n_obj, grade, payload, target)

    def pi0_partition(self):
        """Grade-1 isomorphism classes of objects: (labels, class count).

        Labels are canonical (least object index in each class), then
        renumbered in increasing order of that least member.
        """
        parent = list(range(self.n_obj))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        grade1 = np.nonzero(self.grd == 0)[0]
        for m in grade1:
            a, b = find(int(self.src[m])), find(int(self.tgt[m]))
            if a != b:
                parent[max(a, b)] = min(a, b)
        roots = sorted({find(x) for x in range(self.n_obj)})
        idx = {r: i for i, r in enumerate(roots)}
        return [idx[find(x)] for x in range(self.n_obj)], len(roots)

    def pi1_morphisms(self):
        """Grade-1 endomorphisms of the unit object, sorted by index."""
        mask = (self.grd == 0) & (self.src == self.unit) & (self.tgt == self.unit)
        return [int(v) for v in np.nonzero(mask)[0]]

    def __eq__(self, other):
        if not isinstance(other, GradedCatGroup):
            return NotImplemented
        if self is other:
            return True
        return (self.gamma == other.gamma and self.n_obj == other.n_obj
                and self.unit == other.unit
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name, _, _ in _TABLES))

    def __repr__(self):
        return (f"GradedCatGroup(objects={self.n_obj}, morphisms={self.n_mor}, "
                f"|gamma|={self.gamma.order})")

    def to_json(self):
        return {
            "objects": self.n_obj,
            "unit": self.unit,
            "gamma": self.gamma.to_json(),
            "morphisms": [{"src": int(s), "tgt": int(t), "grade": int(g)}
                          for s, t, g in zip(self.src, self.tgt, self.grd)],
            "tensor": {"objects": self.tob.tolist(),
                       "morphisms": self.tmor.tolist()},
            "composition": self.comp.tolist(),
            "constraints": {"assoc": self.aset.tolist(),
                            "left_unit": self.lset.tolist(),
                            "right_unit": self.rset.tolist(),
                            "braiding": self.cset.tolist()},
        }


def _layout(ng, n_pay, n_obj, guard):
    """(grade, payload, target) of every morphism, in index order; refused
    (SearchSpaceTooLarge) if n_mor x n_mor tables exceed guard entries, or,
    whatever the guard, if a flat index into the padded tables, below
    (n_mor + 1)^2, could exceed INDEX_DTYPE."""
    n = ng * n_pay * n_obj
    if n * n > guard:
        raise SearchSpaceTooLarge(n * n, guard)
    ceiling = int(np.iinfo(INDEX_DTYPE).max)
    if (n + 1) ** 2 > ceiling:
        raise SearchSpaceTooLarge((n + 1) ** 2, ceiling)
    return np.indices((ng, n_pay, n_obj), dtype=INDEX_DTYPE).reshape(3, -1)


# instances per block of the table builds and the blocked scans
# (associativity, tensor-typing and the two coherence evaluators): each
# temporary is then at most 512 KB (an index numpy casts to intp; the int32
# buffers take 256 KB) and stays in cache, which measured faster than 2^18
# or 2^20 on both exhaustive scans
_BLOCK = 1 << 16


def _rows_per_block(rows, row):
    """Rows of row instances each that fill a block: at least one, and no
    more than the scan's rows, so a small scan's buffers fit the scan."""
    return max(1, min(rows, _BLOCK // row))


def _row_blocks(rows, row):
    """Consecutive slices of range(rows), _rows_per_block(rows, row) rows
    each but the last, in order."""
    step = _rows_per_block(rows, row)
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _assemble(gam, Ot, n_pay, grades, pays, tgts, srcs, comp_pay, ten_pay,
              assoc_pay, braid_pay, meta):
    """The category on objects with tensor table Ot and the morphisms of
    _layout(|gam|, n_pay, n_obj) with sources srcs.  For a slice rows of
    the morphisms, comp_pay(rows)[i, f] is the payload of g o f for the
    i-th arrow g of rows and ten_pay(rows)[i, g] that of f (x) g for the
    i-th arrow f of rows; assoc_pay[x, y, z] and braid_pay[x, y] are those
    of the grade-1 constraints.  The unit is object 0 and the unit
    constraints are identities.  comp and tmor are allocated once, padded,
    and written in row blocks, so no temporary is larger than a block."""
    n_obj, n = len(Ot), len(grades)
    objs = np.arange(n_obj, dtype=INDEX_DTYPE)
    comp, tmor = (np.full((n + 1, n + 1), -1, dtype=INDEX_DTYPE)
                  for _ in range(2))
    grade_of = gam.np_table[:, grades]      # grd (g o f), by grd g and f

    def record(grade, payload, target, out=None):
        return _record(n_pay, n_obj, grade, payload, target, out)

    def write(table, rows, payload, grade, target, undefined):
        # payload is the first argument made, so the temporaries it is
        # gathered through are freed before grade and target are gathered
        out = table[rows, :n]
        record(grade, payload, target, out)
        np.copyto(out, -1, where=undefined)

    for rows in _row_blocks(n, n):
        # g o f, defined when tgt f == src g
        write(comp, rows, comp_pay(rows), grade_of[grades[rows]],
              tgts[rows, None], tgts != srcs[rows, None])
        # f (x) g, defined when grades agree
        write(tmor, rows, ten_pay(rows), grades[rows, None],
              Ot[tgts[rows, None], tgts], grades != grades[rows, None])
    idm = record(0, 0, objs)
    aset = record(0, assoc_pay, Ot[Ot[objs[:, None, None], objs[None, :, None]],
                                   objs[None, None, :]])
    cset = record(0, braid_pay, Ot.T)
    uI = record(np.arange(gam.order, dtype=INDEX_DTYPE), 0, 0)
    # the unit constraints are separate arrays: tables are edited in place
    return GradedCatGroup(gam, n_obj, srcs, tgts, grades, pays, _Padded(comp),
                          Ot, _Padded(tmor), 0, idm, aset, idm.copy(),
                          idm.copy(), cset, uI, {**meta, "n_pay": n_pay})


def build_catgroup(module, guard=DEFAULT_GUARD):
    """The strict graded categorical group attached to a crossed module.

    Works mechanically on any shape-consistent module; when the module
    fails validation the output simply fails check_axioms, which is how
    mutants are detected.  A category too large for guard is refused
    (`_layout`).
    """
    B, D, gam = module.B, module.D, module.gamma
    grades, pays, tgts = _layout(gam.order, B.order, D.order, guard)
    Bt = B.np_table
    Dt = D.np_table
    actB = np.asarray(module.act_b.act, dtype=INDEX_DTYPE)
    actD = np.asarray(module.act_d.act, dtype=INDEX_DTYPE)
    theta = np.asarray(module.theta, dtype=INDEX_DTYPE)
    dmap = np.asarray(module.d, dtype=INDEX_DTYPE)
    ginv = np.asarray(gam.inverses, dtype=INDEX_DTYPE)
    # source of (b, s): y  is  s^-1 (d(b) y)
    srcs = actD[ginv[grades], Dt[dmap[pays], tgts]]
    # (c, t) o (b, s) carries t(b) c, and (b, s) (x) (c, s) with (b, s)
    # into y carries b theta_y(c), each read for a block of rows
    def comp_pay(rows):
        return Bt[actB[grades[rows, None], pays], pays[rows, None]]

    def ten_pay(rows):
        return Bt[pays[rows, None], theta[tgts[rows, None], pays]]

    eta = np.asarray(module.eta, dtype=INDEX_DTYPE)
    return _assemble(gam, Dt, B.order, grades, pays, tgts, srcs, comp_pay,
                     ten_pay, 0, eta, {"kind": "module", "module": module})


def build_reduced(M: GammaModule, N: GammaModule, h: Cochain3 = None,
                  guard=DEFAULT_GUARD):
    """The skeletal graded categorical group on (M, N, h).

    Objects are the elements of M; a grade-s morphism r -> t exists when
    s.r = t and carries a payload in N.  No cocycle condition is assumed:
    running check_axioms on the result is the degree-3 cocycle test.  A
    category too large for guard is refused (`_layout`).
    """
    gam = M.gamma
    grades, pays, tgts = _layout(gam.order, N.group.order, M.group.order, guard)
    if h is None:
        h = zero_cochain3(M, N)
    if h.M != M or h.N != N:
        raise ShapeMismatch("cochain modules do not match the arguments")
    Mt = M.group.np_table
    Nt = N.group.np_table
    actM = np.asarray(M.act.act, dtype=INDEX_DTYPE)
    actN = np.asarray(N.act.act, dtype=INDEX_DTYPE)
    ginv = np.asarray(gam.inverses, dtype=INDEX_DTYPE)
    h_comp = np.asarray(h.comp, dtype=INDEX_DTYPE)
    h_ten = np.asarray(h.tensor, dtype=INDEX_DTYPE)
    srcs = actM[ginv[grades], tgts]

    def comp_pay(rows):
        return Nt[Nt[actN[grades[rows, None], pays], pays[rows, None]],
                  h_comp[srcs, grades[rows, None], grades]]

    def ten_pay(rows):
        return Nt[Nt[pays[rows, None], pays],
                  h_ten[srcs[rows, None], srcs, grades[rows, None]]]

    return _assemble(gam, Mt, N.group.order, grades, pays, tgts, srcs,
                     comp_pay, ten_pay, np.asarray(h.assoc, dtype=INDEX_DTYPE),
                     np.asarray(h.braid, dtype=INDEX_DTYPE),
                     {"kind": "reduced", "M": M, "N": N, "h": h})


def dis(Q: GammaModule, guard=DEFAULT_GUARD):
    """The discrete graded model on Q: objects Q, only grade morphisms.  A
    category too large for guard is refused (`_layout`)."""
    from .groups import trivial_action

    N = GammaModule(trivial_group(),
                    trivial_action(Q.gamma, trivial_group()), _validated=True)
    return build_reduced(Q, N, guard=guard)


# -- coherence checking -------------------------------------------------------

def _tally(key, blocks):
    """One check from the consecutive blocks of an axiom's scan, in scan
    order.  A block is (bad, witness_arrays): the mask of failing instances
    and, as for _entry, None or arrays that broadcast to the mask's shape.
    Every block is counted; failing positions are located, in C order,
    only until _WITNESS_CAP witnesses are kept."""
    count, wits = 0, []
    for bad, witness_arrays in blocks:
        k = np.count_nonzero(bad)
        if k and len(wits) < _WITNESS_CAP:
            pos = np.unravel_index(
                np.flatnonzero(bad)[:_WITNESS_CAP - len(wits)], bad.shape)
            if witness_arrays is not None:
                pos = [np.broadcast_to(w, bad.shape)[pos] for w in witness_arrays]
            wits += zip(*(p.tolist() for p in pos))
        count += k
    return AxiomCheck(key, wits, count)


def _entry(key, ok_mask, witness_arrays=None):
    """The check of an axiom from its mask of passing instances.  A
    witness is the index tuple of a failing instance, or the values of
    witness_arrays (each broadcast to the shape of ok_mask) there."""
    return _tally(key, [(~np.asarray(ok_mask), witness_arrays)])


def _lifts(G: GradedCatGroup):
    """(|gamma|, n_obj) table of the least grade-s morphism out of each
    object, with the identity at grade 1; -1 where there is none.  In a
    graded groupoid every grade-s arrow out of X is a grade-1 arrow after
    the lift at X."""
    ng, no = G.gamma.order, G.n_obj
    keys, first = np.unique(G.grd * no + G.src, return_index=True)
    ups = np.full(ng * no, -1, dtype=INDEX_DTYPE)
    ups[keys] = first
    ups = ups.reshape(ng, no)
    ups[0] = G.idm
    return ups


def _nonzero(mask):
    """np.nonzero(mask), each index array cast from intp to INDEX_DTYPE, so
    the arithmetic on it stays 4-byte."""
    return [a.astype(INDEX_DTYPE) for a in np.nonzero(mask)]


def _grouped(key, n_keys):
    """(n_keys, d) table of the morphisms with each key, ascending, padded
    with the undefined arrow -1 to the largest group."""
    order = np.argsort(key, kind="stable")
    counts = np.bincount(key, minlength=n_keys)
    pos = np.arange(len(key)) - (np.cumsum(counts) - counts)[key[order]]
    out = np.full((n_keys, counts.max()), -1, dtype=INDEX_DTYPE)
    out[key[order], pos] = order
    return out


def _grade1_generators(G: GradedCatGroup):
    """A generating set of the grade-1 groupoid: the grade-1 arrows, in
    ascending order, that the earlier picks do not already generate.  The
    generated set is the closure of the identities under composing picks
    on the left; in a finite groupoid an inverse is a power, so that is
    the generated subgroupoid."""
    comp = G._comp
    reached = np.zeros(G.n_mor + 1, dtype=bool)
    reached[-1] = True                  # the undefined arrow is never new
    reached[G.idm] = True
    picks = []
    for k in np.nonzero(G.grd == 0)[0]:
        if reached[k]:
            continue
        picks.append(k)
        left = np.array(picks)[:, None]
        new = np.nonzero(reached[:-1])[0]
        while len(new):
            fresh = np.zeros_like(reached)
            fresh[comp[left, new]] = True
            fresh &= ~reached
            reached |= fresh
            new = np.nonzero(fresh)[0]
    return np.array(picks, dtype=INDEX_DTYPE)


def _grades(G: GradedCatGroup):
    """The morphisms of each grade, ascending: every arrow, as the
    per-grade arrow sets of the coherence evaluators take it."""
    return [_nonzero(G.grd == s)[0] for s in range(G.gamma.order)]


def _generating_arrows(G: GradedCatGroup, ups, k):
    """The per-grade arrow sets of the generator pass, ascending: the
    grade-1 generators k with the identities, and the lifts ups[s] of
    every other grade s."""
    grade1 = np.zeros(G.n_mor, dtype=bool)
    grade1[k] = True
    grade1[G.idm] = True
    return [_nonzero(grade1)[0]] + list(np.sort(ups[1:], axis=1))


# The blocked scans gather from the flat padded tables: g o f is
# _comp.flat[g (n_mor + 1) + f].  An undefined factor -1 still reads -1,
# since g = -1 lands in the padding row and f = -1 in the padding column
# of row g - 1 (or, for g = 0, in the last slot).

def _take(table, idx, out, axis=None):
    """out = table.take(idx, axis), written into out.  mode="wrap", because
    "raise" buffers out.  With arrows in [-1, n_mor), as GradedCatGroup
    keeps them, every index the scans form lies in [-n, n) for the n
    entries along its axis, where wrapping is plain negative indexing."""
    return table.take(idx, axis=axis, out=out, mode="wrap")


def _undefined_as_minus_two(table):
    """table, a scan's own gather from a padded table, -2 in place where
    undefined: one side of a square reads it and the other comp, so lhs !=
    rhs alone fails a square, one with both sides undefined included."""
    np.copyto(table, -2, where=table < 0)
    return table


def _distinct(arrows, n1):
    """The distinct entries of arrows, arrows in [-1, n1 - 1), as indices
    into the n1 slots of a padded axis, ascending (the undefined arrow -1
    is the last slot, n1 - 1), and the position of each entry among them:
    a padded table reads the same at distinct[pos] as at arrows.  Marked
    in a mask of the slots, so no sort or intp copy of arrows is made."""
    seen = np.zeros(n1, dtype=bool)
    seen[arrows] = True
    slot = np.cumsum(seen, dtype=INDEX_DTYPE)
    slot -= 1
    return np.flatnonzero(seen).astype(INDEX_DTYPE), _take(slot, arrows, None)


def _block_size(rows, row):
    """Instances in the largest block of a scan over rows rows of row
    instances each."""
    return _rows_per_block(rows, row) * row


def _block_buffers(count, size, masks=1):
    """count INDEX_DTYPE buffers and masks bool ones of size entries each,
    which every block of a scan reuses through _views."""
    return [np.empty(size, dtype=INDEX_DTYPE) for _ in range(count)] + \
        [np.empty(size, dtype=bool) for _ in range(masks)]


def _views(buffers, shape):
    """The leading elements of each buffer, as an array of the given shape."""
    return [b[:prod(shape)].reshape(shape) for b in buffers]


def _associative(G: GradedCatGroup):
    """composition-associative on every triple (h, g, f) with h o g
    defined in `comp` and tgt f = src g, in C order of (h, g, f): blocks of
    rows h, each with the (h, g) pairs of its rows of comp, against the
    rows of the arrows into src g (all grades, ascending, padded with -1
    and masked out), evaluated into buffers that every block reuses.  A
    block reads at most _BLOCK entries of comp and, unless one row alone
    is larger, evaluates at most _BLOCK triples."""
    n, n1 = G.n_mor, G.n_mor + 1
    comp = G._comp.ravel()
    into = _grouped(G.tgt, G.n_obj)
    d = into.shape[1]
    width = int(np.count_nonzero(G.comp >= 0, axis=1).max(initial=0))
    row = max(n, width * d)
    buffers = _block_buffers(4, _rows_per_block(n, row) * width * d, masks=2)

    def blocks():
        for rows in _row_blocks(n, row):
            h, g = _nonzero(G.comp[rows] >= 0)
            h += rows.start
            f, gf, lhs, rhs, bad, mask = _views(buffers, (len(g), d))
            _take(into, G._src[g], f, axis=0)
            h, g = h[:, None], g[:, None]
            # h o (g o f) against (h o g) o f
            _take(comp, np.add(g * n1, f, out=gf), gf)
            _take(comp, np.add(h * n1, gf, out=lhs), lhs)
            _take(comp, np.add(comp[h * n1 + g] * n1, f, out=rhs), rhs)
            np.not_equal(lhs, rhs, out=bad)
            bad |= np.less(lhs, 0, out=mask)
            bad &= np.greater_equal(f, 0, out=mask)
            yield bad, (h, g, f)
    return _tally("composition-associative", blocks())


def _tensor_typing(G: GradedCatGroup):
    """tensor-typing on every same-grade pair (f, g), in C order: each run
    of consecutive arrows f of one grade s in blocks of rows, against the
    grade-s arrows g, evaluated into buffers that every block reuses.
    tob(src f, src g) and tob(tgt f, tgt g) are read as rows of two
    (n_obj x |grade s|) tables."""
    n = G.n_mor
    SRC, TGT, GRD, tob = G._src, G._tgt, G._grd, G.tob
    grades = _grades(G)
    cuts = [0, *(np.flatnonzero(G.grd[1:] != G.grd[:-1]) + 1).tolist(), n]
    runs = [(lo, hi, G.grd[lo]) for lo, hi in zip(cuts, cuts[1:])]
    buffers = _block_buffers(3, max(
        (_block_size(hi - lo, len(grades[s])) for lo, hi, s in runs),
        default=0), masks=2)

    def blocks():
        for lo, hi, s in runs:
            sel = grades[s]
            src_tob, tgt_tob = tob[:, SRC[sel]], tob[:, TGT[sel]]
            for rows in _row_blocks(hi - lo, len(sel)):
                f = slice(lo + rows.start, lo + rows.stop)
                fg, arrow, want, bad, mask = _views(
                    buffers, (f.stop - f.start, len(sel)))
                _take(G._tmor[f], sel, fg, axis=1)
                np.not_equal(_take(SRC, fg, arrow),
                             _take(src_tob, SRC[f], want, axis=0), out=bad)
                bad |= np.not_equal(_take(TGT, fg, arrow),
                                    _take(tgt_tob, TGT[f], want, axis=0),
                                    out=mask)
                bad |= np.not_equal(_take(GRD, fg, arrow), s, out=mask)
                yield bad, (np.arange(f.start, f.stop)[:, None], sel)
    return _tally("tensor-typing", blocks())


def _interchange(G: GradedCatGroup, arrows=None):
    """tensor-interchange on every two composable pairs (g, f), (g', f')
    with g, g' in arrows[s] for a grade s (every grade-s arrow by default)
    and grd f = grd f' = t: per grade pair (s, t), in C order, the square
    (g, i, g', j) over the g whose source receives a grade-t arrow, f the
    i-th of those (ascending, padded with -1 to the square's width c and
    masked out), in blocks of rows g, evaluated into buffers that every
    block reuses.  (g o f) (x) (g' o f') is read from tmor on the distinct
    g o f, -2 where undefined: each block's rows gathered whole, then at
    the columns' positions.  Their composite is read from comp: (g (x) g')
    (n_mor + 1) is a broadcast add of an (|g| x |g|) table, and f (x) f' a
    copy of length-c rows of an (n_src c)^2 table, for the n_src <= n_obj
    objects src g and the c slots of each."""
    n1, no, ng = G.n_mor + 1, G.n_obj, G.gamma.order
    comp = G._comp.ravel()
    outer = np.sort(np.concatenate(_grades(G) if arrows is None else arrows))
    # into[t, x]: the grade-t arrows into x, ascending, padded with -1
    into = _grouped(G.grd * no + G.tgt, ng * no).reshape(ng, no, -1)
    squares = []
    for s in range(ng):
        gs = outer[G.grd[outer] == s]
        for f in into[:, G.src[gs]]:
            # views where no row is dropped: a copied f measured slower
            has, width = f[:, 0] >= 0, np.count_nonzero((f >= 0).any(axis=0))
            if has.any():
                squares.append((gs, f[:, :width]) if has.all() else
                               (gs[has], f[has, :width]))
    buffers = _block_buffers(3, max(
        (_block_size(len(gs), f.size * f.shape[1]) for gs, f in squares), default=0))

    def blocks():
        for gs, f in squares:
            c = f.shape[1]
            valid = f >= 0
            distinct, pos = _distinct(comp[gs[:, None] * n1 + f], n1)
            gf_table = _undefined_as_minus_two(G._tmor[distinct[:, None], distinct])
            g_table = G._tmor[gs[:, None], gs]
            g_table *= n1
            # f (x) f' on the arrows into the distinct objects src g: row
            # (a c + i) n_src + b holds the c tensors of the i-th arrow into
            # the a-th of them with the arrows into the b-th
            _, first, at = np.unique(G.src[gs], return_index=True,
                                     return_inverse=True)
            n_src, at = len(first), at.astype(INDEX_DTYPE)
            fo = f[first].ravel()
            f_table = G._tmor[fo[:, None], fo].reshape(-1, c)
            row_of = (at[:, None] * c + np.arange(c, dtype=INDEX_DTYPE)) * n_src
            for rows in _row_blocks(len(gs), c * len(gs) * c):
                m = rows.stop - rows.start
                lhs, rhs, idx, bad = _views(buffers, (m, c, len(gs), c))
                # whole is read before idx is written, f_row before rhs
                whole, = _views(buffers[2:3], (m, c, len(distinct)))
                f_row, = _views(buffers[1:2], (m, c, len(gs)))
                # (g o f) (x) (g' o f')
                _take(_take(gf_table, pos[rows], whole, axis=0), pos, lhs, axis=2)
                # f (x) f' + (g (x) g') n1, then their composite, -1 where
                # undefined
                _take(f_table, np.add(row_of[rows, :, None], at, out=f_row),
                      idx, axis=0)
                per_g = idx.reshape(m, c, -1)
                per_g += np.repeat(g_table[rows], c, axis=1)[:, None]
                _take(comp, idx, rhs)
                np.not_equal(lhs, rhs, out=bad)
                bad &= valid[rows, :, None, None]
                bad &= valid
                yield bad, (gs[rows, None, None, None], f[rows, :, None, None],
                            gs[:, None], f)
    return _tally("tensor-interchange", blocks())


def _by_grade(G, key, square):
    """One check from square(sel, s), run on the morphisms sel of each
    grade s; square returns the mask and its witness arrays."""
    def blocks():
        for s, sel in enumerate(_grades(G)):
            if len(sel):
                ok, witness_arrays = square(sel, s)
                yield ~ok, witness_arrays
    return _tally(key, blocks())


def _nat_assoc(G: GradedCatGroup, arrows=None):
    """naturality-assoc on every triple (u, v, w) in arrows[s]^3 for a
    grade s (every grade-s arrow by default): per grade, the cube of its
    triples in blocks of u, evaluated into buffers that every block
    reuses.  u (x) v is one table per grade, which also gives v (x) w.
    (u (x) v) (x) w is read from the rows of tmor over the grade at the
    distinct u (x) v, and u (x) (v (x) w), pre-scaled by n_mor + 1, from
    rows u of tmor at those columns.  A constraint a(x u, x v, x w), with
    x = tgt or src, is a row copy, at x v, from the block's rows of aset
    at x u read at x w: a (rows x n_obj x |arrows[s]|) buffer, no larger
    than the block unless arrows[s] is shorter than the object list.  The
    tgt side reads a as its row, pre-scaled, among the rows of comp at the
    distinct a (n_obj on a built category), -2 where undefined."""
    n1, no = G.n_mor + 1, G.n_obj
    comp = G._comp.ravel()
    a_distinct, a_at = _distinct(G.aset, n1)
    a_comp = _undefined_as_minus_two(G._comp[a_distinct]).ravel()
    a_at *= n1
    arrows = [sel for sel in (_grades(G) if arrows is None else arrows)
              if len(sel)]
    buffers = _block_buffers(4, max(
        (_rows_per_block(len(sel), len(sel) ** 2) * len(sel) * max(len(sel), no)
         for sel in arrows), default=0))

    def blocks():
        for sel in arrows:
            distinct, uv_pos = _distinct(G._tmor[sel[:, None], sel], n1)
            uv_w = G._tmor[distinct[:, None], sel]
            u_vw = G._tmor[sel[:, None], distinct]
            u_vw *= n1
            tgt, src = G.tgt[sel], G.src[sel]
            for rows in _row_blocks(len(sel), len(sel) ** 2):
                u = sel[rows, None, None]
                lhs, rhs, idx, part, bad = _views(
                    buffers, (len(u), len(sel), len(sel)))
                # a_rows is read before idx is written
                a_rows, = _views(buffers[2:3], (len(u), no, len(sel)))
                # a(tgt) o ((u (x) v) (x) w), -2 where undefined
                _take(a_at[tgt[rows]], tgt, a_rows, axis=2)
                _take(a_rows, tgt, lhs, axis=1)
                _take(uv_w, uv_pos[rows], part, axis=0)
                _take(a_comp, np.add(lhs, part, out=idx), lhs)
                # (u (x) (v (x) w)) o a(src), -1 where undefined
                _take(u_vw[rows], uv_pos, rhs, axis=1)
                _take(G.aset[src[rows]], src, a_rows, axis=2)
                _take(a_rows, src, part, axis=1)
                _take(comp, np.add(rhs, part, out=idx), rhs)
                yield np.not_equal(lhs, rhs, out=bad), (u, sel[:, None], sel)
    return _tally("naturality-assoc", blocks())


def _interchange_on_generators(G, ups, k):
    return _interchange(G, _generating_arrows(G, ups, k)).ok


def _nat_assoc_on_generators(G, ups, k):
    return _nat_assoc(G, _generating_arrows(G, ups, k)).ok


# Families after which the generator scans are sound: a Gamma-graded
# groupoid with a grade-preserving, typed tensor and a lift of every grade
# out of every object.  There a tensor that preserves composites with a
# generator preserves all composites, and a transformation natural in each
# variable separately is natural (CWM II.3), so lift tuples and per-variable
# grade-1 squares suffice.  By induction on word length the grade-1 squares
# need only a generating set of the grade-1 groupoid: interchange squares
# compose and naturality squares paste along g1 o g2.  The generator pass
# scans every instance on the arrows of `_generating_arrows`: those include
# the generator instances above and are all genuine instances, so its
# verdict is theirs.
_INTERCHANGE_NEEDS = frozenset((
    "composition-defined", "composition-typing", "grade-composition",
    "identity-typing", "identity-laws", "composition-associative",
    "inverses", "tensor-defined", "tensor-typing", "tensor-identities",
    "stability"))
# ... and a bifunctorial tensor with typed associativity constraints.
_NAT_ASSOC_NEEDS = _INTERCHANGE_NEEDS | {"tensor-interchange", "assoc-typing"}


def _passed(checks):
    return {c.key for c in checks if c.ok}


def check_axioms(G: GradedCatGroup, symmetric=False):
    """Full coherence report: typing, groupoid structure, bifunctoriality,
    the pentagon/triangle/hexagon identities, naturality of every
    constraint, grading stability, and object invertibility.

    tensor-interchange and naturality-assoc each have one evaluator,
    `_interchange` and `_nat_assoc`, run on per-grade arrow sets: on every
    arrow it is the exhaustive scan, on a generating set the generator
    pass.  The generating set is a generating set k of the grade-1
    groupoid (`_grade1_generators`) with the identities at grade 1, and
    the least grade-s morphism out of each object (`_lifts`) at every other
    grade s.  The generator pass runs first; it is sound once the
    groupoid, tensor and stability families pass (`_INTERCHANGE_NEEDS`),
    plus tensor-interchange and assoc-typing for naturality-assoc.  If a
    precondition fails, or the generator pass finds a failure, the family
    is scanned on every arrow, so every check (ok, fail count, witnesses)
    is that of the exhaustive scan.

    composition-associative scans only the triples (h, g, f) with h o g
    defined in `comp` and tgt f = src g, in blocks (`_associative`).

    The four blocked scans (`_associative`, `_tensor_typing` and the two
    evaluators) hold no pair list of the whole scan, and no copy of comp.
    Each evaluates its blocks, of at most _BLOCK instances unless one row
    is larger, into buffers it allocates once, reading them with `take`:
    row copies where a row of a table is the row of the block (the arrows
    into src g, a grade's tob, aset and f (x) f' rows), element gathers
    elsewhere.  Besides those buffers a scan's tables are per grade, or
    grade pair, each of at most (n_mor / |gamma|)^2 entries on a built
    category, where a grade has n_pay n_obj arrows and as many arrows of a
    grade reach each object (on the n_mor-512 rung 2^16 entries, a quarter
    of comp), and naturality-assoc's n_obj rows of comp at the associators."""
    entries = []
    n, no = G.n_mor, G.n_obj
    gt = G.gamma.np_table
    # padded tables: an undefined (-1) index reads -1
    SRC, TGT, GRD = G._src, G._tgt, G._grd
    comp, tmor, inv = G._comp, G._tmor, G._inv
    idm, aset, lset, rset, cset, uI = G.idm, G.aset, G.lset, G.rset, G.cset, G.uI
    tob = G.tob
    objs = np.arange(no)
    mors = np.arange(n)

    should = G.tgt[None, :] == G.src[:, None]
    entries.append(_entry("composition-defined", (G.comp >= 0) == should, None))

    gsel, fsel = np.nonzero(should)
    cc = comp[gsel, fsel]
    ok = (SRC[cc] == SRC[fsel]) & (TGT[cc] == TGT[gsel])
    entries.append(_entry("composition-typing", ok, [gsel, fsel]))
    ok = GRD[cc] == gt[GRD[gsel], GRD[fsel]]
    entries.append(_entry("grade-composition", ok, [gsel, fsel]))
    # no n_mor^2 local is kept through the scans below
    del should, gsel, fsel, cc

    ok_id = (SRC[idm] == objs) & (TGT[idm] == objs) & (GRD[idm] == 0)
    entries.append(_entry("identity-typing", ok_id, [objs]))
    ok = (comp[mors, idm[G.src]] == mors) & (comp[idm[G.tgt], mors] == mors)
    entries.append(_entry("identity-laws", ok, [mors]))

    entries.append(_associative(G))

    entries.append(_entry("inverses", inv[:-1] >= 0, [mors]))

    ten_should = G.grd[:, None] == G.grd[None, :]
    entries.append(_entry("tensor-defined", (G.tmor >= 0) == ten_should, None))
    del ten_should
    entries.append(_tensor_typing(G))

    ok = tmor[idm[:, None], idm[None, :]] == idm[tob]
    entries.append(_entry("tensor-identities", ok, None))

    # stability: some morphism of each grade out of each object
    seen = np.zeros((no, G.gamma.order), dtype=bool)
    seen[G.src, G.grd] = True
    stability = _entry("stability", seen, None)

    # interchange: (g o f) (x) (g' o f') == (g (x) g') o (f (x) f')
    # the generating set is computed once, and only where a generator pass
    # runs: _NAT_ASSOC_NEEDS contains _INTERCHANGE_NEEDS, whose families are
    # all checked by now
    ups, k = _lifts(G), None
    if _passed(entries + [stability]) >= _INTERCHANGE_NEEDS:
        k = _grade1_generators(G)
    if k is not None and _interchange_on_generators(G, ups, k):
        entries.append(AxiomCheck("tensor-interchange"))
    else:
        entries.append(_interchange(G))

    x2 = objs[:, None]
    y2 = objs[None, :]
    x3 = objs[:, None, None]
    y3 = objs[None, :, None]
    z3 = objs[None, None, :]
    ok = (SRC[aset] == tob[tob[x3, y3], z3]) & \
        (TGT[aset] == tob[x3, tob[y3, z3]]) & (GRD[aset] == 0)
    entries.append(_entry("assoc-typing", ok, None))
    ok = (SRC[lset] == tob[G.unit, objs]) & (TGT[lset] == objs) & (GRD[lset] == 0)
    entries.append(_entry("left-unit-typing", ok, [objs]))
    ok = (SRC[rset] == tob[objs, G.unit]) & (TGT[rset] == objs) & (GRD[rset] == 0)
    entries.append(_entry("right-unit-typing", ok, [objs]))
    ok = (SRC[cset] == tob[x2, y2]) & (TGT[cset] == tob[y2, x2]) & (GRD[cset] == 0)
    entries.append(_entry("braiding-typing", ok, None))

    grades = np.arange(G.gamma.order)
    ok = (SRC[uI] == G.unit) & (TGT[uI] == G.unit) & (GRD[uI] == grades)
    entries.append(_entry("unit-functor-typing", ok, [grades]))
    s2 = grades[:, None]
    t2 = grades[None, :]
    ok = (comp[uI[s2], uI[t2]] == uI[gt[s2, t2]]) & (uI[0] == idm[G.unit])
    entries.append(_entry("unit-functor-composition", ok, None))

    # pentagon
    x4 = objs[:, None, None, None]
    y4 = objs[None, :, None, None]
    z4 = objs[None, None, :, None]
    t4 = objs[None, None, None, :]
    lhs = comp[aset[x4, y4, tob[z4, t4]], aset[tob[x4, y4], z4, t4]]
    rhs = comp[comp[tmor[idm[x4], aset[y4, z4, t4]], aset[x4, tob[y4, z4], t4]],
               tmor[aset[x4, y4, z4], idm[t4]]]
    entries.append(_entry("pentagon", (lhs == rhs) & (lhs >= 0), None))

    # triangle
    lhs = comp[tmor[idm[x2], lset[y2]], aset[x2, G.unit, y2]]
    rhs = tmor[rset[x2], idm[y2]]
    entries.append(_entry("triangle", (lhs == rhs) & (lhs >= 0), None))

    # hexagons
    lhs = comp[comp[tmor[idm[y3], cset[x3, z3]], aset[y3, x3, z3]],
               tmor[cset[x3, y3], idm[z3]]]
    rhs = comp[comp[aset[y3, z3, x3], cset[x3, tob[y3, z3]]], aset[x3, y3, z3]]
    entries.append(_entry("hexagon-left", (lhs == rhs) & (lhs >= 0), None))

    lhs = comp[comp[tmor[cset[x3, z3], idm[y3]], inv[aset[x3, z3, y3]]],
               tmor[idm[x3], cset[y3, z3]]]
    rhs = comp[comp[inv[aset[z3, x3, y3]], cset[tob[x3, y3], z3]],
               inv[aset[x3, y3, z3]]]
    entries.append(_entry("hexagon-right", (lhs == rhs) & (lhs >= 0), None))

    if _passed(entries + [stability]) >= _NAT_ASSOC_NEEDS and \
            _nat_assoc_on_generators(G, ups, k):
        entries.append(AxiomCheck("naturality-assoc"))
    else:
        entries.append(_nat_assoc(G))

    # the other naturality families, grouped by grade
    def nat_braid(sel, s):
        u = sel[:, None]
        v = sel[None, :]
        lhs = comp[cset[TGT[u], TGT[v]], tmor[u, v]]
        rhs = comp[tmor[v, u], cset[SRC[u], SRC[v]]]
        return (lhs == rhs) & (lhs >= 0), (u, v)

    def nat_lunit(sel, s):
        lhs = comp[lset[TGT[sel]], tmor[uI[s], sel]]
        rhs = comp[sel, lset[SRC[sel]]]
        return (lhs == rhs) & (lhs >= 0), (sel,)

    def nat_runit(sel, s):
        lhs = comp[rset[TGT[sel]], tmor[sel, uI[s]]]
        rhs = comp[sel, rset[SRC[sel]]]
        return (lhs == rhs) & (lhs >= 0), (sel,)

    entries.append(_by_grade(G, "naturality-braiding", nat_braid))
    entries.append(_by_grade(G, "naturality-left-unit", nat_lunit))
    entries.append(_by_grade(G, "naturality-right-unit", nat_runit))

    entries.append(stability)

    # object invertibility: X (x) X' reaches the unit by a grade-1 arrow
    to_unit = np.zeros(no, dtype=bool)
    to_unit[G.src[(G.grd == 0) & (G.tgt == G.unit)]] = True
    reach = to_unit[tob].any(axis=1)
    entries.append(_entry("object-invertibility", reach, [objs]))

    if symmetric:
        lhs = comp[cset[y2, x2], cset[x2, y2]]
        entries.append(_entry("symmetry", (lhs == idm[tob[x2, y2]]) & (lhs >= 0), None))

    return AxiomReport(entries)


def ker(G: GradedCatGroup):
    """The grade-1 subcategory, reindexed over a trivial grading group."""
    keep = np.nonzero(G.grd == 0)[0]
    # indexed like G's padded tables, so the undefined arrow stays -1
    remap = np.full(len(G._src), -1, dtype=INDEX_DTYPE)
    remap[keep] = np.arange(len(keep))
    # each axis is restricted to the kept indices, in order (old), and each
    # entry renumbered (new): the grade-1 arrows and the identity grade
    objs = np.arange(G.n_obj, dtype=INDEX_DTYPE)
    one = np.zeros(1, dtype=INDEX_DTYPE)
    old = {"M": keep, "O": objs, "G": one}
    new = {"M": remap, "O": objs, "G": one}
    tables = {name: new[value][getattr(G, name)[np.ix_(*(old[a] for a in axes))]]
              for name, axes, value in _TABLES}
    meta = {"kind": "kernel", "parent": G, "keep": keep, "remap": remap}
    return GradedCatGroup(trivial_group(), G.n_obj, pay=G.pay[keep],
                          unit=G.unit, meta=meta, **tables)


# -- reduction of the built category on an abelian module ---------------------

def reduce_abelian(module, guard=DEFAULT_GUARD):
    """Skeletal data of the built category on an abelian module.

    Returns (h, H) where h is the degree-3 cochain of the reduced model
    over (coker d, ker d) and H is the comparison functor record from the
    reduced model into build_catgroup(module); tests verify that H is
    coherent, which is what certifies the extraction.  Both categories are
    built under guard.
    """
    from .functors import _functor_into

    if not module.is_abelian_module():
        raise NotStrict("reduction implemented for abelian modules only")
    if not module.is_valid:
        raise NotStrict("reduction requires a validated module")
    B, D, gam = module.B, module.D, module.gamma
    P = module.pi0()
    K = module.pi1()
    emb = module.pi1_embedding()
    q = P.group.order
    reps = least_preimages(module.pi0_projection().map, q)
    beta, gamm = section_defect(P, D, module.act_d, reps,
                                least_preimages(module.d, D.order))
    ng = gam.order
    if any(-1 in row for row in beta + gamm):
        raise NotStrict("element not in the boundary image")
    # a value off ker d reads -1, which Cochain3 refuses as out of range
    kix = least_preimages(emb, B.order)
    Bm = B.mul
    Bi = B.inv
    assoc = [[[kix[Bm(Bm(beta[s][t], beta[r][P.group.mul(s, t)]),
                       Bi(Bm(beta[r][s], beta[P.group.mul(r, s)][t])))]
               for t in range(q)] for s in range(q)] for r in range(q)]
    braid = [[kix[Bm(beta[s][r], Bi(beta[r][s]))]
              for s in range(q)] for r in range(q)]
    tensor = [[[kix[Bm(Bm(Bm(gamm[r][s], gamm[rp][s]),
                          beta[P.act(s, r)][P.act(s, rp)]),
                       Bi(Bm(module.act_b(s, beta[r][rp]),
                             gamm[P.group.mul(r, rp)][s])))]
                for s in range(ng)] for rp in range(q)] for r in range(q)]
    compc = [[[kix[Bm(Bm(module.act_b(t, gamm[r][s]),
                          gamm[P.act(s, r)][t]),
                       Bi(gamm[r][gam.mul(t, s)]))]
               for s in range(ng)] for t in range(ng)] for r in range(q)]
    h = Cochain3(P, K, assoc, braid, tensor, compc)

    H = _functor_into(build_reduced(P, K, h, guard),
                      build_catgroup(module, guard), reps,
                      emb, beta, gamm)
    return h, H
