"""Exact integer linear algebra: a one-sided Smith normal form,
congruence kernels, and what is read from them: solutions of congruence
systems and presentations of finitely generated abelian groups.

All matrices are lists of lists of Python ints (arbitrary precision, so
pivoting can never overflow).  The Smith form records only its column
transform T.  A congruence system F x == b (mod m_i), with every modulus
m_i >= 1, is solved through the kernel of [F | b]: one Smith form of its
rows, each scaled by e / m_i to the common modulus e = lcm(m_i).  The
congruence solvers also take a matrix with a 2-D `.shape`, such as a numpy
array, and read the number of unknowns from that shape, so a system with
no rows still has a width.  A finite abelian group is presented by a list
of moduli [m1, ..., mr]; its elements are integer coordinate vectors taken
mod the moduli.
"""

from __future__ import annotations

import math

from .errors import MatrixShapeMismatch


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(A):
    """Diagonalize an integer matrix.

    Returns (D, T) with S @ A @ T == D for some unimodular S, where D is
    diagonal with d1 | d2 | ... and T is unimodular.  S is never formed:
    row operations act on D alone.  A @ T == S^-1 @ D, so column j of
    A @ T is d_j times column j of S^-1, and zero past the rank.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    D = [list(map(int, row)) for row in A]
    for row in D:
        if len(row) != n:
            raise MatrixShapeMismatch("ragged matrix")
    T = _identity(n)

    def row_add(i, j, q):
        # row_i += q * row_j
        Di, Dj = D[i], D[j]
        for k in range(n):
            Di[k] += q * Dj[k]

    def col_add(j, i, q):
        # col_j += q * col_i;  T := T E
        for r in range(m):
            D[r][j] += q * D[r][i]
        for r in range(n):
            T[r][j] += q * T[r][i]

    def col_swap(i, j):
        for r in range(m):
            D[r][i], D[r][j] = D[r][j], D[r][i]
        for r in range(n):
            T[r][i], T[r][j] = T[r][j], T[r][i]

    rank = min(m, n)
    for k in range(rank):
        while True:
            # smallest nonzero entry of the trailing submatrix -> pivot
            best = None
            for i in range(k, m):
                for j in range(k, n):
                    v = abs(D[i][j])
                    if v and (best is None or v < best[0]):
                        best = (v, i, j)
            if best is None:
                break
            _, pi, pj = best
            D[k], D[pi] = D[pi], D[k]
            if pj != k:
                col_swap(k, pj)
            dirty = False
            for i in range(k + 1, m):
                if D[i][k]:
                    q = D[i][k] // D[k][k]
                    row_add(i, k, -q)
                    if D[i][k]:
                        dirty = True
            for j in range(k + 1, n):
                if D[k][j]:
                    q = D[k][j] // D[k][k]
                    col_add(j, k, -q)
                    if D[k][j]:
                        dirty = True
            if dirty:
                continue
            # pivot must divide every remaining entry
            fixed = True
            for i in range(k + 1, m):
                for j in range(k + 1, n):
                    if D[i][j] % D[k][k]:
                        row_add(k, i, 1)
                        fixed = False
                        break
                if not fixed:
                    break
            if fixed:
                break
        if D[k][k] == 0:
            break
        if D[k][k] < 0:
            D[k] = [-v for v in D[k]]
    return D, T


def diagonal(D):
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]


def _system(F, moduli):
    """The rows of a congruence system F x == b (mod moduli), each scaled
    by e / m_i, F's number of unknowns n, and e = lcm(moduli): x solves
    the system exactly when the scaled rows hold mod e for b scaled alike.
    n is read from F's `.shape` when it has one, else from its rows; a
    ragged F, or one with neither rows nor a shape, has no width."""
    try:
        rows = [[int(v) for v in row] for row in F]
        m, n = F.shape if hasattr(F, "shape") else (len(rows), len(rows[0]))
    except (TypeError, ValueError, IndexError):   # not two axes, or no rows
        raise MatrixShapeMismatch("congruence system is not a 2-D matrix") from None
    if any(len(row) != n for row in rows):
        raise MatrixShapeMismatch("congruence system is not a 2-D matrix")
    moduli = [int(mod) for mod in moduli]
    if len(moduli) != m:
        raise MatrixShapeMismatch("moduli length mismatch")
    if any(mod < 1 for mod in moduli):
        raise MatrixShapeMismatch("every modulus must be at least 1")
    e = math.lcm(*moduli)
    return [[v * (e // mod) for v in row] for row, mod in zip(rows, moduli)], n, e


def congruence_kernel_gens(F, moduli):
    """Generators of {x in Z^n : F x == 0 (mod moduli componentwise)}.

    Returned as a list of length-n integer columns; they generate the full
    solution lattice, which is all of Z^n when F has no rows.  With
    S F' T = D the Smith form of the scaled rows F', x = T y is a solution
    exactly when e | d_j y_j for every j, since S maps eZ^m onto itself.
    """
    rows, n, e = _system(F, moduli)
    if not rows:
        return _identity(n)   # no conditions: the unit columns
    D, T = smith_normal_form(rows)
    d = diagonal(D) + [0] * n
    return [[T[i][j] * (e // math.gcd(d[j], e)) for i in range(n)]
            for j in range(n)]


def solve_mod(F, b, moduli):
    """One solution of F x == b (mod moduli), or None.

    x is a solution exactly when (-x, 1) lies in the kernel of [F | b].
    The last entries of the kernel generators form one row, whose Smith
    form d_1 is their gcd; there is a solution exactly when d_1 == 1, and
    column 0 of that form's T combines the generators into a kernel vector
    whose last entry is +-1.
    """
    rows, n, e = _system(F, moduli)
    if len(b) != len(rows):
        raise MatrixShapeMismatch("rhs length mismatch")
    if not rows:
        return [0] * n
    # [F | b] with b scaled like F's rows: every row is now taken mod e
    gens = congruence_kernel_gens([row + [int(v) * (e // int(mod))]
                                   for row, v, mod in zip(rows, b, moduli)],
                                  [e] * len(rows))
    D, T = smith_normal_form([[g[n] for g in gens]])
    if D[0][0] != 1:
        return None
    v = [sum(g[i] * t[0] for g, t in zip(gens, T)) for i in range(n + 1)]
    return [-x * v[n] for x in v[:n]]


class Presented:
    """A finite abelian group given by invariant factors plus, optionally,
    lifts of its generators into an ambient coordinate group."""

    def __init__(self, invariants, lifts=None):
        self.invariants = list(invariants)
        self.lifts = [list(v) for v in lifts] if lifts is not None else None

    @property
    def order(self):
        out = 1
        for d in self.invariants:
            out *= d
        return out

    def __repr__(self):
        return f"Presented({self.invariants})"


def presentation_from_generators(gen_cols, ambient_moduli):
    """Present the subgroup of prod Z/m_i generated by the given columns.

    Returns a Presented whose lifts are integer combinations of gen_cols,
    reduced mod the ambient moduli.  Invariant factors satisfy d1 | d2 | ...
    with the trivial factors dropped.
    """
    return subquotient_presentation(gen_cols, [], ambient_moduli)


def subquotient_presentation(ker_gens, sub_gens, ambient_moduli):
    """Present <ker_gens> / <sub_gens> inside prod Z/m_i.

    Requires <sub_gens> to be contained in <ker_gens>; raises ValueError
    otherwise.  Lifts are returned in ambient coordinates.  Both are read
    from one kernel, of the relations (a, c) with K a + Sub c == 0: <Sub>
    lies in <K> exactly when their parts c span Z^t, and <K> / <Sub> is
    Z^s modulo the lattice their parts a span.
    """
    n, s = len(ambient_moduli), len(ker_gens)
    if n == 0:   # the trivial group
        return Presented([], [])
    # generators as the columns of n-row matrices
    K = [[col[i] for col in ker_gens] for i in range(n)]
    block = [K[i] + [col[i] for col in sub_gens] for i in range(n)]
    rels = congruence_kernel_gens(block, ambient_moduli)
    parts = [[rel[i] for rel in rels] for i in range(len(rels))]
    R, C = parts[:s], parts[s:]
    if diagonal(smith_normal_form(C)[0]) != [1] * len(C):
        raise ValueError("subgroup not contained in kernel")
    # with S R T = D, generator j is column j of S^-1, that is
    # (R T)[:, j] / d_j; no d_j is 0, as the relations contain e Z^(s+t)
    D, T = smith_normal_form(R)
    invs, lifts = [], []
    for j, d in enumerate(diagonal(D)):
        if d == 1:
            continue
        col = [sum(r * t[j] for r, t in zip(row, T)) // d for row in R]
        lift = [sum(k * x for k, x in zip(row, col)) for row in K]
        invs.append(d)
        lifts.append([x % mod for x, mod in zip(lift, ambient_moduli)])
    return Presented(invs, lifts)
