import itertools
import math
import random

import numpy as np
import pytest

from xmodcat import zlinalg as zl
from xmodcat.errors import MatrixShapeMismatch


def mat(A):
    return np.array(A, dtype=object)


@pytest.mark.parametrize("seed", range(8))
def test_snf_decomposition_properties(seed):
    sympy = pytest.importorskip("sympy")
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    rng = random.Random(seed)
    for _ in range(25):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        D, T = zl.smith_normal_form(A)
        assert sympy.Matrix(T).det() in (1, -1)
        diag = [d for d in zl.diagonal(D) if d]
        # A T = S^-1 D: column j is a multiple of d_j, zero past the rank
        AT = mat(A) @ mat(T)
        assert all(v == 0 for v in AT[:, len(diag):].flat)
        for j, d in enumerate(diag):
            assert all(v % d == 0 for v in AT[:, j])
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0
        # an independent oracle for the invariant factors
        theirs = normalforms.invariant_factors(sympy.Matrix(A),
                                               domain=sympy.ZZ)
        assert diag == [int(d) for d in theirs if d]


def _random_system(rng):
    """A congruence system of 1-3 rows over 1-3 unknowns, moduli 1-6."""
    m, n = rng.randint(1, 3), rng.randint(1, 3)
    F = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
    return F, [rng.randint(1, 6) for _ in range(m)], n


def _holds(F, x, b, moduli):
    return all((sum(a * v for a, v in zip(row, x)) - c) % mod == 0
               for row, c, mod in zip(F, b, moduli))


def test_solve_finds_known_solutions():
    rng = random.Random(99)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        moduli = [rng.randint(1, 9) for _ in range(m)]
        x = [rng.randint(-4, 4) for _ in range(n)]
        b = [sum(A[i][j] * x[j] for j in range(n)) for i in range(m)]
        s = zl.solve_mod(A, b, moduli)
        assert s is not None and len(s) == n
        assert _holds(A, s, b, moduli)


def test_solve_detects_unsolvable():
    assert zl.solve_mod([[2]], [1], [4]) is None
    assert zl.solve_mod([[0]], [3], [6]) is None
    assert zl.solve_mod([[2, 4]], [7], [8]) is None
    # rows that agree on x but not on b, past the Smith diagonal
    assert zl.solve_mod([[1], [1]], [0, 1], [2, 2]) is None
    assert zl.solve_mod([[3]], [1], [6]) is None
    assert zl.solve_mod([[3]], [3], [6]) is not None


def test_solve_mod_agrees_with_enumeration():
    rng = random.Random(7)
    for _ in range(200):
        F, moduli, n = _random_system(rng)
        b = [rng.randint(-6, 6) for _ in moduli]
        e = math.lcm(*moduli)
        found = any(_holds(F, x, b, moduli)
                    for x in itertools.product(range(e), repeat=n))
        s = zl.solve_mod(F, b, moduli)
        assert (s is not None) == found
        if s is not None:
            assert len(s) == n and _holds(F, s, b, moduli)


def test_kernel_basis_spans_kernel():
    A = [[2, 4, 6], [1, 2, 3]]
    gens = zl.congruence_kernel_gens(A, [4, 4])
    assert len(gens) == 3
    for col in gens:
        assert _holds(A, col, [0, 0], [4, 4])
    # the integer kernel, spanned by (2, -1, 0) and (3, 0, -1), lies in it
    spanned = {tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) % 4
                     for i in range(3))
               for coeffs in itertools.product(range(4), repeat=3)}
    assert (2, 3, 0) in spanned and (3, 0, 3) in spanned


def test_congruence_kernel_matches_enumeration():
    # the generators span exactly the x in (Z/e)^n with F x == 0 (mod moduli)
    rng = random.Random(3)
    for _ in range(100):
        F, moduli, n = _random_system(rng)
        e = math.lcm(*moduli)
        gens = zl.congruence_kernel_gens(F, moduli)
        assert len(gens) == n and all(len(col) == n for col in gens)
        spanned = set()
        for coeffs in itertools.product(range(e), repeat=len(gens)):
            spanned.add(tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) % e
                              for i in range(n)))
        direct = {x for x in itertools.product(range(e), repeat=n)
                  if _holds(F, x, [0] * len(F), moduli)}
        assert direct == spanned


@pytest.mark.parametrize("moduli", [[0], [-2], [2, 0]])
def test_moduli_below_one_are_refused(moduli):
    F = [[1]] * len(moduli)
    with pytest.raises(MatrixShapeMismatch):
        zl.congruence_kernel_gens(F, moduli)
    with pytest.raises(MatrixShapeMismatch):
        zl.solve_mod(F, [0] * len(moduli), moduli)


@pytest.mark.parametrize("moduli", [[2], [2, 2, 2]])
def test_moduli_must_match_the_rows(moduli):
    F = [[2, 1], [1, 1]]
    with pytest.raises(MatrixShapeMismatch):
        zl.congruence_kernel_gens(F, moduli)
    with pytest.raises(MatrixShapeMismatch):
        zl.solve_mod(F, [0, 0], moduli)
    assert zl.solve_mod(F, [1, 1], [4, 2]) is not None


def test_a_system_without_rows_takes_its_width_from_its_shape():
    F = np.zeros((0, 3), dtype=np.int64)
    assert zl.congruence_kernel_gens(F, []) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert zl.solve_mod(F, [], []) == [0, 0, 0]
    with pytest.raises(MatrixShapeMismatch):
        zl.solve_mod(F, [1], [])
    # a bare empty list has no width
    with pytest.raises(MatrixShapeMismatch):
        zl.congruence_kernel_gens([], [])


def test_presentation_from_generators_subgroup_of_z4xz2():
    # subgroup generated by (2, 1) inside Z/4 x Z/2 is cyclic of order 2
    pres = zl.presentation_from_generators([[2, 1]], [4, 2])
    assert pres.invariants == [2]
    # generated by (1, 0): full Z/4 factor
    pres = zl.presentation_from_generators([[1, 0]], [4, 2])
    assert pres.invariants == [4]
    # two generators covering the whole group
    pres = zl.presentation_from_generators([[1, 0], [0, 1]], [4, 2])
    assert sorted(pres.invariants) == [2, 4]
    assert pres.order == 8


def test_subquotient_presentation():
    # Z/4 x Z/2 modulo the subgroup generated by (2, 0): Z/2 x Z/2
    ker = [[1, 0], [0, 1]]
    sub = [[2, 0]]
    pres = zl.subquotient_presentation(ker, sub, [4, 2])
    assert sorted(pres.invariants) == [2, 2]
    with pytest.raises(ValueError):
        # (1, 0) is not inside the subgroup generated by (2, 0)
        zl.subquotient_presentation([[2, 0]], [[1, 0]], [4, 2])


@pytest.mark.parametrize("ker, sub", [([], [[1]]), ([], []), ([[1]], [])])
def test_subquotient_refuses_moduli_below_one(ker, sub):
    with pytest.raises(MatrixShapeMismatch):
        zl.subquotient_presentation(ker, sub, [0])


def _span(gens, moduli):
    """The subgroup of prod Z/m_i generated by the columns gens."""
    out = {tuple([0] * len(moduli))}
    frontier = list(out)
    while frontier:
        x = frontier.pop()
        for col in gens:
            y = tuple((a + b) % m for a, b, m in zip(x, col, moduli))
            if y not in out:
                out.add(y)
                frontier.append(y)
    return out


def test_presentation_lifts_agree_with_enumeration():
    rng = random.Random(11)
    presented = refused = 0
    for _ in range(150):
        moduli = [rng.randint(2, 6) for _ in range(rng.randint(1, 3))]
        ker = [[rng.randint(-6, 6) for _ in moduli]
               for _ in range(rng.randint(1, 3))]
        sub = [[rng.randint(-6, 6) for _ in moduli]
               for _ in range(rng.randint(0, 2))]
        K, Sub = _span(ker, moduli), _span(sub, moduli)
        if not Sub <= K:
            with pytest.raises(ValueError):
                zl.subquotient_presentation(ker, sub, moduli)
            refused += 1
            continue
        pres = zl.subquotient_presentation(ker, sub, moduli)
        assert pres.order == len(K) // len(Sub)
        assert len(pres.lifts) == len(pres.invariants)
        for lift, d in zip(pres.lifts, pres.invariants):
            # order exactly d modulo <sub>
            multiples = [tuple(k * x % m for x, m in zip(lift, moduli))
                         for k in range(1, d + 1)]
            assert multiples[-1] in Sub
            assert not any(y in Sub for y in multiples[:-1])
        assert _span(pres.lifts + sub, moduli) == K
        presented += 1
    assert presented and refused
