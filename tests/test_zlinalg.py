import itertools
import random

import numpy as np
import pytest

from xmodcat import zlinalg as zl
from xmodcat.errors import MatrixShapeMismatch


def mat(A):
    return np.array(A, dtype=object)


@pytest.mark.parametrize("seed", range(8))
def test_snf_decomposition_properties(seed):
    rng = random.Random(seed)
    for _ in range(25):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        D, S, T, Si, Ti = zl.smith_normal_form(A)
        assert (mat(S) @ mat(A) @ mat(T) == mat(D)).all()
        assert (mat(S) @ mat(Si) == np.eye(m, dtype=object)).all()
        assert (mat(T) @ mat(Ti) == np.eye(n, dtype=object)).all()
        diag = [d for d in zl.diagonal(D) if d]
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0


def test_solve_finds_known_solutions():
    rng = random.Random(99)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        x = [rng.randint(-4, 4) for _ in range(n)]
        b = [sum(A[i][j] * x[j] for j in range(n)) for i in range(m)]
        s = zl.solve(A, b)
        assert s is not None
        assert all(sum(A[i][j] * s[j] for j in range(n)) == b[i]
                   for i in range(m))


def test_solve_detects_unsolvable():
    assert zl.solve([[2]], [1]) is None
    assert zl.solve([[0]], [3]) is None
    assert zl.solve([[2, 4]], [7]) is None


def test_kernel_basis_spans_kernel():
    A = [[2, 4, 6], [1, 2, 3]]
    basis = zl.kernel_basis(A)
    assert len(basis) == 2
    for col in basis:
        assert all(sum(A[i][j] * col[j] for j in range(3)) == 0
                   for i in range(2))


def test_congruence_kernel_matches_enumeration():
    # x with F x == 0 mod (4, 2), brute-enumerated over representatives
    F = [[2, 1], [1, 1]]
    moduli = [4, 2]
    gens = zl.congruence_kernel_gens(F, moduli)
    spanned = set()
    for coeffs in itertools.product(range(-8, 9), repeat=len(gens)):
        v = [sum(c * g[i] for c, g in zip(coeffs, gens)) % 8 for i in range(2)]
        spanned.add(tuple(v))
    direct = set()
    for x in itertools.product(range(8), repeat=2):
        if (2 * x[0] + x[1]) % 4 == 0 and (x[0] + x[1]) % 2 == 0:
            direct.add(x)
    assert direct <= spanned


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
