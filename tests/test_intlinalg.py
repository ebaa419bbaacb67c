"""Smith normal form and cokernel presentations, exactly over Z."""

import random
from math import gcd

import pytest
from sympy import Matrix as SymMatrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from milnor_lab import IntMatrix, cokernel, smith_normal_form
from milnor_lab.intlinalg import CokernelPresentation
from oracles import determinant, int_matrix, matmul, zeros


def _check_decomposition(matrix, dec):
    assert matmul(matmul(dec.U, dec.S), dec.V) == matrix
    assert abs(determinant(dec.U)) == 1
    assert abs(determinant(dec.V)) == 1
    diag = dec.diagonal()
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d]
    assert diag[:len(nonzero)] == tuple(nonzero)  # zeros trail
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # off-diagonal entries vanish
    for i in range(dec.S.rows):
        for j in range(dec.S.cols):
            if i != j:
                assert dec.S.entries[i][j] == 0


def test_snf_diag_2_3():
    dec = smith_normal_form(int_matrix([[2, 0], [0, 3]]))
    assert dec.diagonal() == (1, 6)
    _check_decomposition(int_matrix([[2, 0], [0, 3]]), dec)


def test_snf_zero_matrix():
    matrix = zeros(2, 3)
    dec = smith_normal_form(matrix)
    assert dec.diagonal() == (0, 0)
    _check_decomposition(matrix, dec)


def test_snf_2x2_example():
    matrix = int_matrix([[2, 4], [6, 8]])
    dec = smith_normal_form(matrix)
    # d1 = gcd of entries = 2, d1*d2 = |det| = 8
    assert dec.diagonal() == (2, 4)
    _check_decomposition(matrix, dec)


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0), (1, 1)])
def test_snf_degenerate_shapes(rows, cols):
    matrix = zeros(rows, cols)
    dec = smith_normal_form(matrix)
    _check_decomposition(matrix, dec)


def test_snf_random_reconstruction():
    rng = random.Random(2024)
    for _ in range(500):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        matrix = int_matrix([
            [rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)
        ])
        dec = smith_normal_form(matrix)
        _check_decomposition(matrix, dec)
        if rows == cols:
            product = 1
            for d in dec.diagonal():
                product *= d
            assert abs(determinant(matrix)) == product


def test_snf_matches_sympy_invariant_factors():
    rng = random.Random(99)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        data = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        ours = smith_normal_form(int_matrix(data)).diagonal()
        theirs = sympy_snf(SymMatrix(data))
        theirs_diag = [abs(int(theirs[i, i])) for i in range(min(rows, cols))]
        assert [d for d in ours if d] == [d for d in theirs_diag if d]


def test_snf_deterministic():
    rng = random.Random(5)
    for _ in range(50):
        data = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        first = smith_normal_form(int_matrix(data))
        second = smith_normal_form(int_matrix(data))
        assert first == second


def test_coefficient_growth_handled_exactly():
    # ill-conditioned integer matrix; everything must stay exact
    matrix = int_matrix([
        [998, 999, 997, 996],
        [995, 994, 993, 992],
        [991, 990, 989, 988],
        [987, 986, 985, 984],
    ])
    dec = smith_normal_form(matrix)
    _check_decomposition(matrix, dec)


def test_cokernel_shift_minus_identity():
    coker = cokernel(int_matrix([[-1, 1], [1, -1]]))
    assert (coker.free_rank, coker.torsion) == (1, ())


def test_cokernel_zero_map():
    coker = cokernel(zeros(4, 4))
    assert (coker.free_rank, coker.torsion) == (4, ())


def test_cokernel_shift_by_two_on_z4():
    perm = [[0] * 4 for _ in range(4)]
    for a in range(4):
        perm[(a + 2) % 4][a] = 1
        perm[a][a] -= 1
    coker = cokernel(int_matrix(perm))
    assert (coker.free_rank, coker.torsion) == (2, ())


def test_cokernel_with_torsion():
    coker = cokernel(int_matrix([[2, 0], [0, 3]]))
    assert (coker.free_rank, coker.torsion) == (0, (6,))


def test_cyclic_shift_cokernels():
    # orbit oracle: residue classes mod gcd(m, k)
    for m in range(1, 31):
        for k in range(m):
            mat = [[0] * m for _ in range(m)]
            for a in range(m):
                mat[(a + k) % m][a] += 1
                mat[a][a] -= 1
            coker = cokernel(int_matrix(mat))
            assert coker.free_rank == gcd(m, k)  # gcd(m, 0) = m
            assert coker.torsion == ()


def _presentation_from_snf(matrix):
    diag = smith_normal_form(matrix).diagonal()
    rank = sum(1 for d in diag if d)
    return CokernelPresentation(matrix.rows - rank, tuple(d for d in diag if d > 1))


def test_sparse_cokernel_matches_snf_diagonal():
    # unit-pivot elimination plus the SNF of the leftover block must give the
    # presentation read off the dense SNF of the whole matrix
    rng = random.Random(7)
    empty_shapes = torsion_without_units = 0
    for n in range(2400):
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
        density = rng.random()
        # every fourth matrix avoids +-1, so torsion must survive to the dense block
        values = [-2, 0, 2, 3] if n % 4 == 0 else list(range(-2, 4))
        matrix = IntMatrix(rows, cols, tuple(
            tuple(rng.choice(values) if rng.random() < density else 0 for _ in range(cols))
            for _ in range(rows)
        ))
        expected = _presentation_from_snf(matrix)
        assert cokernel(matrix) == expected, matrix
        empty_shapes += rows == 0 or cols == 0
        has_unit = any(abs(v) == 1 for row in matrix.entries for v in row)
        torsion_without_units += bool(expected.torsion) and not has_unit
    assert empty_shapes >= 100 and torsion_without_units >= 100
