import random
from fractions import Fraction

import pytest

from supero.errors import DimensionMismatch
from supero.linalg import (
    SpanSolver,
    SparseMatrix,
    _add_scaled,
    kernel_basis,
    rank,
)


def F(a, b=1):
    return Fraction(a, b)


def test_rank_empty_matrix():
    assert rank(SparseMatrix(0, 0)) == 0


def test_rank_identity():
    assert rank(SparseMatrix.identity(3)) == 3


def test_rank_proportional_rows():
    m = SparseMatrix.from_rows([[1, 2], [2, 4]])
    assert rank(m) == 1


def test_kernel_identity_empty():
    assert kernel_basis(SparseMatrix.identity(2)) == []


def test_kernel_zero_matrix():
    basis = kernel_basis(SparseMatrix.zero(2, 3))
    assert len(basis) == 3


def test_kernel_one_row():
    (v,) = kernel_basis(SparseMatrix.from_rows([[1, 1]]))
    assert v[0] == -v[1] != 0


def _random_matrix(rng, rows, cols):
    entries = []
    for r in range(rows):
        for c in range(cols):
            if rng.random() < 0.5:
                v = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                if v:
                    entries.append((r, c, v))
    return SparseMatrix(rows, cols, entries)


def test_rank_plus_nullity_random():
    rng = random.Random(20240901)
    for _ in range(60):
        m = _random_matrix(rng, rng.randint(0, 6), rng.randint(1, 6))
        assert rank(m) + len(kernel_basis(m)) == m.cols


def test_kernel_vectors_exact_random():
    rng = random.Random(77)
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        for v in kernel_basis(m):
            assert all(x == 0 for x in m.matvec(v))


def test_rank_transpose_random():
    rng = random.Random(5150)
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(0, 6), rng.randint(1, 6))
        assert rank(m) == rank(m.transpose())


def test_kernel_basis_normal_form():
    # vector i has entry 1 at its own free column, 0 at the other free columns
    m = SparseMatrix.from_rows([[1, 2, 3, 4], [0, 0, 1, 1]])
    basis = kernel_basis(m)
    assert len(basis) == 2
    free = [1, 3]
    for i, v in enumerate(basis):
        for j, f in enumerate(free):
            assert v[f] == (1 if i == j else 0)


def test_kernel_deterministic():
    m = SparseMatrix.from_rows([[1, 2, 3], [2, 4, 7]])
    assert kernel_basis(m) == kernel_basis(m)


def test_matmul_and_matvec():
    a = SparseMatrix.from_rows([[1, 2], [3, 4]])
    b = SparseMatrix.from_rows([[0, 1], [1, 0]])
    assert a.matmul(b) == SparseMatrix.from_rows([[2, 1], [4, 3]])
    assert a.matvec((F(1), F(1))) == (F(3), F(7))


def test_duplicate_entry_rejected():
    with pytest.raises(DimensionMismatch):
        SparseMatrix(2, 2, [(0, 0, F(1)), (0, 0, F(2))])


def test_span_solver_membership_and_coords():
    v1 = (F(1), F(0), F(1))
    v2 = (F(0), F(1), F(1))
    s = SpanSolver([v1, v2], 3)
    assert s.rank == 2
    assert s.contains((F(1), F(1), F(2)))
    assert not s.contains((F(0), F(0), F(1)))
    assert s.coordinates((F(2), F(-1), F(1))) == (F(2), F(-1))


def test_span_solver_residual_on_free_columns():
    s = SpanSolver([(F(1), F(1), F(0))], 3)
    residual, _ = s.reduce((F(1), F(2), F(3)))
    assert set(residual) <= {1, 2}
    back = [Fraction(0)] * 3
    for k, v in residual.items():
        back[k] = v
    # residual differs from the input by a span element
    diff = [a - b for a, b in zip((F(1), F(2), F(3)), back)]
    assert s.contains(diff)


def test_add_scaled_prunes_zeros_and_keeps_order():
    acc = {"x": 1, "y": 2, "z": 3}
    assert _add_scaled(acc, [("y", -1), ("w", 5), ("x", 2)], 2) is acc
    # y cancels and is dropped; x keeps its place; w is appended
    assert list(acc.items()) == [("x", 5), ("z", 3), ("w", 10)]
    _add_scaled(acc, [("x", 1), ("y", 0)], -5)
    assert list(acc.items()) == [("z", 3), ("w", 10)]  # a zero term stores nothing

    frac = {0: F(1, 2), 1: F(1, 3)}
    _add_scaled(frac, [(0, F(1, 4)), (2, F(1, 6))], F(-2))
    assert frac == {1: F(1, 3), 2: F(-1, 3)}
    assert list(frac) == [1, 2]
    assert _add_scaled(frac, [(1, F(1, 3)), (2, F(-1, 3))], -1) == {}
