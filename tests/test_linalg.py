import math
import random
from fractions import Fraction

import pytest

from supero.errors import DimensionMismatch
from supero.linalg import (
    SpanSolver,
    SparseMatrix,
    _add_scaled,
    _eliminate,
    _int_rows,
    kernel_basis,
    kernel_basis_with_free,
    rank,
)


def F(a, b=1):
    return Fraction(a, b)


def from_rows(rows):
    """The matrix with these dense rows."""
    entries = [(i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row) if v]
    return SparseMatrix(len(rows), len(rows[0]) if rows else 0, entries)


def matvec(m, vec):
    """m·vec as a dense tuple."""
    out = [0] * m.rows
    for r, c, v in m.entries():
        out[r] += v * vec[c]
    return tuple(out)


def test_rank_empty_matrix():
    assert rank(SparseMatrix(0, 0)) == 0


def test_rank_identity():
    assert rank(SparseMatrix(3, 3, ((i, i, 1) for i in range(3)))) == 3


def test_rank_proportional_rows():
    m = from_rows([[1, 2], [2, 4]])
    assert rank(m) == 1


def test_kernel_identity_empty():
    assert kernel_basis(SparseMatrix(2, 2, ((i, i, 1) for i in range(2)))) == []


def test_kernel_zero_matrix():
    basis = kernel_basis(SparseMatrix(2, 3))
    assert len(basis) == 3


def test_kernel_one_row():
    (v,) = kernel_basis(from_rows([[1, 1]]))
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
            assert all(x == 0 for x in matvec(m, v))


def test_rank_transpose_random():
    rng = random.Random(5150)
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(0, 6), rng.randint(1, 6))
        transpose = SparseMatrix(m.cols, m.rows, ((c, r, v) for r, c, v in m.entries()))
        assert rank(m) == rank(transpose)


def test_kernel_basis_normal_form():
    # vector i has entry 1 at its own free column, 0 at the other free columns
    m = from_rows([[1, 2, 3, 4], [0, 0, 1, 1]])
    basis = kernel_basis(m)
    assert len(basis) == 2
    free = [1, 3]
    for i, v in enumerate(basis):
        for j, f in enumerate(free):
            assert v[f] == (1 if i == j else 0)


def test_kernel_deterministic():
    m = from_rows([[1, 2, 3], [2, 4, 7]])
    assert kernel_basis(m) == kernel_basis(m)


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


def test_entries_are_int_where_integral():
    m = SparseMatrix(1, 2, [(0, 0, Fraction(4, 2))])
    assert type(m.entry(0, 0)) is int and m.entry(0, 0) == 2
    assert type(m.entry(0, 1)) is int and m.entry(0, 1) == 0  # empty position
    assert m == from_rows([[2, 0]])


def test_span_solver_divides_exactly():
    # an int lead of 3 must scale by Fraction(1, 3), never by the float 1 / 3
    s = SpanSolver([(3, 1, 0)], 3)
    residual, comb = s.reduce((1, 0, 5))
    assert residual == {1: F(-1, 3), 2: 5} and comb == {0: F(1, 3)}
    assert type(residual[1]) is Fraction and type(residual[2]) is int
    coords = s.coordinates((6, 2, 0))
    assert coords == (2,) and type(coords[0]) is int


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


def _oracle(rows, cols):
    """Dense Fraction Gauss-Jordan, left to right: (rank, kernel basis, free columns).

    Shares no code with supero.linalg.  The pivots are the leftmost
    independent columns; basis vector f is 1 at f and 0 at the other free
    columns.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        lead = a[r][c]
        a[r] = [x / lead for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -a[i][f]
        basis.append(tuple(v))
    return len(pivots), basis, free


def _arrow(n, rng, singular=False, tail=False):
    """Dense first row and first column plus a nonzero diagonal.

    ``singular`` sets the corner so that the first row is a combination of
    the others.  ``tail`` appends two columns that are nonzero in the first
    row only.
    """
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[0][i] = rng.choice([-2, -1, 1, 3])
        rows[i][0] = rng.choice([-1, 1, 2])
        rows[i][i] = rng.choice([-3, 1, 2])
    if singular:
        rows[0][0] = sum(Fraction(rows[0][i] * rows[i][0], rows[i][i]) for i in range(1, n))
    else:
        rows[0][0] = rng.choice([-1, 1])
    if tail:
        for i, row in enumerate(rows):
            row.extend([5, -3] if i == 0 else [0, 0])
    return rows


def _oracle_cases():
    """Seeded sparse matrices: tall, wide, rank-deficient, with zero rows and
    columns, duplicate rows, non-integral entries, and arrow matrices."""
    rng = random.Random(1968)

    def entry(frac):
        if rng.random() >= 0.35:
            return 0
        return Fraction(rng.randint(-5, 5), rng.randint(1, 7)) if frac else rng.randint(-3, 3)

    def sparse(nr, nc, frac=False):
        return [[entry(frac) for _ in range(nc)] for _ in range(nr)]

    cases = []
    for n in range(240):
        kind = n % 6
        nr, nc = rng.randint(1, 9), rng.randint(1, 9)
        if kind == 0:  # tall
            rows = sparse(nc + rng.randint(1, 5), nc)
        elif kind == 1:  # wide
            rows = sparse(nr, nr + rng.randint(1, 6))
        elif kind == 2:  # rank at most k: a product of thin factors
            k = rng.randint(1, 3)
            left, right = sparse(nr, k, frac=True), sparse(k, nc)
            rows = [[sum(l * r for l, r in zip(lrow, col)) for col in zip(*right)] for lrow in left]
        elif kind == 3:  # zero rows and zero columns
            rows = sparse(nr, nc)
            for i in rng.sample(range(nr), rng.randint(0, nr)):
                rows[i] = [0] * nc
            for j in rng.sample(range(nc), rng.randint(0, nc)):
                for row in rows:
                    row[j] = 0
        elif kind == 4:  # duplicate rows and multiples of rows
            rows = sparse(nr, nc)
            for _ in range(rng.randint(1, 4)):
                rows.append([rng.choice([1, -2, Fraction(1, 3)]) * x for x in rng.choice(rows)])
            rng.shuffle(rows)
        else:  # non-integral entries
            rows = sparse(nr, nc, frac=True)
        cases.append((rows, len(rows[0])))
    for n in range(2, 12):
        cases.append((_arrow(n, rng), n))
        cases.append((_arrow(n, rng, singular=True), n))
        cases.append((_arrow(n, rng, tail=True), n + 2))
    return cases


def _dense(nums, den, cols):
    return tuple(Fraction(nums.get(c, 0), den) for c in range(cols))


def test_kernel_and_rank_match_dense_oracle():
    cases = _oracle_cases()
    assert len(cases) >= 200
    for rows, cols in cases:
        m = from_rows(rows)
        want_rank, want_basis, want_free = _oracle(rows, cols)
        basis, free = kernel_basis_with_free(m)
        assert free == want_free, rows
        assert [_dense(nums, den, cols) for nums, den in basis] == want_basis, rows
        for (nums, den), f in zip(basis, free):
            # primitive integer numerators in column order, positive at the anchor
            assert all(type(v) is int and v for v in nums.values())
            assert list(nums) == sorted(nums)
            assert nums[f] == den > 0 and math.gcd(*nums.values()) == 1
        assert kernel_basis(m) == want_basis
        assert rank(m) == want_rank


def test_arrow_matrix_pivots_out_of_column_order():
    # A tail column has one entry, so column 8 is pivoted first, taking the
    # dense first row; the diagonal columns follow, and the dense first
    # column, in every row, comes last.  That leaves columns 7 and 9 over,
    # but the kernel must anchor at columns 8 and 9, the ones dependent on
    # the columns to their left.
    rows = _arrow(8, random.Random(3), tail=True)
    m = from_rows(rows)
    assert [c for c, _ in _eliminate(_int_rows(m))] == [8, 1, 2, 3, 4, 5, 6, 0]
    _, want_basis, want_free = _oracle(rows, 10)
    assert want_free == [8, 9]
    assert kernel_basis_with_free(m)[1] == want_free
    assert kernel_basis(m) == want_basis
