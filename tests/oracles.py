"""Matrix oracles for the tests, on the entries of a ``SparseMatrix``
(a container with no product or sum of its own)."""

from supero.linalg import SparseMatrix


def _combination(terms) -> dict:
    """Σ scale·a·b over (scale, a, b) terms, as a {(row, col): value} dict
    without zeros."""
    acc = {}
    for scale, a, b in terms:
        by_row = {}
        for k, c, w in b.entries():
            by_row.setdefault(k, []).append((c, w))
        for r, k, v in a.entries():
            for c, w in by_row.get(k, ()):
                acc[r, c] = acc.get((r, c), 0) + scale * v * w
    return {k: v for k, v in acc.items() if v}


def matmul(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """The product a·b."""
    entries = ((r, c, v) for (r, c), v in _combination([(1, a, b)]).items())
    return SparseMatrix(a.rows, b.cols, entries)


def verify_representation(r) -> tuple[bool, tuple[int, int] | None]:
    """Exact super-homomorphism and parity-consistency check.

    action([x,y]) = action(x)action(y) - (-1)^{|x||y|} action(y)action(x)
    on all homogeneous basis pairs; actions shift module parity by |x|.
    Returns (True, None), or False and the first failing pair (i, j); a
    wrong parity shift of b_i fails as (i, i).
    """
    g = r.algebra
    one = SparseMatrix(r.dim, r.dim, ((v, v, 1) for v in range(r.dim)))
    for i in range(g.dim):
        for row, col, _ in r.actions[i].entries():
            if (r.parities[row] - r.parities[col]) % 2 != g.parities[i] % 2:
                return False, (i, i)
    for i, ai in enumerate(r.actions):
        for j, aj in enumerate(r.actions):
            sign = 1 if (g.parities[i] * g.parities[j]) % 2 else -1
            lhs = _combination([(1, ai, aj), (sign, aj, ai)])
            rhs = _combination((c, r.actions[k], one) for k, c in g.bracket_basis(i, j))
            if lhs != rhs:
                return False, (i, j)
    return True, None
