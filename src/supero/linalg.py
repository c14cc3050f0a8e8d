"""Exact sparse linear algebra over the rationals.

Everything downstream (root decompositions, equivariant cochain bases,
differential ranks) reduces to kernels and ranks of sparse matrices with
rational entries.  Ranks and kernels are computed by fraction-free
elimination (Bareiss 1968) on integer-scaled rows: each row is multiplied
by the lcm of its denominators, and after every combination step the row
is divided by the gcd of its entries.  This keeps intermediate entries
small without ever leaving exact arithmetic.

One routine, ``_eliminate``, does the forward elimination for both rank
and kernel.  It pivots in a fill-reducing order after Markowitz (1957):
the next pivot column is the one with the fewest active rows, its pivot
row the holder with the fewest nonzeros, ties going to the lower index.
The order is a pure function of the matrix, so results are reproducible.

The kernel basis does not depend on that order.  Its free columns F are
the columns not in the span of the columns to their left (the complement
of the leftmost independent columns, whichever rows pivot), and basis
vector f is the unique kernel vector that is 1 at f and 0 at every other
free column.  ``kernel_basis_with_free`` back-substitutes Gauss-Jordan
style over the pivot rows to get a basis anchored at the pivot order's own
free columns, then, only if those differ from F, reduces that small
nullity x cols basis from the rightmost column leftwards, which recovers F
and the normalised vectors.  Both steps stay in integers, one denominator
per vector.

Rank and kernel read a matrix as its row dicts and column count.  Every
solve in the package hands them its rows as a ``RowMatrix``; a
``SparseMatrix`` is what a caller reads back (a module's actions,
``RelativeComplex.differential``), and rank and kernel read it by
``row_dicts``.
``_int_rows`` scales only the rows holding a ``Fraction``, so integer rows
go to the elimination as they came.  A ``RowMatrix`` may hold integral
``Fraction``s (products and sums of ``Fraction``s made on the way), the
one input here not held to the convention below; ``_int_rows`` turns them
into ``int``s with the rest of their row.

This module owns the package's one scalar convention: a value is an
``int`` when its denominator is 1 and a ``Fraction`` otherwise.  The
helper ``_exact`` applies it, and every value that leaves this module in
a ``SparseMatrix`` or a sparse ``SpanSolver`` residual or coordinate
follows it.  So an integral entry is stored as the
``int`` it already is, and the integral bulk of the arithmetic downstream
never builds a ``Fraction``.

The convention holds in every module, and no other module decides it.
Elsewhere integral constants are written as ``int``s, and ``_exact`` is
applied in two places only: once where outside input enters (parsed
``--H`` values, span files and algebra JSON; the vectors, functionals and
targets callers pass to the public functions), and to a result of
``Fraction`` arithmetic that may come out integral before it is returned
(``roots.pair``, ``checks.GradingTorus.pair``).
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import DimensionMismatch

Scalar = int | Fraction  # int whenever the denominator is 1 (see ``_exact``)
Vector = tuple[Scalar, ...]
KernelVector = tuple[dict[int, int], int]  # (integer numerators, denominator)


def _exact(v) -> Scalar:
    """``v`` under the scalar convention: an ``int`` when its denominator
    is 1, else a ``Fraction``.  An ``int`` is returned as is."""
    if type(v) is int:
        return v
    if type(v) is not Fraction:
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def _add_scaled(acc: dict, items: Iterable[tuple], scale=1) -> dict:
    """Add ``scale * v`` to ``acc[k]`` for every (k, v) in ``items``.

    Entries that sum to zero are deleted, so ``acc`` never stores a zero;
    a key keeps its insertion position while its value stays nonzero.
    Returns ``acc``.
    """
    if scale != 1:  # multiplying a Fraction by 1 costs as much as any product
        items = ((k, scale * v) for k, v in items)
    for k, v in items:
        old = acc.get(k)
        if old is None:
            if v:
                acc[k] = v
        else:
            v = old + v
            if v:
                acc[k] = v
            else:
                del acc[k]
    return acc


def _dict_matmul(a: dict[tuple[int, int], Scalar], b: dict[tuple[int, int], Scalar]) -> dict:
    """Product of two matrices given as {(row, col): value} dicts, without zeros."""
    by_row: dict[int, list[tuple[int, Scalar]]] = {}
    for (r, c), v in b.items():
        by_row.setdefault(r, []).append((c, v))
    out: dict[tuple[int, int], Scalar] = {}
    for (r, k), v in a.items():
        _add_scaled(out, (((r, c), w) for c, w in by_row.get(k, ())), v)
    return out


class SparseMatrix:
    """Immutable sparse matrix over Q.

    A container, not an algebra: it is built once and read back as entries
    or as row and column dicts.  Entries are stored as a dict keyed by
    (row, col), each value under the scalar convention (``_exact``); zeros
    are never stored and duplicate positions are rejected.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, entries: Iterable[tuple[int, int, Scalar]] = ()):
        if rows < 0 or cols < 0:
            raise DimensionMismatch(f"negative shape {rows}x{cols}")
        data: dict[tuple[int, int], Scalar] = {}
        for r, c, v in entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise DimensionMismatch(f"entry ({r},{c}) outside {rows}x{cols}")
            if (r, c) in data:
                raise DimensionMismatch(f"duplicate entry at ({r},{c})")
            v = _exact(v)
            if v:
                data[r, c] = v
        self.rows = rows
        self.cols = cols
        self._data = data

    def entry(self, r: int, c: int) -> Scalar:
        return self._data.get((r, c), 0)

    def entries(self) -> Iterator[tuple[int, int, Scalar]]:
        for (r, c) in sorted(self._data):
            yield r, c, self._data[r, c]

    @property
    def nnz(self) -> int:
        return len(self._data)

    def is_diagonal(self) -> bool:
        return all(r == c for (r, c) in self._data)

    def row_dicts(self) -> list[dict[int, Scalar]]:
        out: list[dict[int, Scalar]] = [dict() for _ in range(self.rows)]
        for (r, c), v in self._data.items():
            out[r][c] = v
        return out

    def col_dicts(self) -> list[dict[int, Scalar]]:
        out: list[dict[int, Scalar]] = [dict() for _ in range(self.cols)]
        for (r, c), v in self._data.items():
            out[c][r] = v
        return out

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


class RowMatrix:
    """A matrix given as its row dicts {col: value} and a column count: the
    form ``rank`` and ``kernel_basis_with_free`` read (``SparseMatrix``
    hands it out by ``row_dicts``), built by a caller that has the rows at
    hand.  Values are ``int``s or ``Fraction``s, integral ones allowed, and
    no dict stores a zero.  The solve consumes the dicts, so a ``RowMatrix``
    serves one call.  ``rows``, ``cols`` and ``nnz`` read as a
    ``SparseMatrix``'s do, for a profiler looking at the call.
    """

    __slots__ = ("rows", "cols", "nnz", "_dicts")

    def __init__(self, dicts: list[dict[int, Scalar]], cols: int):
        self._dicts = dicts
        self.rows = len(dicts)
        self.cols = cols
        self.nnz = sum(map(len, dicts))

    def row_dicts(self) -> list[dict[int, Scalar]]:
        return self._dicts


def _int_rows(m: SparseMatrix | RowMatrix) -> list[dict[int, int]]:
    """Scale each nonzero row to primitive integer entries (kernel and rank
    are unchanged).

    Only a row holding a ``Fraction`` is scaled, by the lcm of its
    denominators, which also turns an integral ``Fraction`` into its
    ``int``: ``math.gcd`` takes ``int``s only, and raises on any
    ``Fraction``, ``Fraction(2, 1)`` too.  A row needing no change is
    passed on as it is.
    """
    out = []
    for row in m.row_dicts():
        if not row:
            continue
        try:
            g = math.gcd(*row.values())
        except TypeError:  # the row holds a Fraction
            scale = math.lcm(*(v.denominator for v in row.values()))
            row = {c: v.numerator * (scale // v.denominator) for c, v in row.items()}
            g = math.gcd(*row.values())
        if g > 1:
            row = {c: v // g for c, v in row.items()}
        out.append(row)
    return out


def _cancel(row: dict[int, int], pivot: dict[int, int], c: int) -> None:
    """Replace ``row``, in place, by the primitive integer combination of
    ``row`` and ``pivot`` that is 0 at column c."""
    a, b = pivot[c], row[c]
    g = math.gcd(a, b) if a > 0 else -math.gcd(a, b)
    a, b = a // g, b // g  # a > 0, so a row is scaled only when |a| > 1
    if a != 1:
        for k in row:
            row[k] *= a
    get = row.get
    for k, v in pivot.items():
        w = get(k, 0) - b * v
        if w:
            row[k] = w
        else:  # b * v != 0, so k was present
            del row[k]
    if row:
        g = math.gcd(*row.values())
        if g > 1:
            for k in row:
                row[k] //= g


def _eliminate(rows: list[dict[int, int]]) -> list[tuple[int, dict[int, int]]]:
    """Fraction-free forward elimination in a fill-reducing (Markowitz) order.

    The next pivot column is an active column with the fewest active rows,
    and its pivot row is the holder with the fewest nonzeros; ties go to
    the lower index.  Returns (pivot column, pivot row) pairs in pivot
    order; a pivot row holds no earlier pivot column.  Input rows are
    consumed destructively.
    """
    # col -> set of active row ids having a nonzero entry there
    occupancy: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for c in row:
            occupancy.setdefault(c, set()).add(i)
    # (active count, col); an entry is stale once its count no longer matches
    heap = [(len(ids), c) for c, ids in occupancy.items()]
    heapq.heapify(heap)
    pivots: list[tuple[int, dict[int, int]]] = []
    while heap:
        n, c = heapq.heappop(heap)
        holders = occupancy.get(c)
        if holders is None or len(holders) != n:
            continue
        del occupancy[c]
        pivot_id = min(holders, key=lambda i: (len(rows[i]), i))
        pivot = rows[pivot_id]
        holders.discard(pivot_id)
        p = pivot[c]
        rest = [(k, v) for k, v in pivot.items() if k != c]
        for k, _ in rest:
            occupancy[k].discard(pivot_id)
        # _cancel on every holder, inlined (this is the hot loop of every
        # solve) to keep occupancy current as entries appear and cancel
        for rid in holders:
            row = rows[rid]
            b = row.pop(c)
            g = math.gcd(p, b) if p > 0 else -math.gcd(p, b)
            a, b = p // g, b // g
            if a != 1:
                for k in row:
                    row[k] *= a
            get = row.get
            for k, v in rest:
                w = get(k)
                if w is None:
                    row[k] = -b * v
                    occupancy[k].add(rid)
                else:
                    w -= b * v
                    if w:
                        row[k] = w
                    else:
                        del row[k]
                        occupancy[k].discard(rid)
            if row:
                g = math.gcd(*row.values())
                if g > 1:
                    for k in row:
                        row[k] //= g
        for k, _ in rest:
            ids = occupancy[k]
            if ids:
                heapq.heappush(heap, (len(ids), k))
            else:
                del occupancy[k]
        pivots.append((c, pivot))
    return pivots


def _reduce_from_right(rows: list[dict[int, int]]) -> list[dict[int, int]]:
    """Primitive integer rows of the reduced echelon form of independent
    ``rows``, taking each lead at the rightmost column still possible.

    Row i of the result is 0 at every other row's lead column, and its
    entry at its own lead is positive.  Rows come sorted by lead.  Input
    rows are consumed destructively.
    """
    pending = set(range(len(rows)))
    tops = {i: max(row) for i, row in enumerate(rows)}
    leads: dict[int, int] = {}
    while pending:
        i = max(pending, key=lambda j: (tops[j], -j))
        pending.discard(i)
        c = tops[i]
        leads[c] = i
        prow = rows[i]
        for j, row in enumerate(rows):
            if j != i and c in row:
                _cancel(row, prow, c)
                if j in pending:
                    tops[j] = max(row)
    out = []
    for c in sorted(leads):
        row = rows[leads[c]]
        if row[c] < 0:
            row = {k: -v for k, v in row.items()}
        out.append(row)
    return out


def rank(m: SparseMatrix | RowMatrix) -> int:
    """Rank over Q, computed exactly."""
    return len(_eliminate(_int_rows(m)))


def kernel_basis_with_free(m: SparseMatrix | RowMatrix) -> tuple[list[KernelVector], list[int]]:
    """Kernel basis plus the free columns anchoring it.

    One implementation for both forms: it reads only ``m.row_dicts()``
    and ``m.cols``.

    The free columns are those not in the span of the columns to their
    left.  Basis vector i has entry 1 at free column i and entry 0 at every
    other free column, so expanding a kernel element in this basis amounts
    to reading its values at the free columns.  Vector i comes as
    (numerators, denominator): its primitive integer multiple as a sparse
    dict in ascending column order, and that multiple's entry at free
    column i, which is positive.
    """
    pivots = _eliminate(_int_rows(m))
    # Gauss-Jordan: leave each pivot row with its pivot and free columns only
    reduced: dict[int, dict[int, int]] = {}
    for c, row in reversed(pivots):
        for k in [k for k in row if k in reduced]:
            _cancel(row, reduced[k], k)
        reduced[c] = row
    # pivot c of the kernel vector anchored at free column f is -row[f]/row[c]
    entries: dict[int, list[tuple[int, int, int]]] = {}
    for c, row in reduced.items():
        a = row[c]
        for f, v in row.items():
            if f != c:
                entries.setdefault(f, []).append((c, v, a))
    vectors = []
    canonical = True
    for f in range(m.cols):
        if f in reduced:
            continue
        terms = entries.get(f, ())
        den = math.lcm(*(a // math.gcd(v, a) for _, v, a in terms)) if terms else 1
        vec = {c: (-v * den) // a for c, v, a in terms}
        vec[f] = den
        g = math.gcd(*vec.values())
        if g > 1:
            vec = {k: v // g for k, v in vec.items()}
        # the pivot order may anchor at other columns than the leftmost
        # independent ones; a vector reaching right of its anchor shows it
        canonical = canonical and all(c < f for c, _, _ in terms)
        vectors.append(vec)
    if not canonical:
        vectors = _reduce_from_right(vectors)
    basis = []
    free_cols = []
    for vec in vectors:
        f = max(vec)
        free_cols.append(f)
        basis.append((dict(sorted(vec.items())), vec[f]))
    return basis, free_cols


class SpanSolver:
    """Row echelon form of a list of sparse vectors, for membership and coordinates.

    Vectors are dicts {index: value} holding no zero value.  Each row is
    stored with its lead column and normalized to 1 there; pivot columns
    are deterministic (leftmost possible, rows processed in input order).
    The form is not reduced: a row may be nonzero at the lead of a later
    row.  ``reduce`` walks the rows in lead order, so its results do not
    depend on that.  Used for subalgebra spans: ``reduce`` splits an
    ambient vector into its component inside the span and a residual
    supported on the non-pivot columns.
    """

    def __init__(self, vectors: Sequence[dict[int, Scalar]]):
        # (lead, row, combination of input vectors producing it), by lead
        rows: list[tuple[int, dict[int, Scalar], dict[int, Scalar]]] = []
        for idx, vec in enumerate(vectors):
            row, comb = self._eliminate(rows, dict(vec), {idx: 1}, -1)
            if row:
                lead = min(row)
                c = row[lead]
                if c != 1:
                    row = {k: _exact(Fraction(v, c)) for k, v in row.items()}
                    comb = {k: _exact(Fraction(v, c)) for k, v in comb.items()}
                rows.append((lead, row, comb))
                rows.sort(key=lambda r: r[0])
        self._rows = rows
        self.pivot_cols = [lead for lead, _, _ in rows]
        self.rank = len(rows)

    @staticmethod
    def _eliminate(rows, row: dict[int, Scalar], comb: dict[int, Scalar], sign: int):
        """Clear the lead column of every row in ``rows``, in lead order, from ``row``.

        Each step subtracts coef * (pivot row) from ``row`` and adds
        sign * coef * (its input combination) to ``comb``.  Both results
        come back under the scalar convention.
        """
        for lead, prow, pcomb in rows:
            coef = row.get(lead)
            if coef:
                _add_scaled(row, prow.items(), -coef)
                _add_scaled(comb, pcomb.items(), sign * coef)
        return {k: _exact(v) for k, v in row.items()}, {k: _exact(v) for k, v in comb.items()}

    def reduce(self, vec: dict[int, Scalar]) -> tuple[dict[int, Scalar], dict[int, Scalar]]:
        """Split the sparse ``vec`` = (span part) + residual.

        Returns (residual, coordinates of the span part in terms of the
        input vectors), both sparse; ``vec`` is zero-free and not modified.
        """
        return self._eliminate(self._rows, dict(vec), {}, 1)
