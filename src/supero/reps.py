"""Finite-dimensional modules with exact action matrices.

A Representation stores one action matrix per basis element of its algebra.
All constructions (duals, graded tensor products, super exterior and
symmetric powers, restrictions) produce exact matrices.

The normal form of the super exterior power sorts the factors of a
monomial by rank, parity * n + index (``_ranks``), so even factors precede
odd ones and only odd ones repeat.  A factor x goes in at the bisect of its
rank among the ranks of a monomial w: x ^ w is (-1)^pos times the result
for even x, at position pos (zero when x is already in w), and
(-1)^(even factors of w) times it for odd x, which passes every even
factor and commutes with the odd ones.  The action rows
(``derivation_rows``) and the cochain engine's differential read their
signs from this one rule.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from typing import Iterable, Iterator, Sequence

from .algebras import EVEN, ODD, LieSuperalgebra, SubalgebraSpan, even_part_span
from .errors import (
    AlgebraMismatch,
    DecompositionError,
    DimensionMismatch,
    UnsupportedModule,
)
from .linalg import Scalar, SparseMatrix, _add_scaled


class Representation:
    """Module over a Lie superalgebra, given by exact action matrices.

    ``actions[i]`` is the matrix of the algebra basis vector b_i; columns
    index module basis vectors.
    """

    __slots__ = ("algebra", "name", "parities", "actions")

    def __init__(
        self,
        algebra: LieSuperalgebra,
        name: str,
        parities: Sequence[int],
        actions: Sequence[SparseMatrix],
    ):
        if len(actions) != algebra.dim:
            raise DimensionMismatch("one action matrix per algebra basis element required")
        dim = len(parities)
        for a in actions:
            if (a.rows, a.cols) != (dim, dim):
                raise DimensionMismatch("action matrix shape mismatch")
        self.algebra = algebra
        self.name = name
        self.parities = tuple(int(p) for p in parities)
        self.actions = tuple(actions)

    @property
    def dim(self) -> int:
        return len(self.parities)

    def action_of_vector(self, coords: Sequence[Scalar]) -> SparseMatrix:
        """Action matrix of an arbitrary algebra element."""
        if len(coords) != self.algebra.dim:
            raise DimensionMismatch("coordinate length mismatch")
        acc: dict[tuple[int, int], Scalar] = {}
        for i, c in enumerate(coords):
            if c:
                _add_scaled(acc, (((r, cc), v) for r, cc, v in self.actions[i].entries()), c)
        return SparseMatrix(self.dim, self.dim, ((r, c, v) for (r, c), v in acc.items()))

    def __repr__(self) -> str:
        return f"Representation({self.name!r} over {self.algebra.name}, dim={self.dim})"


def trivial(g: LieSuperalgebra) -> Representation:
    zero = SparseMatrix(1, 1)
    return Representation(g, "trivial", (EVEN,), tuple(zero for _ in range(g.dim)))


def adjoint(g: LieSuperalgebra) -> Representation:
    return Representation(g, "adjoint", g.parities, tuple(g.ad_matrix(i) for i in range(g.dim)))


def natural(g: LieSuperalgebra) -> Representation:
    """Defining module of a matrix family (unavailable on abstract algebras)."""
    if g.matrix_model is None:
        raise UnsupportedModule(f"{g.name} carries no matrix realization")
    size, model_parities, mats = g.matrix_model
    actions = []
    for mat in mats:
        actions.append(SparseMatrix(size, size, ((a, b, v) for (a, b), v in mat.items())))
    return Representation(g, "natural", model_parities, tuple(actions))


def dual(r: Representation) -> Representation:
    """Dual module with (x.f)(v) = -(-1)^{|x||f|} f(x.v).

    With this convention the double dual equals the original under the
    parity-signed canonical identification (verified by test, since the
    sign convention is a choice).
    """
    g = r.algebra
    actions = []
    for i in range(g.dim):
        entries = []
        for row, col, v in r.actions[i].entries():
            # action on the dual basis: x.f_row = -(-1)^{|x||f_row|} v f_col
            entries.append((col, row, v if (g.parities[i] * r.parities[row]) % 2 else -v))
        actions.append(SparseMatrix(r.dim, r.dim, entries))
    return Representation(g, f"dual({r.name})", r.parities, tuple(actions))


def tensor(r: Representation, s: Representation) -> Representation:
    """Graded tensor product: x.(v (x) w) = xv (x) w + (-1)^{|x||v|} v (x) xw."""
    if r.algebra is not s.algebra:
        raise AlgebraMismatch("tensor factors live over different algebras")
    g = r.algebra
    dim = r.dim * s.dim

    def idx(a: int, b: int) -> int:
        return a * s.dim + b

    parities = tuple((r.parities[a] + s.parities[b]) % 2 for a in range(r.dim) for b in range(s.dim))
    actions = []
    for i in range(g.dim):
        acc: dict[tuple[int, int], Scalar] = {}
        for row, col, v in r.actions[i].entries():
            _add_scaled(acc, (((idx(row, b), idx(col, b)), v) for b in range(s.dim)))
        for row, col, v in s.actions[i].entries():
            _add_scaled(
                acc,
                (((idx(a, row), idx(a, col)), -v if (g.parities[i] * r.parities[a]) % 2 else v)
                 for a in range(r.dim)),
            )
        actions.append(SparseMatrix(dim, dim, ((a, b, v) for (a, b), v in acc.items())))
    return Representation(g, f"{r.name}(x){s.name}", parities, tuple(actions))


# ---------------------------------------------------------------------------
# super exterior monomials


def _ranks(parities: Sequence[int]) -> list[int]:
    """The rank of each factor in the normal form: parity * n + index, so
    the even factors, of rank below n, sort before the odd ones."""
    n = len(parities)
    return [par * n + x for x, par in enumerate(parities)]


def monomial_steps(parities: Sequence[int], monos: Iterable[tuple]) -> Iterator[Sequence[int]]:
    """For each normal-form monomial, the factors x that may follow it.

    x may follow the last factor y when x ranks above y or x = y is odd,
    and any x may start a monomial.  Each list ascends by index, so
    monomials in lexicographic order extend to monomials in that order."""
    rank = _ranks(parities)
    after = [[x for x, rx in enumerate(rank) if rx > ry or (x == y and parities[y] == ODD)]
             for y, ry in enumerate(rank)]
    return (after[mo[-1]] if mo else range(len(rank)) for mo in monos)


def super_monomials(parities: Sequence[int], p: int) -> list[tuple[int, ...]]:
    """Normal-form monomials of the super p-th exterior power, in
    lexicographic order, each degree extending the one below.

    Even indices appear at most once; odd indices repeat freely.  Normal
    form sorts by rank (``_ranks``): even factors first, each block ascending.
    """
    monos: list[tuple[int, ...]] = [()]
    for _ in range(p):
        monos = [mo + (x,) for mo, xs in zip(monos, monomial_steps(parities, monos)) for x in xs]
    return monos


def super_monomial_count(a: int, b: int, p: int) -> int:
    """Closed-form dimension: sum_k C(a,k) C(b+p-k-1, p-k), where the
    second factor (multisets of size p-k from b odd directions) is 1 at k = p."""
    total = 0
    for k in range(min(a, p) + 1):
        j = p - k
        total += math.comb(a, k) * (math.comb(b + j - 1, j) if j else 1)
    return total


def derivation_rows(
    cols: Sequence[dict[int, Scalar]],
    parities: Sequence[int],
    monos: Sequence[tuple[int, ...]],
    index: dict[tuple[int, ...], int],
    sources: Iterable[int],
) -> dict[int, dict[int, Scalar]]:
    """Derivation action of one algebra element on normal-form monomials.

    ``cols[y]`` is x.y for a module basis vector y, and ``index`` maps each
    monomial of ``monos`` to its position.  Only the monomials at the
    positions ``sources`` (ascending) are acted on.  Row t2 of the result
    maps each such t to the coefficient of monos[t2] in

    x.(y_1 ^ ... ^ y_p) = sum_i (-1)^{|x|(|y_1|+...+|y_{i-1}|)}
                          y_1 ^ ... ^ (x.y_i) ^ ... ^ y_p;

    rows that no source reaches are absent.  Pulling y_i out to the front
    and the derivation lead combine into (-1)^i for even y_i and
    (-1)^(even factors) for odd y_i, the |x| dependence cancelling, and
    x.y_i goes back in by the insertion rule of the module docstring.
    Each run of equal factors is walked once: the m copies of an odd y give
    m equal terms, since they leave the same rest, so the run's terms are
    inserted once and scaled by m.
    """
    rank = _ranks(parities)
    key = rank.__getitem__
    rows: dict[int, dict[int, Scalar]] = {}
    for t in sources:
        mo = monos[t]
        even = len(mo) - sum(map(parities.__getitem__, mo))
        terms = []
        i = 0
        for y in dict.fromkeys(mo):  # normal form keeps the copies of y together
            py = parities[y]
            m = mo.count(y) if py else 1
            col = cols[y]
            if col:
                pull = even if py else i
                rest = mo[:i] + mo[i + 1 :]
                for y2, coef in col.items():
                    j = bisect_left(rest, rank[y2], key=key)
                    if parities[y2]:  # passes the even factors of rest
                        sign = pull + even - 1 + py
                    elif j < len(rest) and rest[j] == y2:  # y2 ^ y2 = 0
                        continue
                    else:  # passes the j even factors before it
                        sign = pull + j
                    if m != 1:
                        coef *= m
                    terms.append((index[rest[:j] + (y2,) + rest[j:]], -coef if sign % 2 else coef))
            i += m
        for t2, v in _add_scaled({}, terms).items():
            rows.setdefault(t2, {})[t] = v
    return rows


def super_exterior_power(r: Representation, p: int) -> Representation:
    """Super p-th exterior power with the derivation action (``derivation_rows``)."""
    if p < 0:
        raise DimensionMismatch("negative exterior degree")
    monos = super_monomials(r.parities, p)
    index = {mo: t for t, mo in enumerate(monos)}
    parities = tuple(sum(r.parities[y] for y in mo) % 2 for mo in monos)
    actions = []
    for a in r.actions:
        rows = derivation_rows(a.col_dicts(), r.parities, monos, index, range(len(monos)))
        actions.append(
            SparseMatrix(
                len(monos), len(monos),
                ((t2, t, v) for t2 in sorted(rows) for t, v in rows[t2].items()),
            )
        )
    return Representation(r.algebra, f"L^{p}_s({r.name})", parities, tuple(actions))


def super_symmetric_power(r: Representation, j: int) -> Representation:
    """Ordinary symmetric power of a single-parity module, viewed as even.

    Used for polynomial functions on the odd part: the input must be
    concentrated in one parity so no Koszul signs arise (the acting algebra
    vectors are even).  Each distinct factor y of a monomial is walked
    once: its m copies leave the same rest, so they give m equal terms,
    added as one scaled by m.  With one parity the normal form sorts by
    index, so x.y goes back in at the bisect of its index.
    """
    if j < 0:
        raise DimensionMismatch("negative symmetric degree")
    if len(set(r.parities)) > 1:
        raise UnsupportedModule("super_symmetric_power needs a single-parity module")
    g = r.algebra
    monos = list(itertools.combinations_with_replacement(range(r.dim), j))
    index = {mo: t for t, mo in enumerate(monos)}
    action_cols = [a.col_dicts() for a in r.actions]
    actions = []
    for gi in range(g.dim):
        cols = action_cols[gi]
        acc: dict[tuple[int, int], Scalar] = {}
        for t, mo in enumerate(monos):
            for y in dict.fromkeys(mo):
                i = mo.index(y)
                rest = mo[:i] + mo[i + 1 :]
                _add_scaled(
                    acc,
                    (((index[rest[:k] + (y2,) + rest[k:]], t), coef)
                     for y2, coef in cols[y].items() for k in (bisect_left(rest, y2),)),
                    mo.count(y),
                )
        actions.append(
            SparseMatrix(len(monos), len(monos), ((a, b, v) for (a, b), v in acc.items()))
        )
    return Representation(g, f"S^{j}({r.name})", tuple(EVEN for _ in monos), tuple(actions))


def restrict(r: Representation, h: SubalgebraSpan) -> Representation:
    """Action matrices of the span vectors (must be bracket-closed)."""
    if h.parent is not r.algebra:
        raise AlgebraMismatch("span does not belong to the module's algebra")
    algebra = h.to_algebra()  # raises NotASubalgebra unless h is bracket-closed
    actions = tuple(r.action_of_vector(vec) for vec in h.vectors)
    return Representation(algebra, f"{r.name}|{h.label}", r.parities, actions)


def weight_decomposition(r: Representation) -> dict[tuple[Scalar, ...], tuple[int, int]]:
    """Simultaneous eigenspace dimensions under the torus, split by parity.

    Requires every torus action matrix to be diagonal in the module basis
    (true for all constructions in this package).
    """
    diag = []
    for t in r.algebra.torus:
        a = r.actions[t]
        if not a.is_diagonal():
            raise DecompositionError(f"torus element {t} does not act diagonally on {r.name}")
        diag.append([a.entry(v, v) for v in range(r.dim)])
    out: dict[tuple[Scalar, ...], list[int]] = {}
    for v in range(r.dim):
        w = tuple(d[v] for d in diag)
        slot = out.setdefault(w, [0, 0])
        slot[r.parities[v]] += 1
    return {w: (e, o) for w, (e, o) in out.items()}


def odd_part_module(g: LieSuperalgebra) -> Representation:
    """The odd part of g as a module over the even-part subalgebra."""
    h = even_part_span(g)
    odd = g.odd_indices
    pos = {o: t for t, o in enumerate(odd)}
    actions = []
    for vec in h.vectors:
        (i,) = [k for k, v in enumerate(vec) if v]  # unit vectors by construction
        entries = []
        for t, o in enumerate(odd):
            for k, v in g.bracket_basis(i, o):
                entries.append((pos[k], t, v))
        actions.append(SparseMatrix(len(odd), len(odd), entries))
    parities = tuple(g.parities[o] for o in odd)
    return Representation(h.to_algebra(), f"{g.name}_odd", parities, tuple(actions))
