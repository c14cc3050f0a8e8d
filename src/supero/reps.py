"""Finite-dimensional modules with exact action matrices.

A Representation stores one action matrix per basis element of its algebra.
All constructions (duals, graded tensor products, super exterior and
symmetric powers, restrictions) produce exact matrices; Koszul signs follow
the left-derivation convention fixed in ``wedge_insert``, and the super
exterior power takes its action from ``derivation_rows``, which the
cochain engine also calls directly.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .algebras import EVEN, ODD, LieSuperalgebra, SubalgebraSpan
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
    index module basis vectors.  ``basis_labels`` keeps human-readable (or
    structured, e.g. monomial tuples) names for the module basis.
    """

    __slots__ = ("algebra", "name", "parities", "actions", "basis_labels")

    def __init__(
        self,
        algebra: LieSuperalgebra,
        name: str,
        parities: Sequence[int],
        actions: Sequence[SparseMatrix],
        basis_labels: Sequence | None = None,
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
        self.basis_labels = tuple(basis_labels) if basis_labels is not None else tuple(
            f"v{i}" for i in range(dim)
        )

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
    return Representation(g, "trivial", (EVEN,), tuple(zero for _ in range(g.dim)), ("1",))


def adjoint(g: LieSuperalgebra) -> Representation:
    return Representation(
        g, "adjoint", g.parities, tuple(g.ad_matrix(i) for i in range(g.dim)), g.basis_labels
    )


def natural(g: LieSuperalgebra) -> Representation:
    """Defining module of a matrix family (unavailable on abstract algebras)."""
    if g.matrix_model is None:
        raise UnsupportedModule(f"{g.name} carries no matrix realization")
    size, model_parities, mats = g.matrix_model
    actions = []
    for mat in mats:
        actions.append(SparseMatrix(size, size, ((a, b, v) for (a, b), v in mat.items())))
    labels = tuple(f"u{a + 1}" for a in range(size))
    return Representation(g, "natural", model_parities, tuple(actions), labels)


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
    labels = tuple(f"{lab}*" for lab in r.basis_labels)
    return Representation(g, f"dual({r.name})", r.parities, tuple(actions), labels)


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
    labels = tuple(
        f"{la}(x){lb}" for la in r.basis_labels for lb in s.basis_labels
    )
    return Representation(g, f"{r.name}(x){s.name}", parities, tuple(actions), labels)


# ---------------------------------------------------------------------------
# super exterior monomials


def super_monomials(parities: Sequence[int], p: int) -> list[tuple[int, ...]]:
    """Normal-form monomials of the super p-th exterior power.

    Even indices appear at most once; odd indices repeat freely.  Normal
    form sorts by (parity, index): even factors first, each block ascending.
    """
    evens = [i for i, q in enumerate(parities) if q == EVEN]
    odds = [i for i, q in enumerate(parities) if q == ODD]
    out: list[tuple[int, ...]] = []
    for k in range(min(p, len(evens)), -1, -1):
        for ev in itertools.combinations(evens, k):
            for od in itertools.combinations_with_replacement(odds, p - k):
                out.append(ev + od)
    out.sort()
    return out


def super_monomial_count(a: int, b: int, p: int) -> int:
    """Closed-form dimension: sum_k C(a,k) C(b+p-k-1, p-k), where the
    second factor (multisets of size p-k from b odd directions) is 1 at k = p."""
    import math as _math

    total = 0
    for k in range(min(a, p) + 1):
        j = p - k
        total += _math.comb(a, k) * (_math.comb(b + j - 1, j) if j else 1)
    return total


def wedge_insert(
    x: int, mono: tuple[int, ...], parities: Sequence[int]
) -> tuple[int, tuple[int, ...]] | None:
    """Insert a factor into a normal-form monomial.

    Returns (sign, monomial) or None when the product vanishes (repeated
    even factor).  Moving x past a factor y flips the sign unless both are
    odd, in which case they commute.
    """
    px = parities[x]
    key = (px, x)
    sign = 1
    pos = 0
    for i, y in enumerate(mono):
        ky = (parities[y], y)
        if ky < key:
            if not (px == ODD and parities[y] == ODD):
                sign = -sign
            pos = i + 1
        else:
            break
    if px == EVEN and pos < len(mono) and mono[pos] == x:
        return None
    return sign, mono[:pos] + (x,) + mono[pos:]


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

    rows that no source reaches are absent.
    """
    rows: dict[int, dict[int, Scalar]] = {}
    for t in sources:
        mo = monos[t]
        terms = []
        prefix = 0
        for i, y in enumerate(mo):
            col = cols[y]
            if col:
                # replace y by x.y at slot i, then pull the replacement to the
                # front: the derivation lead (-1)^{|x| prefix} combines with the
                # pull-out permutation sign into (-1)^i (-1)^{|y| prefix}
                # (the |x| dependence cancels exactly)
                pull = -1 if (i + parities[y] * prefix) % 2 else 1
                rest = mo[:i] + mo[i + 1 :]
                for y2, coef in col.items():
                    ins = wedge_insert(y2, rest, parities)
                    if ins is not None:
                        sgn, mo2 = ins
                        terms.append((index[mo2], coef if sgn == pull else -coef))
            prefix += parities[y]
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
    # basis labels are the monomial tuples themselves
    return Representation(r.algebra, f"L^{p}_s({r.name})", parities, tuple(actions), monos)


def super_symmetric_power(r: Representation, j: int) -> Representation:
    """Ordinary symmetric power of a single-parity module, viewed as even.

    Used for polynomial functions on the odd part: the input must be
    concentrated in one parity so no Koszul signs arise (the acting algebra
    vectors are even).
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
            for i, y in enumerate(mo):
                rest = mo[:i] + mo[i + 1 :]
                _add_scaled(
                    acc,
                    (((index[tuple(sorted(rest + (y2,)))], t), coef) for y2, coef in cols[y].items()),
                )
        actions.append(
            SparseMatrix(len(monos), len(monos), ((a, b, v) for (a, b), v in acc.items()))
        )
    return Representation(g, f"S^{j}({r.name})", tuple(EVEN for _ in monos), tuple(actions), monos)


def restrict(r: Representation, h: SubalgebraSpan) -> Representation:
    """Action matrices of the span vectors (must be bracket-closed)."""
    if h.parent is not r.algebra:
        raise AlgebraMismatch("span does not belong to the module's algebra")
    algebra = h.to_algebra()  # raises NotASubalgebra unless h is bracket-closed
    actions = tuple(r.action_of_vector(vec) for vec in h.vectors)
    return Representation(algebra, f"{r.name}|{h.label}", r.parities, actions, r.basis_labels)


def weight_decomposition(
    r: Representation, torus_indices: Sequence[int] | None = None
) -> dict[tuple[Scalar, ...], tuple[int, int]]:
    """Simultaneous eigenspace dimensions under the torus, split by parity.

    Requires every torus action matrix to be diagonal in the module basis
    (true for all constructions in this package).
    """
    g = r.algebra
    torus = list(g.torus) if torus_indices is None else list(torus_indices)
    diag = []
    for t in torus:
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
    from .algebras import even_part_span

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
    return Representation(
        h.to_algebra(),
        f"{g.name}_odd",
        tuple(g.parities[o] for o in odd),
        tuple(actions),
        tuple(g.basis_labels[o] for o in odd),
    )
