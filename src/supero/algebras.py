"""Lie superalgebras given by a homogeneous basis and structure constants.

The built-in families are realized by explicit matrices:

* ``build_gl(m, n)``   -- all (m+n) x (m+n) matrices, elementary-matrix basis;
* ``build_q(n)``       -- 2n x 2n matrices diag(A,A) (even) and antidiag(B,B) (odd);
* ``build_p_tilde(n)`` -- 2n x 2n matrices [[A, B], [C, -A^T]] with B symmetric
  and C antisymmetric (odd part S^2(V) + Lambda^2(V*));
* ``build_osp(m, 2n)`` -- matrices preserving an even supersymmetric form,
  split (antidiagonal) on the symmetric part so the Cartan is diagonal.

Structure constants are always computed from the matrix model by exact
super-commutators and coordinate solving (``linalg.SpanSolver`` on the
flattened matrices as sparse dicts), so every family goes through the same
validated path.  Basis ordering is fixed per family (even block before
odd block) to keep downstream signs and reports reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    DecompositionError,
    DimensionMismatch,
    EmptyAlgebra,
    FormError,
    NotASubalgebra,
    UnsupportedRank,
)
from .linalg import (
    RowMatrix, Scalar, SpanSolver, SparseMatrix, Vector, _add_scaled, _dict_matmul, _exact,
    kernel_basis_with_free,
)

EVEN = 0
ODD = 1

SparseVec = dict[int, Scalar]
MatDict = dict[tuple[int, int], Scalar]
BracketTable = dict[tuple[int, int], tuple[tuple[int, Scalar], ...]]  # (i, j) -> [(k, c)]

SCHEMA = "superO/1"


def _is_triple(x, ints: int) -> bool:
    """Whether x is a list of three items whose first ``ints`` are ints.

    An int here is exactly ``int``: JSON ``true``/``false`` load as
    ``bool``, an ``int`` subclass, and are no indices or numbers.
    """
    return (
        isinstance(x, (list, tuple))
        and len(x) == 3
        and all(type(v) is int for v in x[:ints])
    )


class LieSuperalgebra:
    """Finite-dimensional Lie superalgebra over Q.

    Immutable after construction.  ``table[(i, j)]`` holds the bracket
    [b_i, b_j] as a sparse tuple of (index, coefficient), each coefficient
    an ``int`` where integral (``linalg._exact``); missing keys mean zero.
    ``torus`` lists the indices of a designated maximal torus of the even
    part, which for all built-in families acts diagonally on the basis.
    """

    __slots__ = ("name", "parities", "table", "torus", "basis_labels", "matrix_model")

    def __init__(
        self,
        name: str,
        parities: Sequence[int],
        table: BracketTable,
        torus: Sequence[int],
        basis_labels: Sequence[str] | None = None,
        matrix_model: tuple[int, tuple[int, ...], tuple[MatDict, ...]] | None = None,
    ):
        self.name = name
        self.parities = tuple(int(p) for p in parities)
        self.table = {k: tuple((i, _exact(c)) for i, c in v) for k, v in table.items() if v}
        self.torus = tuple(torus)
        n = len(self.parities)
        if basis_labels is None:
            basis_labels = tuple(f"b{i}" for i in range(n))
        self.basis_labels = tuple(basis_labels)
        self.matrix_model = matrix_model
        for t in self.torus:
            if self.parities[t] != EVEN:
                raise NotASubalgebra(f"torus index {t} is odd")

    @property
    def dim(self) -> int:
        return len(self.parities)

    @property
    def even_indices(self) -> list[int]:
        return [i for i, p in enumerate(self.parities) if p == EVEN]

    @property
    def odd_indices(self) -> list[int]:
        return [i for i, p in enumerate(self.parities) if p == ODD]

    def bracket_basis(self, i: int, j: int) -> tuple[tuple[int, Scalar], ...]:
        return self.table.get((i, j), ())

    def bracket_sparse(self, x: SparseVec, y: SparseVec) -> SparseVec:
        out: SparseVec = {}
        for i, a in x.items():
            for j, b in y.items():
                _add_scaled(out, self.bracket_basis(i, j), a * b)
        return out

    def ad_matrix(self, i: int) -> SparseMatrix:
        """Matrix of ad(b_i) in the basis (column j = [b_i, b_j])."""
        entries = []
        for j in range(self.dim):
            for k, v in self.bracket_basis(i, j):
                entries.append((k, j, v))
        return SparseMatrix(self.dim, self.dim, entries)

    def weight_of_basis_index(self, j: int) -> Vector:
        """Joint ad-eigenvalue of basis vector j under the designated torus.

        Requires the torus to act diagonally (true for built-ins); checked
        by root_decomposition before use.
        """
        w = []
        for t in self.torus:
            terms = self.bracket_basis(t, j)
            if not terms:
                w.append(0)
            elif len(terms) == 1 and terms[0][0] == j:
                w.append(terms[0][1])
            else:
                raise DecompositionError(
                    f"torus element {t} does not act diagonally on basis vector {j}"
                )
        return tuple(w)

    def to_json_dict(self) -> dict:
        bracket = []
        for (i, j) in sorted(self.table):
            terms = [[k, v.numerator, v.denominator] for k, v in self.table[i, j]]
            bracket.append([i, j, terms])
        return {
            "schema": SCHEMA,
            "kind": "lie_superalgebra",
            "name": self.name,
            "dim": self.dim,
            "parities": list(self.parities),
            "torus": list(self.torus),
            "bracket": bracket,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "LieSuperalgebra":
        """Inverse of ``to_json_dict``; raises DimensionMismatch on a missing
        key, a name that is no string, a dim other than the exact ``int``
        number of parities, a malformed or repeated bracket entry, a term
        index repeated within an entry, bad indices, parities, zero
        coefficients or denominators.

        The loaded table must then pass the axioms, checked in this order:
        parity consistency, super antisymmetry (after which the Jacobi loop
        over i <= j <= k covers every triple) and the super Jacobi
        identity.  A failure raises DimensionMismatch naming the pair or
        triple."""
        if not isinstance(d, dict):
            raise DimensionMismatch("algebra JSON is not an object")
        for key in ("name", "parities", "torus", "bracket"):
            if key not in d:
                raise DimensionMismatch(f"algebra JSON has no {key!r} key")
            kinds, what = (str, "a string") if key == "name" else ((list, tuple), "a list")
            if not isinstance(d[key], kinds):
                raise DimensionMismatch(f"algebra JSON {key!r} is not {what}")
        parities = d["parities"]
        n = len(parities)
        if "dim" in d and not (type(d["dim"]) is int and d["dim"] == n):
            raise DimensionMismatch(f"dim {d['dim']!r} != {n} parities")
        for p in parities:
            if type(p) is not int or p not in (EVEN, ODD):
                raise DimensionMismatch(f"parity {p!r} is not 0 or 1")
        for t in d["torus"]:
            if not (type(t) is int and 0 <= t < n):
                raise DimensionMismatch(f"torus index {t!r} outside 0..{n - 1}")
            if parities[t] != EVEN:
                raise DimensionMismatch(f"torus index {t} is odd")
        table = {}
        for entry in d["bracket"]:
            if not (_is_triple(entry, 2) and isinstance(entry[2], (list, tuple))):
                raise DimensionMismatch(f"bracket entry {entry!r} is not [i, j, terms]")
            i, j, terms = entry
            if (i, j) in table:
                raise DimensionMismatch(f"bracket entry [{i}, {j}] is given twice")
            for term in terms:
                if not _is_triple(term, 3):
                    raise DimensionMismatch(
                        f"bracket term {term!r} of [{i}, {j}] is not [k, num, den]"
                    )
            for idx in (i, j, *(k for k, _, _ in terms)):
                if not 0 <= idx < n:
                    raise DimensionMismatch(
                        f"bracket index {idx} of [{i}, {j}] outside 0..{n - 1}"
                    )
            if len({k for k, _, _ in terms}) != len(terms):
                raise DimensionMismatch(f"bracket [{i}, {j}] repeats a term index")
            if any(num == 0 for _, num, _ in terms):
                raise DimensionMismatch(f"zero coefficient in bracket [{i}, {j}]")
            if any(den == 0 for _, _, den in terms):
                raise DimensionMismatch(f"zero denominator in bracket [{i}, {j}]")
            table[i, j] = tuple((k, Fraction(num, den)) for k, num, den in terms)
        g = cls(d["name"], parities, table, d["torus"])
        for check, what in (
            (check_parity_consistency, "bracket [{0}, {1}] has a term of the wrong parity"),
            (check_super_antisymmetry, "brackets [{0}, {1}] and [{1}, {0}] are not super antisymmetric"),
            (check_super_jacobi, "super Jacobi identity fails at the triple ({0}, {1}, {2})"),
        ):
            ok, witness = check(g)
            if not ok:
                raise DimensionMismatch(what.format(*witness))
        return g

    def __repr__(self) -> str:
        return f"LieSuperalgebra({self.name!r}, dim={self.dim})"


def check_super_antisymmetry(g: LieSuperalgebra) -> tuple[bool, tuple[int, int] | None]:
    """[x,y] = -(-1)^{|x||y|}[y,x] on all homogeneous basis pairs."""
    for i in range(g.dim):
        for j in range(i, g.dim):
            sign = -1 if g.parities[i] * g.parities[j] == 0 else 1
            lhs = dict(g.bracket_basis(i, j))
            rhs = {k: sign * v for k, v in g.bracket_basis(j, i)}
            if lhs != rhs:
                return False, (i, j)
    return True, None


def check_super_jacobi(g: LieSuperalgebra) -> tuple[bool, tuple[int, int, int] | None]:
    """Graded Jacobi identity on all homogeneous basis triples.

    (-1)^{|x||z|}[x,[y,z]] + (-1)^{|y||x|}[y,[z,x]] + (-1)^{|z||y|}[z,[x,y]] = 0.
    Returns (False, witness triple) on the first failure, triples i <= j <= k
    in lexicographic order.  The brackets are read from the table; a triple
    whose three inner brackets vanish sums to zero and is skipped.
    """
    p = g.parities
    get = g.table.get
    for i in range(g.dim):
        for j in range(i, g.dim):
            bij = get((i, j), ())
            for k in range(j, g.dim):
                bjk = get((j, k), ())
                bki = get((k, i), ())
                if not (bij or bjk or bki):
                    continue
                acc: SparseVec = {}
                for a, inner, sign in (
                    (i, bjk, -1 if p[i] & p[k] else 1),
                    (j, bki, -1 if p[j] & p[i] else 1),
                    (k, bij, -1 if p[k] & p[j] else 1),
                ):
                    for m, c in inner:
                        _add_scaled(acc, get((a, m), ()), sign * c)
                if acc:
                    return False, (i, j, k)
    return True, None


def check_parity_consistency(g: LieSuperalgebra) -> tuple[bool, tuple[int, int] | None]:
    """Structure constants live in the parity-sum component."""
    for (i, j), terms in g.table.items():
        target = (g.parities[i] + g.parities[j]) % 2
        for k, _ in terms:
            if g.parities[k] != target:
                return False, (i, j)
    return True, None


# ---------------------------------------------------------------------------
# generic construction from a matrix basis


def _super_commutator(a: MatDict, b: MatDict, pa: int, pb: int) -> MatDict:
    ab = _dict_matmul(a, b)
    ba = _dict_matmul(b, a)
    sign = -1 if pa * pb % 2 == 0 else 1
    return _add_scaled(dict(ab), ba.items(), sign)


def _solve_brackets(
    solver: SpanSolver, bracket, parities: Sequence[int]
) -> tuple[BracketTable, tuple[int, int] | None]:
    """Structure constants of the solver's input vectors, which are
    independent and of pure parity ``parities``.

    ``bracket(i, j)`` is the bracket of inputs i and j as a sparse vector
    in the solver's ambient coordinates.  Pairs are taken row by row; the
    result is the table of nonzero coordinates, in index order, and the
    first pair whose bracket escapes the span (leaves a residual), at which
    the solve stops, or None.  Only the pairs j >= i are solved: for j < i,
    [x_i, x_j] = -(-1)^{|x_i||x_j|} [x_j, x_i] is row j's entry with that
    sign, and it cannot escape, since row j, solved first, would have
    stopped the solve.
    """
    table: BracketTable = {}
    n = solver.rank
    for i in range(n):
        for j in range(n):
            if j < i:
                terms = table.get((j, i))
                if terms:
                    sign = 1 if parities[i] & parities[j] else -1
                    table[i, j] = tuple((k, sign * c) for k, c in terms)
                continue
            out = bracket(i, j)
            if not out:
                continue
            residual, coords = solver.reduce(out)
            if residual:
                return table, (i, j)
            table[i, j] = tuple(sorted(coords.items()))
    return table, None


def _from_matrix_basis(
    name: str,
    size: int,
    model_parities: Sequence[int],
    mats: Sequence[MatDict],
    parities: Sequence[int],
    torus: Sequence[int],
    labels: Sequence[str],
) -> LieSuperalgebra:
    solver = SpanSolver([{a * size + b: v for (a, b), v in mat.items()} for mat in mats])
    if solver.rank != len(mats):
        raise NotASubalgebra(f"{name}: matrix basis is linearly dependent")

    def bracket(i: int, j: int) -> dict[int, Scalar]:
        comm = _super_commutator(mats[i], mats[j], parities[i], parities[j])
        return {a * size + b: v for (a, b), v in comm.items()}

    table, witness = _solve_brackets(solver, bracket, parities)
    if witness is not None:
        i, j = witness
        raise NotASubalgebra(f"{name}: bracket escapes the span at pair ({i},{j})")
    return LieSuperalgebra(
        name,
        parities,
        table,
        torus,
        basis_labels=labels,
        matrix_model=(size, tuple(model_parities), tuple(mats)),
    )


# ---------------------------------------------------------------------------
# built-in families


def build_gl(m: int, n: int) -> LieSuperalgebra:
    """gl(m|n): all (m+n) x (m+n) matrices, elementary-matrix basis.

    Parity of e_{ij} is odd iff exactly one of i, j lands in the odd block.
    Basis order: even elementary matrices (row-major), then odd ones.
    Torus: the diagonal e_{ii}.
    """
    if m < 0 or n < 0 or m + n < 1:
        raise EmptyAlgebra("gl(m|n) needs m + n >= 1")
    size = m + n
    cpar = [EVEN] * m + [ODD] * n
    pairs = [(i, j) for i in range(size) for j in range(size) if cpar[i] == cpar[j]]
    pairs += [(i, j) for i in range(size) for j in range(size) if cpar[i] != cpar[j]]
    mats = [{(i, j): 1} for (i, j) in pairs]
    parities = [(cpar[i] + cpar[j]) % 2 for (i, j) in pairs]
    torus = [pairs.index((i, i)) for i in range(size)]
    labels = [f"e[{i + 1},{j + 1}]" for (i, j) in pairs]
    return _from_matrix_basis(f"gl({m}|{n})", size, cpar, mats, parities, torus, labels)


def build_q(n: int) -> LieSuperalgebra:
    """q(n): even part diag(A, A), odd part antidiag(B, B), A, B in gl_n."""
    if n < 1:
        raise EmptyAlgebra("q(n) needs n >= 1")
    size = 2 * n
    cpar = [EVEN] * n + [ODD] * n
    mats: list[MatDict] = []
    parities: list[int] = []
    labels: list[str] = []
    for i in range(n):
        for j in range(n):
            mats.append({(i, j): 1, (n + i, n + j): 1})
            parities.append(EVEN)
            labels.append(f"E[{i + 1},{j + 1}]")
    for i in range(n):
        for j in range(n):
            mats.append({(i, n + j): 1, (n + i, j): 1})
            parities.append(ODD)
            labels.append(f"F[{i + 1},{j + 1}]")
    torus = [i * n + i for i in range(n)]
    return _from_matrix_basis(f"q({n})", size, cpar, mats, parities, torus, labels)


def build_p_tilde(n: int) -> LieSuperalgebra:
    """p~(n): matrices [[A, B], [C, -A^T]], B symmetric, C antisymmetric.

    The odd part realizes S^2(V) (B block) + Lambda^2(V*) (C block); whether
    B or C carries the symmetric factor is a convention, fixed here once.
    """
    if n < 2:
        raise UnsupportedRank("p~(n) needs n >= 2")
    size = 2 * n
    cpar = [EVEN] * n + [ODD] * n
    mats: list[MatDict] = []
    parities: list[int] = []
    labels: list[str] = []
    for i in range(n):
        for j in range(n):
            mats.append({(i, j): 1, (n + j, n + i): -1})
            parities.append(EVEN)
            labels.append(f"a[{i + 1},{j + 1}]")
    for i in range(n):
        for j in range(i, n):
            if i == j:
                mats.append({(i, n + i): 1})
            else:
                mats.append({(i, n + j): 1, (j, n + i): 1})
            parities.append(ODD)
            labels.append(f"b[{i + 1},{j + 1}]")
    for i in range(n):
        for j in range(i + 1, n):
            mats.append({(n + i, j): 1, (n + j, i): -1})
            parities.append(ODD)
            labels.append(f"c[{i + 1},{j + 1}]")
    torus = [i * n + i for i in range(n)]
    return _from_matrix_basis(f"p~({n})", size, cpar, mats, parities, torus, labels)


def build_osp(m: int, two_n: int) -> LieSuperalgebra:
    """osp(m|2n): invariance algebra of an even supersymmetric form.

    The symmetric part uses the split (antidiagonal) Gram matrix and the
    symplectic part the antidiagonal J with signs, so the Cartan consists of
    diagonal matrices.  The basis is produced by solving the invariance
    constraints weight block by weight block; each basis vector is a
    simultaneous ad-eigenvector of the Cartan.
    """
    if two_n % 2 != 0 or two_n < 2:
        raise FormError("osp needs an even symplectic size two_n >= 2")
    if m < 1:
        raise UnsupportedRank("osp needs m >= 1")
    n = two_n // 2
    k = m // 2
    size = m + two_n
    cpar = [EVEN] * m + [ODD] * two_n
    rank_t = k + n

    def pair(a: int) -> int:
        return (m - 1 - a) if a < m else m + (two_n - 1 - (a - m))

    def phi(a: int, b: int) -> int:
        # Gram matrix: antidiag 1's on the symmetric part, antidiag +-1 on J
        if a < m and b < m:
            return 1 if b == m - 1 - a else 0
        if a >= m and b >= m:
            j = a - m
            if b - m == two_n - 1 - j:
                return 1 if j < n else -1
        return 0

    def coord_weight(a: int) -> tuple[int, ...]:
        w = [0] * rank_t
        if a < m:
            if a < k:
                w[a] = 1
            elif m - 1 - a < k:
                w[m - 1 - a] = -1
        else:
            j = a - m
            if j < n:
                w[k + j] = 1
            else:
                w[k + (two_n - 1 - j)] = -1
        return tuple(w)

    # unknown entries grouped by (parity sector, weight)
    groups: dict[tuple[int, tuple[int, ...]], list[tuple[int, int]]] = {}
    for a in range(size):
        wa = coord_weight(a)
        for b in range(size):
            wb = coord_weight(b)
            sector = (cpar[a] + cpar[b]) % 2
            wt = tuple(x - y for x, y in zip(wa, wb))
            groups.setdefault((sector, wt), []).append((a, b))

    def solve_block(sector: int, positions: list[tuple[int, int]]) -> list[MatDict]:
        index = {pos: i for i, pos in enumerate(positions)}
        # invariance of the form: for every output position (a, b),
        #   phi(P(b), b) X[P(b), a] + (-1)^{sector*par(a)} phi(a, P(a)) X[P(a), b] = 0
        eq_rows: dict[tuple[int, int], dict[int, int]] = {}
        for (c, d) in positions:
            col = index[c, d]
            b = pair(c)  # X[c, d] appears in equation (d, b) via the first sum
            _add_scaled(eq_rows.setdefault((d, b), {}), [(col, phi(c, b))])
            a = pair(c)  # and in equation (a, d) via the second sum
            sgn = -1 if (sector * cpar[a]) % 2 else 1
            _add_scaled(eq_rows.setdefault((a, d), {}), [(col, sgn * phi(a, c))])
        rows = [eq_rows[key] for key in sorted(eq_rows) if eq_rows[key]]
        # each kernel vector as its primitive integer multiple
        basis, _ = kernel_basis_with_free(RowMatrix(rows, len(positions)))
        return [{positions[c]: v for c, v in nums.items()} for nums, _ in basis]

    mats: list[MatDict] = []
    parities: list[int] = []
    labels: list[str] = []

    # Cartan first: H_i = E[i,i] - E[pair(i), pair(i)]
    zero_wt = (0,) * rank_t
    cartan: list[MatDict] = []
    for i in range(k):
        cartan.append({(i, i): 1, (m - 1 - i, m - 1 - i): -1})
    for j in range(n):
        cartan.append({(m + j, m + j): 1, (m + two_n - 1 - j, m + two_n - 1 - j): -1})
    zero_solutions = solve_block(EVEN, groups.pop((EVEN, zero_wt)))
    if len(zero_solutions) != rank_t:
        raise FormError(f"osp({m}|{two_n}): unexpected Cartan dimension {len(zero_solutions)}")
    mats.extend(cartan)
    parities.extend([EVEN] * rank_t)
    labels.extend([f"H[{t + 1}]" for t in range(rank_t)])

    for (sector, wt) in sorted(groups, key=lambda key: (key[0], key[1])):
        if sector == EVEN and wt == zero_wt:
            continue
        for mat in solve_block(sector, groups[sector, wt]):
            mats.append(mat)
            parities.append(sector)
            pos = sorted(mat)[0]
            labels.append(("x" if sector == EVEN else "y") + f"[{pos[0] + 1},{pos[1] + 1}]")

    # reorder: even block before odd block (Cartan stays first)
    order = [i for i, p in enumerate(parities) if p == EVEN] + [
        i for i, p in enumerate(parities) if p == ODD
    ]
    mats = [mats[i] for i in order]
    parities_o = [parities[i] for i in order]
    labels = [labels[i] for i in order]
    torus = list(range(rank_t))
    g = _from_matrix_basis(f"osp({m}|{two_n})", size, cpar, mats, parities_o, torus, labels)
    # sanity: the Cartan matrices solve the invariance constraints
    for h in cartan:
        for (a, b), v in _check_osp_constraint(h, phi, size, cpar, EVEN).items():
            if v:
                raise FormError(f"osp({m}|{two_n}): Cartan violates the form at {(a, b)}")
    return g


def _check_osp_constraint(x: MatDict, phi, size: int, cpar, sector: int) -> MatDict:
    out: MatDict = {}
    for a in range(size):
        for b in range(size):
            s = 0
            for (c, d), v in x.items():
                if d == a:
                    s += v * phi(c, b)
                if d == b:
                    sgn = -1 if (sector * cpar[a]) % 2 else 1
                    s += sgn * phi(a, c) * v
            if s:
                out[a, b] = s
    return out


# ---------------------------------------------------------------------------
# spans of subalgebras


class SubalgebraSpan:
    """A homogeneous spanning set of a subalgebra, in parent coordinates.

    Vectors come in dense, must be linearly independent and each
    supported on a single parity; the span keeps them as given
    (``vectors``) and without zeros (``sparse_vectors``), which is what its
    ``SpanSolver`` reads.  The span owns what its echelon form decides: the
    ``complement`` (parent basis vectors off its pivot columns, in basis
    order), the ``projections`` onto it, which ``project`` combines, and
    its bracket table, solved once on first demand for ``closure_witness``
    and ``to_algebra``.
    """

    __slots__ = ("parent", "vectors", "label", "vector_parities", "solver", "complement",
                 "_sparse", "_projections", "_brackets")

    def __init__(self, parent: LieSuperalgebra, vectors: Sequence[Sequence[Scalar]], label: str = "span"):
        vecs = []
        sparse = []
        pars = []
        for vec in vectors:
            if len(vec) != parent.dim:
                raise DimensionMismatch("span vector length mismatch")
            tup = tuple(_exact(v) for v in vec)
            nonzero = {i: v for i, v in enumerate(tup) if v}
            support_par = {parent.parities[i] for i in nonzero}
            if len(support_par) > 1:
                raise NotASubalgebra("span vector is not parity homogeneous")
            pars.append(support_par.pop() if support_par else EVEN)
            vecs.append(tup)
            sparse.append(nonzero)
        self.parent = parent
        self.vectors = tuple(vecs)
        self.vector_parities = tuple(pars)
        self.label = label
        self._sparse = sparse
        self.solver = SpanSolver(sparse)
        if self.solver.rank != len(self.vectors):
            raise NotASubalgebra(f"{label}: span vectors are linearly dependent")
        pivots = set(self.solver.pivot_cols)
        self.complement = tuple(i for i in range(parent.dim) if i not in pivots)
        self._projections: list[SparseVec] | None = None
        self._brackets: tuple[BracketTable, tuple[int, int] | None] | None = None

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def sparse_vectors(self) -> list[SparseVec]:
        """The span vectors without their zeros, as built once (do not modify)."""
        return self._sparse

    def projections(self) -> list[SparseVec]:
        """Residual of each parent basis vector modulo the span, cached.

        The residual lives on the ``complement``, so this is the
        projection onto it; ``project`` combines these.
        """
        if self._projections is None:
            self._projections = [self.solver.reduce({k: 1})[0] for k in range(self.parent.dim)]
        return self._projections

    def project(self, pairs: Iterable[tuple[int, Scalar]]) -> SparseVec:
        """Projection onto the ``complement`` of the sum of c * b_k over the
        (k, c) in ``pairs``, under the scalar convention."""
        projections = self.projections()
        acc: SparseVec = {}
        for k, c in pairs:
            _add_scaled(acc, projections[k].items(), c)
        return {k: _exact(v) for k, v in acc.items()}

    def _solve(self) -> tuple[BracketTable, tuple[int, int] | None]:
        """The bracket table in the span's basis and the first escaping pair."""
        if self._brackets is None:
            sparse, bracket = self._sparse, self.parent.bracket_sparse
            self._brackets = _solve_brackets(
                self.solver, lambda i, j: bracket(sparse[i], sparse[j]), self.vector_parities
            )
        return self._brackets

    def closure_witness(self) -> tuple[int, int] | None:
        """First pair (i, j) whose bracket escapes the span, if any."""
        return self._solve()[1]

    def to_algebra(self, name: str | None = None) -> LieSuperalgebra:
        """Structure constants of the span in its own basis.

        Torus indices: span vectors supported entirely on parent torus
        coordinates (diagonal elements stay diagonal).
        """
        table, witness = self._solve()
        if witness is not None:
            raise NotASubalgebra(f"{self.label}: not closed at pair {witness}")
        on_torus = set(self.parent.torus).issuperset
        torus = [idx for idx, vec in enumerate(self._sparse) if vec and on_torus(vec)]
        name = name or f"{self.parent.name}<{self.label}>"
        return LieSuperalgebra(name, self.vector_parities, table, torus)

    def __repr__(self) -> str:
        return f"SubalgebraSpan({self.parent.name}, {self.label!r}, dim={self.dim})"


def _unit_span(g: LieSuperalgebra, indices: Iterable[int], label: str) -> SubalgebraSpan:
    idx = sorted(set(indices), key=lambda i: (g.parities[i], i))
    vectors = []
    for i in idx:
        vec = [0] * g.dim
        vec[i] = 1
        vectors.append(tuple(vec))
    return SubalgebraSpan(g, vectors, label)


def even_part_span(g: LieSuperalgebra) -> SubalgebraSpan:
    return _unit_span(g, g.even_indices, "g0")


def torus_span(g: LieSuperalgebra) -> SubalgebraSpan:
    return _unit_span(g, g.torus, "torus")


def full_span(g: LieSuperalgebra) -> SubalgebraSpan:
    return _unit_span(g, range(g.dim), "full")


def special_linear_span(g: LieSuperalgebra, m: int, n: int) -> SubalgebraSpan:
    """Supertrace-zero span sl(m|n) inside build_gl(m, n).

    Diagonal part: e_{ii} - e_{i+1,i+1} away from the parity wall and
    e_{mm} + e_{m+1,m+1} across it; off-diagonal part unchanged.
    """
    size = m + n
    if g.dim != size * size:
        raise DimensionMismatch(f"algebra {g.name} has unexpected dimension {g.dim}")
    label_to_index = {lab: i for i, lab in enumerate(g.basis_labels)}

    def e(i: int, j: int) -> int:
        return label_to_index[f"e[{i},{j}]"]

    vectors = []
    for i in range(1, size):
        vec = [0] * g.dim
        vec[e(i, i)] = 1
        vec[e(i + 1, i + 1)] = 1 if i == m else -1
        vectors.append(tuple(vec))
    for par in (EVEN, ODD):
        for i in range(1, size + 1):
            for j in range(1, size + 1):
                if i == j:
                    continue
                idx = e(i, j)
                if g.parities[idx] != par:
                    continue
                vec = [0] * g.dim
                vec[idx] = 1
                vectors.append(tuple(vec))
    return SubalgebraSpan(g, vectors, f"sl({m}|{n})")


def quotient_action(g: LieSuperalgebra, h: SubalgebraSpan):
    """Induced action of h on g/h as a Representation of h.to_algebra().

    The quotient basis is the span's ``complement``; for homogeneous h it
    is homogeneous.
    """
    from .reps import Representation

    if h.parent is not g:
        raise DimensionMismatch("span does not belong to this algebra")
    algebra = h.to_algebra()  # raises NotASubalgebra unless h is bracket-closed
    complement = h.complement
    comp_pos = {c: t for t, c in enumerate(complement)}
    actions = []
    for x in h.sparse_vectors():
        entries = []
        for t, c in enumerate(complement):
            for kk, v in h.project(g.bracket_sparse(x, {c: 1}).items()).items():
                entries.append((comp_pos[kk], t, v))
        actions.append(SparseMatrix(len(complement), len(complement), entries))
    parities = tuple(g.parities[c] for c in complement)
    return Representation(algebra, f"{g.name}/{h.label}", parities, tuple(actions))
