"""Oracles for the tests: matrix checks on the entries of a ``SparseMatrix``
(a container with no product or sum of its own), the super Jacobi
identity on sparse vectors, the normal-form monomials of a super
exterior power listed without the degree-by-degree walk, a factor
inserted into one by a factor-by-factor scan, the derivation action on
them and the action on a symmetric power one factor position at a time, the projected brackets of a pair, the equivariance defect summed
from one column per coordinate, the constraint solve of a cochain space
run on each sector whole, the two diagonal blocks of the public
differential, a report whose last rank is read off d expanded in the
basis of the degree above, the subalgebra that some basis vectors of h
generate, a spy on the passes that build each defect operator's action
rows, for the packed zero tests, a spy on the packing width and
the entries of d, of a residual and of a defect with every term taken
absolutely, and three references no command uses: the dense kernel basis,
the torus weights of a module, and the parabolic-subset axioms of a set
of roots."""

import itertools
from fractions import Fraction

from supero.errors import DecompositionError, UnsupportedSubalgebra
from supero.linalg import SparseMatrix, _exact, kernel_basis_with_free
from supero.roots import pair


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


def _bracket_vec(g, i: int, y: dict) -> dict:
    """[b_i, y] for a sparse vector y, without zeros."""
    out = {}
    for j, c in y.items():
        for k, v in g.bracket_basis(i, j):
            out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v}


def super_jacobi(g) -> tuple[bool, tuple[int, int, int] | None]:
    """Graded Jacobi identity on all basis triples i <= j <= k, each side
    built as a sparse vector [b_a, [b_b, b_c]]; the first failing triple."""
    p = g.parities
    for i in range(g.dim):
        for j in range(i, g.dim):
            for k in range(j, g.dim):
                acc = {}
                for sign_par, a, b, c in (
                    (p[i] * p[k], i, j, k),
                    (p[j] * p[i], j, k, i),
                    (p[k] * p[j], k, i, j),
                ):
                    sign = -1 if sign_par % 2 else 1
                    for m, v in _bracket_vec(g, a, _bracket_vec(g, b, {c: 1})).items():
                        acc[m] = acc.get(m, 0) + sign * v
                if any(acc.values()):
                    return False, (i, j, k)
    return True, None


def super_monomials(parities, p: int) -> list[tuple[int, ...]]:
    """Normal-form monomials of the super p-th exterior power: every set of
    k distinct even indices followed by every multiset of p - k odd ones,
    sorted."""
    evens = [i for i, q in enumerate(parities) if q == 0]
    odds = [i for i, q in enumerate(parities) if q == 1]
    out = []
    for k in range(min(p, len(evens)), -1, -1):
        for ev in itertools.combinations(evens, k):
            for od in itertools.combinations_with_replacement(odds, p - k):
                out.append(ev + od)
    out.sort()
    return out


def wedge_insert(x: int, mono: tuple[int, ...], parities) -> tuple[int, tuple[int, ...]] | None:
    """Insert a factor into a normal-form monomial by scanning its factors.

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
            if not (px == 1 and parities[y] == 1):
                sign = -sign
            pos = i + 1
        else:
            break
    if px == 0 and pos < len(mono) and mono[pos] == x:
        return None
    return sign, mono[:pos] + (x,) + mono[pos:]


def derivation_rows(cols, parities, monos, index, sources) -> dict:
    """``reps.derivation_rows`` term by term: one term per position i of a
    source monomial, so each copy of a repeated odd factor inserts its
    column again, with the sign (-1)^i (-1)^{|y_i| (|y_1|+...+|y_{i-1}|)}."""
    from supero.linalg import _add_scaled

    rows = {}
    for t in sources:
        mo = monos[t]
        terms = []
        prefix = 0
        for i, y in enumerate(mo):
            col = cols[y]
            if col:
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


def super_symmetric_power_actions(r, j: int) -> list:
    """The action matrices of ``reps.super_symmetric_power(r, j)`` term by
    term: one term per position i of a monomial, so each copy of a repeated
    factor inserts its column again."""
    from supero.linalg import _add_scaled

    monos = list(itertools.combinations_with_replacement(range(r.dim), j))
    index = {mo: t for t, mo in enumerate(monos)}
    actions = []
    for action in r.actions:
        cols = action.col_dicts()
        acc = {}
        for t, mo in enumerate(monos):
            for i, y in enumerate(mo):
                rest = mo[:i] + mo[i + 1 :]
                _add_scaled(
                    acc,
                    (((index[tuple(sorted(rest + (y2,)))], t), coef) for y2, coef in cols[y].items()),
                )
        actions.append(SparseMatrix(len(monos), len(monos), ((a, b, v) for (a, b), v in acc.items())))
    return actions


def projected_brackets(pair) -> list:
    """pi[lift(q_a), lift(q_b)] in quotient coordinates for every pair (a, b)
    of quotient basis vectors, a list of (q, v) each: g's bracket of the two
    complement vectors through the span's ``project``."""
    g, h, pos = pair.g, pair.h, pair.complement_pos
    return [
        [[(pos[k], v) for k, v in h.project(g.bracket_basis(a, b)).items()] for b in pair.complement]
        for a in pair.complement
    ]


def defect(cx, p: int, i: int, keys, phi: dict) -> dict:
    """Equivariance defect of the flat-coordinate cochain phi of degree p
    under span vector i of h, on the monomials of the weight buckets
    ``keys``.  Each coordinate x = w * dim M + v gets its own column: a
    module part, M's column v at monomial w, negated when span vector i is
    odd and x is odd, and an exterior-power part, minus the action row of
    w at module vector v.  The columns are summed with ``_add_scaled``, the
    module parts of all coordinates first, then the exterior-power parts."""
    from supero.linalg import _add_scaled

    rows = {}
    for k in keys:
        rows.update(cx.pair.action_rows(p, i, [k]))
    n, cols = cx.m.dim, cx.m_action_cols[i]
    odd = cx.pair.h.vector_parities[i]
    m_par, mono_par = cx.m.parities, cx.pair.degree(p).parities
    columns = {}
    for x in phi:
        w, v = divmod(x, n)
        sign = -1 if odd and (m_par[v] + mono_par[w]) % 2 else 1
        module = [(w * n + v2, sign * a) for v2, a in cols[v].items()]
        columns[x] = module, [(w2 * n + v, -a) for w2, a in rows[w].items()]
    out = {}
    for part in (0, 1):
        for x, c in phi.items():
            _add_scaled(out, columns[x][part], c)
    return out


def whole_sector_space(cx, p: int):
    """Per sector, (numerators, scales, anchors) of C^p as the constraint
    solve found them before it split M into blocks: every kept coordinate
    of a sector in one set of candidates, cut by the plan and then, unless
    every constraint holds exactly, by all the non-diagonal span vectors.
    Numerators and anchors are on the flat coordinates w * dim M + v, as
    ``CochainSpace`` keeps them."""
    from supero.cohomology import _cut, _defect

    n = cx.m.dim
    mono_par = cx.pair.degree(p).parities
    pos = [cx.pair.diagonal.index(i) for i in cx.diag_idx]
    kept, needed = ([], []), []
    for key, ts in cx.pair.degree(p).buckets.items():
        vs = cx.m_buckets.get(tuple(key[j] for j in pos))
        if vs:
            needed.append(key)
            for w in ts:
                for v in vs:
                    kept[(cx.m.parities[v] + mono_par[w]) % 2].append(w * n + v)
    out = []
    for sector in (0, 1):
        coords = sorted(kept[sector])
        columns = {i: cx._defect_columns(p, i, needed) for i in cx.nondiag_idx}
        for plan in (cx.constraint_plan, cx.nondiag_idx):
            candidates, free = _cut(plan, columns, [{x: 1} for x in coords], coords)
            if not any(_defect(columns[i], phi) for phi in candidates for i in cx.nondiag_idx):
                break
        else:
            raise AssertionError(f"whole-sector solve fails equivariance (degree {p})")
        out.append((candidates, [phi[x] for phi, x in zip(candidates, free)], free))
    return out


def differential_blocks(cx, p: int) -> tuple[SparseMatrix, SparseMatrix]:
    """(even block, odd block) of the public ``cx.differential(p)``, split
    at the even dimensions of C^p and C^{p+1}; an entry off the two
    diagonal blocks falls outside both and raises."""
    d = cx.differential(p)
    rows, cols = cx.space(p + 1).dim_even, cx.space(p).dim_even
    even = SparseMatrix(rows, cols, ((r, c, v) for r, c, v in d.entries() if r < rows))
    odd = SparseMatrix(
        d.rows - rows, d.cols - cols,
        ((r - rows, c - cols, v) for r, c, v in d.entries() if r >= rows),
    )
    return even, odd


def report_through_the_next_space(cx, max_degree: int) -> dict:
    """``cx.report(max_degree).to_json_dict()`` with every rank, the last
    degree's too, taken on the blocks of the public ``differential(p)``,
    d^p expanded in the basis of C^{p+1} (``differential_blocks``), so
    C^{max_degree + 1} is built."""
    from supero.cohomology import CohomologyReport, CohomologyRow
    from supero.linalg import rank

    rows, all_zero, prev = [], True, (0, 0)
    for p in range(max_degree + 1):
        if not cx.pair.degree(p).monomials:
            rows += [CohomologyRow(q, 0, 0, 0, 0, 0) for q in range(p, max_degree + 1)]
            break
        blocks = differential_blocks(cx, p)
        all_zero = all_zero and all(b.nnz == 0 for b in blocks)
        ranks = [rank(b) for b in blocks]
        sp = cx.space(p)
        he = sp.dim_even - ranks[0] - prev[0]
        ho = sp.dim_odd - ranks[1] - prev[1]
        rows.append(CohomologyRow(p, sp.dim_even, sp.dim_odd, sum(ranks), he, ho))
        prev = ranks
    report = CohomologyReport(cx.pair.g.name, cx.pair.h.label, cx.m.name, max_degree, rows, all_zero)
    return report.to_json_dict()


def generated_span_vectors(h_alg, generators) -> set[int]:
    """The basis vectors of the Lie superalgebra ``h_alg`` that lie in the
    subalgebra generated by its basis vectors ``generators``: the span of
    the generators, grown by the bracket of every two spanning vectors
    that ``SpanSolver`` finds outside it until none is, with no rule about
    which brackets are single terms."""
    from supero.linalg import SpanSolver

    span = [{i: 1} for i in generators]
    solver = SpanSolver(span)
    grown = True
    while grown:
        grown = False
        for x in list(span):
            for y in list(span):
                z = h_alg.bracket_sparse(x, y)
                if z and solver.reduce(z)[0]:
                    span.append(z)
                    solver = SpanSolver(span)
                    grown = True
    return {k for k in range(h_alg.dim) if not solver.reduce({k: 1})[0]}


def record_passes(monkeypatch) -> list:
    """(pair, degree, span vector, passes) of every defect operator that
    ``RelativeComplex._defect_columns`` builds from now on, passes being the
    ``reps.derivation_rows`` calls made while it was built.  A pass made
    outside a defect operator is recorded as (None, None, None, 1)."""
    from supero import cohomology as engine
    from supero.cohomology import RelativeComplex

    defect_columns, derivation_rows = RelativeComplex._defect_columns, engine.derivation_rows
    out, open_ops = [], []

    def spy_columns(self, p, i, keys):
        open_ops.append([self.pair, p, i, 0])
        try:
            return defect_columns(self, p, i, keys)
        finally:
            out.append(tuple(open_ops.pop()))

    def spy_rows(*args):
        if open_ops:
            open_ops[-1][3] += 1
        else:
            out.append((None, None, None, 1))
        return derivation_rows(*args)

    monkeypatch.setattr(RelativeComplex, "_defect_columns", spy_columns)
    monkeypatch.setattr(engine, "derivation_rows", spy_rows)
    return out


def record_widths(monkeypatch, bound: str) -> list:
    """(complex, degree, key, vectors, width) of every width that
    ``cohomology._width`` gives at the bound E of the method ``bound``:
    ``_dd_bound``, keyed by the sector, or ``_defect_bound``, keyed by the
    defect operators checked.  Every ``_packs`` call is checked to pack at
    the last width given, at either bound."""
    from supero import cohomology as engine
    from supero.cohomology import RelativeComplex

    width_of, packs = engine._width, engine._packs
    pending, given, out = [], [], []

    def spy_bound(name):
        method = getattr(RelativeComplex, name)

        def spy(self, q, key):
            # after the call: the bound of d o d solves C^q, which may ask
            # for widths of its own first
            e = method(self, q, key)
            pending.append((name, self, q, key))
            return e
        return spy

    def spy_width(vectors, e):
        width = width_of(vectors, e)
        name, cx, q, key = pending.pop()
        given.append(width)
        if name == bound:
            out.append((cx, q, key, vectors, width))
        return width

    def spy_packs(vectors, width):
        assert width == given[-1]
        return packs(vectors, width)

    for name in ("_dd_bound", "_defect_bound"):
        monkeypatch.setattr(RelativeComplex, name, spy_bound(name))
    monkeypatch.setattr(engine, "_width", spy_width)
    monkeypatch.setattr(engine, "_packs", spy_packs)
    return out


def abs_differential(cx, p: int, image: dict) -> dict:
    """At each coordinate of degree p + 1, the sum of the absolute values of
    the terms d adds there from ``image``: a bound on that entry of d of
    ``image`` under any choice of the signs of d's terms."""
    n = cx.m.dim
    out = {}
    for x, c in image.items():
        w, v = divmod(x, n)
        bracket, action = cx.pair.source_maps(p, w)
        for t1, coeff in bracket:
            out[t1 * n + v] = out.get(t1 * n + v, 0) + abs(c * coeff)
        for y, t1, m in action:
            for v2, a in cx.m_cols_by_complement[y][v].items():
                out[t1 * n + v2] = out.get(t1 * n + v2, 0) + abs(c * m * a)
    return out


def abs_residual(space, sector: int, image: dict) -> dict:
    """The residual of ``cohomology._residual`` with every term taken
    absolutely."""
    lcm, anchors = space.lcm[sector], space.free_index[sector]
    out = {x: lcm * abs(c) for x, c in image.items()}
    for x, c in image.items():
        k = anchors.get(x)
        if k is not None:
            weight = lcm // space.scales[sector][k]
            for y, a in space.numerators[sector][k].items():
                out[y] = out.get(y, 0) + abs(c * weight * a)
    return out


def abs_defect(op, phi: dict) -> dict:
    """The defect of ``cohomology._defect`` with every term taken
    absolutely: a bound on each entry of the defect under any choice of the
    terms' signs."""
    lam_rows, cols, n, _ = op
    out = {}
    for x, c in phi.items():
        w, v = divmod(x, n)
        for v2, a in cols[v].items():
            out[w * n + v2] = out.get(w * n + v2, 0) + abs(c * a)
        for w2, a in lam_rows[w].items():
            out[w2 * n + v] = out.get(w2 * n + v, 0) + abs(c * a)
    return out


def kernel_basis(m) -> list[tuple]:
    """Basis of the right null space of ``m`` as dense vectors.

    One basis vector per free column f (see ``kernel_basis_with_free``),
    normalized so that the entry at f is 1 and the entries at all other
    free columns are 0.  The basis is therefore canonical.
    """
    return [
        tuple(_exact(Fraction(nums[c], den)) if c in nums else 0 for c in range(m.cols))
        for nums, den in kernel_basis_with_free(m)[0]
    ]


def weight_decomposition(r) -> dict[tuple, tuple[int, int]]:
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
    out: dict[tuple, list[int]] = {}
    for v in range(r.dim):
        w = tuple(d[v] for d in diag)
        slot = out.setdefault(w, [0, 0])
        slot[r.parities[v]] += 1
    return {w: (e, o) for w, (e, o) in out.items()}


def check_parabolic_axioms(rd, P, H=None) -> tuple[bool, tuple | None]:
    """Parabolic-subset axioms for a set of root weights.

    Symmetric root systems (Phi = -Phi): require Phi = P u (-P) and
    closure (alpha, beta in P, alpha+beta in Phi => alpha+beta in P).
    Asymmetric systems are handled by comparing P against the sign
    partition of the functional H (which must then be supplied).
    """
    phi = {r.weight for r in rd.roots}
    pset = {tuple(w) for w in P}
    if not pset <= phi:
        stray = sorted(pset - phi)[0]
        return False, ("not_a_root", stray)
    neg = {tuple(-c for c in w) for w in phi}
    if phi == neg:
        negp = {tuple(-c for c in w) for w in pset}
        if pset | negp != phi:
            missing = sorted(phi - (pset | negp))[0]
            return False, ("union_fails", missing)
        for a in sorted(pset):
            for b in sorted(pset):
                s = tuple(x + y for x, y in zip(a, b))
                if s in phi and s not in pset:
                    return False, ("closure_fails", a, b)
        return True, None
    if H is None:
        raise UnsupportedSubalgebra(
            "asymmetric root system: supply the functional H to test P = P_H"
        )
    Ht = tuple(map(_exact, H))
    expected = {r.weight for r in rd.roots if pair(Ht, r.weight) >= 0}
    if pset != expected:
        diff = sorted(pset.symmetric_difference(expected))[0]
        return False, ("not_principal", diff)
    return True, None
