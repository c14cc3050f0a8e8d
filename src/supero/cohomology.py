"""Relative cochain complexes, their signed differential, and cohomology.

The cochain space in degree p consists of the h-equivariant linear maps
from the super p-th exterior power of g/h to the coefficient module M,

    C^p(g, h; M) = Hom_h(L^p_s(g/h), M)
                 = { phi : L^p_s(g/h) -> M  with  phi(x.w) = (-1)^{|x||phi|} x.phi(w) }.

Everything but the action on M depends only on the pair (g, h), and the
code is split the same way.  ``RelativePair(g, h)`` holds the coordinate
complement of h, the action of h on g/h, the monomial bases of L^p_s(g/h),
and, built lazily and once per pair: one weight key per monomial under
the span vectors acting diagonally on g/h (``weight_keys``, incremental in
p), which groups the monomials of each degree into weight buckets
(``buckets``); the action rows of each span vector of h on L^p_s(g/h) per
(degree, span vector, weight bucket) (``action_rows``); the projected
brackets, and the structure maps of the differential per source monomial
(``source_maps``), built only for the monomials that d reads.
``RelativeComplex(pair, M)`` adds the action on M: the module vectors
grouped by weight, which pick the kept monomial buckets; the constraint
plan, the equivariant bases, the differential matrices and the
report.  One pair serves any number of coefficient modules, and a complex
asks the pair only for the action rows of its non-diagonal span vectors, in
the buckets that hold its kept monomials.  A span vector that shifts every
weight by the same amount (``shift``) reaches bucket k only from bucket
k - shift, so only those monomials are acted on; for one that does not,
every monomial is a source, and one pass builds the rows of every bucket.
Either way each row is the full row.

Scalars follow the one convention of ``linalg``: ``int`` where the
denominator is 1 and ``Fraction`` otherwise.  The actions of g/h and of M
arrive as ``SparseMatrix`` columns and the projections of g as
``SpanSolver`` residuals, both already under it, so this module converts
nothing on the way in.  It applies ``linalg._exact`` only where it makes
a new value that may be an integral ``Fraction``: the projected brackets
and the divisions by anchor values.  The constraint solve runs on
integer cochains: each basis vector is kept as its primitive integer
multiple (``numerators``) and its value at its anchor (``scales``), and
the public ``basis`` divides the one by the other.  The differential
layer works on the numerators too: ``apply_differential`` acts on them,
``_expand`` checks an image against them in integers, scaled by the lcm
of the scales, and d o d = 0 combines their images.  Values are divided
only where they leave that layer: the entries of ``differential(p)`` by
the source scale, and a ``ConventionError`` residual by the lcm.

The differential evaluates on monomials w = x_1 ^ ... ^ x_{p+1} as

    (d phi)(w) = sum_{i<j} (-1)^{s(i,j)} phi(pi[x_i, x_j] ^ ... ^x_i .. ^x_j ..)
               + sum_i    (-1)^{g(i)}   x_i . phi(... ^x_i ...),

    s(i,j) = i + j + |x_i|(|x_1|+..+|x_{i-1}|) + |x_j|(|x_1|+..+|x_{j-1}|+|x_i|),
    g(i)   = i + 1 + |x_i|(|x_1|+..+|x_{i-1}| + |phi|),

with 1-based positions, pi the projection onto the coordinate complement of
h, and lifts of quotient vectors given by that complement.  The complex
splits into even and odd map parities, which the differential preserves.
The terms are pushed from the monomials of phi's support: a source w
reaches x ^ w in the second sum, and, for each factor q of w and each
(x_a, x_b) whose projected bracket holds q, the monomial (w / q) ^ x_a ^ x_b
in the first.

Cochain bases are found as the simultaneous kernel of the equivariance
constraints, cut one span vector at a time.  The candidates start as one
unit cochain per kept coordinate; each span vector replaces them by the
canonical kernel combinations of their defects under it, so every cut is
a small kernel on what the cut before left.  Kernel bases are canonical,
so the result is the simultaneous kernel, anchored at its free
coordinates.  The solve numbers each kept coordinate (v, w) by the flat
int x = w * dim M + v, whose order is the order by (w, v), and decodes it
only when the space is stored.  Each span vector's defect column of each
coordinate is built on first use, as a module part with the odd sign
folded in and an exterior-power part, and the same columns serve the cuts
and the re-verification.

Two exact reductions keep this affordable at scale, and both belong to
the complex because they depend on which elements of h act diagonally on
M: elements acting diagonally on both the monomial basis and M filter
coordinates directly, and when the non-diagonal even part of h is spanned
by paired root vectors (a reductive situation), a weight-zero map killed
by the simple positive root vectors is automatically killed by all of h's
even part.  The plan (``constraint_plan``) lists the groups of
constraints to impose in order.  Every returned basis vector is
re-verified against every constraint exactly; on any failure the full
kernel is recomputed without shortcuts and re-verified in turn, and a
basis that still fails raises ConventionError, naming the span vector,
degree, sector and first defect coordinate.

Images of the differential are expanded in the equivariant basis of the
next degree with an exact consistency assertion; a mismatch raises
ConventionError, naming the first escaping coordinate and its residual,
instead of silently projecting.  The d o d = 0 check reuses those
coefficients: d(d(phi)) = sum_k c_k d(psi_k), with d on the numerators
of the basis vectors psi_k of the next degree built once and shared with
the next degree's check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add

from .algebras import EVEN, ODD, LieSuperalgebra, SubalgebraSpan, quotient_action
from .errors import AlgebraMismatch, ConventionError
from .linalg import Scalar, SparseMatrix, _add_scaled, _exact, kernel_basis_with_free, rank
from .reps import (
    Representation,
    derivation_rows,
    dual,
    super_exterior_power,
    super_monomials,
    tensor,
    wedge_insert,
)

Coord = tuple[int, int]  # (module basis index, monomial index)
Cochain = dict[Coord, Scalar]


@dataclass
class CochainSpace:
    """Equivariant cochains in one degree, split by map parity.

    ``basis[s][k]`` is 1 at its anchor ``free_coords[s][k]`` and 0 at the
    other anchors.  It equals ``numerators[s][k] / scales[s][k]``, where the
    numerator is a primitive integer cochain and the scale its positive
    value at the anchor; when the scale is 1 the two are the same dict.
    Every cochain lists its coordinates (v, w) in the order by (w, v).
    """

    degree: int
    monomials: tuple[tuple[int, ...], ...]
    monomial_parities: tuple[int, ...]
    basis: tuple[list[Cochain], list[Cochain]]  # index 0: even maps, 1: odd maps
    free_coords: tuple[list[Coord], list[Coord]]
    numerators: tuple[list[dict[Coord, int]], list[dict[Coord, int]]] = field(
        repr=False, compare=False
    )
    scales: tuple[list[int], list[int]] = field(repr=False, compare=False)
    # per sector: anchor coordinate -> index of the basis vector it anchors
    free_index: tuple[dict[Coord, int], dict[Coord, int]] = field(
        init=False, repr=False, compare=False
    )
    # per sector: lcm of the scales, so lcm // scale weights each numerator
    lcm: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.free_index = tuple(
            {coord: k for k, coord in enumerate(coords)} for coords in self.free_coords
        )
        self.lcm = tuple(math.lcm(*scales) for scales in self.scales)

    @property
    def dim_even(self) -> int:
        return len(self.basis[EVEN])

    @property
    def dim_odd(self) -> int:
        return len(self.basis[ODD])

    @property
    def dim(self) -> int:
        return self.dim_even + self.dim_odd


@dataclass
class CohomologyRow:
    degree: int
    dim_cochains_even: int
    dim_cochains_odd: int
    rank_differential: int
    dim_cohomology_even: int
    dim_cohomology_odd: int

    @property
    def dim_cohomology(self) -> int:
        return self.dim_cohomology_even + self.dim_cohomology_odd

    def to_json_dict(self) -> dict:
        return {
            "p": self.degree,
            "dimC_even": self.dim_cochains_even,
            "dimC_odd": self.dim_cochains_odd,
            "rank_d": self.rank_differential,
            "dimH_even": self.dim_cohomology_even,
            "dimH_odd": self.dim_cohomology_odd,
        }


@dataclass
class CohomologyReport:
    algebra: str
    subalgebra: str
    module: str
    max_degree: int
    rows: list[CohomologyRow]
    all_differentials_zero: bool

    def dims(self) -> list[int]:
        return [r.dim_cohomology for r in self.rows]

    def to_json_dict(self) -> dict:
        return {
            "schema": "superO/1",
            "kind": "cohomology_report",
            "algebra": self.algebra,
            "subalgebra_spec": self.subalgebra,
            "module": self.module,
            "N": self.max_degree,
            "rows": [r.to_json_dict() for r in self.rows],
            "all_differentials_zero": self.all_differentials_zero,
        }


class RelativePair:
    """The part of C^p(g, h; M) that does not depend on M, built on demand."""

    def __init__(self, g: LieSuperalgebra, h: SubalgebraSpan):
        if h.parent is not g:
            raise AlgebraMismatch("subalgebra span does not belong to g")
        self.g = g
        self.h = h
        pivots = set(h.solver.pivot_cols)
        self.complement = [i for i in range(g.dim) if i not in pivots]
        self.complement_pos = {c: t for t, c in enumerate(self.complement)}
        self.quotient_parities = tuple(g.parities[c] for c in self.complement)
        self.quotient_rep = quotient_action(g, h)  # raises NotASubalgebra unless h is closed
        self._quotient_cols = [a.col_dicts() for a in self.quotient_rep.actions]
        # span vectors acting diagonally on g/h; their weights key the monomials
        self.diagonal = [i for i, a in enumerate(self.quotient_rep.actions) if a.is_diagonal()]
        # weight key of each quotient basis vector
        self.eig = [
            tuple(self.quotient_rep.actions[i].entry(y, y) for i in self.diagonal)
            for y in range(len(self.complement))
        ]
        self._monos: dict[int, tuple] = {}
        self._mono_index: dict[int, dict[tuple[int, ...], int]] = {}
        # weight_keys by degree; degree 0 holds the empty monomial, of weight 0
        self._keys: dict[int, list[tuple[Scalar, ...]]] = {0: [tuple(0 for _ in self.diagonal)]}
        self._buckets: dict[int, dict[tuple[Scalar, ...], list[int]]] = {}
        self._shifts: dict[int, tuple[Scalar, ...] | None] = {}
        self._rows: dict[tuple[int, int, tuple], dict[int, dict[int, Scalar]]] = {}
        self._proj_brackets: list[list[list[tuple[int, Scalar]]]] | None = None
        self._inverse: list[list[tuple[int, int, int, Scalar]]] | None = None
        self._sources: dict[int, dict[int, tuple[list, list]]] = {}

    def monomials(self, p: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """Monomial basis of L^p_s(g/h) with parities (no action matrices).

        Parities are built incrementally, as ``weight_keys`` are:
        par(mo) = par(mo[:-1]) + par(mo[-1]) mod 2.
        """
        if p not in self._monos:
            qpar = self.quotient_parities
            monos = tuple(super_monomials(qpar, p))
            if p == 0:
                pars = (0,) * len(monos)
            else:
                prev, prev_index = self.monomials(p - 1)[1], self._index(p - 1)
                pars = tuple(prev[prev_index[mo[:-1]]] ^ qpar[mo[-1]] for mo in monos)
            self._monos[p] = (monos, pars)
            self._mono_index[p] = {mo: t for t, mo in enumerate(monos)}
        return self._monos[p]

    def _index(self, p: int) -> dict[tuple[int, ...], int]:
        """Position of each monomial in ``monomials(p)``."""
        self.monomials(p)
        return self._mono_index[p]

    def action_rows(self, p: int, i: int, k: tuple[Scalar, ...]) -> dict[int, dict[int, Scalar]]:
        """Rows of span vector i of h acting on L^p_s(g/h), for the monomials
        of weight bucket k (position -> row), cached per (p, i, k)."""
        rows = self._rows.get((p, i, k))
        if rows is None:
            rows = self._rows[p, i, k] = self._build_action_rows(p, i, k)
        return rows

    def _build_action_rows(self, p: int, i: int, k: tuple[Scalar, ...]) -> dict[int, dict[int, Scalar]]:
        # only the bucket k - shift(i) reaches bucket k.  Without a uniform
        # shift every monomial is a source, so one pass builds the rows of
        # every bucket of (p, i).  Sources go in ascending order, so each row
        # is the full row, key order included.
        monos, _ = self.monomials(p)
        buckets = self.buckets(p)
        shift = self.shift(i)
        sources = (
            range(len(monos)) if shift is None
            else buckets.get(tuple(a - b for a, b in zip(k, shift)), ())
        )
        rows = derivation_rows(
            self._quotient_cols[i], self.quotient_parities, monos, self._index(p), sources
        )
        if shift is None:
            for k2, ts in buckets.items():
                self._rows[p, i, k2] = {t: rows.get(t, {}) for t in ts}
            return self._rows.get((p, i, k), {})
        return {t: rows.get(t, {}) for t in buckets.get(k, ())}

    def weight_keys(self, p: int) -> list[tuple[Scalar, ...]]:
        """Weights of each monomial of degree p under the ``diagonal`` span vectors.

        Built incrementally: key(mo) = key(mo[:-1]) + eig(mo[-1]), since
        dropping the last factor of a normal-form monomial leaves a
        normal-form monomial.
        """
        keys = self._keys.get(p)
        if keys is None:
            prev, prev_index, eig = self.weight_keys(p - 1), self._index(p - 1), self.eig
            keys = self._keys[p] = [
                tuple(map(add, prev[prev_index[mo[:-1]]], eig[mo[-1]]))
                for mo in self.monomials(p)[0]
            ]
        return keys

    def buckets(self, p: int) -> dict[tuple[Scalar, ...], list[int]]:
        """Positions of the monomials of degree p grouped by weight key, ascending."""
        buckets = self._buckets.get(p)
        if buckets is None:
            buckets = self._buckets[p] = {}
            for t, key in enumerate(self.weight_keys(p)):
                buckets.setdefault(key, []).append(t)
        return buckets

    def shift(self, i: int) -> tuple[Scalar, ...] | None:
        """Weight-key change made by span vector i on g/h, None unless uniform.

        Every entry y -> y2 of its quotient action must change the key by
        the same amount; a vector acting as zero shifts by 0.  Keys are
        additive over the factors of a monomial, so the action maps weight
        bucket k into bucket k + shift.
        """
        if i not in self._shifts:
            shifts = {
                tuple(a - b for a, b in zip(self.eig[y2], self.eig[y]))
                for y, col in enumerate(self._quotient_cols[i])
                for y2 in col
            }
            if not shifts:
                shifts = {tuple(0 for _ in self.diagonal)}
            self._shifts[i] = shifts.pop() if len(shifts) == 1 else None
        return self._shifts[i]

    def _projected_brackets(self) -> list[list[list[tuple[int, Scalar]]]]:
        """pi[lift(q_a), lift(q_b)] in quotient coordinates for every (a, b), cached.

        pi is linear, so each bracket is combined from the projections of
        the basis vectors of g (``SubalgebraSpan.projections``).
        """
        if self._proj_brackets is None:
            g = self.g
            projections = [
                [(self.complement_pos[kk], v) for kk, v in residual.items()]
                for residual in self.h.projections()
            ]
            table = []
            for a in self.complement:
                row = []
                for b in self.complement:
                    acc: dict[int, Scalar] = {}
                    for k, c in g.bracket_basis(a, b):
                        _add_scaled(acc, projections[k], c)
                    row.append([(q, _exact(v)) for q, v in acc.items()])
                table.append(row)
            self._proj_brackets = table
        return self._proj_brackets

    def _bracket_inverse(self) -> list[list[tuple[int, int, int, Scalar]]]:
        """For each quotient basis vector q, the (a, b, k, v) such that q is
        term k of pi[lift(q_a), lift(q_b)] with coefficient v, for a before or
        equal to b in normal order (the only order a monomial holds them in)."""
        if self._inverse is None:
            qpar = self.quotient_parities
            inverse: list[list[tuple[int, int, int, Scalar]]] = [[] for _ in qpar]
            for a, row in enumerate(self._projected_brackets()):
                for b, terms in enumerate(row):
                    if (qpar[a], a) <= (qpar[b], b):
                        for k, (q, v) in enumerate(terms):
                            inverse[q].append((a, b, k, v))
            self._inverse = inverse
        return self._inverse

    def source_maps(
        self, p: int, w: int
    ) -> tuple[list[tuple[int, Scalar]], list[tuple[int, int, int]]]:
        """The terms of d from C^p to C^{p+1} that read phi at monomial w of
        degree p, built on first use and cached per (p, w).

        Bracket terms (t1, coeff): phi(w) contributes coeff * phi(w) to
        (d phi)(monomial t1 of degree p+1), one term per pair of positions
        i < j of t1 whose projected bracket holds the factor inserted into
        the rest.  Action terms (x, t1, sign): the lift of quotient basis
        vector x acts on phi(w) and lands at t1 = x ^ w, once per position
        of x in t1.  Both lists follow the position order of the formula in
        the module docstring: (t1, i, j, term of pi) and (t1, i).
        """
        cache = self._sources.setdefault(p, {})
        hit = cache.get(w)
        if hit is not None:
            return hit
        mo_w = self.monomials(p)[0][w]
        hi_index = self._index(p + 1)
        qpar = self.quotient_parities
        # second sum: x at position i of t1, with x ^ w = sign * t1; every
        # copy of an odd x carries the sign (-1)^{i + |x| pref[i]} of the first
        action: list[tuple[int, int, int]] = []
        for x in range(len(qpar)):
            ins = wedge_insert(x, mo_w, qpar)
            if ins is not None:
                sgn, mo = ins
                action += [(x, hi_index[mo], sgn)] * mo.count(x)
        action.sort(key=lambda term: term[1])
        # first sum: w = q ^ rest up to the sign s_q, and every (a, b) whose
        # projected bracket holds q reaches the target rest ^ a ^ b
        inverse = self._bracket_inverse()
        bracket: list[tuple[int, int, int, int, Scalar]] = []
        for q in dict.fromkeys(mo_w):
            pos = mo_w.index(q)
            rest = mo_w[:pos] + mo_w[pos + 1 :]
            s_q = wedge_insert(q, rest, qpar)[0]
            for a, b, k, v in inverse[q]:
                ins = wedge_insert(a, rest, qpar)
                if ins is None:
                    continue
                ins = wedge_insert(b, ins[1], qpar)
                if ins is None:
                    continue
                mo = ins[1]
                t1 = hi_index[mo]
                pref = [0]
                for y in mo:
                    pref.append(pref[-1] + qpar[y])
                pa, pb = qpar[a], qpar[b]
                # the copies of a and of b each form one block of positions
                first_a, first_b = mo.index(a), mo.index(b)
                for i in range(first_a, first_a + mo.count(a)):
                    for j in range(max(i + 1, first_b), first_b + mo.count(b)):
                        # sigma sign, 1-based positions
                        sig = (i + j + pa * pref[i] + pb * (pref[j] + pa)) % 2
                        bracket.append((t1, i, j, k, -s_q * v if sig else s_q * v))
        bracket.sort(key=lambda term: term[:4])
        hit = cache[w] = ([(t1, coeff) for t1, _, _, _, coeff in bracket], action)
        return hit


class _DefectColumns(dict):
    """Defect columns of one span vector, keyed by flat coordinate and
    built on first use (see ``RelativeComplex._defect_columns``)."""

    __slots__ = ("build",)

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, x: int):
        col = self[x] = self.build(x)
        return col


def _defect(columns: _DefectColumns, phi: dict[int, int]) -> dict[int, Scalar]:
    """Equivariance defect of the flat-coordinate cochain phi under the span
    vector of ``columns``: the module parts of all its coordinates, then the
    exterior-power parts, so the defect's keys come in that order."""
    cols = list(zip(map(columns.__getitem__, phi), phi.values()))
    out = _add_scaled({}, ((y, c * a) for (module, _), c in cols for y, a in module))
    return _add_scaled(out, ((y, c * a) for (_, ext), c in cols for y, a in ext))


class RelativeComplex:
    """Cochain complex of a pair (g, h) with coefficients in a g-module."""

    def __init__(self, pair: RelativePair, m: Representation):
        if m.algebra is not pair.g:
            raise AlgebraMismatch("coefficient module does not belong to g")
        self.pair = pair
        self.m = m
        h = pair.h

        # h acting on M (one matrix per span vector)
        m_actions = [m.action_of_vector(vec) for vec in h.vectors]
        self.m_action_cols = [a.col_dicts() for a in m_actions]
        # M actions of the lifts of the quotient basis vectors
        self.m_cols_by_complement = [m.actions[c].col_dicts() for c in pair.complement]

        # diagonal h vectors filter coordinates; the rest become constraints
        self.diag_idx = [i for i in pair.diagonal if m_actions[i].is_diagonal()]
        self.nondiag_idx = [i for i in range(h.dim) if i not in self.diag_idx]
        # module vectors by joint eigenvalue under diag_idx: a coordinate map
        # E_{vw} commutes with every diagonal element iff the keys agree
        self.m_buckets: dict[tuple[Scalar, ...], list[int]] = {}
        for v in range(m.dim):
            key = tuple(m_actions[i].entry(v, v) for i in self.diag_idx)
            self.m_buckets.setdefault(key, []).append(v)

        self.constraint_plan = self._plan_reduction()
        self._spaces: dict[int, CochainSpace] = {}
        self._diffs: dict[int, tuple[SparseMatrix, SparseMatrix]] = {}
        # ddzero: d on the numerators of C^p per (sector, basis index), by degree p
        self._basis_images: dict[int, dict[tuple[int, int], Cochain]] = {}

    # -- constraint reduction plan -------------------------------------------

    def _plan_reduction(self) -> list[list[int]]:
        """The groups of non-diagonal span vectors to impose, in order.

        Without a shortcut this is ``[nondiag_idx]``.  The reductive shortcut
        requires every even non-diagonal span vector to be a simultaneous
        ad-eigenvector of the diagonal ones, with nonzero weight, and the
        weight multiset to be symmetric.  Then the simple positive vectors
        suffice as even constraints (weight-zero highest-weight maps are
        invariant), and the plan is ``[simple even, odd]``, an empty group
        dropped: odd constraints are always kept in full.
        """
        h_alg = self.pair.quotient_rep.algebra
        even_nondiag = [i for i in self.nondiag_idx if h_alg.parities[i] == EVEN]
        if not even_nondiag:
            return [self.nondiag_idx]
        roots: dict[int, tuple[Scalar, ...]] = {}
        for x in even_nondiag:
            wt = []
            for t in self.diag_idx:
                terms = h_alg.bracket_basis(t, x)
                if not terms:
                    wt.append(0)
                elif len(terms) == 1 and terms[0][0] == x:
                    wt.append(terms[0][1])
                else:
                    return [self.nondiag_idx]  # not an eigenvector
            wt_t = tuple(wt)
            if not any(wt_t):
                return [self.nondiag_idx]  # zero weight but non-diagonal action
            roots[x] = wt_t
        values = sorted(roots.values())
        negated = sorted(tuple(-c for c in w) for w in roots.values())
        if values != negated:
            return [self.nondiag_idx]  # asymmetric (e.g. a Borel)
        positive = {w for w in roots.values() if w > tuple(0 for _ in w)}
        sums = {tuple(a + b for a, b in zip(u, v)) for u in positive for v in positive}
        simple = positive - sums
        odd = [i for i in self.nondiag_idx if h_alg.parities[i] == ODD]
        return [ids for ids in ([x for x in even_nondiag if roots[x] in simple], odd) if ids]

    # -- cochain spaces --------------------------------------------------------

    def lambda_rep(self, p: int) -> Representation:
        """Exterior power of g/h in degree p with its full action matrices
        (the engine reads the pair's ``action_rows`` and ``weight_keys`` instead)."""
        return super_exterior_power(self.pair.quotient_rep, p)

    def monomials(self, p: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """Monomial basis of L^p_s(g/h) with parities, shared through the pair."""
        return self.pair.monomials(p)

    def _defect_columns(
        self, p: int, i: int, lam_rows: dict[int, dict[int, Scalar]]
    ) -> _DefectColumns:
        """Defect columns of span vector i on the kept coordinates of degree p.

        The column of flat coordinate x = w * dim M + v is the defect of the
        unit cochain at (v, w): its module part, with the sign of an odd
        span vector acting on an odd map folded in, then its exterior-power
        part, which does not depend on the sector.
        """
        n = self.m.dim
        cols = self.m_action_cols[i]
        odd_vector = self.pair.h.vector_parities[i]
        m_par, mono_par = self.m.parities, self.pair.monomials(p)[1]

        def build(x: int) -> tuple[list[tuple[int, Scalar]], list[tuple[int, Scalar]]]:
            w, v = divmod(x, n)
            base = w * n
            if odd_vector and (m_par[v] + mono_par[w]) % 2:
                module = [(base + v2, -a) for v2, a in cols[v].items()]
            else:
                module = [(base + v2, a) for v2, a in cols[v].items()]
            return module, [(w2 * n + v, -a) for w2, a in lam_rows[w].items()]

        return _DefectColumns(build)

    def _impose(
        self,
        constraint_ids: list[int],
        columns_by_id: dict[int, _DefectColumns],
        candidates: list[dict[int, int]],
        free: list[int],
    ) -> tuple[list[dict[int, int]], list[int]]:
        """Cut the span of candidates by the listed equivariance constraints,
        one span vector after another.

        Candidates are integer cochains on flat coordinates: candidate k is
        positive at its anchor ``free[k]`` and 0 at the other anchors.  Each
        cut keeps the canonical kernel combinations of the candidates left by
        the one before, so the result is the kernel of all the listed
        constraints at once, anchored at its free columns.  The output
        vectors are the primitive integer multiples of those combinations,
        keys ascending, so they are integer cochains of the same kind.
        """
        for i in constraint_ids:
            columns = columns_by_id[i]
            row_ids: dict[int, int] = {}
            entries = []
            for k, phi in enumerate(candidates):
                for x, val in _defect(columns, phi).items():
                    entries.append((row_ids.setdefault(x, len(row_ids)), k, val))
            if not entries:  # no candidates, or none with a defect: nothing to cut
                continue
            mat = SparseMatrix(len(row_ids), len(candidates), entries)
            combos, free_cols = kernel_basis_with_free(mat)
            out: list[dict[int, int]] = []
            for nums, _ in combos:
                vec = _add_scaled({}, (
                    (x, c * a) for k, c in nums.items() for x, a in candidates[k].items()
                ))
                g = math.gcd(*vec.values())
                out.append({x: vec[x] // g for x in sorted(vec)})
            # candidate k is nonzero at its own anchor only, so the anchors of
            # the free candidate columns anchor the output
            candidates, free = out, [free[k] for k in free_cols]
        return candidates, free

    def space(self, p: int) -> CochainSpace:
        if p in self._spaces:
            return self._spaces[p]
        monos, mono_par = self.monomials(p)
        n = self.m.dim
        # kept coordinates as flat x = w * dim M + v, ascending, so by
        # monomial then module vector: a monomial bucket whose key, read at
        # diag_idx, is the key of a module bucket; the constraints read
        # action rows only in those buckets
        pos = [self.pair.diagonal.index(i) for i in self.diag_idx]
        kept_pair: list[list[int]] = [[], []]
        needed = []
        for key, ts in self.pair.buckets(p).items():
            vs = self.m_buckets.get(tuple(key[j] for j in pos))
            if vs:
                needed.append(key)
                for w in ts:
                    for v in vs:
                        kept_pair[(self.m.parities[v] + mono_par[w]) % 2].append(w * n + v)
        for kept in kept_pair:
            kept.sort()
        lam_rows_by_id: dict[int, dict[int, dict[int, Scalar]]] = {}
        for i in self.nondiag_idx:
            lam_rows = lam_rows_by_id[i] = {}
            for k in needed:
                lam_rows.update(self.pair.action_rows(p, i, k))
        numerators_pair: list[list[dict[Coord, int]]] = [[], []]
        scales_pair: list[list[int]] = [[], []]
        basis_pair: list[list[Cochain]] = [[], []]
        free_pair: list[list[Coord]] = [[], []]
        for sector in (EVEN, ODD):
            kept = kept_pair[sector]
            # one set of defect columns per span vector, shared by the plan,
            # the full solve and the re-verification; a coordinate belongs
            # to one sector, so each sector builds its own
            columns_by_id = {
                i: self._defect_columns(p, i, lam_rows_by_id[i]) for i in self.nondiag_idx
            }
            # the plan, then the full solve; either must pass the exact
            # re-verification of every constraint on every basis vector (on
            # its integer multiple: scaling keeps a zero defect zero)
            for plan in (self.constraint_plan, [self.nondiag_idx]):
                candidates: list[dict[int, int]] = [{x: 1} for x in kept]
                free: list[int] = list(kept)
                for ids in plan:
                    candidates, free = self._impose(ids, columns_by_id, candidates, free)
                witness = next((
                    (i, defect) for phi in candidates for i in self.nondiag_idx
                    if (defect := _defect(columns_by_id[i], phi))
                ), None)
                if witness is None:
                    break
            else:
                i, defect = witness
                x, c = next(iter(defect.items()))
                w, v = divmod(x, n)
                raise ConventionError(
                    f"cochain basis fails equivariance under span vector {i} of h "
                    f"(degree {p}, sector {sector}) at coordinate ({v}, {monos[w]}) "
                    f"with defect {c}"
                )
            # decode the flat coordinates, one (v, w) tuple per coordinate
            # shared by every vector and anchor; the public basis divides
            # each vector by its value at its anchor
            decode = {x: (x % n, x // n) for x in kept}
            numerators = [{decode[x]: c for x, c in phi.items()} for phi in candidates]
            scales = [phi[anchor] for phi, anchor in zip(candidates, free)]
            basis_pair[sector] = [
                phi if s == 1 else {coord: _exact(Fraction(c, s)) for coord, c in phi.items()}
                for phi, s in zip(numerators, scales)
            ]
            numerators_pair[sector], scales_pair[sector] = numerators, scales
            free_pair[sector] = [decode[x] for x in free]
        self._spaces[p] = CochainSpace(
            p, monos, mono_par, tuple(basis_pair), tuple(free_pair),
            tuple(numerators_pair), tuple(scales_pair),
        )
        return self._spaces[p]

    # -- differential ----------------------------------------------------------

    def apply_differential(self, p: int, sector: int, phi: Cochain) -> Cochain:
        source_maps = self.pair.source_maps
        qpar = self.pair.quotient_parities
        m_cols = self.m_cols_by_complement
        out: Cochain = {}
        for (v, w), c in phi.items():
            bracket_terms, action_terms = source_maps(p, w)
            _add_scaled(out, (((v, t1), coeff) for t1, coeff in bracket_terms), c)
            neg = None  # -c, built at most once per coordinate
            for x, t1, sgn in action_terms:
                col = m_cols[x][v]
                if col:
                    if qpar[x] and sector:
                        sgn = -sgn
                    if sgn < 0 and neg is None:
                        neg = -c
                    _add_scaled(out, (((v2, t1), a) for v2, a in col.items()), c if sgn > 0 else neg)
        return out

    def _expand(
        self, target: Cochain, space: CochainSpace, sector: int, scale: int = 1
    ) -> list[tuple[int, Scalar]]:
        """Coordinates of a cochain in the equivariant basis, verified exactly.

        Candidate coefficients are read off at the anchor coordinates; the
        expansion is then checked against every coordinate of the target,
        so any image outside the span aborts the computation.  The check
        runs on the numerators: with L the lcm of the scales,
        L * target - sum_k c_k (L / scale_k) numerator_k must vanish.  A
        target that is ``scale`` times the cochain of interest (the image of
        a numerator) reports the residual of that cochain.
        """
        anchors = space.free_index[sector]
        numerators, scales, lcm = space.numerators[sector], space.scales[sector], space.lcm[sector]
        coeffs = []
        residual = dict(target) if lcm == 1 else {coord: lcm * c for coord, c in target.items()}
        for coord, c in target.items():
            k = anchors.get(coord)
            if k is not None and c:
                coeffs.append((k, c))
                _add_scaled(residual, numerators[k].items(), -c * (lcm // scales[k]))
        if residual:
            (v, w), c = next(iter(residual.items()))
            raise ConventionError(
                "differential image escapes the equivariant span "
                f"(degree {space.degree}, sector {sector}) at coordinate "
                f"({v}, {space.monomials[w]}) with residual {_exact(Fraction(c, lcm * scale))}"
            )
        return coeffs

    def differential(self, p: int) -> SparseMatrix:
        """Matrix of d^p: C^p -> C^{p+1}, the even block then the odd block on
        the diagonal (map parity is preserved)."""
        even, odd = self._differential_blocks(p)
        shifted = ((even.rows + r, even.cols + c, v) for r, c, v in odd.entries())
        return SparseMatrix(
            even.rows + odd.rows, even.cols + odd.cols, [*even.entries(), *shifted]
        )

    def ddzero(self, p: int) -> bool:
        """Exact check that d(d(phi)) = 0 for every basis cochain of C^p.

        The check runs on the integer numerators, which d(d(.)) kills
        exactly when it kills the basis vectors.  Each image d(phi) is
        expanded in the basis of C^{p+1} (``_expand``, which verifies
        image = sum_k c_k psi_k exactly), so by linearity, with psi_k =
        numerator_k / scale_k and L the lcm of the scales,
        L d(d(phi)) = sum_k c_k (L / scale_k) d(numerator_k).  Each
        d(numerator_k) is built on the first use of that k and kept for
        ``ddzero(p + 1)``, which needs d on the numerators of C^{p+1} anyway;
        degree p+2 only contributes its monomial combinatorics (no
        equivariant basis is needed there).
        """
        src = self.space(p)
        dst = self.space(p + 1)
        images = self._basis_images.pop(p, {})
        next_images = self._basis_images.setdefault(p + 1, {})
        for sector in (EVEN, ODD):
            numerators, scales, lcm = dst.numerators[sector], dst.scales[sector], dst.lcm[sector]
            for k, phi in enumerate(src.numerators[sector]):
                image = images.pop((sector, k), None)
                if image is None:
                    image = self.apply_differential(p, sector, phi)
                dd: Cochain = {}
                for k2, c in self._expand(image, dst, sector, src.scales[sector][k]):
                    d_psi = next_images.get((sector, k2))
                    if d_psi is None:
                        d_psi = next_images[sector, k2] = self.apply_differential(
                            p + 1, sector, numerators[k2]
                        )
                    _add_scaled(dd, d_psi.items(), c * (lcm // scales[k2]))
                if dd:
                    return False
        return True

    def _differential_blocks(self, p: int) -> tuple[SparseMatrix, SparseMatrix]:
        """(even block, odd block) of d^p: C^p -> C^{p+1}, cached.

        d is applied to the integer numerators; only the matrix entries are
        divided by the source scale."""
        if p in self._diffs:
            return self._diffs[p]
        src = self.space(p)
        dst = self.space(p + 1)
        blocks = []
        for sector in (EVEN, ODD):
            entries = []
            for k, (phi, s) in enumerate(zip(src.numerators[sector], src.scales[sector])):
                image = self.apply_differential(p, sector, phi)
                for r, c in self._expand(image, dst, sector, s):
                    entries.append((r, k, c if s == 1 else Fraction(c, s)))
            blocks.append(
                SparseMatrix(len(dst.basis[sector]), len(src.basis[sector]), entries)
            )
        self._diffs[p] = blocks[0], blocks[1]
        return self._diffs[p]

    def report(self, max_degree: int) -> CohomologyReport:
        rows = []
        all_zero = True
        prev = (0, 0)  # ranks of d^{p-1} per sector
        for p in range(max_degree + 1):
            if not self.pair.monomials(p)[0]:
                # C^p = 0, and so is every higher degree: dropping the last
                # factor of a monomial leaves a monomial of one degree less
                rows += [CohomologyRow(q, 0, 0, 0, 0, 0) for q in range(p, max_degree + 1)]
                break
            blocks = self._differential_blocks(p)
            if not all(b.is_zero() for b in blocks):
                all_zero = False
            ranks = [rank(b) for b in blocks]
            sp = self.space(p)
            he = sp.dim_even - ranks[EVEN] - prev[EVEN]
            ho = sp.dim_odd - ranks[ODD] - prev[ODD]
            rows.append(CohomologyRow(p, sp.dim_even, sp.dim_odd, sum(ranks), he, ho))
            prev = ranks
        return CohomologyReport(
            self.pair.g.name,
            self.pair.h.label,
            self.m.name,
            max_degree,
            rows,
            all_zero,
        )


# ---------------------------------------------------------------------------
# module-level operations


def cohomology(
    g: LieSuperalgebra, h: SubalgebraSpan, m: Representation, max_degree: int
) -> CohomologyReport:
    return RelativeComplex(RelativePair(g, h), m).report(max_degree)


def relative_ext(
    g: LieSuperalgebra,
    h: SubalgebraSpan,
    m: Representation,
    n: Representation,
    max_degree: int,
    pair: RelativePair | None = None,
) -> CohomologyReport:
    """Ext between modules as cohomology with coefficients in dual(m) (x) n.

    ``pair`` is the ``RelativePair(g, h)`` to build on, to share it between
    several Ext computations; by default a new one is built.
    """
    if pair is None:
        pair = RelativePair(g, h)
    elif pair.g is not g or pair.h is not h:
        raise AlgebraMismatch("pair is not built on (g, h)")
    report = RelativeComplex(pair, tensor(dual(m), n)).report(max_degree)
    report.module = f"Ext({m.name},{n.name})"
    return report
