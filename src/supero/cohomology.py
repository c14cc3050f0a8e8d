"""Relative cochain complexes, their signed differential, and cohomology.

The cochain space in degree p consists of the h-equivariant linear maps
from the super p-th exterior power of g/h to the coefficient module M,

    C^p(g, h; M) = Hom_h(L^p_s(g/h), M)
                 = { phi : L^p_s(g/h) -> M  with  phi(x.w) = (-1)^{|x||phi|} x.phi(w) }.

Everything but the action on M depends only on the pair (g, h), and the
code is split the same way.  ``RelativePair(g, h)`` reads the coordinate
complement of h from the span, and holds, built with the pair because
every complex reads them: the action of h on g/h, the weight shift of
each span vector (``shifts``) and the projected brackets grouped by the
factor they hold (``bracket_groups``).  Built lazily and once per pair,
it holds one record per degree of L^p_s(g/h) (``degree``), made from the
one below in one pass, with the monomials, their parities and positions,
and, on first read, their weight keys under the span vectors acting
diagonally on g/h and the monomials grouped into buckets by key; and the
structure maps of the differential per source monomial (``source_maps``),
built only for the monomials that d reads.  The action
rows of a span vector of h on L^p_s(g/h) (``action_rows``) are not kept:
each defect operator builds the rows of its buckets in one pass and holds
them as long as it is read.
``RelativeComplex(pair, M)`` adds the action on M: the module vectors
grouped by weight, which pick the kept monomial buckets; the constraint
plan, the equivariant bases, the differential matrices and the
report.  One pair serves any number of coefficient modules, and a complex
asks the pair only for the action rows of the span vectors it imposes or
checks (every non-diagonal one only once a check fails), in the buckets
that hold its kept monomials.  A span vector that shifts every
weight by the same amount (``shifts``) reaches bucket k only from bucket
k - shift, so only those monomials are acted on; for one that does not,
every monomial is a source.  Either way each row is the full row.

A cochain is a dict keyed by the flat coordinate x = w * dim M + v of
module vector v at monomial w, so its order is the order by (w, v).  The
solve, the stored bases, d, the expansions and d o d = 0 all use it; only
an error text or a d o d witness decodes x, to (v, monomial).

Scalars follow the one convention of ``linalg``: ``int`` where the
denominator is 1 and ``Fraction`` otherwise.  The actions of g/h and of M
arrive as ``SparseMatrix`` columns and the projected brackets from
``SubalgebraSpan.project``, all already under it, so this module converts
nothing on the way in.  It applies ``linalg._exact`` only where it makes
a new value that may be an integral ``Fraction``: the divisions by anchor
values and the bracket terms of d summed per target.  The constraint
solve runs on integer cochains: each basis vector is kept as its
primitive integer multiple (``numerators``) and its value at its anchor
(``scales``), and the public ``basis`` divides the one by the other.  The
differential layer works on the numerators too: ``apply_differential``
acts on them, ``_expand`` checks an image against them in integers,
scaled by the lcm of the scales, and d o d = 0 checks their images, all
made in one place (``_images``).  A rank is taken on the expansion
coefficients themselves (``_block``): a source scale scales only its
column.  Values are divided only where they leave that layer: the entries
of ``differential(p)`` by the source scale, and a ``ConventionError``
residual by the lcm, or, at a report's last degree, by the source scale.

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
in the first.  Every sign and insertion point is read from positions in
the normal form, by the one insertion rule that the module docstring of
``reps`` states and its action rows use: x goes in at the bisect of its
rank among the ranks of w (``self.rank``), with the sign (-1)^pos for even
x and (-1)^(even factors of w) for odd x.  In a monomial
t1, the odd factors before position i number max(0, i - even factors of
t1), which is the prefix sum in s(i, j).  The c copies of an odd x in
x ^ w give c equal terms of the second sum, so each (x, t1) is stored
once with the signed multiplicity.  In the first sum too only odd
factors repeat, each odd copy moving i + |x_i|(i - even factors) by 2, so
the n_a n_b pairs of copies of x_a and x_b (n_a (n_a + 1) / 2 for a = b)
share one sign and are one term times their number; the terms of the
first sum that reach one t1 are stored as their sum.

Cochain bases are found as the simultaneous kernel of the equivariance
constraints, cut one span vector at a time.  The candidates start as one
unit cochain per kept coordinate; each span vector replaces them by the
canonical kernel combinations of their defects under it, so every cut is
a small kernel on what the cut before left.  Kernel bases are canonical,
so the result is the simultaneous kernel, anchored at its free
coordinates.  A defect is computed straight from the data it is made
of (``_defect_columns``): the pair's action rows of the degree in the
kept buckets, built in one pass, and M's columns of the span vector, one
operator per span vector serving both sectors, the cuts and the
re-verification.
``_defect`` makes two passes over a cochain, with ``_add_scaled``'s rules
inlined: the module parts of all its coordinates, then the exterior-power
parts.  Every cochain it is handed lies in one map-parity sector (unit
cochains, packed cochains and images alike), so, as in
``apply_differential``, the module parts of an odd span vector take the
sign (-1)^sector once per cochain.  Each cut hands its defects to the
kernel as rows (``linalg.RowMatrix``): one dict per defect coordinate, in
first-appearance order, keyed by candidate index.  The solve stays in
integers from the defects to the kernel; a ``Fraction`` enters only
through a module whose action has one.

The solve runs on blocks of M: the connected components of the graph that
the non-diagonal span vectors draw on M's basis.  Each block spans an
h-submodule, so Hom_h(L^p, M) is the direct sum over blocks and every cut
matrix is block-diagonal; both sectors are solved in one pass, one unit at
a time, and the union of a sector's units' canonical kernels, in the order
of their anchors, is the sector's canonical kernel.  Two blocks are of one
class when the order-preserving bijection sigma between them keeps
relative parities, diagonal weight keys and every non-diagonal action
entry, and, when an odd span vector is among the constraints, the parity
of the first vector too.  ``_split`` decides once per complex which
blocks share their class with another.  A unit is the kept coordinates of
one sector on one such shared block; units of one class and of one sector
relative to their first vector pose the same system on the same
monomials, so the first is solved and the rest relabel its result
v -> sigma(v), the odd sector reading off the even sector's numerators.
The kept coordinates of a sector on the other blocks are solved together,
as one unit, so a module with no two blocks of one class is solved a
sector at a time.  With no non-diagonal span vector there is nothing to
solve and no split, and each kept coordinate is its own basis vector.

Two exact reductions keep this affordable at scale, and both belong to
the complex because they depend on which elements of h act diagonally on
M: elements acting diagonally on both the monomial basis and M filter
coordinates directly, and when the non-diagonal even part of h is spanned
by paired root vectors (a reductive situation), a weight-zero map killed
by the simple positive root vectors is automatically killed by all of h's
even part.  The plan (``constraint_plan``) lists the span vectors whose
constraints are imposed, in order.  Every returned basis vector of both
sectors, relabelled ones included, is re-verified exactly against the
check list (``check_idx``): the plan, plus non-diagonal span vectors picked
greedily until single-term brackets of h carry the checks to all the rest
(``RelativePair.check_list``).  That is as exact as a check against every
non-diagonal span vector.  Each bracket [b_a, b_b] = v b_k it uses is
checked exactly to hold on g/h and on M, so it holds on L^p_s(g/h) and, up
to the sign (-1)^{|a||b|}, on the defect operators of Hom(L^p_s(g/h), M);
a kept coordinate is killed by every diagonal span vector, so a cochain of
one map parity killed by b_a and b_b is killed by b_k.  Where some check
fails, or no bracket helps, the list is every non-diagonal span vector.
The check asks only whether defects are zero, so it runs on packed
cochains (``_vanishes``, see packing below): per sector, each packed
cochain takes one defect per span vector of the list.  Per unit of a
vector's |.|_1, a defect entry is at most the largest |entry| of M's
columns plus p times the largest |entry| of the quotient columns of the
span vectors checked (``_defect_bound``, read only when two or more
cochains pack).  When some defect is nonzero and the plan drops some span
vector, both sectors are solved again by all of them, unit by unit as the
plan was, and re-verified in turn.  A basis that still fails raises
ConventionError, naming the first defect of the sectors in order, each
vector in the order of its anchor, in the order of all non-diagonal span
vectors: the span vector, degree, sector and first defect coordinate.

Which coordinates are kept is decided in one place (``_kept``), for the
solve of C^p and for the check of a report's last images against the
definition of C^{N+1}: module vector v at a monomial of weight bucket k,
when v's key under the diagonal span vectors is the one k reads there.

Images of the differential are expanded in the equivariant basis of the
next degree with an exact consistency assertion; a mismatch raises
ConventionError, naming the first escaping coordinate and its residual,
instead of silently projecting.

The engine's exact zero tests, d o d = 0 and the two equivariance checks,
ask only whether results are zero, so they run on many integer cochains
at once: the cochains are packed into one by Kronecker substitution,
sum_j 2^(b j) vector_j (``_pack``, at most ``PACKED_IMAGES`` to a packed
cochain, ``_packs``).  The check is linear, so it is zero on the packed
cochain exactly when it is on each vector, provided every entry it makes
is a balanced digit.  One rule (``_width``) gives b from |.|_1, the largest
sum of absolute values over one vector, and a bound E per unit of |.|_1
on every entry the check makes, which each check supplies from its data:
b is the least width with 2^b > 2 |.|_1 E.  One function (``_vanishes``)
runs every such check: it packs only two or more vectors, and only then
asks for E, so a lone vector is checked on its own.  With E None, or an
entry of a vector that is not an int, there is no width, and the vectors
are checked one at a time; so is a failure, to name its witness.  Nothing
is checked modulo a prime or by sampling.

The d o d = 0 check (``ddzero_witness``) packs, per (degree, sector), the
nonzero images d(phi_k) of the numerators of C^p (``_images``, each built
on its own).  The residual of a packed cochain against the basis of C^{p+1}
(``_residual``, ``_expand``'s rule) and d of it are zero exactly when
every image expands in that basis and every d(d(phi_k)) is zero.  E
(``_dd_bound``) comes from the largest projected bracket of g/h and entry
of M's columns, found once per complex, and the numerators and scales of
C^{p+1}; it is None unless d is integral.  Where a packed result is
nonzero, or there is no width, the same test runs on one image at a time,
in basis order: ``_expand`` raises on a residual, and the first nonzero
entry of d of the image names the failure.

The report's last degree N is the exception: no row prints C^{N+1}, so
its basis is never solved (``_top_rank``).  rank d^N is the rank of the
images of C^N's numerators as integer rows on the flat coordinates of
degree N + 1, equal to that of their expansions because expanding is
injective, and each image is checked against the definition of C^{N+1}
instead of against a basis: every coordinate must be kept by the sector,
or the escape error above is raised, and the defect under every span
vector of the check list must vanish.  That check runs on the images
packed as the basis vectors are (``_vanishes``); where a packed
defect is nonzero, ConventionError names the first failing span vector,
in the order of all non-diagonal ones, and the first defect coordinate
and value of the first image it does not kill.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from functools import partial
from operator import add, itemgetter
from typing import Callable, Iterable, NamedTuple

from .algebras import EVEN, ODD, SCHEMA, LieSuperalgebra, SubalgebraSpan, quotient_action
from .errors import AlgebraMismatch, ConventionError, DimensionMismatch
from .linalg import (
    RowMatrix, Scalar, SparseMatrix, _add_scaled, _exact, kernel_basis_with_free, rank
)
from .reps import Representation, _ranks, derivation_rows, dual, monomial_steps, tensor

Cochain = dict[int, Scalar]  # flat coordinate w * dim M + v -> value
# one span vector's defect operator on one degree (``_defect_columns``): the
# action rows of its monomials, M's columns, dim M and the span vector's parity
_DefectOperator = tuple[dict[int, dict[int, Scalar]], list[dict[int, Scalar]], int, int]
Derivation = tuple[int, int, int, Scalar]  # (k, a, b, v): [b_a, b_b] = v b_k in h


def _derive(rules: list[tuple[int, int, int, Scalar]], have: set[int]) -> list[Derivation]:
    """The span vectors that the single-term brackets ``rules``, each
    (a, b, k, v) with [b_a, b_b] = v b_k, reach from the span vectors
    ``have``, as derivations (k, a, b, v) in the order reached: a and b
    are in ``have`` or reached before k."""
    have = set(have)
    out: list[Derivation] = []
    grown = True
    while grown:
        grown = False
        for a, b, k, v in rules:
            if k not in have and a in have and b in have:
                have.add(k)
                out.append((k, a, b, v))
                grown = True
    return out


def _respects(
    cols: list[list[dict[int, Scalar]]], par: tuple[int, ...], k: int, a: int, b: int, v: Scalar
) -> bool:
    """Exact check that the action whose columns per span vector are
    ``cols`` takes [b_a, b_b] = v b_k to the supercommutator:
    rho(a) rho(b) - (-1)^{|a||b|} rho(b) rho(a) = v rho(k), column by column."""
    s = 1 if par[a] and par[b] else -1
    ca, cb, ck = cols[a], cols[b], cols[k]
    for u, col in enumerate(ck):
        out: dict[int, Scalar] = {}
        for w, c in cb[u].items():
            _add_scaled(out, ca[w].items(), c)
        for w, c in ca[u].items():
            _add_scaled(out, cb[w].items(), s * c)
        _add_scaled(out, col.items(), -v)
        if out:
            return False
    return True


class CochainSpace:
    """Equivariant cochains in one degree, split by map parity.

    ``basis[s][k]`` is 1 at its anchor ``free_coords[s][k]`` and 0 at the
    other anchors.  It equals ``numerators[s][k] / scales[s][k]``, where the
    numerator is a primitive integer cochain and the scale its positive
    value at the anchor.  Only these are stored: ``basis`` divides on each
    read, and hands out the numerator itself where the scale is 1.  Every
    cochain lists its flat coordinates ascending.
    """

    # __weakref__: a profiler may key spaces by identity without keeping them
    __slots__ = ("degree", "monomials", "free_coords", "numerators", "scales",
                 "free_index", "lcm", "__weakref__")

    def __init__(
        self,
        degree: int,
        monomials: tuple[tuple[int, ...], ...],
        free_coords: tuple[list[int], list[int]],  # index 0: even maps, 1: odd maps
        numerators: tuple[list[dict[int, int]], list[dict[int, int]]],
        scales: tuple[list[int], list[int]],
    ):
        self.degree = degree
        self.monomials = monomials
        self.free_coords = free_coords
        self.numerators = numerators
        self.scales = scales
        # per sector: anchor coordinate -> index of the basis vector it anchors
        self.free_index = tuple({x: k for k, x in enumerate(xs)} for xs in free_coords)
        # per sector: lcm of the scales, so lcm // scale weights each numerator
        self.lcm = tuple(math.lcm(*s) for s in scales)

    @property
    def basis(self) -> tuple[list[Cochain], list[Cochain]]:
        """Each numerator divided by its scale, built on each read."""
        return tuple(
            [phi if s == 1 else {x: _exact(Fraction(c, s)) for x, c in phi.items()}
             for phi, s in zip(numerators, scales)]
            for numerators, scales in zip(self.numerators, self.scales)
        )

    @property
    def dim_even(self) -> int:
        return len(self.numerators[EVEN])

    @property
    def dim_odd(self) -> int:
        return len(self.numerators[ODD])

    @property
    def dim(self) -> int:
        return self.dim_even + self.dim_odd


class CohomologyRow(NamedTuple):
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


class CohomologyReport(NamedTuple):
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
            "schema": SCHEMA,
            "kind": "cohomology_report",
            "algebra": self.algebra,
            "subalgebra_spec": self.subalgebra,
            "module": self.module,
            "N": self.max_degree,
            "rows": [r.to_json_dict() for r in self.rows],
            "all_differentials_zero": self.all_differentials_zero,
        }


class MonomialDegree:
    """One degree of L^p_s(g/h): its monomials in lexicographic order, their
    parities and positions, and, built on first read, a weight key per
    monomial (``weight_keys``) and the monomials grouped by key (``buckets``)."""

    __slots__ = ("monomials", "parities", "index", "_tables")

    def __init__(self, monomials, parities, index, tables):
        self.monomials, self.parities, self.index = monomials, parities, index
        self._tables = tables  # (weight keys, buckets), or a function that builds them

    weight_keys = property(lambda self: self._read()[0])
    buckets = property(lambda self: self._read()[1])

    def _read(self) -> tuple[list[tuple[Scalar, ...]], dict[tuple[Scalar, ...], list[int]]]:
        if callable(self._tables):
            self._tables = self._tables()
        return self._tables


def _key_tables(
    qpar: tuple[int, ...], eig: list[tuple[Scalar, ...]], below: MonomialDegree
) -> tuple[list[tuple[Scalar, ...]], dict[tuple[Scalar, ...], list[int]]]:
    """Weight keys and buckets of the degree above ``below``: the parent's
    key plus the last factor's, the child's key and bucket made once per
    parent key and factor."""
    keys, buckets, children = [], {}, {}
    for pkey, xs in zip(below.weight_keys, monomial_steps(qpar, below.monomials)):
        row = children.get(pkey) or children.setdefault(pkey, [None] * len(qpar))
        for x in xs:
            if row[x] is None:
                key = tuple(map(add, pkey, eig[x]))
                row[x] = key, buckets.setdefault(key, [])
            key, bucket = row[x]
            bucket.append(len(keys))
            keys.append(key)
    return keys, buckets


class RelativePair:
    """The part of C^p(g, h; M) that does not depend on M: what every
    complex reads is built with the pair, the rest on demand."""

    def __init__(self, g: LieSuperalgebra, h: SubalgebraSpan):
        if h.parent is not g:
            raise AlgebraMismatch("subalgebra span does not belong to g")
        self.g = g
        self.h = h
        self.complement = h.complement
        self.complement_pos = {c: t for t, c in enumerate(self.complement)}
        self.quotient_parities = tuple(g.parities[c] for c in self.complement)
        self.rank = _ranks(self.quotient_parities)  # the normal form sorts by rank
        self.quotient_rep = quotient_action(g, h)  # raises NotASubalgebra unless h is closed
        self._quotient_cols = [a.col_dicts() for a in self.quotient_rep.actions]
        # span vectors acting diagonally on g/h; their weights key the monomials
        self.diagonal = [i for i, a in enumerate(self.quotient_rep.actions) if a.is_diagonal()]
        # weight key of each quotient basis vector
        self.eig = [
            tuple(self.quotient_rep.actions[i].entry(y, y) for i in self.diagonal)
            for y in range(len(self.complement))
        ]
        # degree 0 holds the empty monomial, even and of weight 0
        zero = tuple(0 for _ in self.diagonal)
        self._degrees = [MonomialDegree(((),), (0,), {(): 0}, ([zero], {zero: [0]}))]
        # the weight-key change made by each span vector on g/h, None unless
        # uniform: every entry y -> y2 of its quotient action must change the
        # key by the same amount, and a vector acting as zero shifts by 0.
        # Keys are additive over the factors of a monomial, so the action
        # maps weight bucket k into bucket k + shift.
        self.shifts: list[tuple[Scalar, ...] | None] = []
        for cols in self._quotient_cols:
            found = {
                tuple(a - b for a, b in zip(self.eig[y2], self.eig[y]))
                for y, col in enumerate(cols)
                for y2 in col
            } or {zero}
            self.shifts.append(found.pop() if len(found) == 1 else None)
        # for each quotient basis vector q, the pairs (a, [(b, v), ...]) such
        # that q has coefficient v in pi[lift(q_a), lift(q_b)], for a before
        # or equal to b in normal order (the only order a monomial holds them
        # in), grouped by a.  pi is the span's ``project``, applied only to
        # the pairs kept.
        rank, pos = self.rank, self.complement_pos
        groups: list[dict[int, list[tuple[int, Scalar]]]] = [{} for _ in rank]
        for a, ca in enumerate(self.complement):
            for b, cb in enumerate(self.complement):
                if rank[a] <= rank[b]:
                    for kk, v in h.project(g.bracket_basis(ca, cb)).items():
                        groups[pos[kk]].setdefault(a, []).append((b, v))
        self.bracket_groups = [list(by_a.items()) for by_a in groups]
        self._sources: dict[int, dict[int, tuple[list, list]]] = {}

    def degree(self, p: int) -> MonomialDegree:
        """Degree p, built in one pass from degree p - 1 (``monomial_steps``):
        parity is the parent's plus the last factor's, and so is the weight
        key, on first read."""
        if p < 0:
            raise DimensionMismatch("negative exterior degree")
        degrees, qpar = self._degrees, self.quotient_parities
        while len(degrees) <= p:
            below = degrees[-1]
            monos, pars = [], []
            steps = monomial_steps(qpar, below.monomials)
            for mo, par, xs in zip(below.monomials, below.parities, steps):
                for x in xs:
                    monos.append(mo + (x,))
                    pars.append(par ^ qpar[x])
            index = {mo: t for t, mo in enumerate(monos)}
            # not a bound method: that would tie the pair into a reference cycle
            tables = partial(_key_tables, qpar, self.eig, below)
            degrees.append(MonomialDegree(tuple(monos), tuple(pars), index, tables))
        return degrees[p]

    def action_rows(
        self, p: int, i: int, keys: Iterable[tuple[Scalar, ...]]
    ) -> dict[int, dict[int, Scalar]]:
        """Rows of span vector i of h acting on L^p_s(g/h) for the monomials
        of the weight buckets ``keys`` (position -> row), bucket by bucket in
        ``keys`` order, from one ``derivation_rows`` pass; the pair keeps none.

        Only bucket k - shifts[i] reaches bucket k; without a uniform shift
        every monomial is a source.  Sources go in ascending order, so each
        row is the full row, key order included."""
        deg, shift, keys = self.degree(p), self.shifts[i], list(keys)
        sources = range(len(deg.monomials)) if shift is None else sorted(
            t for k in keys for t in deg.buckets.get(tuple(a - b for a, b in zip(k, shift)), ())
        )
        rows = derivation_rows(
            self._quotient_cols[i], self.quotient_parities, deg.monomials, deg.index, sources
        )
        return {t: rows.get(t, {}) for k in keys for t in deg.buckets.get(k, ())}

    def check_list(self, diag_idx: list[int], plan: list[int]) -> tuple[list[int], list[Derivation]]:
        """The non-diagonal span vectors whose equivariance checks are made,
        given the span vectors ``diag_idx`` that filter coordinates and the
        constraint plan, with the brackets that carry the checks to the
        rest.

        Span vector k is derived when [b_a, b_b] = v b_k is a single term of
        h's structure constants, with a and b diagonal, listed or derived
        before k (``_derive``).  The list starts from the plan; while some
        non-diagonal span vector is neither listed nor derived, it takes the
        one whose addition derives the most, the lowest index on a tie.  It
        comes back in index order with its derivations (k, a, b, v), each
        checked exactly on g/h (``_respects``).  When nothing is derived, or
        a check fails, the list is every non-diagonal span vector and there
        are no derivations.
        """
        h_alg, diag = self.quotient_rep.algebra, set(diag_idx)
        nondiag = [i for i in range(h_alg.dim) if i not in diag]
        rules = [
            (a, b, *terms[0]) for a in range(h_alg.dim) for b in range(a, h_alg.dim)
            if len(terms := h_alg.bracket_basis(a, b)) == 1 and terms[0][0] not in diag
        ]
        listed = set(plan)
        derived = _derive(rules, diag | listed)
        while len(listed) + len(derived) < len(nondiag):
            reached = listed.union(k for k, _, _, _ in derived)
            listed.add(max(
                (i for i in nondiag if i not in reached),
                key=lambda i: (len(_derive(rules, diag | listed | {i})), -i),
            ))
            derived = _derive(rules, diag | listed)
        if derived and all(_respects(self._quotient_cols, h_alg.parities, *d) for d in derived):
            return [i for i in nondiag if i in listed], derived
        return nondiag, []

    def source_maps(
        self, p: int, w: int
    ) -> tuple[list[tuple[int, Scalar]], list[tuple[int, int, int]]]:
        """The terms of d from C^p to C^{p+1} that read phi at monomial w of
        degree p, built on first use and cached per (p, w).

        Bracket terms (t1, coeff): phi(w) contributes coeff * phi(w) to
        (d phi)(monomial t1 of degree p+1), one term per target t1, summed
        over the pairs of positions i < j of t1 whose projected bracket
        holds the factor inserted into the rest, each pair of copies of the
        same two factors with one sign; a zero sum has no term.  Action
        terms (x, t1, m): the lift of quotient basis vector x acts on phi(w)
        and lands at t1 = x ^ w, with m the sign times the number of copies
        of x in t1, since every copy gives the same term.  Both lists ascend
        by t1.

        Signs and insertion points are read from positions in the normal
        form (see the module docstring), with no product of monomials.
        """
        cache = self._sources.setdefault(p, {})
        hit = cache.get(w)
        if hit is not None:
            return hit
        mo_w = self.degree(p).monomials[w]
        hi_index = self.degree(p + 1).index
        qpar, rank = self.quotient_parities, self.rank
        ranks_w = [rank[y] for y in mo_w]
        even_w = bisect_left(ranks_w, len(qpar))
        # second sum: x goes in at position i of t1 with x ^ w = sign * t1
        action: list[tuple[int, int, int]] = []
        for x, px in enumerate(qpar):
            i = bisect_left(ranks_w, rank[x])
            if px:  # passes every even factor; one equal term per copy in t1
                m = (-1 if even_w % 2 else 1) * (mo_w.count(x) + 1)
            elif i == p or mo_w[i] != x:  # passes the i even factors before it
                m = -1 if i % 2 else 1
            else:  # x ^ x = 0
                continue
            action.append((x, hi_index[mo_w[:i] + (x,) + mo_w[i:]], m))
        action.sort(key=itemgetter(1))
        # first sum: w = s_q * q ^ rest, and every (a, b) whose projected
        # bracket holds q reaches the target t1 = rest ^ a ^ b
        groups = self.bracket_groups
        # one term per target: the (i, j, k) terms of t1 summed
        bracket: dict[int, Scalar] = {}
        for q in dict.fromkeys(mo_w):
            pos = mo_w.index(q)
            rest, ranks_r = mo_w[:pos] + mo_w[pos + 1 :], ranks_w[:pos] + ranks_w[pos + 1 :]
            s_q = -1 if (even_w if qpar[q] else pos) % 2 else 1
            even_r = even_w - 1 + qpar[q]
            for a, terms in groups[q]:
                pa, ra = qpar[a], rank[a]
                ia = bisect_left(ranks_r, ra)
                if not pa and ia < p - 1 and rest[ia] == a:
                    continue
                rest_a, ranks_a = rest[:ia] + (a,) + rest[ia:], ranks_r[:ia] + [ra] + ranks_r[ia:]
                n_a = bisect_right(ranks_a, ra, ia) - ia  # copies of a in rest ^ a
                for b, v in terms:
                    pb, rb = qpar[b], rank[b]
                    ib = bisect_left(ranks_a, rb)
                    if not pb and ib < p and rest_a[ib] == b:
                        continue
                    t1 = hi_index[rest_a[:ib] + (b,) + rest_a[ib:]]
                    # the copies of a and of b each form one block of t1,
                    # at ia and at ib (for a = b one block of n_a + 1); an
                    # odd factor at position i of t1 has i - even1 odd
                    # factors before it, so all pairs of copies share sigma
                    n_b = bisect_right(ranks_a, rb, ib) - ib + 1
                    even1 = even_r + 2 - pa - pb
                    i, j = ia, ib + (a == b)
                    # sigma of the first pair, 1-based positions
                    sig = (i + j + pa * (i - even1) + pb * (j - even1 + pa)) % 2
                    pairs = n_a * n_b // 2 if a == b else n_a * n_b
                    bracket[t1] = bracket.get(t1, 0) + (-pairs if sig else pairs) * s_q * v
        hit = cache[w] = ([(t1, _exact(c)) for t1, c in sorted(bracket.items()) if c], action)
        return hit


def _defect(op: _DefectOperator, sector: int, phi: dict[int, int]) -> dict[int, Scalar]:
    """Equivariance defect of the flat-coordinate cochain phi of ``sector``
    under the span vector of ``op`` (``RelativeComplex._defect_columns``).

    Coordinate x = w * dim M + v with value c contributes a module part,
    c times M's column v at monomial w, negated when the span vector and
    the sector are odd, and an exterior-power part, minus c times the
    action row of w at module vector v.  The module parts of all
    coordinates come first, then the exterior-power parts, so the defect's
    keys come in that order."""
    lam_rows, cols, n, odd = op
    flip = odd and sector
    # _add_scaled inlined: a key keeps its place while nonzero, a zero sum
    # is deleted
    out: dict[int, Scalar] = {}
    get = out.get
    for x, c in phi.items():
        v = x % n
        if flip:
            c = -c
        base = x - v
        for v2, a in cols[v].items():
            y = base + v2
            val = get(y, 0) + c * a
            if val:
                out[y] = val
            elif y in out:
                del out[y]
    for x, c in phi.items():
        w, v = divmod(x, n)
        for w2, a in lam_rows[w].items():
            y = w2 * n + v
            val = get(y, 0) - c * a
            if val:
                out[y] = val
            elif y in out:
                del out[y]
    return out


def _cut(
    constraint_ids: list[int],
    ops: dict[int, _DefectOperator],
    sector: int,
    candidates: list[dict[int, int]],
    free: list[int],
) -> tuple[list[dict[int, int]], list[int]]:
    """Cut the span of candidates by the listed equivariance constraints,
    one span vector after another.

    Candidates are integer cochains on flat coordinates of ``sector``:
    candidate k is positive at its anchor ``free[k]`` and 0 at the other
    anchors.  Each cut keeps the canonical kernel combinations of the
    candidates left by the one before, so the result is the kernel of all
    the listed constraints at once, anchored at its free columns.  The output vectors
    are the primitive integer multiples of those combinations, keys
    ascending, so they are integer cochains of the same kind.
    """
    for i in constraint_ids:
        op = ops[i]
        # one row per defect coordinate, in first-appearance order, each
        # {candidate index: value} with the indices ascending
        rows: dict[int, dict[int, Scalar]] = {}
        for k, phi in enumerate(candidates):
            for x, val in _defect(op, sector, phi).items():
                row = rows.get(x)
                if row is None:
                    rows[x] = {k: val}
                else:
                    row[k] = val
        if not rows:  # no candidates, or none with a defect: nothing to cut
            continue
        combos, free_cols = kernel_basis_with_free(RowMatrix(list(rows.values()), len(candidates)))
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


def _relabel(
    vectors: list[dict[int, int]], anchors: list[int], to: dict[int, int]
) -> tuple[list[dict[int, int]], list[int]]:
    """The vectors and anchors of a solved unit moved to a unit that poses
    the same system: ``to`` maps each kept coordinate of the one to the
    kept coordinate of the other that sigma gives it (v -> sigma(v), w
    fixed)."""
    return [{to[x]: c for x, c in phi.items()} for phi in vectors], [to[x] for x in anchors]


# Cochains per packed cochain (``_packs``): the images of ``ddzero_witness``,
# and the basis numerators and last images whose equivariance ``space`` and
# ``_top_rank`` check.  Chosen on d o d = 0 over the ddzero suite (CPython
# 3.11, 2-vCPU VM): with no cap the q(3) cells pack up to 1,449 images and
# peak RSS rose from 51 MB to 61 MB; at 256 it is 42 MB, and the other 108
# cells, none over 292 images, run as fast as with no cap.
PACKED_IMAGES = 256


def _pack(images: list[Cochain], width: int) -> Cochain:
    """The integer cochains ``images`` packed into one by Kronecker
    substitution: sum_j 2^(width * j) images[j].

    Under a linear map with integer entries the packed cochain goes to the
    images packed the same way.  When every entry there is below
    2^(width - 1) in absolute value, they are balanced digits in base
    2^width, so the packed result is zero exactly when each one is."""
    packed: Cochain = {}
    get = packed.get
    for j, image in enumerate(images):
        shift = width * j
        for x, c in image.items():
            packed[x] = get(x, 0) + (c << shift)
    return packed


def _width(vectors: list[Cochain], bound: int | None) -> int | None:
    """The width b for ``_pack``ing ``vectors`` into a check that makes no
    entry above |.|_1 * ``bound`` from one of them, |.|_1 the largest sum
    of absolute values over one vector: the least b with
    2^b > 2 |.|_1 bound, so every digit of a packed result is below
    2^(b - 1) in absolute value.  None, and the vectors are checked one at
    a time, when ``bound`` is None or some entry of a vector is not an int."""
    # a sum of ints is an int; one Fraction makes it a Fraction
    norm = max(sum(map(abs, phi.values())) for phi in vectors)
    if bound is None or type(norm) is not int:
        return None
    return (2 * norm * bound).bit_length()


def _packs(vectors: list[Cochain], width: int) -> Iterable[Cochain]:
    """``vectors`` ``_pack``ed at ``width``, at most ``PACKED_IMAGES`` to a
    packed cochain."""
    for j in range(0, len(vectors), PACKED_IMAGES):
        yield _pack(vectors[j : j + PACKED_IMAGES], width)


def _vanishes(
    vectors: list[Cochain], bound: Callable[[], int | None], test: Callable[[Cochain], object]
) -> bool:
    """Whether the linear check ``test`` gives nothing nonzero on any
    cochain of ``vectors``.

    Two or more vectors are packed (``_packs``) at the width ``_width``
    gives at ``bound()``, which is asked for only then: the check is zero on
    a packed cochain exactly when it is on each vector.  A lone vector, or
    vectors with no width, are checked on their own."""
    width = _width(vectors, bound()) if len(vectors) > 1 else None
    return not any(map(test, vectors if width is None else _packs(vectors, width)))


def _defective(ops: dict[int, _DefectOperator], sector: int, phi: Cochain) -> bool:
    """Whether phi, a cochain of ``sector``, has a nonzero defect under some
    span vector of ``ops``."""
    return any(_defect(op, sector, phi) for op in ops.values())


def _largest(values: list[Scalar]) -> int | None:
    """The largest absolute value among ``values``, 0 for none; None unless
    every value is an int."""
    # a sum of ints is an int; one Fraction makes it a Fraction
    return max(map(abs, values), default=0) if type(sum(values)) is int else None


def _residual(
    target: Cochain, space: CochainSpace, sector: int
) -> tuple[list[tuple[int, Scalar]], Cochain]:
    """The coefficients (k, c_k) of a cochain read off at the anchors of
    ``space``'s basis in ``sector``, and the residual
    L * target - sum_k c_k (L / scale_k) numerator_k, with L the lcm of the
    scales: zero exactly when target = sum_k c_k basis_k."""
    anchors = space.free_index[sector]
    numerators, scales, lcm = space.numerators[sector], space.scales[sector], space.lcm[sector]
    coeffs = []
    residual = dict(target) if lcm == 1 else {x: lcm * c for x, c in target.items()}
    for x, c in target.items():
        k = anchors.get(x)
        if k is not None and c:
            coeffs.append((k, c))
            _add_scaled(residual, numerators[k].items(), -c * (lcm // scales[k]))
    return coeffs, residual


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
        keys = [tuple(m_actions[i].entry(v, v) for i in self.diag_idx) for v in range(m.dim)]
        for v, key in enumerate(keys):
            self.m_buckets.setdefault(key, []).append(v)
        # where diag_idx sits in a monomial weight key (``_kept``)
        self._key_pos = [pair.diagonal.index(i) for i in self.diag_idx]

        self.constraint_plan = self._plan_reduction()
        # the span vectors whose equivariance is checked: the rest follow by
        # brackets that g/h respects (``check_list``) and, checked here, M
        self.check_idx, derived = pair.check_list(self.diag_idx, self.constraint_plan)
        par = h.vector_parities
        if derived and not all(_respects(self.m_action_cols, par, *d) for d in derived):
            self.check_idx = self.nondiag_idx
        # the blocks of M that the solve is split by, and which of them share
        # a solve (``_units``); with no constraint there is nothing to
        # solve, and no split
        self._blocks = self._split(keys) if self.nondiag_idx else None
        self._spaces: dict[int, CochainSpace] = {}
        # ``_dd_bound``'s largest |projected bracket| and |entry of M|,
        # None unless all are ints
        bounds = (
            _largest([v for group in pair.bracket_groups for _, terms in group for _, v in terms]),
            _largest([a for cols in self.m_cols_by_complement for col in cols for a in col.values()]),
        )
        self._entry_bounds = None if None in bounds else bounds
        # ``_defect_bound``'s largest |entry| of M's columns and of the
        # quotient columns, per span vector, found on first demand
        self._defect_bounds: dict[int, tuple[int | None, int | None]] = {}

    # -- constraint reduction plan -------------------------------------------

    def _plan_reduction(self) -> list[int]:
        """The non-diagonal span vectors to impose, in order.

        Without a shortcut this is ``nondiag_idx``.  The reductive shortcut
        requires every even non-diagonal span vector to be a simultaneous
        ad-eigenvector of the diagonal ones, with nonzero weight, and the
        weight multiset to be symmetric.  Then the simple positive vectors
        suffice as even constraints (weight-zero highest-weight maps are
        invariant), and the plan is the simple even vectors, then the odd
        ones: odd constraints are always kept in full.
        """
        h_alg = self.pair.quotient_rep.algebra
        even_nondiag = [i for i in self.nondiag_idx if h_alg.parities[i] == EVEN]
        if not even_nondiag:
            return self.nondiag_idx
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
                    return self.nondiag_idx  # not an eigenvector
            wt_t = tuple(wt)
            if not any(wt_t):
                return self.nondiag_idx  # zero weight but non-diagonal action
            roots[x] = wt_t
        values = sorted(roots.values())
        negated = sorted(tuple(-c for c in w) for w in roots.values())
        if values != negated:
            return self.nondiag_idx  # asymmetric (e.g. a Borel)
        positive = {w for w in roots.values() if w > tuple(0 for _ in w)}
        sums = {tuple(a + b for a, b in zip(u, v)) for u in positive for v in positive}
        simple = positive - sums
        odd = [i for i in self.nondiag_idx if h_alg.parities[i] == ODD]
        return [x for x in even_nondiag if roots[x] in simple] + odd

    def _split(
        self, keys: list[tuple[Scalar, ...]]
    ) -> tuple[list[int], list[tuple[int, int]]] | None:
        """M's basis split into blocks, the connected components of the graph
        that the non-diagonal span vectors draw on it, each block ascending.

        Every block spans an h-submodule, so Hom_h(L^p, M) is the direct sum
        over blocks and every cut matrix is block-diagonal.  Returns the
        block of each module vector and, per block, its class and the parity
        of its first vector when another block is of its class (a shared
        block), None otherwise; or None when no two blocks are of one class,
        and so no solve can be shared.  Two blocks are of one class when the
        order-preserving bijection between them keeps the parities relative
        to the first vector, the diagonal weight keys and every non-diagonal
        action entry; with an odd span vector among the constraints, whose
        sign depends on the sector, it must keep the first parity too.  So
        two blocks of one class keep the same number of coordinates of a
        degree, in sectors of the same relative parity, and whether a block
        is shared does not depend on the degree.
        """
        n, par = self.m.dim, self.m.parities
        cols = [self.m_action_cols[i] for i in self.nondiag_idx]
        root = list(range(n))

        def find(v: int) -> int:
            while root[v] != v:
                root[v] = v = root[root[v]]
            return v

        for by_v in cols:
            for v, col in enumerate(by_v):
                for v2 in col:
                    a, b = find(v), find(v2)
                    if a != b:
                        root[max(a, b)] = min(a, b)
        by_root: dict[int, list[int]] = {}
        for v in range(n):
            by_root.setdefault(find(v), []).append(v)
        if len(by_root) == 1:
            return None
        blocks = list(by_root.values())
        block_of = [0] * n
        odd = any(self.pair.h.vector_parities[i] for i in self.nondiag_idx)
        classes: dict[tuple, int] = {}
        bases = []
        for b, vs in enumerate(blocks):
            at = {v: t for t, v in enumerate(vs)}
            for v in vs:
                block_of[v] = b
            p0 = par[vs[0]]
            signature = (
                p0 if odd else None,
                tuple(par[v] ^ p0 for v in vs),
                tuple(keys[v] for v in vs),
                tuple(tuple(sorted((at[v2], a) for v2, a in by_v[v].items())) for by_v in cols for v in vs),
            )
            bases.append((classes.setdefault(signature, len(classes)), p0))
        if len(classes) == len(blocks):
            return None
        size = Counter(c for c, _ in bases)
        return block_of, [base if size[base[0]] > 1 else None for base in bases]

    # -- cochain spaces --------------------------------------------------------

    def lambda_rep(self, p: int) -> Representation:
        """Exterior power of g/h in degree p with its full action matrices,
        read from the pair's ``degree`` record and the ``action_rows`` of
        every bucket.  The engine builds none: each defect operator reads
        the rows of the buckets it needs."""
        pair, deg, actions = self.pair, self.pair.degree(p), []
        for i in range(pair.h.dim):
            rows = pair.action_rows(p, i, deg.buckets)
            entries = ((t2, t, v) for t2 in sorted(rows) for t, v in rows[t2].items())
            actions.append(SparseMatrix(len(deg.monomials), len(deg.monomials), entries))
        r = pair.quotient_rep
        return Representation(r.algebra, f"L^{p}_s({r.name})", deg.parities, actions)

    def monomials(self, p: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """Monomial basis of L^p_s(g/h) with parities, shared through the pair."""
        return self.pair.degree(p).monomials, self.pair.degree(p).parities

    def _kept(
        self, p: int, keys: Iterable[tuple[Scalar, ...]]
    ) -> tuple[tuple[list[int], list[int]], list[tuple[Scalar, ...]]]:
        """The kept coordinates of degree p on the monomials of the weight
        buckets ``keys``, per sector and ascending, and the buckets among
        ``keys`` that keep some.

        A module vector is kept with the monomials of key k when its key
        under diag_idx is the monomial key read there; the coordinate
        x = w * dim M + v is in the sector of the parity of v plus that of w.
        """
        deg, n, m_par = self.pair.degree(p), self.m.dim, self.m.parities
        kept: tuple[list[int], list[int]] = ([], [])
        needed = []
        for key in keys:
            vs = self.m_buckets.get(tuple(key[j] for j in self._key_pos))
            if vs:
                needed.append(key)
                for w in deg.buckets[key]:
                    for v in vs:
                        kept[(m_par[v] + deg.parities[w]) % 2].append(w * n + v)
        for xs in kept:
            xs.sort()
        return kept, needed

    def _coordinate(self, p: int, x: int) -> tuple[int, tuple[int, ...]]:
        """Flat coordinate x of degree p as (module vector, monomial)."""
        w, v = divmod(x, self.m.dim)
        return v, self.pair.degree(p).monomials[w]

    def _defect_columns(self, p: int, i: int, keys: Iterable[tuple[Scalar, ...]]) -> _DefectOperator:
        """The defect operator of span vector i on the coordinates of degree p
        at the monomials of the weight buckets ``keys``, for ``_defect``: the
        pair's action rows of those monomials (``action_rows``), M's
        columns of span vector i, dim M, and the parity of span vector i,
        which with the sector decides the sign of the module part.  One
        operator serves both sectors."""
        rows = self.pair.action_rows(p, i, keys)
        return rows, self.m_action_cols[i], self.m.dim, self.pair.h.vector_parities[i]

    def _units(
        self, kept_pair: tuple[list[int], list[int]]
    ) -> list[tuple[tuple[int, int] | None, int, list[int]]]:
        """The units the solve runs on, each (key, sector, coordinates), the
        even sector's first and the coordinates of each ascending.

        The kept coordinates of a sector on one shared block of M (``_split``)
        pose a system of their own, keyed by the block's class and the sector
        relative to the parity of the block's first vector: units with one
        key, in either sector, pose the same system.  The coordinates of a
        sector on the blocks that share with none are solved together, as one
        unit keyed None after the sector's keyed units; so is a whole sector
        when no two blocks are of one class.
        """
        if self._blocks is None:
            return [(None, sector, kept) for sector, kept in enumerate(kept_pair) if kept]
        (block_of, bases), n = self._blocks, self.m.dim
        units = []
        for sector, kept in enumerate(kept_pair):
            # shared block -> its coordinates, None -> those of the others
            by_block: dict[int | None, list[int]] = {}
            for x in kept:
                b = block_of[x % n]
                by_block.setdefault(b if bases[b] else None, []).append(x)
            rest = by_block.pop(None, None)
            units += [((bases[b][0], sector ^ bases[b][1]), sector, xs) for b, xs in by_block.items()]
            if rest:
                units.append((None, sector, rest))
        return units

    def _impose(
        self,
        constraint_ids: list[int],
        ops: dict[int, _DefectOperator],
        units: list[tuple[tuple[int, int] | None, int, list[int]]],
    ) -> tuple[tuple[list[dict[int, int]], list[int]], tuple[list[dict[int, int]], list[int]]]:
        """Cut the kept coordinates of both sectors by the listed equivariance
        constraints, one unit at a time.

        A unit (key, sector, kept) holds kept coordinates of one sector on one
        block of M, or on several (key None), ascending (``_units``).  Its
        unit cochains are cut by ``_cut``, unless a unit with the same key,
        which poses the same system on the same monomials, was solved before
        it: then that result is relabelled, from the even sector's where the
        two sectors share.  The bijection sigma between the two blocks keeps
        the order by (w, v), so it maps the i-th kept coordinate of the one
        unit to the i-th of the other.  Returns per sector the vectors of its
        units and their anchors, in the order of the anchors.
        """
        # key -> (kept coordinates, vectors, anchors) of the unit solved
        solved: dict[tuple[int, int], tuple[list[int], list[dict[int, int]], list[int]]] = {}
        parts: tuple[list, list] = ([], [])  # per sector, (anchor, vector)
        for key, sector, kept in units:
            hit = solved.get(key)
            if hit is None:
                vectors, free = _cut(constraint_ids, ops, sector, [{x: 1} for x in kept], kept)
                if key is not None:
                    solved[key] = kept, vectors, free
            else:
                coords, vectors, free = hit
                vectors, free = _relabel(vectors, free, dict(zip(coords, kept)))
            parts[sector].extend(zip(free, vectors))
        for pairs in parts:
            pairs.sort(key=itemgetter(0))
        return tuple(([phi for _, phi in pairs], [x for x, _ in pairs]) for pairs in parts)

    def space(self, p: int) -> CochainSpace:
        """C^p(g, h; M), solved on first use and cached.

        Both sectors are solved in one pass over the units (``_units``,
        ``_impose``), by the plan first.  Every basis vector is then checked
        exactly against every span vector of the check list (``check_idx``),
        a sector at a time on packed cochains (``_vanishes``; on its
        integer multiple: scaling keeps a zero defect zero).  When some
        defect is nonzero and the plan is not the full list of non-diagonal
        span vectors, both sectors are solved again by that list and checked
        in turn.  A basis that still fails raises ConventionError with the
        witness, searched for once: the first defect under every
        non-diagonal span vector, sectors in order and each vector in the
        order of its anchor.  With no constraint every kept coordinate is its
        own basis vector.
        """
        if p in self._spaces:
            return self._spaces[p]
        deg = self.pair.degree(p)
        kept_pair, needed = self._kept(p, deg.buckets)
        # one defect operator per span vector, shared by both sectors, the
        # plan, the full solve and the re-verification; off the plan and the
        # check list, built only once a check fails
        ops = {
            i: self._defect_columns(p, i, needed)
            for i in dict.fromkeys(self.constraint_plan + self.check_idx)
        }
        units = self._units(kept_pair)
        plans = [self.constraint_plan]
        if self.constraint_plan != self.nondiag_idx:
            plans.append(self.nondiag_idx)
        checks = {i: ops[i] for i in self.check_idx}
        bound = partial(self._defect_bound, p, checks)
        for plan in plans:
            solutions = self._impose(plan, ops, units)
            if not checks or all(
                _vanishes(vectors, bound, partial(_defective, checks, sector))
                for sector, (vectors, _) in enumerate(solutions)
            ):
                break
            # the full solve and the witness read every non-diagonal operator
            for i in self.nondiag_idx:
                if i not in ops:
                    ops[i] = self._defect_columns(p, i, needed)
        else:
            # sectors in order, each vector in the order of its anchor
            sector, i, defect = next(
                (sector, i, defect) for sector, (vectors, _) in enumerate(solutions)
                for phi in vectors for i in self.nondiag_idx if (defect := _defect(ops[i], sector, phi))
            )
            raise self._failure("cochain basis", i, p, sector, *next(iter(defect.items())))
        numerators_pair, free_pair = zip(*solutions)
        # a numerator's scale is its value at its anchor
        scales_pair = tuple([phi[x] for phi, x in zip(*sol)] for sol in solutions)
        self._spaces[p] = CochainSpace(p, deg.monomials, free_pair, numerators_pair, scales_pair)
        return self._spaces[p]

    # -- differential ----------------------------------------------------------

    def apply_differential(self, p: int, sector: int, phi: Cochain) -> Cochain:
        # _add_scaled inlined: this is the engine's hottest accumulate
        source_maps = self.pair.source_maps
        odd = self.pair.quotient_parities if sector else [0] * len(self.pair.complement)
        m_cols = self.m_cols_by_complement
        n = self.m.dim
        out: Cochain = {}
        get = out.get
        for x, c in phi.items():
            w, v = divmod(x, n)
            bracket_terms, action_terms = source_maps(p, w)
            for t1, coeff in bracket_terms:
                key = t1 * n + v
                val = get(key, 0) + c * coeff
                if val:
                    out[key] = val
                elif key in out:
                    del out[key]
            for y, t1, m in action_terms:
                col = m_cols[y][v]
                if col:
                    s = -c * m if odd[y] else c * m
                    base = t1 * n
                    for v2, a in col.items():
                        key = base + v2
                        val = get(key, 0) + s * a
                        if val:
                            out[key] = val
                        elif key in out:
                            del out[key]
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
        coeffs, residual = _residual(target, space, sector)
        if residual:
            x, c = next(iter(residual.items()))
            raise self._failure(
                "differential image", None, space.degree, sector, x, c, space.lcm[sector] * scale
            )
        return coeffs

    def _failure(
        self, what: str, i: int | None, p: int, sector: int, x: int, c: Scalar, scale: int = 1
    ) -> ConventionError:
        """The error naming ``what``'s defect under span vector i, or for i
        None its residual off the span, at flat coordinate x of degree p."""
        if i is None:
            head, name = f"{what} escapes the equivariant span", "residual"
        else:
            head, name = f"{what} fails equivariance under span vector {i} of h", "defect"
        return ConventionError(
            f"{head} (degree {p}, sector {sector}) at coordinate {self._coordinate(p, x)} "
            f"with {name} {_exact(Fraction(c, scale))}"
        )

    def _images(self, p: int, sector: int) -> list[Cochain]:
        """d of each numerator of C^p in ``sector``, in basis order: the one
        place d is applied to C^p's numerators."""
        return [self.apply_differential(p, sector, phi) for phi in self.space(p).numerators[sector]]

    def _block(self, p: int, sector: int) -> RowMatrix:
        """One sector's block of d^p times the source scales: row r is
        {k: c}, keys ascending, c the coefficient of basis vector r of
        C^{p+1} in the image of numerator k (``_expand``).  Scaling columns
        keeps the rank and ``_eliminate``'s pivots."""
        src, dst = self.space(p), self.space(p + 1)
        rows: list[dict[int, Scalar]] = [{} for _ in dst.numerators[sector]]
        for k, (image, s) in enumerate(zip(self._images(p, sector), src.scales[sector])):
            for r, c in self._expand(image, dst, sector, s):
                rows[r][k] = c
        return RowMatrix(rows, len(src.numerators[sector]))

    def differential(self, p: int) -> SparseMatrix:
        """Matrix of d^p: C^p -> C^{p+1}, the even block then the odd block on
        the diagonal (map parity is preserved), each entry an expansion
        coefficient of ``_block`` divided by its source scale."""
        scales, entries, at = self.space(p).scales, [], (0, 0)
        for sector in (EVEN, ODD):
            block = self._block(p, sector)
            entries += [(at[0] + r, at[1] + k, Fraction(c, scales[sector][k]))
                        for r, row in enumerate(block.row_dicts()) for k, c in row.items()]
            at = (at[0] + block.rows, at[1] + block.cols)
        return SparseMatrix(*at, entries)

    def ddzero(self, p: int) -> bool:
        """Exact check that d(d(phi)) = 0 for every basis cochain of C^p."""
        return self.ddzero_witness(p) is None

    def ddzero_witness(
        self, p: int
    ) -> tuple[int, int, tuple[int, tuple[int, ...]], Scalar] | None:
        """None when d(d(phi)) = 0 for every basis cochain phi of C^p;
        otherwise the sector, basis index, coordinate (v, monomial) and value
        of the first nonzero entry of d(d(phi)) for the first phi that fails.

        The check runs on the integer numerators, which d(d(.)) kills
        exactly when it kills the basis vectors.  Per sector, the nonzero
        images d(phi_k) (``_images``) are checked by ``_vanishes``: two or
        more are packed into integer cochains (``_packs``), at the width
        ``_width`` gives at ``_dd_bound``.  The residual of a cochain
        against the basis of C^{p+1} (``_residual``) and d of it are
        linear, so both are zero exactly when every image expands in that
        basis and d(d(phi_k)) = 0.  A sector with a nonzero result runs the
        test again on each image in basis order, which names the first
        failure: ``_expand`` raises ConventionError on a residual, and once
        there is none, d of the image is d(d(phi)).  Degree p+2 only
        contributes its monomial combinatorics (no equivariant basis is
        needed there).
        """
        src = self.space(p)
        dst = self.space(p + 1)
        for sector in (EVEN, ODD):
            images = self._images(p, sector)
            if _vanishes(
                [image for image in images if image],
                partial(self._dd_bound, p + 1, sector),
                lambda phi: _residual(phi, dst, sector)[1] or self.apply_differential(p + 1, sector, phi),
            ):
                continue
            for k, (image, scale) in enumerate(zip(images, src.scales[sector])):
                self._expand(image, dst, sector, scale)
                dd = self.apply_differential(p + 1, sector, image)
                if dd:
                    x, c = next(iter(dd.items()))
                    return sector, k, self._coordinate(p + 2, x), _exact(Fraction(c, scale))
        return None

    def _dd_bound(self, p: int, sector: int) -> int | None:
        """The bound E of ``_width`` for the d o d = 0 check of images,
        cochains on the flat coordinates of degree p in ``sector``; None
        when a projected bracket of g/h or an entry of M's columns is not an
        int (both read once per complex, ``_entry_bounds``).  Otherwise d
        has integer entries, so the images and what is made of them are
        integer cochains.

        Per unit of an image's |.|_1, an entry of its residual against C^p
        (``_residual``) is at most L (1 + the largest |entry| of a
        numerator), L the lcm of the scales.  One coordinate of d gives one
        output entry at most one bracket term, a sum over the (p + 1) p / 2
        pairs of positions of the target, each term a projected bracket
        coefficient, and one action term, at most p + 1 copies of a factor
        times an entry of M.  E is the larger of the two bounds.
        """
        if self._entry_bounds is None:
            return None
        bracket, entry = self._entry_bounds
        reach = (p + 1) * p // 2 * bracket + (p + 1) * entry
        space = self.space(p)
        top = max((abs(c) for phi in space.numerators[sector] for c in phi.values()), default=0)
        return max(reach, space.lcm[sector] * (1 + top))

    def _defect_bound(self, q: int, ids: Iterable[int]) -> int | None:
        """The bound E of ``_width`` for the defects of cochains on the flat
        coordinates of degree q under the span vectors ``ids``; None when an
        entry of M's columns or of the quotient columns of one of those span
        vectors is not an int.  The entries of a span vector are read on the
        first call that names it (``_defect_bounds``): ``_vanishes`` asks for
        E only when two or more cochains pack, and most complexes never do.

        One coordinate gives one entry of a defect at most a module part, its
        value times an entry of M's columns, and an exterior-power part, its
        value times an entry of an action row.  An action row's entry is at
        most q times the largest |quotient entry|: every copy of a factor of
        the monomial contributes at most that.  So E is the largest over
        ``ids`` of |entry of M| + q |quotient entry|.
        """
        memo, quotient = self._defect_bounds, self.pair.quotient_rep.actions
        for i in ids:
            if i not in memo:
                memo[i] = (
                    _largest([a for col in self.m_action_cols[i] for a in col.values()]),
                    _largest([a for _, _, a in quotient[i].entries()]),
                )
        bounds = [memo[i] for i in ids]
        if any(None in b for b in bounds):
            return None
        return max(m + q * a for m, a in bounds)

    def _top_rank(self, p: int, sector: int) -> int:
        """Rank of one sector's block of d^p, read off the images of the
        numerators of C^p (``_images``) as integer rows on the flat
        coordinates of degree p + 1, with no basis of C^{p+1}.

        Expanding in a basis is injective, so their rank is the block's.
        Each image is checked against the definition of C^{p+1}, as the
        module docstring says: its coordinates must be kept (``_kept``) and
        its defects under the check list zero, on the images packed
        (``_vanishes``) and, on a failure, one image at a time for
        the witness.  An error's value is divided by the source scale, so it
        is that of d on the basis vector.  Degree p + 1's weight keys are
        read only when some image is nonzero, and its action rows only in
        the buckets the images touch that keep some coordinate, by one
        defect operator (``_defect_columns``) per span vector checked.
        """
        nonzero = [(im, s) for im, s in zip(self._images(p, sector), self.space(p).scales[sector]) if im]
        if not nonzero:
            return 0
        images = [image for image, _ in nonzero]
        n = self.m.dim
        deg = self.pair.degree(p + 1)
        # the kept coordinates of the sector in the buckets the images touch
        touched = dict.fromkeys(deg.weight_keys[x // n] for image in images for x in image)
        kept_pair, needed = self._kept(p + 1, touched)
        kept = set(kept_pair[sector])
        for image, s in nonzero:
            for x, c in image.items():
                if x not in kept:
                    raise self._failure("differential image", None, p + 1, sector, x, c, s)
        checks = {i: self._defect_columns(p + 1, i, needed) for i in self.check_idx}
        bound = partial(self._defect_bound, p + 1, checks)
        if not checks or _vanishes(images, bound, partial(_defective, checks, sector)):
            return rank(RowMatrix(images, len(deg.monomials) * n))
        # some image fails: the witness is the first in nondiag_idx order,
        # which reaches the span vector that failed
        for i in self.nondiag_idx:
            op = checks[i] if i in checks else self._defect_columns(p + 1, i, needed)
            witness = next((
                (defect, s) for image, s in nonzero if (defect := _defect(op, sector, image))
            ), None)
            if witness:
                break
        defect, s = witness
        raise self._failure("differential image", i, p + 1, sector, *next(iter(defect.items())), s)

    def report(self, max_degree: int) -> CohomologyReport:
        """H^p for p <= max_degree.  Below the last degree the ranks are those
        of the expansion coefficients (``_block``); the last one's come from
        ``_top_rank``, so the report never builds C^{max_degree + 1}."""
        rows = []
        all_zero = True
        prev = (0, 0)  # ranks of d^{p-1} per sector
        for p in range(max_degree + 1):
            if not self.pair.degree(p).monomials:
                # C^p = 0, and so is every higher degree: dropping the last
                # factor of a monomial leaves a monomial of one degree less
                rows += [CohomologyRow(q, 0, 0, 0, 0, 0) for q in range(p, max_degree + 1)]
                break
            if p < max_degree:
                ranks = [rank(self._block(p, sector)) for sector in (EVEN, ODD)]
            else:
                ranks = [self._top_rank(p, sector) for sector in (EVEN, ODD)]
            if any(ranks):
                all_zero = False
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
    pair: RelativePair, m: Representation, n: Representation, max_degree: int
) -> CohomologyReport:
    """Ext between modules as cohomology with coefficients in dual(m) (x) n,
    on the pair (g, h); one pair serves several Ext computations."""
    report = RelativeComplex(pair, tensor(dual(m), n)).report(max_degree)
    return report._replace(module=f"Ext({m.name},{n.name})")
