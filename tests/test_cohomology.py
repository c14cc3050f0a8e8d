import importlib
import math
import random
import re
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from supero.algebras import (
    LieSuperalgebra,
    SubalgebraSpan,
    build_gl,
    build_osp,
    build_p_tilde,
    build_q,
    even_part_span,
    full_span,
    quotient_action,
    special_linear_span,
)
from supero.checks import (
    GradingTorus,
    appendix_torus,
    count_graded_monomials,
    positive_even_roots,
)
from supero.cohomology import (
    RelativeComplex,
    RelativePair,
    cohomology,
    relative_ext,
)
from supero.cli import parse_rationals, parse_subalgebra
from supero.errors import AlgebraMismatch, ConventionError, DimensionMismatch, NotASubalgebra
from supero.linalg import SpanSolver, SparseMatrix, _eliminate, _exact, _int_rows
from supero.reps import (
    adjoint,
    dual,
    natural,
    restrict,
    super_exterior_power,
    tensor,
    trivial,
)
from supero.roots import (
    generic_functional,
    named_subalgebra,
    pair as pair_with,
    principal_parabolic,
    root_decomposition,
)
from supero.suites import ddzero_algebras, ddzero_subalgebras, growth_cells, seeded_levi_functional

import oracles
from oracles import matmul, wedge_insert

F = Fraction
ROTATED_G0_SPAN = Path(__file__).resolve().parent / "data" / "gl21-g0-rotated.json"


def sl2():
    return special_linear_span(build_gl(2, 0), 2, 0).to_algebra("sl(2)")


# --- oracles first ----------------------------------------------------------


def weight_zero_monomials_two_vars(p):
    """Brute force: monomials x^a y^b of degree p in variables of weights +1, -1
    with total weight zero.  Independent of the cochain engine."""
    return sum(1 for a in range(p + 1) if 2 * a == p)


GL11_EXPECTED = [weight_zero_monomials_two_vars(p) for p in range(7)]
assert GL11_EXPECTED == [1, 0, 1, 0, 1, 0, 1]


def test_gl11_cochain_dims_match_monomial_oracle():
    g = build_gl(1, 1)
    cx = RelativeComplex(RelativePair(g, even_part_span(g)), trivial(g))
    for p in range(7):
        sp = cx.space(p)
        assert sp.dim == GL11_EXPECTED[p]
        assert sp.dim_odd == 0  # scalar-valued maps on even-parity monomials


def test_sl2_torus_three_term_complex():
    # Hand computation: Lambda(e, f) has torus weights 0; +-2; 0 in degrees
    # 0, 1, 2, so the invariant cochains are C = (1, 0, 1) and both
    # differentials vanish for weight reasons.
    g = sl2()
    h = named_subalgebra(g, "torus")
    cx = RelativeComplex(RelativePair(g, h), trivial(g))
    assert [cx.space(p).dim for p in range(3)] == [1, 0, 1]
    rep = cx.report(2)
    assert rep.dims() == [1, 0, 1]


def test_cochains_p0_are_invariants():
    g = build_gl(2, 1)
    sp = RelativeComplex(RelativePair(g, even_part_span(g)), trivial(g)).space(0)
    assert sp.dim == 1  # Hom_h(C, C)


def test_negative_degree_raises():
    # a list index of -1 would read the last degree built
    g = build_gl(2, 1)
    cx = RelativeComplex(RelativePair(g, even_part_span(g)), adjoint(g))
    cx.space(2)
    for call in (cx.pair.degree, cx.space, cx.ddzero):
        with pytest.raises(DimensionMismatch, match="^negative exterior degree$"):
            call(-1)
    assert cx.report(-1).rows == []


# --- differentials ----------------------------------------------------------


def test_differential_zero_for_g0_trivial():
    # with h = g0 and M = C both sums of the differential vanish identically
    for g in (build_gl(1, 1), build_q(2), build_p_tilde(2)):
        cx = RelativeComplex(RelativePair(g, even_part_span(g)), trivial(g))
        for p in range(5):
            assert cx.differential(p).nnz == 0


def test_differential_shape():
    g = build_gl(1, 1)
    cx = RelativeComplex(RelativePair(g, named_subalgebra(g, "torus")), trivial(g))
    d1 = cx.differential(1)
    assert d1.cols == cx.space(1).dim
    assert d1.rows == cx.space(2).dim


DD_CASES = []
for _g in (build_gl(1, 1), build_gl(2, 1), build_q(2), build_osp(1, 2)):
    for _spec in ("g0", "torus", "borel"):
        DD_CASES.append((_g, _spec))


@pytest.mark.parametrize("g,spec", DD_CASES, ids=lambda v: getattr(v, "name", v))
def test_dd_zero_small_matrix(g, spec):
    h = named_subalgebra(g, spec)
    for mod in (trivial(g), natural(g), adjoint(g)):
        cx = RelativeComplex(RelativePair(g, h), mod)
        for p in range(3):
            assert cx.ddzero(p), (g.name, spec, mod.name, p)


def test_dd_zero_matrix_composite():
    g = build_q(2)
    cx = RelativeComplex(RelativePair(g, named_subalgebra(g, "torus")), natural(g))
    for p in range(3):
        d_hi = cx.differential(p + 1)
        d_lo = cx.differential(p)
        assert matmul(d_hi, d_lo).nnz == 0


def test_sl2_torus_d1_is_zero_matrix():
    g = sl2()
    cx = RelativeComplex(RelativePair(g, named_subalgebra(g, "torus")), trivial(g))
    d1 = cx.differential(1)
    assert d1.cols == 0  # C^1 vanishes for weight reasons
    assert cx.report(2).dims()[2] == 1


# --- cohomology reports -----------------------------------------------------


def test_gl11_cohomology_table():
    g = build_gl(1, 1)
    rep = cohomology(g, even_part_span(g), trivial(g), 6)
    assert rep.dims() == [1, 0, 1, 0, 1, 0, 1]
    assert rep.all_differentials_zero


def test_sl2_borel_cohomology():
    g = sl2()
    rep = cohomology(g, named_subalgebra(g, "borel"), trivial(g), 3)
    assert rep.dims() == [1, 0, 0, 0]


def test_full_subalgebra_cohomology():
    g = build_gl(1, 1)
    rep = cohomology(g, full_span(g), trivial(g), 2)
    assert rep.dims() == [1, 0, 0]


def test_report_consistency_identities():
    g = build_gl(2, 1)
    cx = RelativeComplex(RelativePair(g, named_subalgebra(g, "torus")), natural(g))
    rep = cx.report(3)
    for row in rep.rows:
        assert row.dim_cohomology_even >= 0 and row.dim_cohomology_odd >= 0
        assert row.dim_cohomology <= row.dim_cochains_even + row.dim_cochains_odd


def test_cohomology_independent_of_basis_order():
    # permute the basis of gl(1|1); dims must not change
    g = build_gl(1, 1)
    perm = [2, 0, 3, 1]  # new index -> old index
    inv = {old: new for new, old in enumerate(perm)}
    table = {}
    for (i, j), terms in g.table.items():
        table[inv[i], inv[j]] = tuple((inv[k], v) for k, v in terms)
    g2 = LieSuperalgebra(
        "gl(1|1)-shuffled",
        [g.parities[old] for old in perm],
        table,
        [inv[t] for t in g.torus],
    )
    assert (True, None) == __import__("supero.algebras", fromlist=["check_super_jacobi"]).check_super_jacobi(g2)
    base = cohomology(g, even_part_span(g), trivial(g), 4).dims()
    shuffled = cohomology(g2, even_part_span(g2), trivial(g2), 4).dims()
    assert base == shuffled


def test_json_report_schema():
    g = build_gl(1, 1)
    rep = cohomology(g, even_part_span(g), trivial(g), 2)
    d = rep.to_json_dict()
    assert d["schema"] == "superO/1"
    assert d["rows"][0] == {
        "p": 0,
        "dimC_even": 1,
        "dimC_odd": 0,
        "rank_d": 0,
        "dimH_even": 1,
        "dimH_odd": 0,
    }
    assert d["all_differentials_zero"] is True


# --- relative Ext -----------------------------------------------------------


def test_ext_self_degree_zero_contains_identity():
    g = build_gl(2, 1)
    rep = relative_ext(g, even_part_span(g), natural(g), natural(g), 0)
    assert rep.dims()[0] >= 1


def test_ext_trivial_trivial_equals_trivial_cohomology():
    g = build_q(2)
    h = even_part_span(g)
    a = relative_ext(g, h, trivial(g), trivial(g), 4)
    b = cohomology(g, h, trivial(g), 4)
    assert a.dims() == b.dims()


def test_ext_gl11_natural_natural_degree0():
    g = build_gl(1, 1)
    rep = relative_ext(g, even_part_span(g), natural(g), natural(g), 0)
    # the natural module is simple: endomorphisms commuting with g are scalars
    assert rep.dims()[0] == 1


def test_ext_rejects_a_pair_of_another_subalgebra():
    g = build_gl(1, 1)
    pair = RelativePair(g, even_part_span(g))
    with pytest.raises(AlgebraMismatch):
        relative_ext(g, named_subalgebra(g, "torus"), natural(g), natural(g), 1, pair)


# --- error paths ------------------------------------------------------------


def test_non_closed_subalgebra_reported_at_first_escaping_pair():
    # one bracket solve (cached on the span) serves every consumer of it
    g = build_gl(1, 1)
    odd1 = [F(0)] * 4
    odd1[g.basis_labels.index("e[1,2]")] = F(1)
    odd2 = [F(0)] * 4
    odd2[g.basis_labels.index("e[2,1]")] = F(1)
    span = SubalgebraSpan(g, [tuple(odd1), tuple(odd2)], "odds")
    message = f"odds: not closed at pair {span.closure_witness()}"
    for build in (
        span.to_algebra,
        lambda: quotient_action(g, span),
        lambda: restrict(trivial(g), span),
        lambda: RelativePair(g, span),
    ):
        with pytest.raises(NotASubalgebra) as info:
            build()
        assert str(info.value) == message


def test_levi_brackets_are_solved_once(monkeypatch):
    # principal_parabolic checks the levi's closure and RelativePair builds
    # its algebra and quotient from the same solve: one reduce per nonzero
    # bracket [x_i, x_j] of the span with i <= j (super-antisymmetry gives
    # the rest), and one per basis vector of g for the projections
    solvers = []
    reduce = SpanSolver.reduce

    def spy(self, vec):
        solvers.append(self)
        return reduce(self, vec)

    monkeypatch.setattr(SpanSolver, "reduce", spy)
    g = build_gl(2, 1)
    levi = named_subalgebra(g, "levi", H=(1, 0, 1))
    assert levi.vector_parities.count(1) == 2  # e[1,3] and e[3,1] are in it
    RelativePair(g, levi)
    sparse = levi.sparse_vectors()
    nonzero = sum(1 for i, x in enumerate(sparse) for y in sparse[i:] if g.bracket_sparse(x, y))
    assert nonzero > 0
    assert sum(s is levi.solver for s in solvers) == nonzero + g.dim


def test_expansion_outside_span_raises_convention_error():
    g = build_gl(1, 1)
    cx = RelativeComplex(RelativePair(g, even_part_span(g)), trivial(g))
    sp1 = cx.space(1)  # zero-dimensional
    assert sp1.dim == 0
    with pytest.raises(ConventionError):
        cx._expand({0 * cx.m.dim + 0: F(1)}, sp1, 0)  # v = 0 at monomial 0


def test_convention_error_names_its_witness():
    g = build_gl(1, 1)
    cx = RelativeComplex(RelativePair(g, even_part_span(g)), trivial(g))
    sp1 = cx.space(1)  # zero-dimensional
    mono = sp1.monomials[1]
    witness = f"(degree 1, sector 1) at coordinate (0, {mono}) with residual -1/2"
    with pytest.raises(ConventionError, match=re.escape(witness) + "$"):
        cx._expand({1 * cx.m.dim + 0: F(-1, 2)}, sp1, 1)  # v = 0 at monomial 1


@pytest.mark.parametrize(
    "build, sub, H",
    [
        (lambda: build_gl(2, 1), "levi", (F(1), F(0), F(1))),
        (lambda: build_q(2), "borel", None),
    ],
    ids=["gl(2|1)-levi", "q(2)-borel"],
)
def test_shared_pair_matches_independent_pairs(build, sub, H, monkeypatch):
    passes = oracles.record_passes(monkeypatch)
    g = build()
    h = named_subalgebra(g, sub, H=H)
    modules = (trivial(g), natural(g), adjoint(g))
    pair = RelativePair(g, h)
    shared = [RelativeComplex(pair, mod) for mod in modules]
    reports = [cx.report(3).to_json_dict() for cx in shared]
    # the pair keeps no action rows: each defect operator builds its own
    assert passes and all(n == 1 for *_, n in passes)
    for mod, cx, report in zip(modules, shared, reports):
        alone = RelativeComplex(RelativePair(g, h), mod)
        assert report == alone.report(3).to_json_dict()
        for p in range(5):
            assert cx.space(p).basis == alone.space(p).basis, (mod.name, p)


# --- pair-level action rows and weights -------------------------------------


def _pair(g, sub, H=None):
    return RelativePair(g, named_subalgebra(g, sub, H=H))


def _rotated_g0_pair():
    """g0 of gl(2|1) spanned by e11, e22, e33, e12+e21 and e12-e21, read from
    the span file of CI's hash-seed job: the two mixed vectors are no weight
    vectors, so they shift weights non-uniformly."""
    g = build_gl(2, 1)
    return RelativePair(g, parse_subalgebra(g, f"span:{ROTATED_G0_SPAN}", None))


def _skew_torus_pair():
    """h of q(2) spanned by 2 E11 + E22: E11 projects to -E22 / 2, and the
    bracket [F11, F11] = 2 E11 projects to -E22, integral from a Fraction."""
    g = build_q(2)
    vec = [0] * g.dim
    vec[g.torus[0]], vec[g.torus[1]] = 2, 1
    return RelativePair(g, SubalgebraSpan(g, [vec], "skew-torus"))


def _json_reordered_torus_pair():
    """gl(2|1) loaded from JSON with its basis reordered, so that its
    quotient by the torus has parities (1, 1, 0, 1, 0, 1): every built-in
    family lists even before odd."""
    d = build_gl(2, 1).to_json_dict()
    perm = [5, 0, 6, 1, 3, 7, 2, 4, 8]  # new index -> old index
    new = {old: k for k, old in enumerate(perm)}
    d["parities"] = [d["parities"][old] for old in perm]
    d["torus"] = [new[t] for t in d["torus"]]
    d["bracket"] = [
        [new[i], new[j], [[new[k], num, den] for k, num, den in terms]]
        for i, j, terms in d["bracket"]
    ]
    return _pair(LieSuperalgebra.from_json_dict(d), "torus")


PAIRS = {
    "gl(2|1)-levi": lambda: _pair(build_gl(2, 1), "levi", (F(1), F(0), F(1))),
    "q(2)-borel": lambda: _pair(build_q(2), "borel"),
    "osp(1|2)-g0": lambda: _pair(build_osp(1, 2), "g0"),
    "p~(2)-levi": lambda: _pair(build_p_tilde(2), "levi", (F(0), F(1))),
    "gl(2|1)-g0-rotated": _rotated_g0_pair,
    "q(2)-skew-torus": _skew_torus_pair,
}
# the module builders know only the built-in families, so a JSON algebra
# joins the tests that need no coefficient module
PAIR_TABLES = {**PAIRS, "gl(2|1)-json-reordered-torus": _json_reordered_torus_pair}


def _all_action_rows(pair, p, i):
    """The rows of every weight bucket, in monomial order."""
    rows = {}
    for k in pair.degree(p).buckets:
        rows.update(pair.action_rows(p, i, [k]))
    return [rows[t] for t in range(len(rows))]


@pytest.mark.parametrize("case", PAIR_TABLES)
def test_action_rows_match_exterior_power(case):
    pair = PAIR_TABLES[case]()
    for p in range(5):
        lam = super_exterior_power(pair.quotient_rep, p)
        for i in range(pair.h.dim):  # diagonal elements too
            assert _all_action_rows(pair, p, i) == lam.actions[i].row_dicts(), (p, i)


def _spelled(rows):
    """Rows as lists: key order, values and scalar types."""
    return [(t, [(t2, v, type(v)) for t2, v in row.items()]) for t, row in rows.items()]


ROW_ORACLE_PAIRS = {
    **PAIR_TABLES,
    **{f"growth-{g.name}-{sub}": partial(RelativePair, g, h) for g, sub, h, _ in growth_cells()},
}


@pytest.mark.parametrize("case", ROW_ORACLE_PAIRS)
def test_action_rows_match_the_per_position_oracle(case):
    pair = ROW_ORACLE_PAIRS[case]()
    for p in range(8):
        deg = pair.degree(p)
        for i in range(pair.h.dim):
            rows = oracles.derivation_rows(
                pair._quotient_cols[i], pair.quotient_parities, deg.monomials, deg.index,
                range(len(deg.monomials)),
            )
            for k, ts in deg.buckets.items():
                expected = {t: rows.get(t, {}) for t in ts}
                assert _spelled(pair.action_rows(p, i, [k])) == _spelled(expected), (p, i, k)


@pytest.mark.parametrize("case", PAIR_TABLES)
def test_super_exterior_power_matches_the_per_position_oracle(case):
    r = PAIR_TABLES[case]().quotient_rep
    for p in range(6):
        lam = super_exterior_power(r, p)
        monos = oracles.super_monomials(r.parities, p)
        index = {mo: t for t, mo in enumerate(monos)}
        for a, got in zip(r.actions, lam.actions):
            rows = oracles.derivation_rows(a.col_dicts(), r.parities, monos, index, range(len(monos)))
            want = [(t2, t, v, type(v)) for t2 in sorted(rows) for t, v in rows[t2].items()]
            assert [(*e, type(e[2])) for e in got.entries()] == want, p


def test_interleaved_parities_match_the_per_position_oracle():
    # odd factors at lower indices than even ones inside one module, so the
    # normal form's rank order is not the index order
    g = build_q(2)
    r = tensor(dual(natural(g)), natural(g))
    assert r.parities == (0, 0, 1, 1, 0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 0, 0)
    for p in range(4):
        lam = super_exterior_power(r, p)
        monos = oracles.super_monomials(r.parities, p)
        index = {mo: t for t, mo in enumerate(monos)}
        for a, got in zip(r.actions, lam.actions):
            rows = oracles.derivation_rows(a.col_dicts(), r.parities, monos, index, range(len(monos)))
            want = [(t2, t, v, type(v)) for t2 in sorted(rows) for t, v in rows[t2].items()]
            assert [(*e, type(e[2])) for e in got.entries()] == want, p


def test_rotated_span_shifts_and_reports():
    pair = _rotated_g0_pair()
    g = pair.g
    assert pair.diagonal == [0, 1, 2]
    assert [pair.shift(i) for i in range(5)] == [(0, 0, 0)] * 3 + [None, None]
    plain = RelativePair(g, even_part_span(g))
    for mod in (trivial(g), natural(g), adjoint(g)):
        rotated = RelativeComplex(pair, mod).report(4)
        assert rotated.rows == RelativeComplex(plain, mod).report(4).rows, mod.name


def test_growth_cell_makes_one_pass_per_defect_operator(monkeypatch):
    suites = importlib.import_module("supero.suites")
    passes = oracles.record_passes(monkeypatch)
    g = build_gl(2, 1)
    cell = (g, "levi", named_subalgebra(g, "levi", H=(F(1), F(0), F(1))), "super")
    monkeypatch.setattr(suites, "growth_cells", lambda: [cell])
    report = suites.suite_growth(4)
    assert [row["params"]["coefficients"] for row in report["rows"]] == ["trivial", "natural"]
    # one pair serves both modules, and each defect operator makes one pass
    assert passes and len({pair for pair, *_ in passes}) == 1
    assert all(n == 1 for *_, n in passes)


@pytest.mark.parametrize("case", PAIRS)
def test_incremental_weights_equal_direct_sums(case):
    pair = PAIRS[case]()
    actions = pair.quotient_rep.actions
    diagonal = [i for i in range(pair.h.dim) if actions[i].is_diagonal()]
    assert diagonal and pair.diagonal == diagonal
    for col, i in enumerate(diagonal):
        for p in range(5):
            monos = pair.degree(p).monomials
            direct = [sum((actions[i].entry(y, y) for y in mo), F(0)) for mo in monos]
            assert [key[col] for key in pair.degree(p).weight_keys] == direct, (p, i)


@pytest.mark.parametrize("case", PAIR_TABLES)
def test_degree_tables_match_reference_enumeration(case):
    pair = PAIR_TABLES[case]()
    qpar, eig = pair.quotient_parities, pair.eig
    zero = tuple(0 for _ in pair.diagonal)
    if case == "gl(2|1)-json-reordered-torus":
        assert qpar == (1, 1, 0, 1, 0, 1)
    for p in range(7):
        monos = oracles.super_monomials(qpar, p)
        # each column of weights starts at 0, so the empty monomial sums to 0
        keys = [tuple(map(sum, zip(zero, *(eig[y] for y in mo)))) for mo in monos]
        buckets = {}
        for t, key in enumerate(keys):
            buckets.setdefault(key, []).append(t)
        deg = pair.degree(p)
        assert deg.monomials == tuple(monos), p
        assert deg.parities == tuple(sum(qpar[y] for y in mo) % 2 for mo in monos), p
        assert deg.index == {mo: t for t, mo in enumerate(monos)}, p
        assert deg.weight_keys == keys, p
        assert list(deg.buckets.items()) == list(buckets.items()), p


def test_report_builds_no_rows_for_diagonal_elements(monkeypatch):
    passes = oracles.record_passes(monkeypatch)
    q3 = build_q(3)
    # gl(2|1) over its levi reads all of h's non-diagonal vectors, q(3)
    # over g0 checks 3 of its 6
    for pair, top in ((PAIRS["gl(2|1)-levi"](), 3), (RelativePair(q3, even_part_span(q3)), 2)):
        for mod in (trivial(pair.g), natural(pair.g), adjoint(pair.g)):
            cx = RelativeComplex(pair, mod)
            passes.clear()
            cx.report(top)
            assert cx.diag_idx and cx.nondiag_idx
            # every check passes, so only the plan and the check list are read
            built = {i for _, _, i, _ in passes}
            assert built <= set(cx.constraint_plan + cx.check_idx) <= set(cx.nondiag_idx)
            assert not built & set(cx.diag_idx)
            if pair.g is q3 and mod.name == "adjoint":
                assert built == set(cx.constraint_plan + cx.check_idx) != set(cx.nondiag_idx)


def _check_exact(values, where, seen):
    """Every value is an int, or a Fraction whose denominator is not 1."""
    for v in values:
        assert type(v) in (int, Fraction), (where, v)
        assert (type(v) is int) == (v.denominator == 1), (where, v)
        seen.add(type(v))


def test_basis_values_are_int_where_integral():
    seen = set()
    for make_pair in PAIRS.values():
        pair = make_pair()
        name = pair.g.name
        _check_exact(
            (v for cols in pair._quotient_cols for col in cols for v in col.values()),
            (name, "quotient columns"), seen,
        )
        _check_exact(
            (v for row in oracles.projected_brackets(pair) for terms in row for _, v in terms),
            (name, "projected brackets"), seen,
        )
        _check_exact(
            (v for residual in pair.h.projections() for v in residual.values()),
            (name, "projections"), seen,
        )
        for mod in (trivial(pair.g), natural(pair.g), adjoint(pair.g)):
            cx = RelativeComplex(pair, mod)
            _check_exact(
                (v for cols in cx.m_action_cols + cx.m_cols_by_complement
                 for col in cols for v in col.values()),
                (name, mod.name, "M columns"), seen,
            )
            for p in range(4):
                for sector, basis in enumerate(cx.space(p).basis):
                    for phi in basis:
                        _check_exact(phi.values(), (name, mod.name, p), seen)
                        image = cx.apply_differential(p, sector, phi)
                        assert all(type(v) in (int, Fraction) for v in image.values())
    assert seen == {int, Fraction}


def test_public_values_outside_the_engine_are_int_where_integral():
    seen = set()
    g = build_gl(2, 1)
    rd = root_decomposition(g)
    _check_exact((c for r in rd.roots for c in r.weight), "root weights", seen)
    _check_exact(generic_functional(rd), "generic_functional", seen)
    H = (F(3, 2), F(2, 2), F(0))  # integral entries given as Fractions
    dec = principal_parabolic(rd, H)
    _check_exact(dec.functional, "principal_parabolic functional", seen)
    assert dec.functional == (F(3, 2), 1, 0)
    # a non-integral functional: the integral pairings come back as int
    values = [pair_with(H, r.weight) for r in rd.roots]
    _check_exact(values, "roots.pair", seen)
    assert {type(v) for v in values} == {int, Fraction}
    assert pair_with((F(1, 2), F(-1, 2), 0), (1, -1, 0)) == 1

    gt = appendix_torus("gl", (2, 1))
    _check_exact((c for vec in gt.values for c in vec), "appendix_torus gl", seen)
    _check_exact((c for vec in appendix_torus("f4").values for c in vec), "appendix_torus f4", seen)
    roots = positive_even_roots("osp_odd", (2,))
    _check_exact((c for r in roots for c in r), "positive_even_roots", seen)
    assert gt.pair((F(1, 2), F(-1, 2), 0)) == (1,)
    _check_exact(gt.pair((F(1, 2), F(-1, 2), 0)), "GradingTorus.pair", seen)
    # a fractional grading: epsilon = 2/3, and the degree bound is the exact
    # ceiling of 2 / (2/3)
    thirds = GradingTorus("thirds", 1, "torus-dual", ((F(1, 3),), (F(-1, 3),)))
    count, cert = count_graded_monomials(thirds, [(1, -1)], F(2), 5)
    assert (count, cert.epsilon, cert.degree_bound) == (1, F(2, 3), 3)
    assert type(cert.degree_bound) is int
    count, cert = count_graded_monomials(gt, positive_even_roots("gl", (2, 1)), (F(4, 2),), 5)
    _check_exact((cert.epsilon,), "count_graded_monomials epsilon", seen)
    assert (count, cert.degree_bound) == (1, 1)

    gl11 = build_gl(1, 1)
    # e11 / 2 and 2 e12: the bracket is e12
    assert gl11.bracket_sparse({0: F(1, 2)}, {2: 2}) == {2: 1}
    osp = build_osp(3, 2)
    _check_exact((c for terms in osp.table.values() for _, c in terms), "osp table", seen)
    _check_exact((c for mat in osp.matrix_model[2] for c in mat.values()), "osp matrices", seen)
    _check_exact(seeded_levi_functional(osp), "seeded_levi_functional", seen)
    _check_exact(parse_rationals("1/2, 4/2, 3"), "parse_rationals", seen)
    assert seen == {int, Fraction}


# --- structure maps per source monomial ------------------------------------


def _pull_structure_maps(pair, p):
    """Oracle: the two sums of d from C^p to C^{p+1} pulled from every
    monomial of degree p+1 and every position pair (i, j), keyed by the
    source monomial of degree p."""
    monos_hi = pair.degree(p + 1).monomials
    lo_index = {mo: t for t, mo in enumerate(pair.degree(p).monomials)}
    qpar = pair.quotient_parities
    proj_table = oracles.projected_brackets(pair)
    bracket_adj, action_adj = {}, {}
    for t1, mo in enumerate(monos_hi):
        pref = [0] * (len(mo) + 1)
        for a, y in enumerate(mo):
            pref[a + 1] = pref[a] + qpar[y]
        for i in range(len(mo)):
            yi = mo[i]
            base = (i + (qpar[yi] * pref[i])) % 2
            w_lo = lo_index[mo[:i] + mo[i + 1 :]]
            action_adj.setdefault(w_lo, []).append((yi, t1, -1 if base else 1))
            for j in range(i + 1, len(mo)):
                yj = mo[j]
                proj = proj_table[yi][yj]
                if not proj:
                    continue
                sig = (
                    (i + 1) + (j + 1) + qpar[yi] * pref[i] + qpar[yj] * (pref[j] + qpar[yi])
                ) % 2
                ssign = -1 if sig else 1
                rest = mo[:i] + mo[i + 1 : j] + mo[j + 1 :]
                for q, v in proj:
                    ins = wedge_insert(q, rest, qpar)
                    if ins is None:
                        continue
                    sgn, mo2 = ins
                    bracket_adj.setdefault(lo_index[mo2], []).append((t1, ssign * sgn * v))
    return bracket_adj, action_adj


def _folded(terms):
    """Pull-form terms (key..., value) with equal keys summed, in order of
    first appearance, zero sums dropped."""
    summed = {}
    for *key, v in terms:
        summed[tuple(key)] = summed.get(tuple(key), 0) + v
    return [(*key, _exact(v)) for key, v in summed.items() if v]


def _source_maps_match_pull_form(pair, max_degree):
    """source_maps(p, w) for every monomial w of degree p <= max_degree,
    entry for entry against the pull form with equal-target bracket terms
    summed and the copies of an action term summed into one signed
    multiplicity; True when some action term has more than one copy (an
    odd factor met twice)."""
    repeated_odd = False
    for p in range(max_degree + 1):
        bracket_adj, action_adj = _pull_structure_maps(pair, p)
        for w, mo in enumerate(pair.degree(p).monomials):
            bracket, action = pair.source_maps(p, w)
            # entry for entry: order, signs, types and multiplicities
            expected = _folded(bracket_adj.get(w, []))
            assert bracket == expected, (p, mo)
            assert [type(c) for _, c in bracket] == [type(c) for _, c in expected]
            assert action == _folded(action_adj.get(w, [])), (p, mo)
            assert all(type(m) is int for _, _, m in action)
            repeated_odd = repeated_odd or any(abs(m) > 1 for _, _, m in action)
    return repeated_odd


@pytest.mark.parametrize("case", PAIR_TABLES)
def test_source_maps_match_pull_form(case):
    pair = PAIR_TABLES[case]()
    repeated_odd = _source_maps_match_pull_form(pair, 5)
    assert repeated_odd == any(par for par in pair.quotient_parities)


def test_source_maps_match_pull_form_on_the_heaviest_ddzero_pairs():
    # the torus pairs where d reads the most structure maps, odd factors
    # repeated; ddzero reads them up to degree 5
    for g in (build_gl(2, 2), build_osp(3, 2)):
        assert _source_maps_match_pull_form(_pair(g, "torus"), 5), g.name


def test_ddzero_builds_no_key_tables_for_the_degree_it_only_indexes():
    g = build_gl(2, 1)
    pair = _pair(g, "torus")
    cx = RelativeComplex(pair, adjoint(g))
    assert all(cx.ddzero(p) for p in range(5))
    # d on C^5 reads the positions of degree 6, never its weight keys
    assert len(pair._degrees) == 7
    assert [callable(deg._tables) for deg in pair._degrees] == [False] * 6 + [True]


@pytest.mark.parametrize("p_break", [0, 1, 2])
def test_ddzero_sees_one_broken_sign(p_break, monkeypatch):
    engine = importlib.import_module("supero.cohomology")
    g = build_gl(2, 1)
    pair = RelativePair(g, named_subalgebra(g, "torus"))
    cx = RelativeComplex(pair, adjoint(g))
    # the first source monomial of degree p_break read by a basis cochain
    w0 = next(divmod(x, cx.m.dim)[0] for phi in cx.space(p_break).basis[0] for x in phi)
    source_maps = engine.RelativePair.source_maps

    def broken(self, p, w):
        bracket, action = source_maps(self, p, w)
        if (p, w) == (p_break, w0):  # flip the first term's sign
            if bracket:
                (t1, coeff), *tail = bracket
                bracket = [(t1, -coeff), *tail]
            else:
                (x, t1, sgn), *tail = action
                action = [(x, t1, -sgn), *tail]
        return bracket, action

    monkeypatch.setattr(engine.RelativePair, "source_maps", broken)
    try:
        assert not all(cx.ddzero(p) for p in range(p_break + 1))
    except ConventionError:
        pass


def test_source_maps_built_only_where_d_reads():
    g = build_gl(2, 2)
    pair = _pair(g, "levi", (F(3), F(2), F(1), F(0)))
    cx = RelativeComplex(pair, trivial(g))
    assert cx.report(6).dims() == [1, 0, 3, 0, 5, 0, 7]
    assert all(cx.ddzero(p) for p in range(6))
    # monomials in the support of some basis vector of C^p or of some image
    # d(psi) of a basis vector psi of C^{p-1}
    read = {p: set() for p in range(8)}
    for p in range(7):
        for sector in (0, 1):
            for phi in cx.space(p).basis[sector]:
                read[p].update(divmod(x, cx.m.dim)[0] for x in phi)
                image = cx.apply_differential(p, sector, phi)
                read[p + 1].update(divmod(x, cx.m.dim)[0] for x in image)
    assert sorted(pair._sources) == [0, 2, 3, 4, 5, 6]
    for p, cache in pair._sources.items():
        assert set(cache) <= read[p], p
    assert len(pair._sources[6]) == 80 < len(pair.degree(6).monomials) // 90


def test_nonuniform_shift_acts_on_each_monomial_once_per_vector(monkeypatch):
    engine = importlib.import_module("supero.cohomology")
    pair = _rotated_g0_pair()
    quotient_cols = {id(cols): i for i, cols in enumerate(pair._quotient_cols)}
    acted = []
    derivation_rows = engine.derivation_rows

    def counted(cols, parities, monos, index, sources):
        sources = list(sources)
        p = len(monos[0]) if monos else 0
        acted.extend((p, quotient_cols[id(cols)], t) for t in sources)
        return derivation_rows(cols, parities, monos, index, sources)

    monkeypatch.setattr(engine, "derivation_rows", counted)
    passes = oracles.record_passes(monkeypatch)
    RelativeComplex(pair, adjoint(pair.g)).report(4)
    mixed = {i for _, i, _ in acted if pair.shift(i) is None}
    assert mixed == {3, 4}
    assert len(acted) == len(set(acted))
    # the mixed vectors act on every monomial in the one pass of each
    # defect operator that reads them
    assert all(n == 1 for *_, n in passes)


def test_action_rows_insert_each_distinct_factor_once(monkeypatch):
    engine = importlib.import_module("supero.cohomology")
    reps = importlib.import_module("supero.reps")
    calls, inserted = [], []
    derivation_rows, bisect_left = engine.derivation_rows, reps.bisect_left

    def recorded(cols, parities, monos, index, sources):
        sources = list(sources)
        calls.append((cols, [monos[t] for t in sources]))
        return derivation_rows(cols, parities, monos, index, sources)

    def counted(rest, rank, **key):
        # each insertion point is the bisect of a rank among the ranks of the rest
        inserted.append(rank)
        return bisect_left(rest, rank, **key)

    monkeypatch.setattr(engine, "derivation_rows", recorded)
    monkeypatch.setattr(reps, "bisect_left", counted)
    g = build_osp(3, 2)
    RelativeComplex(_pair(g, "g0"), tensor(dual(natural(g)), natural(g))).report(8)
    # one insertion per (source monomial, distinct factor, column entry)
    expected = sum(len(cols[y]) for cols, monos in calls for mo in monos for y in set(mo))
    assert any(len(set(mo)) < len(mo) for _, monos in calls for mo in monos)
    assert len(inserted) == expected > 0


def test_structure_maps_hold_one_term_per_target_on_the_ddzero_roster():
    for g in ddzero_algebras():
        for _, h in ddzero_subalgebras(g):
            pair = RelativePair(g, h)
            for p in range(6):
                for w, mo in enumerate(pair.degree(p).monomials):
                    bracket, action = pair.source_maps(p, w)
                    assert len({t1 for t1, _ in bracket}) == len(bracket), (g.name, h.label, mo)
                    assert len({(x, t1) for x, t1, _ in action}) == len(action), (g.name, h.label, mo)


# --- integer numerators and one scale per basis vector ----------------------


def _oracle_blocks(cx, p):
    """d^p applied to the public basis and expanded with plain Fraction
    arithmetic: read the coefficients at the anchors, then check that the
    image minus their combination is zero."""
    src, dst = cx.space(p), cx.space(p + 1)
    blocks = []
    for sector in (0, 1):
        anchors = {coord: r for r, coord in enumerate(dst.free_coords[sector])}
        entries = []
        for k, phi in enumerate(src.basis[sector]):
            image = cx.apply_differential(p, sector, phi)
            residual = {coord: F(c) for coord, c in image.items()}
            for coord, c in image.items():
                r = anchors.get(coord)
                if r is not None:
                    entries.append((r, k, c))
                    for coord2, v in dst.basis[sector][r].items():
                        residual[coord2] = residual.get(coord2, F(0)) - c * v
            assert not any(residual.values()), (p, sector, k)
        blocks.append(SparseMatrix(len(dst.basis[sector]), len(src.basis[sector]), entries))
    return blocks


def _typed_entries(mat):
    return sorted((r, c, v, type(v)) for r, c, v in mat.entries())


def _q2_ext_natural():
    """The growth cell q(2), h = g0, Ext(natural, natural): its scales are
    not all 1 in either sector from p = 2 on."""
    g = build_q(2)
    m = natural(g)
    return RelativeComplex(RelativePair(g, even_part_span(g)), tensor(dual(m), m))


def _pairs_complex(case, mod):
    pair = PAIRS[case]()
    return RelativeComplex(pair, mod(pair.g))


INTEGER_CASES = {
    **{
        f"{case}-{mod.__name__}": partial(_pairs_complex, case, mod)
        for case in PAIRS
        for mod in (trivial, natural, adjoint)
    },
    "q(2)-g0-Ext(natural,natural)": _q2_ext_natural,
}


@pytest.mark.parametrize("case", INTEGER_CASES)
def test_integer_numerators_reproduce_the_fraction_differential(case):
    cx = INTEGER_CASES[case]()
    for p in range(6):
        sp = cx.space(p)
        for sector in (0, 1):
            nums, scales = sp.numerators[sector], sp.scales[sector]
            assert len(nums) == len(scales) == len(sp.basis[sector])
            assert sp.lcm[sector] == math.lcm(*scales)
            for phi, s, anchor, vec in zip(nums, scales, sp.free_coords[sector], sp.basis[sector]):
                assert all(type(v) is int for v in phi.values())
                assert math.gcd(*phi.values()) == 1
                assert phi[anchor] == s > 0
                assert vec == {coord: F(v, s) for coord, v in phi.items()}
                assert all(type(v) is int or v.denominator > 1 for v in vec.values())
                assert (vec is phi) == (s == 1)
    for p in range(5):
        blocks = oracles.differential_blocks(cx, p)
        for got, want in zip(blocks, _oracle_blocks(cx, p)):
            assert (got.rows, got.cols) == (want.rows, want.cols)
            assert _typed_entries(got) == _typed_entries(want), p
        assert cx.ddzero(p), p
    if case.startswith("q(2)-g0-Ext"):
        assert any(len(set(cx.space(p).scales[s])) > 1 for p in range(6) for s in (0, 1))


def test_rank_rows_take_the_pivots_of_the_fraction_blocks():
    # below the top degree a report ranks the expansion coefficients, whose
    # column k is column k of d's block times the source scale: on the
    # growth and ddzero rosters the elimination must pick the same pivot
    # columns, in the same order, on both, and the report's ranks agree
    from test_check_list import _roster_complexes

    scaled = 0
    for cell, cx in _roster_complexes():
        top = 8 if cell[0] == "growth" else 4
        rows = cx.report(top).rows
        for p in range(top):
            ranks = []
            for sector, block in enumerate(oracles.differential_blocks(cx, p)):
                want = [c for c, _ in _eliminate(_int_rows(block))]
                got = [c for c, _ in _eliminate(_int_rows(cx._block(p, sector)))]
                assert got == want, (cell, p, sector)
                ranks.append(len(got))
                scaled += cx.space(p).lcm[sector] > 1 and bool(want)
            assert rows[p].rank_differential == sum(ranks), (cell, p)
    assert scaled  # some source scale is not 1 where d is not zero


def test_expand_witness_is_unscaled():
    cx = _q2_ext_natural()
    p, sector = next((p, s) for p in range(6) for s in (0, 1) if cx.space(p).lcm[s] > 1)
    sp = cx.space(p)
    k = next(k for k, s in enumerate(sp.scales[sector]) if s > 1)
    anchors = set(sp.free_coords[sector])
    coord = next(c for c in sp.numerators[sector][k] if c not in anchors)
    # basis vector k plus 1/3 at one of its non-anchor coordinates
    target = dict(sp.basis[sector][k])
    target[coord] += F(1, 3)
    if not target[coord]:
        del target[coord]
    w, v = divmod(coord, cx.m.dim)
    witness = (
        f"(degree {p}, sector {sector}) at coordinate ({v}, {sp.monomials[w]}) "
        f"with residual 1/3"
    )
    with pytest.raises(ConventionError, match=re.escape(witness) + "$"):
        cx._expand(target, sp, sector)
    # the same cochain handed in as 5 times itself, the way d(numerator) is
    with pytest.raises(ConventionError, match=re.escape(witness) + "$"):
        cx._expand({c: 5 * x for c, x in target.items()}, sp, sector, 5)


@pytest.mark.parametrize("build", [
    lambda: build_gl(2, 1), lambda: build_q(2), lambda: build_p_tilde(2),
    lambda: build_osp(1, 2), lambda: build_gl(2, 2),
], ids=["gl(2|1)", "q(2)", "p~(2)", "osp(1|2)", "gl(2|2)"])
def test_ddzero_on_seeded_random_functionals(build):
    # small values repeat often, so many levis lie strictly between the
    # torus and g, and many borels are parabolics
    g = build()
    rng = random.Random(f"ddzero-functional-{g.name}")
    for sub in ("levi", "borel") * 3:
        H = tuple(rng.randint(-1, 2) for _ in g.torus)
        pair = _pair(g, sub, H)
        for mod in (trivial, natural, adjoint):
            cx = RelativeComplex(pair, mod(g))
            assert all(cx.ddzero(p) for p in range(4)), (sub, H, mod.__name__)


# Seeded borel functionals per algebra, each drawn in a chamber where the
# tensor modules below reach Lambda^p(g/b): the weight of a b-singular
# vector of Lambda^p(g/b) is minus a sum of positive roots, and only there
# can a finite-dimensional module hold a singular vector of that weight
# (with trivial, natural or adjoint coefficients C^p = 0 for every p >= 1).
BOREL_DRAWS = {
    "gl(1|1)": (lambda: build_gl(1, 1), lambda rng: tuple(rng.sample(range(-3, 4), 2))),
    "p~(2)": (lambda: build_p_tilde(2), lambda rng: tuple(rng.sample(range(-3, 0), 2))),
    # |H(eps)| > |H(delta)|: both odd roots eps +- delta on one side
    "osp(2|2)": (
        lambda: build_osp(2, 2), lambda rng: (rng.choice((-3, -2, 2, 3)), rng.randint(-1, 1))
    ),
}


@pytest.mark.parametrize("name", BOREL_DRAWS)
def test_ddzero_on_seeded_borel_functionals_with_tensor_coefficients(name):
    build, draw = BOREL_DRAWS[name]
    g = build()
    n, ad = natural(g), adjoint(g)
    modules = [tensor(ad, ad), tensor(tensor(n, dual(n)), ad), tensor(tensor(ad, ad), ad)]
    rng = random.Random(f"borel-ddzero-{g.name}")
    for _ in range(3):
        H = draw(rng)
        pair = _pair(g, "borel", H)
        dims = []
        for mod in modules:
            cx = RelativeComplex(pair, mod)
            dims.append([cx.space(p).dim for p in range(5)])
            assert all(cx.ddzero(p) for p in range(4)), (H, mod.name)
        assert any(any(d[1:]) for d in dims), (H, dims)


def test_defect_matches_the_per_coordinate_oracle():
    # every basis numerator of both sectors and every unit cochain of a kept
    # coordinate, under every non-diagonal span vector: same values, same
    # scalar types, same key order as the columns summed one coordinate at
    # a time
    from supero.cohomology import _defect
    from supero.suites import coefficient_modules

    compared = 0
    for g in ddzero_algebras():
        for hname, h in ddzero_subalgebras(g):
            pair = RelativePair(g, h)
            for mod in coefficient_modules(g):
                cx = RelativeComplex(pair, mod)
                for p in range(5):
                    kept, keys = cx._kept(p, pair.degree(p).buckets)
                    phis = [*cx.space(p).numerators[0], *cx.space(p).numerators[1]]
                    phis += [{x: 1} for xs in kept for x in xs]
                    for i in cx.nondiag_idx:
                        op = cx._defect_columns(p, i, keys)
                        for phi in phis:
                            got = [(x, c, type(c)) for x, c in _defect(op, phi).items()]
                            want = oracles.defect(cx, p, i, keys, phi)
                            assert got == [(x, c, type(c)) for x, c in want.items()], (
                                g.name, hname, mod.name, p, i, phi
                            )
                            compared += 1
    assert compared == 17074
