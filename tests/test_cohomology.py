import importlib
import math
import random
import re
from fractions import Fraction
from functools import partial

import pytest

from supero.algebras import (
    LieSuperalgebra,
    SubalgebraSpan,
    bracket,
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
from supero.cli import parse_rationals
from supero.errors import AlgebraMismatch, ConventionError, NotASubalgebra
from supero.linalg import SparseMatrix
from supero.reps import (
    adjoint,
    dual,
    natural,
    restrict,
    super_exterior_power,
    tensor,
    trivial,
    wedge_insert,
)
from supero.roots import (
    generic_functional,
    named_subalgebra,
    pair as pair_with,
    principal_parabolic,
    root_decomposition,
)
from supero.suites import seeded_levi_functional

from oracles import matmul

F = Fraction


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


# --- differentials ----------------------------------------------------------


def test_differential_zero_for_g0_trivial():
    # with h = g0 and M = C both sums of the differential vanish identically
    for g in (build_gl(1, 1), build_q(2), build_p_tilde(2)):
        cx = RelativeComplex(RelativePair(g, even_part_span(g)), trivial(g))
        for p in range(5):
            assert cx.differential(p).is_zero()


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
        assert matmul(d_hi, d_lo).is_zero()


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


def test_non_closed_subalgebra_rejected():
    g = build_gl(1, 1)
    odd1 = [F(0)] * 4
    odd1[g.basis_labels.index("e[1,2]")] = F(1)
    odd2 = [F(0)] * 4
    odd2[g.basis_labels.index("e[2,1]")] = F(1)
    span = SubalgebraSpan(g, [tuple(odd1), tuple(odd2)], "odds")
    with pytest.raises(NotASubalgebra):
        RelativeComplex(RelativePair(g, span), trivial(g)).space(1)


def test_non_closed_subalgebra_reported_at_first_escaping_pair():
    # one closure check (in to_algebra) serves every consumer of the span
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


def test_expansion_outside_span_raises_convention_error():
    g = build_gl(1, 1)
    cx = RelativeComplex(RelativePair(g, even_part_span(g)), trivial(g))
    sp1 = cx.space(1)  # zero-dimensional
    assert sp1.dim == 0
    with pytest.raises(ConventionError):
        cx._expand({(0, 0): F(1)}, sp1, 0)


def test_convention_error_names_its_witness():
    g = build_gl(1, 1)
    cx = RelativeComplex(RelativePair(g, even_part_span(g)), trivial(g))
    sp1 = cx.space(1)  # zero-dimensional
    mono = sp1.monomials[1]
    witness = f"(degree 1, sector 1) at coordinate (0, {mono}) with residual -1/2"
    with pytest.raises(ConventionError, match=re.escape(witness) + "$"):
        cx._expand({(0, 1): F(-1, 2)}, sp1, 1)


@pytest.mark.parametrize(
    "build, sub, H",
    [
        (lambda: build_gl(2, 1), "levi", (F(1), F(0), F(1))),
        (lambda: build_q(2), "borel", None),
    ],
    ids=["gl(2|1)-levi", "q(2)-borel"],
)
def test_shared_pair_matches_independent_pairs(build, sub, H, monkeypatch):
    engine = importlib.import_module("supero.cohomology")
    built = []
    build_rows = engine.RelativePair._build_action_rows

    def counted_action_rows(self, p, i, k):
        built.append((p, i, k))
        return build_rows(self, p, i, k)

    monkeypatch.setattr(engine.RelativePair, "_build_action_rows", counted_action_rows)
    g = build()
    h = named_subalgebra(g, sub, H=H)
    modules = (trivial(g), natural(g), adjoint(g))
    pair = RelativePair(g, h)
    shared = [RelativeComplex(pair, mod) for mod in modules]
    reports = [cx.report(3).to_json_dict() for cx in shared]
    # the three modules built the rows of each (degree, span vector, weight
    # bucket) once between them
    assert built and len(built) == len(set(built))
    for mod, cx, report in zip(modules, shared, reports):
        alone = RelativeComplex(RelativePair(g, h), mod)
        assert report == alone.report(3).to_json_dict()
        for p in range(5):
            assert cx.space(p).basis == alone.space(p).basis, (mod.name, p)


# --- pair-level action rows and weights -------------------------------------


def _pair(g, sub, H=None):
    return RelativePair(g, named_subalgebra(g, sub, H=H))


def _rotated_g0_pair():
    """g0 of gl(2|1) spanned by e11, e22, e33, e12+e21 and e12-e21: the two
    mixed vectors are no weight vectors, so they shift weights non-uniformly."""
    g = build_gl(2, 1)

    def vec(*terms):
        out = [F(0)] * g.dim
        for label, c in terms:
            out[g.basis_labels.index(label)] = F(c)
        return tuple(out)

    span = SubalgebraSpan(
        g,
        [vec(("e[1,1]", 1)), vec(("e[2,2]", 1)), vec(("e[3,3]", 1)),
         vec(("e[1,2]", 1), ("e[2,1]", 1)), vec(("e[1,2]", 1), ("e[2,1]", -1))],
        "g0-rotated",
    )
    return RelativePair(g, span)


def _skew_torus_pair():
    """h of q(2) spanned by 2 E11 + E22: E11 projects to -E22 / 2, and the
    bracket [F11, F11] = 2 E11 projects to -E22, integral from a Fraction."""
    g = build_q(2)
    vec = [0] * g.dim
    vec[g.torus[0]], vec[g.torus[1]] = 2, 1
    return RelativePair(g, SubalgebraSpan(g, [vec], "skew-torus"))


PAIRS = {
    "gl(2|1)-levi": lambda: _pair(build_gl(2, 1), "levi", (F(1), F(0), F(1))),
    "q(2)-borel": lambda: _pair(build_q(2), "borel"),
    "osp(1|2)-g0": lambda: _pair(build_osp(1, 2), "g0"),
    "p~(2)-levi": lambda: _pair(build_p_tilde(2), "levi", (F(0), F(1))),
    "gl(2|1)-g0-rotated": _rotated_g0_pair,
    "q(2)-skew-torus": _skew_torus_pair,
}


def _all_action_rows(pair, p, i):
    """The rows of every weight bucket, in monomial order."""
    rows = {}
    for k in pair.buckets(p):
        rows.update(pair.action_rows(p, i, k))
    return [rows[t] for t in range(len(rows))]


@pytest.mark.parametrize("case", PAIRS)
def test_action_rows_match_exterior_power(case):
    pair = PAIRS[case]()
    for p in range(5):
        lam = super_exterior_power(pair.quotient_rep, p)
        for i in range(pair.h.dim):  # diagonal elements too
            assert _all_action_rows(pair, p, i) == lam.actions[i].row_dicts(), (p, i)


def test_rotated_span_shifts_and_reports():
    pair = _rotated_g0_pair()
    g = pair.g
    assert pair.diagonal == [0, 1, 2]
    assert [pair.shift(i) for i in range(5)] == [(0, 0, 0)] * 3 + [None, None]
    plain = RelativePair(g, even_part_span(g))
    for mod in (trivial(g), natural(g), adjoint(g)):
        rotated = RelativeComplex(pair, mod).report(4)
        assert rotated.rows == RelativeComplex(plain, mod).report(4).rows, mod.name


def test_growth_cell_builds_each_bucket_once(monkeypatch):
    engine = importlib.import_module("supero.cohomology")
    suites = importlib.import_module("supero.suites")
    built = []
    build_rows = engine.RelativePair._build_action_rows

    def counted_action_rows(self, p, i, k):
        built.append((id(self), p, i, k))
        return build_rows(self, p, i, k)

    monkeypatch.setattr(engine.RelativePair, "_build_action_rows", counted_action_rows)
    g = build_gl(2, 1)
    cell = (g, "levi", named_subalgebra(g, "levi", H=(F(1), F(0), F(1))), "super")
    monkeypatch.setattr(suites, "growth_cells", lambda: [cell])
    report = suites.suite_growth(4)
    assert [row["params"]["coefficients"] for row in report["rows"]] == ["trivial", "natural"]
    # one pair serves both modules, and no (degree, span vector, bucket) is built twice
    assert built and len({pair for pair, *_ in built}) == 1
    assert len(built) == len(set(built))


@pytest.mark.parametrize("case", PAIRS)
def test_incremental_weights_equal_direct_sums(case):
    pair = PAIRS[case]()
    actions = pair.quotient_rep.actions
    diagonal = [i for i in range(pair.h.dim) if actions[i].is_diagonal()]
    assert diagonal and pair.diagonal == diagonal
    for col, i in enumerate(diagonal):
        for p in range(5):
            monos, _ = pair.monomials(p)
            direct = [sum((actions[i].entry(y, y) for y in mo), F(0)) for mo in monos]
            assert [key[col] for key in pair.weight_keys(p)] == direct, (p, i)


def test_report_builds_no_rows_for_diagonal_elements():
    pair = PAIRS["gl(2|1)-levi"]()
    for mod in (trivial(pair.g), natural(pair.g), adjoint(pair.g)):
        cx = RelativeComplex(pair, mod)
        cx.report(3)
        assert cx.diag_idx and cx.nondiag_idx
        built = {i for _, i, _ in pair._rows}
        assert built <= set(cx.nondiag_idx)
        assert not built & set(cx.diag_idx)


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
            (v for row in pair._projected_brackets() for terms in row for _, v in terms),
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
    x, y = [0] * 4, [0] * 4
    x[0], y[2] = F(1, 2), 2  # e11 / 2 and 2 e12: the bracket is e12
    assert bracket(gl11, x, y) == (0, 0, 1, 0)
    _check_exact(bracket(gl11, x, y), "bracket", seen)
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
    monos_hi, _ = pair.monomials(p + 1)
    lo_index = {mo: t for t, mo in enumerate(pair.monomials(p)[0])}
    qpar = pair.quotient_parities
    proj_table = pair._projected_brackets()
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


@pytest.mark.parametrize("case", PAIRS)
def test_source_maps_match_pull_form(case):
    pair = PAIRS[case]()
    repeated_odd = False
    for p in range(6):
        bracket_adj, action_adj = _pull_structure_maps(pair, p)
        for w, mo in enumerate(pair.monomials(p)[0]):
            bracket, action = pair.source_maps(p, w)
            # entry for entry: order, signs, types and repeated terms
            assert bracket == bracket_adj.get(w, []), (p, mo)
            assert [type(c) for _, c in bracket] == [type(c) for _, c in bracket_adj.get(w, [])]
            assert action == action_adj.get(w, []), (p, mo)
            repeated_odd = repeated_odd or len(action) > len(set(action))
    assert repeated_odd == any(par for par in pair.quotient_parities)


@pytest.mark.parametrize("p_break", [0, 1, 2])
def test_ddzero_sees_one_broken_sign(p_break, monkeypatch):
    engine = importlib.import_module("supero.cohomology")
    g = build_gl(2, 1)
    pair = RelativePair(g, named_subalgebra(g, "torus"))
    cx = RelativeComplex(pair, adjoint(g))
    # the first source monomial of degree p_break read by a basis cochain
    w0 = next(w for phi in cx.space(p_break).basis[0] for _, w in phi)
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
                read[p].update(w for _, w in phi)
                read[p + 1].update(w for _, w in cx.apply_differential(p, sector, phi))
    assert sorted(pair._sources) == [0, 2, 3, 4, 5, 6]
    for p, cache in pair._sources.items():
        assert set(cache) <= read[p], p
    assert len(pair._sources[6]) == 80 < len(pair.monomials(6)[0]) // 90


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
    RelativeComplex(pair, adjoint(pair.g)).report(4)
    mixed = {i for _, i, _ in acted if pair.shift(i) is None}
    assert mixed == {3, 4}
    assert len(acted) == len(set(acted))


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
        blocks = cx._differential_blocks(p)
        for got, want in zip(blocks, _oracle_blocks(cx, p)):
            assert (got.rows, got.cols) == (want.rows, want.cols)
            assert _typed_entries(got) == _typed_entries(want), p
        assert cx.ddzero(p), p
    if case.startswith("q(2)-g0-Ext"):
        assert any(len(set(cx.space(p).scales[s])) > 1 for p in range(6) for s in (0, 1))


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
    v, w = coord
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
