import itertools
from fractions import Fraction

import pytest

from supero.algebras import build_gl, build_p_tilde, build_q, even_part_span
from supero.cohomology import RelativeComplex, RelativePair
from supero.errors import DimensionMismatch
from supero.invariants import (
    compare_invariants_vs_cohomology,
    ext_growth,
    invariant_dims,
    invariant_subspace_dim,
)
from supero.reps import natural, trivial
from supero.roots import named_subalgebra
from supero.suites import coefficient_modules, ddzero_algebras, ddzero_subalgebras

F = Fraction


# --- independent oracle for the q(2) Hilbert table ---------------------------
#
# Brute force, written against plain dense lists: polynomial functions on gl_2
# under the coadjoint action of gl_2.  Monomials in the four dual variables
# x[p][q]; the kernel of all four generator actions is computed by a local
# row reduction, not by the package's linear algebra.


def _gl2_ad_matrix(p, q):
    # [e_pq, e_rs] = d_qr e_ps - d_sp e_rq, flattened as 4x4 over basis (r,s)
    basis = [(0, 0), (0, 1), (1, 0), (1, 1)]
    mat = [[F(0)] * 4 for _ in range(4)]
    for col, (r, s) in enumerate(basis):
        if q == r:
            mat[basis.index((p, s))][col] += F(1)
        if s == p:
            mat[basis.index((r, q))][col] -= F(1)
    return mat


def _rref_rank(rows):
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    used = [False] * len(rows)
    for c in range(cols):
        piv = None
        for i, row in enumerate(rows):
            if not used[i] and row[c] != 0:
                piv = i
                break
        if piv is None:
            continue
        used[piv] = True
        rank += 1
        pv = rows[piv][c]
        for i, row in enumerate(rows):
            if i != piv and row[c] != 0:
                f = row[c] / pv
                for k in range(cols):
                    row[k] -= f * rows[piv][k]
    return rank


def q2_invariant_dim_oracle(degree):
    basis = [(0, 0), (0, 1), (1, 0), (1, 1)]
    monos = list(itertools.combinations_with_replacement(range(4), degree))
    index = {mo: i for i, mo in enumerate(monos)}
    rows = []
    for (p, q) in basis:
        ad = _gl2_ad_matrix(p, q)
        # coadjoint: xi . x_u = - sum_r ad[u][r] x_r, extended by Leibniz
        for mo in monos:
            out = [F(0)] * len(monos)
            for slot, u in enumerate(mo):
                rest = mo[:slot] + mo[slot + 1 :]
                for r in range(4):
                    c = -ad[u][r]
                    if c:
                        out[index[tuple(sorted(rest + (r,)))]] += c
            rows.append(out)
    # kernel dimension = #monomials - rank of the stacked action
    cols = len(monos)
    transposed = [[rows[i][j] for i in range(len(rows))] for j in range(cols)]
    # rank of the constraint matrix equals rank of its transpose
    return cols - _rref_rank([r for r in rows if any(r)]) if rows else cols


Q2_HILBERT_EXPECTED = [1, 1, 2, 2, 3, 3, 4]  # truncation of 1/((1-t)(1-t^2))


def test_q2_oracle_matches_closed_form():
    assert [q2_invariant_dim_oracle(j) for j in range(7)] == Q2_HILBERT_EXPECTED


def test_q2_invariant_hilbert_table():
    table = invariant_dims(build_q(2), 6)
    assert table.dims == Q2_HILBERT_EXPECTED


def test_gl11_invariant_dims_alternate():
    table = invariant_dims(build_gl(1, 1), 6)
    assert table.dims == [1, 0, 1, 0, 1, 0, 1]


def test_purely_even_invariants_trivial():
    table = invariant_dims(build_gl(2, 0), 3)
    assert table.dims == [1, 0, 0, 0]


def test_invariant_dims_bounded_by_symmetric_power():
    import math

    g = build_gl(2, 1)
    b = len(g.odd_indices)
    table = invariant_dims(g, 5)
    for j, d in enumerate(table.dims):
        assert 0 <= d <= math.comb(b + j - 1, j)


def test_invariant_dims_rejects_negative():
    with pytest.raises(DimensionMismatch):
        invariant_dims(build_gl(1, 1), -1)


# --- comparison with cohomology ----------------------------------------------


@pytest.mark.parametrize(
    "g", [build_gl(1, 1), build_gl(2, 1), build_q(2), build_p_tilde(2)], ids=lambda g: g.name
)
def test_compare_invariants_vs_cohomology(g):
    rows, ok = compare_invariants_vs_cohomology(g, 4)
    assert ok, rows
    assert len(rows) == 5


def test_compare_gl11_degree6():
    rows, ok = compare_invariants_vs_cohomology(build_gl(1, 1), 6)
    assert ok
    assert [r["invariant_dim"] for r in rows] == [1, 0, 1, 0, 1, 0, 1]


# --- growth estimates ---------------------------------------------------------


def test_growth_gl11_bounded_sequence():
    g = build_gl(1, 1)
    est = ext_growth(g, even_part_span(g), trivial(g), trivial(g), 8)
    assert est.dims == [1, 0, 1, 0, 1, 0, 1, 0, 1]
    assert not est.eventually_zero
    assert abs(est.estimated_rate - 1.0) < 0.26
    assert est.bound == 2
    assert est.within_bound


def test_growth_purely_even_eventually_zero():
    g = build_gl(2, 0)
    est = ext_growth(g, named_subalgebra(g, "borel"), trivial(g), trivial(g), 6)
    assert est.eventually_zero
    assert est.estimated_rate == 0.0
    assert est.within_bound  # 0 <= bound = 0


def test_growth_q2_linear():
    g = build_q(2)
    est = ext_growth(g, even_part_span(g), trivial(g), trivial(g), 8)
    assert est.dims == [1, 1, 2, 2, 3, 3, 4, 4, 5]
    assert 1.0 <= est.estimated_rate <= 2.5
    assert est.bound == 4
    assert est.within_bound


def test_growth_monotone_under_larger_window():
    g = build_q(2)
    h = even_part_span(g)
    for n_deg in (4, 6, 8):
        est = ext_growth(g, h, trivial(g), trivial(g), n_deg)
        assert est.within_bound


def test_growth_window_too_small():
    g = build_gl(1, 1)
    with pytest.raises(DimensionMismatch):
        ext_growth(g, even_part_span(g), trivial(g), trivial(g), 3)


def test_growth_natural_coefficients():
    g = build_gl(1, 1)
    est = ext_growth(g, even_part_span(g), natural(g), natural(g), 6)
    assert est.within_bound
    assert est.dims[0] == 1  # End_g(natural) = scalars


def test_growth_json_round_trip_fields():
    g = build_gl(1, 1)
    est = ext_growth(g, even_part_span(g), trivial(g), trivial(g), 4)
    d = est.to_json_dict()
    assert d["schema"] == "superO/1"
    assert d["window"] == [2, 4]
    assert d["dims"] == est.dims


def test_degree_zero_cohomology_is_the_invariant_subspace():
    # H^0(g, h; M) = M^g on every ddzero cell: the cochain engine (equivariant
    # basis of C^0, rank of d^0) against the kernel of the g-action on M
    cells = 0
    for g in ddzero_algebras():
        modules = coefficient_modules(g)
        invariant = [invariant_subspace_dim(mod) for mod in modules]
        for hname, h in ddzero_subalgebras(g):
            pair = RelativePair(g, h)
            for mod, expected in zip(modules, invariant):
                h0 = RelativeComplex(pair, mod).report(0).dims()[0]
                assert h0 == expected, (g.name, hname, mod.name)
                cells += 1
    assert cells == 132


# --- the complexity bound on cells with many odd directions -------------------


@pytest.mark.parametrize(
    "g, max_degree, dims, odd_dim",
    [
        (build_gl(2, 2), 8, [1, 0, 1, 0, 2, 0, 2, 0, 3], 8),
        (build_q(3), 6, [1, 1, 2, 3, 4, 5, 7], 9),
    ],
    ids=["gl(2|2)", "q(3)"],
)
def test_even_part_cohomology_and_growth_within_odd_dimension(g, max_degree, dims, odd_dim):
    h = even_part_span(g)
    pair = RelativePair(g, h)
    report = RelativeComplex(pair, trivial(g)).report(max_degree)
    # H(g, g0; C) against the invariant ring S(g1*)^{g0}, a separate pipeline
    assert report.dims() == invariant_dims(g, max_degree).dims == dims
    est = ext_growth(g, h, trivial(g), trivial(g), max_degree, pair)
    assert est.dims == dims
    assert est.bound == odd_dim == len(g.odd_indices)
    assert not est.eventually_zero
    assert est.within_bound
