"""The check list: the span vectors of h whose equivariance checks are
made, the plan plus those that single-term brackets carry to every other
non-diagonal span vector.  The witnesses of a failing check stay those of
a check against every non-diagonal span vector; a module that breaks a
bracket the list relies on gets every span vector checked; the list
generates h with the diagonal span vectors; and the brackets it relies on
hold on the exterior powers and on the defect operators."""

import re

import pytest

from supero.algebras import build_p_tilde, build_q, even_part_span
from supero.cohomology import RelativeComplex, RelativePair, _cut, _defect
from supero.errors import ConventionError
from supero.linalg import SparseMatrix, _add_scaled
from supero.reps import Representation, adjoint, dual, natural, tensor, trivial
from supero.suites import coefficient_modules, ddzero_algebras, ddzero_subalgebras, growth_cells

import oracles
from test_top_degree import _flip_one_action_sign


def _roster_complexes():
    """(cell, complex) for every cell of the ``ddzero`` roster and every
    Ext complex of the ``growth`` roster, one pair per (g, h)."""
    for g in ddzero_algebras():
        for hname, h in ddzero_subalgebras(g):
            pair = RelativePair(g, h)
            for mod in coefficient_modules(g):
                yield ("ddzero", g.name, hname, mod.name), RelativeComplex(pair, mod)
    for g, hname, h, _ in growth_cells():
        pair = RelativePair(g, h)
        for mod in [trivial(g)] + ([natural(g)] if g.matrix_model is not None else []):
            yield ("growth", g.name, hname, mod.name), RelativeComplex(pair, tensor(dual(mod), mod))


def _q3_g0(build=build_q, mod=adjoint):
    g = build(3)
    return RelativeComplex(RelativePair(g, even_part_span(g)), mod(g))


def test_q3_g0_checks_three_of_six():
    # span vectors of g0 = gl(3) are E[i,j] in row order: E[1,3] (2) is
    # [E[1,2], E[2,3]], E[3,2] (7) is -[E[1,2], E[3,1]], E[2,1] (3) is
    # [E[2,3], E[3,1]]
    cx = _q3_g0()
    assert cx.nondiag_idx == [1, 2, 3, 5, 6, 7]
    assert cx.check_idx == [1, 5, 6]
    assert cx.pair.check_list(cx.diag_idx, cx.constraint_plan)[1] == [
        (2, 1, 5, 1), (7, 1, 6, -1), (3, 5, 6, 1)
    ]


def test_a_failing_basis_names_the_witness_of_the_full_check(monkeypatch):
    # every unit cut by span vector 1 alone: the first failing span vector
    # in nondiag_idx order is 2, derived from 1 and 5, off the list
    def cut_by_one(self, plan, ops, units):
        parts = ([], [])
        for _, sector, kept in units:
            vectors, free = _cut([1], ops, sector, [{x: 1} for x in kept], kept)
            parts[sector].extend(sorted(zip(free, vectors)))
        return tuple(([phi for _, phi in s], [x for x, _ in s]) for s in map(sorted, parts))

    monkeypatch.setattr(RelativeComplex, "_impose", cut_by_one)
    messages = {
        1: "(degree 1, sector 0) at coordinate (14, (3,)) with defect 1",
        2: "(degree 2, sector 0) at coordinate (2, (0, 4)) with defect 1",
        3: "(degree 3, sector 0) at coordinate (14, (0, 3, 4)) with defect -1",
    }
    for p, where in messages.items():
        cx = _q3_g0()
        assert 2 not in cx.check_idx
        with pytest.raises(ConventionError) as err:
            cx.space(p)
        assert str(err.value) == "cochain basis fails equivariance under span vector 2 of h " + where


def test_a_plan_failing_a_short_check_list_falls_back_to_the_full_solve(monkeypatch):
    # the plan's solve imposes nothing, so its bases fail the check list;
    # the full solve reads the operators of 2, 3 and 7, on neither the plan
    # nor the list, and finds the spaces of an unbroken solve
    want = [_q3_g0().space(p) for p in range(4)]
    impose, plans = RelativeComplex._impose, []

    def plan_imposes_nothing(self, plan, ops, units):
        plans.append(plan)
        return impose(self, [] if plan == self.constraint_plan else plan, ops, units)

    monkeypatch.setattr(RelativeComplex, "_impose", plan_imposes_nothing)
    cx = _q3_g0()
    assert (cx.constraint_plan, cx.check_idx) == ([1, 5], [1, 5, 6])
    assert cx.nondiag_idx == [1, 2, 3, 5, 6, 7]
    for p, sp in enumerate(want):
        got = cx.space(p)
        assert got.numerators == sp.numerators, p
        assert got.free_coords == sp.free_coords, p
        assert got.scales == sp.scales, p
    assert cx.nondiag_idx in plans


def test_a_failing_top_image_names_the_witness_of_the_full_check():
    cx = _q3_g0()
    _flip_one_action_sign(cx.pair, cx, 2, last=True)
    witness = (
        "differential image fails equivariance under span vector 2 of h "
        "(degree 3, sector 1) at coordinate (8, (6, 8, 8)) with defect 4"
    )
    with pytest.raises(ConventionError, match=re.escape(witness) + "$"):
        cx.report(2)
    assert 2 not in cx.check_idx


def _broken_adjoint(g):
    """The adjoint of q(3) with entry (0, 6) of the action of E[1,3], a
    span vector of g0 the check list derives, doubled from 1 to 2."""
    ad = adjoint(g)
    entries = {(r, c): v for r, c, v in ad.actions[2].entries()}
    assert entries[0, 6] == 1
    entries[0, 6] = 2
    actions = list(ad.actions)
    actions[2] = SparseMatrix(ad.dim, ad.dim, ((r, c, v) for (r, c), v in entries.items()))
    return Representation(g, "broken adjoint", ad.parities, actions)


def test_a_module_off_a_derived_bracket_is_checked_under_every_span_vector():
    cx = _q3_g0(mod=_broken_adjoint)
    assert cx.check_idx == cx.nondiag_idx
    # g/h still respects the brackets: the pair keeps its short list
    assert cx.pair.check_list(cx.diag_idx, cx.constraint_plan)[0] == [1, 5, 6]
    # the spaces of a check against every non-diagonal span vector
    dims = {0: (1, 1), 1: (2, 1), 2: (2, 4), 3: (6, 3)}
    for p, dim in dims.items():
        sp = cx.space(p)
        assert (sp.dim_even, sp.dim_odd) == dim, p
        want = oracles.whole_sector_space(RelativeComplex(cx.pair, cx.m), p)
        for sector, (numerators, scales, anchors) in enumerate(want):
            assert sp.numerators[sector] == numerators, (p, sector)
            assert sp.scales[sector] == scales, (p, sector)
            assert sp.free_coords[sector] == anchors, (p, sector)
    # the short list would miss the broken bracket and keep too much
    short = _q3_g0(mod=_broken_adjoint)
    short.check_idx = [1, 5, 6]
    assert (short.space(1).dim_even, short.space(1).dim_odd) == (2, 2)


def test_a_quotient_off_a_derived_bracket_is_checked_under_every_span_vector():
    g = build_q(3)
    pair = RelativePair(g, even_part_span(g))
    cols = pair._quotient_cols[2]  # E[1,3] on g/h
    y = next(y for y, col in enumerate(cols) if col)
    y2 = next(iter(cols[y]))
    cols[y][y2] += 1
    cx = RelativeComplex(pair, adjoint(g))
    assert cx.check_idx == cx.nondiag_idx
    assert pair.check_list(cx.diag_idx, cx.constraint_plan) == (cx.nondiag_idx, [])


def test_check_list_and_the_diagonal_vectors_generate_h():
    shorter = {"ddzero": [], "growth": []}
    for cell, cx in _roster_complexes():
        nondiag, listed = cx.nondiag_idx, cx.check_idx
        assert listed == [i for i in nondiag if i in listed], cell
        assert set(cx.constraint_plan) <= set(listed), cell
        h_alg = cx.pair.quotient_rep.algebra
        assert set(nondiag) <= oracles.generated_span_vectors(h_alg, listed + cx.diag_idx), cell
        if len(listed) < len(nondiag):
            shorter[cell[0]].append(cell[1:])
            if cell[1] in ("q(3)", "p~(3)") and cell[2] == "g0":
                assert (len(listed), len(nondiag)) == (3, 6), cell
    assert len(shorter["ddzero"]) == 19
    assert {hname for _, hname, _ in shorter["ddzero"]} == {"g0", "levi"}
    assert sum(cell[:2] in (("q(3)", "g0"), ("p~(3)", "g0")) for cell in shorter["ddzero"]) == 6
    assert len(shorter["growth"]) == 4


def _apply(columns, vec) -> dict:
    """The operator with ``columns`` (per coordinate, a list of parts, each
    a list of (coordinate, value)) applied to the sparse vector ``vec``."""
    out = {}
    for x, c in vec.items():
        for part in columns[x]:
            _add_scaled(out, part, c)
    return out


def _bracket_holds(apply, ops, k, a, b, lhs_sign, rhs_scale, coords) -> bool:
    """O_a O_b + lhs_sign O_b O_a = rhs_scale O_k on every unit vector, with
    ``apply(ops[i], vec)`` the operator O_i applied to vec."""
    for x in coords:
        out = apply(ops[a], apply(ops[b], {x: 1}))
        _add_scaled(out, apply(ops[b], apply(ops[a], {x: 1})).items(), lhs_sign)
        _add_scaled(out, apply(ops[k], {x: 1}).items(), -rhs_scale)
        if out:
            return False
    return True


def _sector_defect(cx, p):
    """``_defect`` on a cochain of degree p of ``cx``, which lies in one
    sector as unit cochains and their defects do, handed that sector."""
    return lambda op, vec: _defect(op, oracles.sector(cx, p, vec), vec)


def test_derived_brackets_hold_on_exterior_powers_and_defect_operators():
    # The runtime checks a derived bracket [b_a, b_b] = v b_k on g/h and on
    # M.  On L^p_s(g/h) the action rows R are a representation:
    # R_a R_b - (-1)^{|a||b|} R_b R_a = v R_k.  The defect operators D
    # carry the odd sign folded in: D_x phi is (-1)^{|x||phi|} times
    # x.phi(-) - (-1)^{|x||phi|} phi(x.-), so on Hom(L^p_s(g/h), M), both
    # sectors at once, D_a D_b - s D_b D_a = s v D_k with s = (-1)^{|a||b|}.
    # Either way a cochain of one map parity that a and b kill, k kills.
    brackets = 0
    for cell, cx in _roster_complexes():
        pair = cx.pair
        listed, derived = pair.check_list(cx.diag_idx, cx.constraint_plan)
        if len(cx.check_idx) == len(cx.nondiag_idx):
            continue
        par = pair.h.vector_parities
        n = cx.m.dim
        for p in range(5):
            deg = pair.degree(p)
            keys = list(deg.buckets)
            for k, a, b, v in derived:
                s = -1 if par[a] and par[b] else 1
                rows, defects = {}, {}
                for i in {k, a, b}:
                    cols = {t: [] for t in range(len(deg.monomials))}
                    for key in keys:
                        for t, row in pair.action_rows(p, i, [key]).items():
                            for t2, c in row.items():
                                cols[t2].append((t, c))
                    rows[i] = {t: [col] for t, col in cols.items()}
                    defects[i] = cx._defect_columns(p, i, keys)
                where = (cell, p, (k, a, b, v))
                assert _bracket_holds(_apply, rows, k, a, b, -s, v, range(len(deg.monomials))), where
                coords = range(len(deg.monomials) * n)
                assert _bracket_holds(_sector_defect(cx, p), defects, k, a, b, -s, s * v, coords), where
                brackets += 1
    assert brackets > 0
