"""Deeper engine validation: classical closed-form values and edge paths."""

import hashlib
import json
import math
from fractions import Fraction

import pytest

from supero.algebras import (
    SubalgebraSpan,
    build_gl,
    build_q,
    even_part_span,
    special_linear_span,
)
from supero.cohomology import RelativeComplex, RelativePair, cohomology
from supero.invariants import compare_invariants_vs_cohomology, invariant_dims
from supero.linalg import SparseMatrix, _add_scaled, kernel_basis_with_free
from supero.reps import Representation, adjoint, trivial
from supero.roots import named_subalgebra
from supero.suites import coefficient_modules, ddzero_algebras, ddzero_subalgebras

F = Fraction


def test_ordinary_cohomology_sl2():
    # h = 0 gives ordinary cohomology; sl2 is an exterior algebra on one
    # degree-3 generator, so the dims are 1,0,0,1
    g = special_linear_span(build_gl(2, 0), 2, 0).to_algebra("sl(2)")
    rep = cohomology(g, SubalgebraSpan(g, [], "zero"), trivial(g), 3)
    assert rep.dims() == [1, 0, 0, 1]


def test_ordinary_cohomology_sl3():
    # generators in degrees 3 and 5: dims are the coefficients of (1+t^3)(1+t^5)
    g = special_linear_span(build_gl(3, 0), 3, 0).to_algebra("sl(3)")
    rep = cohomology(g, SubalgebraSpan(g, [], "zero"), trivial(g), 8)
    assert rep.dims() == [1, 0, 0, 1, 0, 1, 0, 0, 1]


def test_ordinary_cohomology_gl2():
    # gl2 = sl2 + center: extra degree-1 generator: (1+t)(1+t^3)
    g = build_gl(2, 0)
    rep = cohomology(g, SubalgebraSpan(g, [], "zero"), trivial(g), 4)
    assert rep.dims() == [1, 1, 0, 1, 1]


def test_span_built_algebra_through_full_engine():
    # sl(2|1) arises from a non-unit span; the whole pipeline must cope
    g = special_linear_span(build_gl(2, 1), 2, 1).to_algebra("sl(2|1)")
    assert invariant_dims(g, 4).dims == [1, 0, 1, 0, 1]
    rows, ok = compare_invariants_vs_cohomology(g, 4)
    assert ok, rows
    cx = RelativeComplex(RelativePair(g, even_part_span(g)), adjoint(g))
    assert all(cx.ddzero(p) for p in range(3))


def test_levi_with_odd_part_q2():
    # H = (1, 0) keeps the whole zero-weight space, including the odd
    # Cartan part, so the equivariance constraints include odd vectors
    g = build_q(2)
    h = named_subalgebra(g, "levi", H=(F(1), F(0)))
    assert h.vector_parities == (0, 0, 1, 1)
    cx = RelativeComplex(RelativePair(g, h), trivial(g))
    # odd constraints really are exercised
    assert any(h.vector_parities[i] for i in cx.constraint_plan)
    assert [cx.space(p).dim for p in range(5)] == [1, 0, 1, 0, 1]
    assert all(cx.ddzero(p) for p in range(3))
    assert cx.report(4).dims() == [1, 0, 1, 0, 1]


def test_levi_with_odd_part_q2_adjoint_coefficients():
    g = build_q(2)
    h = named_subalgebra(g, "levi", H=(F(1), F(0)))
    cx = RelativeComplex(RelativePair(g, h), adjoint(g))
    assert all(cx.ddzero(p) for p in range(3))


def test_algebra_identity_enforced():
    g1 = build_q(2)
    g2 = build_q(2)
    h = named_subalgebra(g1, "torus")
    from supero.errors import AlgebraMismatch

    with pytest.raises(AlgebraMismatch):
        RelativeComplex(RelativePair(g2, h), trivial(g2))
    with pytest.raises(AlgebraMismatch):
        RelativeComplex(RelativePair(g1, h), trivial(g2))


def test_reduction_shortcut_matches_full_solve(monkeypatch):
    # On every ddzero cell whose shortcut drops even constraints, the shortcut
    # basis must be the full-solve basis, without the fallback firing.
    fallbacks = []
    impose = RelativeComplex._impose

    def spy(self, constraint_ids, *args):
        if constraint_ids is self.nondiag_idx and self.constraint_plan != self.nondiag_idx:
            fallbacks.append(self)
        return impose(self, constraint_ids, *args)

    monkeypatch.setattr(RelativeComplex, "_impose", spy)
    cells = 0
    for g in ddzero_algebras():
        for hname, h in ddzero_subalgebras(g):
            pair = RelativePair(g, h)
            for mod in coefficient_modules(g):
                fast = RelativeComplex(pair, mod)
                if fast.constraint_plan == fast.nondiag_idx:
                    continue
                cells += 1
                slow = RelativeComplex(pair, mod)
                slow.constraint_plan = slow.nondiag_idx
                for p in range(5):
                    sp_f, sp_s = fast.space(p), slow.space(p)
                    where = (g.name, hname, mod.name, p)
                    assert sp_f.basis == sp_s.basis, where
                    assert sp_f.free_coords == sp_s.free_coords, where
    assert cells == 49
    assert fallbacks == []


def test_wrong_shortcut_plan_falls_back_to_the_full_solve(monkeypatch):
    # An empty even plan drops every even constraint, so the re-verification
    # in space must catch the unconstrained candidates and re-solve in full.
    g = build_gl(2, 2)
    pair = RelativePair(g, even_part_span(g))
    good = RelativeComplex(pair, adjoint(g))
    wrong = RelativeComplex(pair, adjoint(g))
    # a shortcut plan: the simple even vectors, and no odd ones
    assert good.constraint_plan and good.constraint_plan != good.nondiag_idx
    assert not any(pair.h.vector_parities[i] for i in good.constraint_plan)
    wrong.constraint_plan = []
    full_solves = []
    impose = RelativeComplex._impose

    def spy(self, constraint_ids, *args):
        if self is wrong and constraint_ids == self.nondiag_idx:
            full_solves.append(constraint_ids)
        return impose(self, constraint_ids, *args)

    monkeypatch.setattr(RelativeComplex, "_impose", spy)
    for p in range(4):
        sp_good, sp_wrong = good.space(p), wrong.space(p)
        assert sp_wrong.basis == sp_good.basis, p
        assert sp_wrong.free_coords == sp_good.free_coords, p
    assert len(full_solves) == 4


def test_a_span_file_reaches_the_full_solve_fallback(tmp_path, monkeypatch, capsys):
    # h = <t, e[1,2], e[4,3]> in gl(2|2), t = e[1,1] - e[2,2] + e[3,3] - e[4,4]:
    # e[1,2] and e[4,3] have weights 2 and -2 under t, so the plan passes the
    # shortcut's tests and keeps e[1,2] alone.  But they commute, h is no
    # reductive algebra, and the plan's basis fails re-verification.
    from supero import cli
    from supero import cohomology as engine

    # gl(2|2) basis: e[1,1], e[1,2], e[2,1], e[2,2], e[3,3], e[3,4], e[4,3],
    # e[4,4], then the odd elementary matrices
    units = [((0, 1), (3, -1), (4, 1), (7, -1)), ((1, 1),), ((6, 1),)]
    vectors = []
    for terms in units:
        vec = [[0, 1]] * 16
        for k, c in terms:
            vec[k] = [c, 1]
        vectors.append(vec)
    path = tmp_path / "span.json"
    path.write_text(json.dumps({"vectors": vectors, "label": "t+e12+e43"}))
    g = build_gl(2, 2)
    h = cli.parse_subalgebra(g, f"span:{path}", None)
    pair = RelativePair(g, h)
    cuts = []
    cut = engine._cut

    def spy(constraint_ids, *args):
        cuts.append(list(constraint_ids))
        return cut(constraint_ids, *args)

    monkeypatch.setattr(engine, "_cut", spy)
    for mod, dims in ((trivial(g), [1, 1, 0, 0, 1]), (adjoint(g), [1, 1, 0, 0])):
        cx = RelativeComplex(pair, mod)
        assert cx.constraint_plan == [1]
        assert cx.check_idx == cx.nondiag_idx == [1, 2]
        full = RelativeComplex(pair, mod)
        full.constraint_plan = full.nondiag_idx
        fallbacks = 0
        for p in range(len(dims)):
            cuts.clear()
            sp = cx.space(p)
            fallbacks += [1, 2] in cuts
            want = full.space(p)
            assert sp.basis == want.basis and sp.free_coords == want.free_coords, (mod.name, p)
        assert fallbacks > 0, mod.name
        assert cx.report(len(dims) - 1).dims() == dims, mod.name
    monkeypatch.undo()
    code = cli.main(["coh", "gl", "2", "2", "--sub", f"span:{path}", "--mod", "adjoint", "-N", "3"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out.endswith("# H dims: 1,1,0,0\n")


def test_g0_vanishing_solves_no_degree_above_its_n(monkeypatch):
    # the differentials_vanish rows read the report's ranks, and the report
    # ranks its last degree without solving the one above
    from supero import cli, suites

    degrees = []
    space = RelativeComplex.space

    def spy(self, p):
        degrees.append(p)
        return space(self, p)

    monkeypatch.setattr(RelativeComplex, "space", spy)
    report = suites.suite_g0_vanishing()
    assert max(degrees) == 6
    assert hashlib.sha256(cli.dumps(report).encode()).hexdigest() == (
        "7620c4191c2ebe2233d8bd595f00878b4a3f11a3b052af4a6e30bb325ced18c3"
    )


def test_unverified_basis_raises_after_the_full_solve(monkeypatch, capsys):
    # A kernel solver that returns every candidate leaves the constraints
    # unimposed: the shortcut and the full solve both fail re-verification,
    # and space must raise instead of returning the unverified basis.
    from supero import cli
    from supero import cohomology as engine
    from supero.errors import ConventionError

    def identity_kernel(mat):
        return [({k: 1}, 1) for k in range(mat.cols)], list(range(mat.cols))

    monkeypatch.setattr(engine, "kernel_basis_with_free", identity_kernel)
    g = build_gl(2, 1)
    cx = RelativeComplex(RelativePair(g, even_part_span(g)), adjoint(g))
    assert cx.constraint_plan != cx.nondiag_idx  # both attempts run
    with pytest.raises(ConventionError) as err:
        cx.space(1)
    assert str(err.value) == (
        "cochain basis fails equivariance under span vector 1 of h "
        "(degree 1, sector 0) at coordinate (5, (1,)) with defect -1"
    )
    code = cli.main(["coh", "gl", "2", "1", "--sub", "g0", "--mod", "adjoint", "-N", "1"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("consistency error: cochain basis fails")
    assert captured.err.count("\n") == 1


def test_unverified_basis_is_solved_once_when_the_plan_is_full(monkeypatch):
    # On a borel cell the plan already lists every non-diagonal span vector,
    # so a basis that fails re-verification raises without the same solve
    # being run again.
    from supero import cohomology as engine
    from supero.errors import ConventionError

    def identity_kernel(mat):
        return [({k: 1}, 1) for k in range(mat.cols)], list(range(mat.cols))

    monkeypatch.setattr(engine, "kernel_basis_with_free", identity_kernel)
    calls = []
    impose = RelativeComplex._impose

    def spy(self, *args):
        calls.append(args[0])
        return impose(self, *args)

    monkeypatch.setattr(RelativeComplex, "_impose", spy)
    g = build_gl(2, 1)
    pair = RelativePair(g, named_subalgebra(g, "borel"))
    cx = RelativeComplex(pair, adjoint(g))
    assert cx.constraint_plan == cx.nondiag_idx
    messages = {
        0: "span vector 1 of h (degree 0, sector 0) at coordinate (1, ()) with defect -1",
        1: "span vector 1 of h (degree 1, sector 0) at coordinate (0, (0,)) with defect 1",
        2: "span vector 1 of h (degree 2, sector 0) at coordinate (8, (0, 2)) with defect -1",
    }
    for p, message in messages.items():
        calls.clear()
        cx = RelativeComplex(pair, adjoint(g))
        with pytest.raises(ConventionError) as err:
            cx.space(p)
        assert str(err.value) == "cochain basis fails equivariance under " + message
        assert calls == [cx.nondiag_idx], p
    # a degree whose unconstrained basis happens to verify: one solve too
    calls.clear()
    cx = RelativeComplex(pair, adjoint(g))
    cx.space(3)
    assert calls == [cx.nondiag_idx]


def test_space_solves_nothing_where_h_acts_diagonally(monkeypatch):
    # On the ddzero cells where every span vector of h acts diagonally on
    # g/h and on M (the torus cells, and a few more) there is no constraint:
    # space(p) runs no kernel and keeps one unit vector per coordinate whose
    # weights under h agree.
    from supero import cohomology as engine

    kernels = []
    monkeypatch.setattr(engine, "kernel_basis_with_free", kernels.append)
    cells = 0
    for g in ddzero_algebras():
        for _, h in ddzero_subalgebras(g):
            pair = RelativePair(g, h)
            q = pair.quotient_rep
            if not all(a.is_diagonal() for a in q.actions):
                continue
            q_wt = [tuple(a.entry(y, y) for a in q.actions) for y in range(len(pair.complement))]
            for mod in coefficient_modules(g):
                m_actions = [mod.action_of_vector(vec) for vec in h.vectors]
                if not all(a.is_diagonal() for a in m_actions):
                    continue
                cells += 1
                cx = RelativeComplex(pair, mod)
                assert cx.nondiag_idx == []
                m_wt = [tuple(a.entry(v, v) for a in m_actions) for v in range(mod.dim)]
                for p in range(5):
                    want = ([], [])
                    for w, mo in enumerate(pair.degree(p).monomials):
                        wt = tuple(sum(q_wt[y][i] for y in mo) for i in range(h.dim))
                        par = sum(pair.quotient_parities[y] for y in mo)
                        for v in range(mod.dim):
                            if m_wt[v] == wt:
                                want[(mod.parities[v] + par) % 2].append(w * mod.dim + v)
                    sp = cx.space(p)
                    for s in (0, 1):
                        where = (g.name, h.label, mod.name, p, s)
                        assert sp.free_coords[s] == want[s], where
                        assert sp.numerators[s] == [{x: 1} for x in want[s]], where
                        assert sp.scales[s] == [1] * len(want[s]), where
    assert cells == 40 and kernels == []


def test_coefficients_given_by_rational_matrices(monkeypatch):
    # M^D: adjoint(gl(2|1)) conjugated by a diagonal rational matrix D, an
    # isomorphic module whose action entries are Fractions, so defects hold
    # Fractions and some kernel rows hold integral Fractions only
    from supero import cohomology as engine

    g = build_gl(2, 1)
    m = adjoint(g)
    d = [F(1), F(2), F(1, 3), F(3, 2), F(5), F(1, 2), F(2, 7), F(4), F(3)]
    md = Representation(g, "adjoint^D", m.parities, [
        SparseMatrix(m.dim, m.dim, ((r, c, d[r] * v / d[c]) for r, c, v in a.entries()))
        for a in m.actions
    ])
    assert any(type(v) is F for a in md.actions for _, _, v in a.entries())
    seen = {"fraction_defects": 0, "integral_fraction_rows": 0}
    defect, kernel = engine._defect, engine.kernel_basis_with_free

    def defect_spy(columns, sector, phi):
        out = defect(columns, sector, phi)
        seen["fraction_defects"] += any(type(v) is F for v in out.values())
        return out

    def kernel_spy(mat):
        rows = mat.row_dicts()
        seen["integral_fraction_rows"] += sum(
            1 for row in rows if row and all(type(v) is F and v.denominator == 1 for v in row.values())
        )
        return kernel(mat)

    monkeypatch.setattr(engine, "_defect", defect_spy)
    monkeypatch.setattr(engine, "kernel_basis_with_free", kernel_spy)
    want = {"g0": [1, 0, 1, 0, 1], "borel": [1, 0, 0, 0, 0], "levi": [1, 0, 1, 0, 1]}
    for spec, dims in want.items():
        h = named_subalgebra(g, spec, (1, 0, 1) if spec == "levi" else None)
        pair = RelativePair(g, h)
        assert RelativeComplex(pair, m).report(4).dims() == dims, spec
        assert RelativeComplex(pair, md).report(4).dims() == dims, spec
    assert seen["fraction_defects"] > 0 and seen["integral_fraction_rows"] > 0, seen


# --- the stacked one-kernel solve, kept as the oracle of space ---------------


def _stacked_defect(cx, i, sector, lam_rows, phi):
    """Equivariance defect of phi, keyed by (v, w), for span vector i of h."""
    odd = (cx.pair.h.vector_parities[i] * sector) % 2
    cols = cx.m_action_cols[i]
    out = {}
    for (v, w), c in phi.items():
        _add_scaled(out, (((v2, w), a) for v2, a in cols[v].items()), -c if odd else c)
    for (v, w), c in phi.items():
        _add_scaled(out, (((v, w2), a) for w2, a in lam_rows[w].items()), -c)
    return out


def _stacked_impose(cx, ids, sector, lam_rows_by_id, candidates, free):
    """Cut the span of candidates by all the listed constraints at once: the
    defects under every span vector stacked into one matrix, one kernel."""
    if not ids or not candidates:
        return candidates, free
    row_ids, entries = {}, []
    for k, phi in enumerate(candidates):
        for i in ids:
            for coord, val in _stacked_defect(cx, i, sector, lam_rows_by_id[i], phi).items():
                entries.append((row_ids.setdefault((i, coord), len(row_ids)), k, val))
    mat = SparseMatrix(len(row_ids), len(candidates), entries)
    combos, free_cols = kernel_basis_with_free(mat)
    out = []
    for nums, _ in combos:
        vec = {}
        for k, c in nums.items():
            _add_scaled(vec, candidates[k].items(), c)
        g = math.gcd(*vec.values())
        out.append({coord: v // g for coord, v in vec.items()})
    return out, [free[k] for k in free_cols]


def _stacked_space(cx, p):
    """Per sector, (numerators, scales, anchors) of C^p by the stacked solve:
    the plan, then the full solve unless every constraint holds exactly."""
    _, mono_par = cx.monomials(p)
    pos = [cx.pair.diagonal.index(i) for i in cx.diag_idx]
    kept, needed = ([], []), []
    for key, ts in cx.pair.degree(p).buckets.items():
        vs = cx.m_buckets.get(tuple(key[j] for j in pos))
        if vs:
            needed.append(key)
            for w in ts:
                for v in vs:
                    kept[(cx.m.parities[v] + mono_par[w]) % 2].append((v, w))
    lam_rows_by_id = {i: {} for i in cx.nondiag_idx}
    for i, rows in lam_rows_by_id.items():
        for key in needed:
            rows.update(cx.pair.action_rows(p, i, [key]))
    out = []
    for sector in (0, 1):
        coords = sorted(kept[sector], key=lambda coord: coord[::-1])
        for plan in (cx.constraint_plan, cx.nondiag_idx):
            candidates, free = _stacked_impose(
                cx, plan, sector, lam_rows_by_id, [{coord: 1} for coord in coords], coords
            )
            if not any(
                _stacked_defect(cx, i, sector, lam_rows_by_id[i], phi)
                for phi in candidates for i in cx.nondiag_idx
            ):
                break
        else:
            raise AssertionError(f"stacked solve fails equivariance (degree {p})")
        out.append((candidates, [phi[c] for phi, c in zip(candidates, free)], free))
    return out


def _by_v_w(cx, vectors):
    """The vectors, keyed by flat x = w * dim M + v, re-keyed by (v, w) as
    the stacked solve keys them."""
    return [{divmod(x, cx.m.dim)[::-1]: c for x, c in phi.items()} for phi in vectors]


def test_space_matches_the_stacked_solve():
    # every ddzero cell with a shortcut plan to p = 3, and q(3), h = g0,
    # adjoint coefficients to p = 5, where one span vector at a time cuts
    # 633 candidates to 130 and then 12
    cells = []
    for g in ddzero_algebras():
        for hname, h in ddzero_subalgebras(g):
            pair = RelativePair(g, h)
            for mod in coefficient_modules(g):
                cx = RelativeComplex(pair, mod)
                if cx.constraint_plan != cx.nondiag_idx:
                    big = (g.name, hname, mod.name) == ("q(3)", "g0", "adjoint")
                    cells.append((cx, 5 if big else 3))
    assert len(cells) == 49 and max(top for _, top in cells) == 5
    for cx, top in cells:
        for p in range(top + 1):
            sp = cx.space(p)
            for sector, (nums, scales, free) in enumerate(_stacked_space(cx, p)):
                where = (cx.pair.g.name, cx.pair.h.label, cx.m.name, p, sector)
                assert _by_v_w(cx, sp.numerators[sector]) == nums, where
                assert sp.scales[sector] == scales, where
                assert [divmod(x, cx.m.dim)[::-1] for x in sp.free_coords[sector]] == free, where
                assert _by_v_w(cx, sp.basis[sector]) == [
                    {coord: F(v, s) for coord, v in phi.items()} for phi, s in zip(nums, scales)
                ], where
