"""The equivariance checks of a solved basis (``RelativeComplex.space``)
and of a report's last images (``_top_rank``), made on packed cochains:
the width leaves room for every digit of every defect, a cell whose
module has a ``Fraction`` entry is checked one vector at a time, and a
failure is named by the per-vector path, with the witness text of a check
that never packed."""

import re
from fractions import Fraction

import pytest

from supero import cohomology as engine
from supero import suites
from supero.algebras import build_gl, build_q, even_part_span
from supero.cohomology import RelativeComplex, RelativePair, cohomology
from supero.errors import ConventionError
from supero.linalg import SparseMatrix
from supero.reps import Representation, adjoint, trivial
from supero.roots import named_subalgebra

import oracles

F = Fraction
PACK = engine._pack


def test_packing_width_bounds_every_digit_on_the_growth_and_coh_stress_cells(monkeypatch):
    widths = oracles.record_widths(monkeypatch, "_defect_bound")
    assert all(row["status"] == "pass" for row in suites.suite_growth()["rows"])
    q3, gl22 = build_q(3), build_gl(2, 2)
    assert cohomology(q3, even_part_span(q3), adjoint(q3), 4).dims() == [1, 1, 2, 2, 3]
    assert cohomology(gl22, even_part_span(gl22), trivial(gl22), 6).dims() == [1, 0, 1, 0, 2, 0, 2]
    assert len(widths) > 100
    checked = 0
    for cx, q, ops, vectors, width in widths:
        where = (cx.pair.g.name, cx.pair.h.label, cx.m.name, q, sorted(ops))
        assert width is not None, where  # every entry is an int on these cells
        top = 0
        for op in ops.values():
            for phi in vectors:
                # on a passing cell every defect is zero; its entries are
                # bounded, whatever the signs, by the absolute sums
                assert not engine._defect(op, oracles.sector(cx, q, phi), phi), where
                top = max(top, max(oracles.abs_defect(op, phi).values(), default=0))
                checked += 1
        assert 1 << width > 2 * top, where
        if not width:  # degree 0 with a trivial module: no term at all
            continue
        # the digits of this pair cancel at one bit less, not at the width
        pair_digits = [{0: 1 << (width - 1)}, {0: -1}]
        assert not any(PACK(pair_digits, width - 1).values()), where
        assert PACK(pair_digits, width) == {0: -(1 << (width - 1))}, where
    assert checked > 1000


def test_packing_width_bounds_the_defect_of_every_unit_cochain():
    # the bound holds for any integer cochain, not only for basis vectors:
    # the unit cochains of every coordinate of a degree q include the
    # monomials y^q of an odd quotient vector y, whose action rows reach q
    # times a quotient entry
    for g, mod in ((build_q(2), adjoint), (build_gl(2, 2), trivial)):
        cx = RelativeComplex(RelativePair(g, even_part_span(g)), mod(g))
        for q in range(1, 6):
            deg = cx.pair.degree(q)
            units = [{x: 1} for x in range(len(deg.monomials) * cx.m.dim)]
            for i in cx.check_idx:
                op = cx._defect_columns(q, i, deg.buckets)
                width = engine._width(units, cx._defect_bound(q, [i]))
                top = max(max(oracles.abs_defect(op, unit).values(), default=0) for unit in units)
                assert 1 << width > 2 * top, (g.name, q, i)


def _conjugated(m, d):
    """M^D: the module m conjugated by the diagonal matrix d, isomorphic to
    m, its action entries d[r] a / d[c]."""
    return Representation(m.algebra, "adjoint^D", m.parities, [
        SparseMatrix(m.dim, m.dim, ((r, c, F(d[r]) * v / d[c]) for r, c, v in a.entries()))
        for a in m.actions
    ])


def test_a_module_with_fraction_entries_is_checked_one_vector_at_a_time(monkeypatch):
    # the module of test_coefficients_given_by_rational_matrices
    g = build_gl(2, 1)
    md = _conjugated(adjoint(g), [1, 2, F(1, 3), F(3, 2), 5, F(1, 2), F(2, 7), 4, 3])
    widths = oracles.record_widths(monkeypatch, "_defect_bound")

    def no_packs(vectors, width):
        raise AssertionError("a Fraction entry was packed")

    monkeypatch.setattr(engine, "_packs", no_packs)
    want = {"g0": [1, 0, 1, 0, 1], "levi": [1, 0, 1, 0, 1]}
    for spec, dims in want.items():
        h = named_subalgebra(g, spec, (1, 0, 1) if spec == "levi" else None)
        assert RelativeComplex(RelativePair(g, h), md).report(4).dims() == dims, spec
    assert widths and all(width is None for *_, width in widths)


def test_top_images_with_fraction_entries_are_checked_one_at_a_time(monkeypatch):
    # adjoint(gl(2|1)) conjugated by 2 on its odd vectors: h = g0 keeps
    # integer entries, so the bases are packed, but the odd part of g does
    # not, and some last images of d hold Fractions
    g = build_gl(2, 1)
    m = adjoint(g)
    md = _conjugated(m, [1 + par for par in m.parities])
    pair = RelativePair(g, even_part_span(g))
    widths = oracles.record_widths(monkeypatch, "_defect_bound")
    for top in range(1, 6):
        assert RelativeComplex(pair, md).report(top) == RelativeComplex(pair, m).report(top)._replace(
            module="adjoint^D"
        ), top
    fractions = [
        width for *_, vectors, width in widths
        if any(type(c) is F for phi in vectors for c in phi.values())
    ]
    assert fractions and all(width is None for width in fractions)
    assert any(width for *_, width in widths)


def _reading(cx, p, vectors, w):
    """The (sector, index) of the cochains among ``vectors`` (one list per
    sector, on the flat coordinates of degree p) with a coordinate at
    monomial w."""
    n = cx.m.dim
    return [
        (sector, k) for sector, vs in enumerate(vectors) for k, phi in enumerate(vs)
        if any(x // n == w for x in phi)
    ]


def _action_row(pair, p, i, monomial):
    """The position of ``monomial`` in degree p and the action row of span
    vector i there."""
    deg = pair.degree(p)
    w = deg.index[monomial]
    return w, pair.action_rows(p, i, [deg.weight_keys[w]])[w]


def _rows_handed_out(monkeypatch, pair, p, i, w, negate=False):
    """The rows at position w that ``pair.action_rows`` hands out for span
    vector i on degree p from now on: each is the dict that the defect
    operator built from it reads.  With ``negate`` each comes out negated."""
    rows, action_rows = [], RelativePair.action_rows

    def handed_out(self, q, j, keys):
        out = action_rows(self, q, j, keys)
        if self is pair and (q, j) == (p, i) and w in out:
            if negate:
                out[w] = {w2: -a for w2, a in out[w].items()}
            rows.append(out[w])
        return out

    monkeypatch.setattr(RelativePair, "action_rows", handed_out)
    return rows


# the second cap puts the failing cochains past the first packed cochain
CAPS = pytest.mark.parametrize("cap", [engine.PACKED_IMAGES, 2])


@CAPS
def test_two_failing_basis_vectors_name_the_lower_anchor(monkeypatch, cap):
    # gl(2|2), h = g0, adjoint: the plan imposes span vectors 1 and 5 and
    # the check list adds 2 and 6.  The one entry of span vector 2's row at
    # monomial (0, 6) of degree 2 is flipped after every solve, in the
    # defect operator that both read, so each solve sees the true rows and
    # each re-verification the broken ones.
    # The even basis vectors 2 and 3, and no other, read (0, 6); their
    # defects are 2 and -2 at (6, (0, 7)), and the witness is vector 2's
    g = build_gl(2, 2)
    pair = RelativePair(g, even_part_span(g))
    cx = RelativeComplex(pair, adjoint(g))
    assert (cx.constraint_plan, cx.check_idx) == ([1, 5], [1, 2, 5, 6])
    w, row = _action_row(pair, 2, 2, (0, 6))
    assert _reading(cx, 2, RelativeComplex(pair, adjoint(g)).space(2).numerators, w) == [
        (0, 2), (0, 3)
    ]
    ((w2, a),) = row.items()
    rows = _rows_handed_out(monkeypatch, pair, 2, 2, w)
    impose = RelativeComplex._impose

    def solve_then_break(self, plan, ops, units):
        for row in rows:
            row[w2] = a
        solved = impose(self, plan, ops, units)
        for row in rows:
            row[w2] = -a
        return solved

    monkeypatch.setattr(RelativeComplex, "_impose", solve_then_break)
    monkeypatch.setattr(engine, "PACKED_IMAGES", cap)
    witness = (
        "cochain basis fails equivariance under span vector 2 of h "
        "(degree 2, sector 0) at coordinate (6, (0, 7)) with defect 2"
    )
    with pytest.raises(ConventionError, match=re.escape(witness) + "$"):
        cx.space(2)


@CAPS
def test_two_failing_top_images_name_the_lower_basis_index(monkeypatch, cap):
    # q(3), h = g0, adjoint, N = 2: the images of the odd numerators 1 and
    # 3 of C^2, and no other image, read monomial (0, 1, 4) of degree 3.
    # Flipping the one entry of its row under span vector 6, on the check
    # list, fails both, with defects -4 and 8 / 2 at (1, (1, 2, 4)); the
    # witness is image 1's
    g = build_q(3)
    pair = RelativePair(g, even_part_span(g))
    cx = RelativeComplex(pair, adjoint(g))
    assert cx.check_idx == [1, 5, 6]
    w, row = _action_row(pair, 3, 6, (0, 1, 4))
    images = [cx._images(2, sector) for sector in (0, 1)]
    assert _reading(cx, 3, images, w) == [(1, 1), (1, 3)]
    assert len(row) == 1
    _rows_handed_out(monkeypatch, pair, 3, 6, w, negate=True)
    monkeypatch.setattr(engine, "PACKED_IMAGES", cap)
    witness = (
        "differential image fails equivariance under span vector 6 of h "
        "(degree 3, sector 1) at coordinate (1, (1, 2, 4)) with defect -4"
    )
    with pytest.raises(ConventionError, match=re.escape(witness) + "$"):
        cx.report(2)

