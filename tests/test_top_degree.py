"""The last degree of a report: rank d^N read off the images of C^N's
numerators, each checked against the definition of C^{N+1}, with no basis
of C^{N+1} built; and the witnesses of an image that fails that check."""

import ast
import re
from fractions import Fraction

import pytest

from supero import cli
from supero import cohomology as engine
from supero.algebras import build_gl, build_q, even_part_span
from supero.cohomology import RelativeComplex, RelativePair
from supero.errors import ConventionError
from supero.reps import adjoint, dual, natural, tensor, trivial
from supero.suites import coefficient_modules, ddzero_algebras, ddzero_subalgebras, growth_cells

import oracles

F = Fraction


def _assert_matches_the_oracle(pair, mod, top):
    cx = RelativeComplex(pair, mod)
    got = cx.report(top).to_json_dict()
    assert top + 1 not in cx._spaces
    want = oracles.report_through_the_next_space(RelativeComplex(pair, mod), top)
    assert got == want, (pair.g.name, pair.h.label, mod.name)


def test_report_matches_the_next_space_oracle_on_the_growth_roster():
    for g, _, h, _ in growth_cells():
        pair = RelativePair(g, h)
        _assert_matches_the_oracle(pair, trivial(g), 8)
        if g.matrix_model is not None:
            _assert_matches_the_oracle(pair, tensor(dual(natural(g)), natural(g)), 8)


def test_report_matches_the_next_space_oracle_on_the_ddzero_roster():
    for g in ddzero_algebras():
        for _, h in ddzero_subalgebras(g):
            pair = RelativePair(g, h)
            for mod in coefficient_modules(g):
                _assert_matches_the_oracle(pair, mod, 4)


def test_zero_top_differential_reads_no_weight_keys_and_builds_no_rows(monkeypatch):
    # h = g0 with trivial coefficients: every differential is zero
    passes = oracles.record_passes(monkeypatch)
    g = build_gl(2, 2)
    pair = RelativePair(g, even_part_span(g))
    report = RelativeComplex(pair, trivial(g)).report(6)
    assert report.all_differentials_zero
    assert callable(pair.degree(7)._tables)
    assert passes and not any(p == 7 for _, p, _, _ in passes)


def test_top_differential_nonzero_on_the_odd_sector_only():
    # q(2), h = g0, adjoint: d^0 kills the even maps, not the odd ones
    g = build_q(2)
    report = RelativeComplex(RelativePair(g, even_part_span(g)), adjoint(g)).report(0)
    assert report.rows[0].rank_differential == 1
    assert not report.all_differentials_zero


def _flip_one_action_sign(pair: RelativePair, cx: RelativeComplex, p: int, last: bool = False) -> None:
    """Flip the sign of one copy of an action term of d at a monomial w of
    degree p in the support of a basis numerator of C^p, one whose module
    action is nonzero at the numerator's module vector there: the first
    such term, sectors, numerators and coordinates in order, or with
    ``last`` the last.  A term (y, t1, m) holds |m| equal copies of sign
    s, so flipping one turns m = |m| s into (|m| - 2) s."""
    terms = [
        (w, j) for sector in (0, 1) for phi in cx.space(p).numerators[sector]
        for w, v in (divmod(x, cx.m.dim) for x in phi)
        for j, (y, _, _) in enumerate(pair.source_maps(p, w)[1]) if cx.m_cols_by_complement[y][v]
    ]
    if not terms:
        raise AssertionError("no action term to break")
    w, j = terms[-1 if last else 0]
    bracket, action = pair.source_maps(p, w)
    y, t1, m = action[j]
    flipped = m - 2 if m > 0 else m + 2
    pair._sources[p][w] = (bracket, [*action[:j], (y, t1, flipped), *action[j + 1 :]])


FAILS = (
    r"^differential image fails equivariance under span vector \d+ of h \(degree 4, sector [01]\) "
    r"at coordinate \(\d+, \([\d, ]*\)\) with defect -?\d+(/\d+)?$"
)


@pytest.mark.parametrize("build", [lambda: build_gl(2, 1), lambda: build_q(2)], ids=["gl(2|1)", "q(2)"])
def test_broken_action_sign_raises_the_equivariance_witness(build):
    g = build()
    pair = RelativePair(g, even_part_span(g))
    cx = RelativeComplex(pair, adjoint(g))
    _flip_one_action_sign(pair, cx, 3)
    with pytest.raises(ConventionError, match=FAILS):
        cx.report(3)
    assert 4 not in cx._spaces
    # the images meet every non-diagonal span vector, not only the plan's
    planless = RelativeComplex(pair, adjoint(g))
    planless.constraint_plan = []
    with pytest.raises(ConventionError, match=FAILS):
        planless.report(3)
    # expanding in the basis of C^4 catches the same fault as an escape
    with pytest.raises(ConventionError, match="^differential image escapes the equivariant span"):
        oracles.report_through_the_next_space(RelativeComplex(pair, adjoint(g)), 3)


def _leaky_setup():
    """q(2), h = g0, Ext(natural, natural), whose scales are above 1 from
    p = 2 on: the complex, a degree p and sector, and a numerator of C^p
    with scale above 1."""
    g = build_q(2)
    cx = RelativeComplex(RelativePair(g, even_part_span(g)), tensor(dual(natural(g)), natural(g)))
    p, sector = next((p, s) for p in range(6) for s in (0, 1) if cx.space(p).lcm[s] > 1)
    k, scale = next((k, s) for k, s in enumerate(cx.space(p).scales[sector]) if s > 1)
    return cx, p, sector, cx.space(p).numerators[sector][k], scale


def _leak(cx, target, v, w):
    """Make d add 1 at coordinate (v, w) of the image of ``target``."""
    apply = cx.apply_differential

    def leaky(q, s, phi):
        image = apply(q, s, phi)
        if phi is target:
            x = w * cx.m.dim + v
            image[x] = image.get(x, 0) + 1
        return image

    cx.apply_differential = leaky


@pytest.mark.parametrize("where", ["bucket", "sector"])
def test_image_off_the_kept_coordinates_raises_the_escape_witness(where):
    cx, p, sector, target, scale = _leaky_setup()
    # a coordinate (v, w) of degree p + 1 in a weight bucket no module
    # vector v of that weight keeps, or kept but of the other sector
    m, deg = cx.m, cx.pair.degree(p + 1)
    at = [cx.pair.diagonal.index(i) for i in cx.diag_idx]
    v, w = next(
        (v, w) for w, key in enumerate(deg.weight_keys) for v in range(m.dim)
        if (v in cx.m_buckets.get(tuple(key[j] for j in at), ()))
        == ((m.parities[v] + deg.parities[w]) % 2 != sector) == (where == "sector")
    )
    _leak(cx, target, v, w)
    witness = (
        f"differential image escapes the equivariant span (degree {p + 1}, sector {sector}) "
        f"at coordinate ({v}, {deg.monomials[w]}) with residual {F(1, scale)}"
    )
    with pytest.raises(ConventionError, match=re.escape(witness) + "$"):
        cx.report(p)


def test_defect_witness_is_unscaled():
    # 1 added at a kept coordinate x of the image of a numerator with scale
    # s: the image's defect is s times that of d on the basis vector, so
    # the witness reads the unit cochain's defect at its coordinate over s
    cx, p, sector, target, scale = _leaky_setup()
    n, deg = cx.m.dim, cx.pair.degree(p + 1)
    at = [cx.pair.diagonal.index(i) for i in cx.diag_idx]
    x = next(
        w * n + v for w, key in enumerate(deg.weight_keys)
        for v in cx.m_buckets.get(tuple(key[j] for j in at), ())
        if (cx.m.parities[v] + deg.parities[w]) % 2 == sector
    )
    w, v = divmod(x, n)
    _leak(cx, target, v, w)
    with pytest.raises(ConventionError) as caught:
        cx.report(p)
    got = re.fullmatch(
        rf"differential image fails equivariance under span vector (\d+) of h "
        rf"\(degree {p + 1}, sector {sector}\) at coordinate \((\d+), (\([\d, ]*\))\) "
        rf"with defect (-?\d+(?:/\d+)?)",
        str(caught.value),
    )
    assert got
    i, v2, w2 = int(got[1]), int(got[2]), deg.index[ast.literal_eval(got[3])]
    columns = cx._defect_columns(p + 1, i, [deg.weight_keys[w]])
    unit = engine._defect(columns, sector, {x: 1})
    assert unit and F(got[4]) == F(unit[w2 * n + v2], scale)


def test_coh_exits_3_with_one_line_on_a_failing_image(monkeypatch, capsys):
    def broken(g, h, m, max_degree):
        pair = RelativePair(g, h)
        cx = RelativeComplex(pair, m)
        _flip_one_action_sign(pair, cx, max_degree)
        return cx.report(max_degree)

    monkeypatch.setattr(cli, "cohomology", broken)
    code = cli.main(["coh", "gl", "2", "1", "--sub", "g0", "--mod", "adjoint", "-N", "3"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("consistency error: differential image fails equivariance under span vector ")
    assert err.endswith("\n") and err.count("\n") == 1
