"""The constraint solve split by blocks of the coefficient module: one solve
per distinct (block, sector) unit, the same bases as a solve run on each
sector whole, and the exact re-verification of relabelled vectors; and the
witness of a failing d o d = 0 check."""

from fractions import Fraction

import pytest

from supero import cli, suites
from supero import cohomology as engine
from supero.algebras import SubalgebraSpan, build_gl, build_q, even_part_span
from supero.cohomology import RelativeComplex, RelativePair
from supero.errors import ConventionError
from supero.linalg import SparseMatrix
from supero.reps import Representation, adjoint, dual, natural, tensor, trivial
from supero.roots import named_subalgebra
from supero.suites import coefficient_modules, ddzero_algebras, ddzero_subalgebras, growth_cells

import oracles

F = Fraction


def _assert_whole_sector(cx, top):
    for p in range(top + 1):
        sp = cx.space(p)
        for sector, (nums, scales, free) in enumerate(oracles.whole_sector_space(cx, p)):
            where = (cx.pair.g.name, cx.pair.h.label, cx.m.name, p, sector)
            assert sp.numerators[sector] == nums, where
            assert [list(phi) for phi in sp.numerators[sector]] == [list(phi) for phi in nums], where
            assert sp.scales[sector] == scales, where
            assert sp.free_coords[sector] == free, where


def _direct_sum(a: Representation, b: Representation, name: str) -> Representation:
    n, dim = a.dim, a.dim + b.dim
    actions = [
        SparseMatrix(dim, dim, [*x.entries(), *((r + n, c + n, v) for r, c, v in y.entries())])
        for x, y in zip(a.actions, b.actions)
    ]
    return Representation(a.algebra, name, a.parities + b.parities, actions)


def _parity_shift(m: Representation) -> Representation:
    """The same action matrices on the opposite parities: again a module."""
    return Representation(m.algebra, f"Pi {m.name}", [1 - q for q in m.parities], m.actions)


def test_block_solve_matches_the_whole_sector_solve_on_the_growth_roster():
    for g, _, h, _ in growth_cells():
        pair = RelativePair(g, h)
        mods = [trivial(g)]
        if g.matrix_model is not None:
            mods.append(tensor(dual(natural(g)), natural(g)))
        for mod in mods:
            cx = RelativeComplex(pair, mod)
            _assert_whole_sector(cx, 9)
    # the roster does reuse: q(2) with h = g0 has two blocks of one class
    g = build_q(2)
    cx = RelativeComplex(RelativePair(g, even_part_span(g)), tensor(dual(natural(g)), natural(g)))
    _, bases = cx._blocks
    shared = [c for c, _ in filter(None, bases)]
    assert len(set(shared)) < len(shared)


def test_block_solve_matches_the_whole_sector_solve_on_the_ddzero_roster():
    for g in ddzero_algebras():
        for _, h in ddzero_subalgebras(g):
            pair = RelativePair(g, h)
            for mod in coefficient_modules(g):
                _assert_whole_sector(RelativeComplex(pair, mod), 5)


def test_q3_adjoint_solves_each_distinct_unit_once(monkeypatch, capsys):
    # g0 = gl(3) acts on the even and odd halves of the adjoint by the same
    # table, so a unit on one half relabels the unit on the other half of
    # the opposite sector
    rows = []
    kernel = engine.kernel_basis_with_free

    def spy(m):
        rows.append(m.rows)
        return kernel(m)

    monkeypatch.setattr(engine, "kernel_basis_with_free", spy)
    g = build_q(3)
    cx = RelativeComplex(RelativePair(g, even_part_span(g)), adjoint(g))
    for p in range(6):
        cx.space(p)
    assert (len(rows), sum(rows)) == (12, 1744)
    # solving each sector whole takes twice the kernels
    rows.clear()
    cx = RelativeComplex(RelativePair(g, even_part_span(g)), adjoint(g))
    for p in range(6):
        oracles.whole_sector_space(cx, p)
    assert (len(rows), sum(rows)) == (24, 3488)
    # the report to N = 4 builds C^0 to C^4 only
    rows.clear()
    assert cli.main(["coh", "q", "3", "--sub", "g0", "--mod", "adjoint", "-N", "4"]) == 0
    capsys.readouterr()
    assert (len(rows), sum(rows)) == (10, 738)


@pytest.mark.parametrize("module", ["dual(natural)*natural", "adjoint+Pi adjoint"])
def test_odd_constraints_share_nothing_across_sectors(monkeypatch, module):
    # the levi of q(2) with H = (1, 0) holds the odd Cartan vectors, whose
    # defect sign depends on the sector; in adjoint + Pi adjoint each block
    # of one summand differs from its copy only in the parity of its first
    # vector
    g = build_q(2)
    h = named_subalgebra(g, "levi", H=(F(1), F(0)))
    m = (
        tensor(dual(natural(g)), natural(g)) if module == "dual(natural)*natural"
        else _direct_sum(adjoint(g), _parity_shift(adjoint(g)), module)
    )
    cx = RelativeComplex(RelativePair(g, h), m)
    assert any(h.vector_parities[i] for i in cx.nondiag_idx)
    shared = []
    impose = RelativeComplex._impose

    def spy(self, constraint_ids, columns_by_id, units):
        # the odd sector's units that take the key of an even sector's unit
        even = {key for key, sector, _ in units if sector == 0 and key is not None}
        shared.extend(key for key, sector, _ in units if sector == 1 and key in even)
        return impose(self, constraint_ids, columns_by_id, units)

    monkeypatch.setattr(RelativeComplex, "_impose", spy)
    _assert_whole_sector(cx, 5)
    assert shared == []
    # with h = g0 the constraints are even, and the same module shares
    even = RelativeComplex(RelativePair(g, even_part_span(g)), m)
    _assert_whole_sector(even, 5)
    assert shared


def test_blocks_that_differ_in_one_action_entry_are_both_solved(monkeypatch):
    # h = torus + e12 in gl(2|1), acting on adjoint + adjoint^D, where D
    # scales e13 by 2: of h's action on the second summand only the entry
    # e23 -> e13 of e12 changes, to 2
    g = build_gl(2, 1)
    unit = [tuple(int(k == i) for k in range(g.dim)) for i in (0, 1, 3, 4)]
    h = SubalgebraSpan(g, unit, "t+e12")
    ad = adjoint(g)
    d = [F(2) if k == 5 else F(1) for k in range(g.dim)]
    ad_d = Representation(g, "adjoint^D", ad.parities, [
        SparseMatrix(g.dim, g.dim, ((r, c, d[r] * v / d[c]) for r, c, v in a.entries()))
        for a in ad.actions
    ])
    changed = [
        (r, c) for r, c, v in ad_d.actions[1].entries() if v != ad.actions[1].entry(r, c)
    ]
    assert changed == [(5, 6)]
    pair = RelativePair(g, h)
    same = RelativeComplex(pair, _direct_sum(ad, ad, "adjoint+adjoint"))
    other = RelativeComplex(pair, _direct_sum(ad, ad_d, "adjoint+adjoint^D"))
    block_of = same._blocks[0]
    assert other._blocks[0] == block_of
    assert [v for v in range(18) if block_of[v] == block_of[5]] == [5, 6]
    assert [v for v in range(18) if block_of[v] == block_of[14]] == [14, 15]
    moves = set()  # (module vector, the one it is relabelled to)
    relabel = engine._relabel

    def spy(vectors, anchors, to):
        moves.update((k % 18, x % 18) for k, x in to.items())
        return relabel(vectors, anchors, to)

    monkeypatch.setattr(engine, "_relabel", spy)
    _assert_whole_sector(same, 4)
    block = {(5, 14), (6, 15)}
    assert block <= moves
    rest = moves - block
    assert rest
    moves.clear()
    _assert_whole_sector(other, 4)
    assert moves == rest


def test_corrupted_relabelled_vector_raises(monkeypatch):
    # every relabelled vector goes through the exact re-verification, and
    # the full solve relabels the same way, so the error is raised
    relabel = engine._relabel

    def corrupt(*args):
        flat, free = relabel(*args)
        if flat:
            x = next(iter(flat[0]))
            flat[0][x] += 1
        return flat, free

    monkeypatch.setattr(engine, "_relabel", corrupt)
    g = build_q(2)
    cx = RelativeComplex(RelativePair(g, even_part_span(g)), adjoint(g))
    with pytest.raises(ConventionError, match=r"^cochain basis fails equivariance .* sector 1\)"):
        for p in range(4):
            cx.space(p)


def _break_one_sign(pair: RelativePair, cx: RelativeComplex, p: int):
    """Flip the first bracket term of d at a monomial w of degree p + 1 where
    some d(phi), phi in the basis of C^p, is nonzero; returns its target."""
    for sector in (0, 1):
        for phi in cx.space(p).numerators[sector]:
            for x in cx.apply_differential(p, sector, phi):
                w, _ = divmod(x, cx.m.dim)
                bracket, action = pair.source_maps(p + 1, w)
                if bracket:
                    t1, coeff = bracket[0]
                    pair._sources[p + 1][w] = ([(t1, -coeff), *bracket[1:]], action)
                    return pair.degree(p + 2).monomials[t1]
    raise AssertionError("no bracket term to break")


def test_ddzero_witness_names_a_broken_sign():
    g = build_gl(2, 1)
    h = named_subalgebra(g, "torus")
    for p in range(3):
        assert RelativeComplex(RelativePair(g, h), adjoint(g)).ddzero_witness(p) is None
    pair = RelativePair(g, h)  # a throwaway pair: its cached d is broken below
    cx = RelativeComplex(pair, adjoint(g))
    target = _break_one_sign(pair, cx, 1)
    witness = cx.ddzero_witness(1)
    assert witness is not None
    sector, k, (v, monomial), value = witness
    assert monomial == target and value != 0
    # d(d(phi)) applied directly, through the same broken d: the witness
    # names the first basis vector it does not kill, and one of its entries
    sp = cx.space(1)
    direct = {
        (s, j): cx.apply_differential(2, s, cx.apply_differential(1, s, phi))
        for s in (0, 1) for j, phi in enumerate(sp.numerators[s])
    }
    assert next(key for key, dd in direct.items() if dd) == (sector, k)
    w = pair.degree(3).index[monomial]
    assert value == F(direct[sector, k][w * cx.m.dim + v], sp.scales[sector][k])
    assert RelativeComplex(pair, adjoint(g)).ddzero(1) is False


def test_failing_ddzero_row_carries_the_witness(monkeypatch):
    g = build_gl(2, 1)
    h = named_subalgebra(g, "torus")
    pair = RelativePair(g, h)
    target = _break_one_sign(pair, RelativeComplex(pair, adjoint(g)), 1)
    monkeypatch.setattr(suites, "ddzero_algebras", lambda: [g])
    monkeypatch.setattr(suites, "ddzero_subalgebras", lambda _: [("torus", h)])
    monkeypatch.setattr(suites, "coefficient_modules", lambda _: [adjoint(g)])
    monkeypatch.setattr(suites, "RelativePair", lambda *_: pair)
    (row,) = suites.suite_ddzero()["rows"]
    assert row["status"] == "fail"
    assert row["witness"].startswith("p=1 sector=")
    assert f", {target}) value=" in row["witness"]
