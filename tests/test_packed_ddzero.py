"""The packed d o d = 0 check of ``ddzero_witness``: the width it packs the
images at leaves room for every digit it must tell from zero, and a failure
it finds is named by the per-vector path, the first failing basis vector
and the same witness text as the unpacked check."""

import re
from fractions import Fraction

import pytest

from supero import cohomology as engine
from supero import suites
from supero.algebras import build_osp
from supero.cohomology import RelativeComplex, RelativePair
from supero.errors import ConventionError
from supero.reps import adjoint, natural
from supero.roots import named_subalgebra
from supero.suites import coefficient_modules, ddzero_algebras, ddzero_subalgebras

import oracles
from test_cohomology import PAIRS

# the ddzero roster without q(3) and p~(3), which would take the test past
# a few seconds
WIDTH_FAMILIES = (
    "gl(1|1)", "gl(1|2)", "gl(2|1)", "gl(2|2)", "q(2)", "p~(2)",
    "osp(1|2)", "osp(2|2)", "osp(3|2)",
)
PACK = engine._pack
PACKS = engine._packs


def test_packing_width_bounds_every_digit_on_the_ddzero_roster(monkeypatch):
    widths = oracles.record_widths(monkeypatch, "_dd_bound")
    # a passing sector never reaches the per-vector path, which expands
    monkeypatch.setattr(RelativeComplex, "_expand", None)
    for g in ddzero_algebras():
        if g.name not in WIDTH_FAMILIES:
            continue
        for _, h in ddzero_subalgebras(g):
            pair = RelativePair(g, h)
            for mod in coefficient_modules(g):
                cx = RelativeComplex(pair, mod)
                assert all(cx.ddzero(p) for p in range(5)), (g.name, h.label, mod.name)
    assert len(widths) > 100
    for cx, p, sector, images, width in widths:
        where = (cx.pair.g.name, cx.pair.h.label, cx.m.name, p, sector)
        assert width is not None, where  # d is integral on the roster
        space = cx.space(p)
        top = 0
        for image in images:
            # on a passing cell the per-vector results are zero; their
            # entries are bounded, whatever the signs, by the absolute sums
            dd = cx.apply_differential(p, sector, image)
            residual = engine._residual(image, space, sector)[1]
            assert not dd and not residual, where
            top = max(
                top,
                *oracles.abs_differential(cx, p, image).values(),
                *oracles.abs_residual(space, sector, image).values(),
            )
        assert 1 << width > 2 * top, where
        # the digits of this pair cancel at one bit less, not at the width
        pair_digits = [{0: 1 << (width - 1)}, {0: -1}]
        assert not any(PACK(pair_digits, width - 1).values()), where
        assert PACK(pair_digits, width) == {0: -(1 << (width - 1))}, where


def test_only_two_or_more_images_are_packed_or_bounded_on_the_ddzero_roster(monkeypatch):
    widths = oracles.record_widths(monkeypatch, "_dd_bound")
    packed = []
    packs = engine._packs  # record_widths' spy

    def spy_packs(vectors, width):
        packed.append(len(vectors))
        return packs(vectors, width)

    monkeypatch.setattr(engine, "_packs", spy_packs)
    sectors = lone = 0
    for g in ddzero_algebras():
        if g.name not in WIDTH_FAMILIES:
            continue
        for _, h in ddzero_subalgebras(g):
            pair = RelativePair(g, h)
            for mod in coefficient_modules(g):
                cx = RelativeComplex(pair, mod)
                for p in range(5):
                    assert cx.ddzero(p), (g.name, h.label, mod.name, p)
                    for sector in (0, 1):
                        count = sum(1 for image in cx._images(p, sector) if image)
                        sectors += count > 0
                        lone += count == 1
    # every d o d bound is asked for two or more images, so a sector with a
    # lone nonzero image is checked on its own
    assert lone > 0 and len(widths) == sectors - lone
    assert all(len(images) > 1 for _, _, _, images, _ in widths)
    assert packed and min(packed) > 1


def _break_at_a_shared_monomial(pair, cx, p):
    """Flip the first bracket term of d at the first monomial w of degree
    p + 1 that the images of two basis numerators j < k of one sector of
    C^p both read, with j > 0; returns (sector, j, k)."""
    n = cx.m.dim
    for sector in (0, 1):
        first = {}
        for k, phi in enumerate(cx.space(p).numerators[sector]):
            for w in dict.fromkeys(x // n for x in cx.apply_differential(p, sector, phi)):
                j = first.setdefault(w, k)
                bracket, action = pair.source_maps(p + 1, w)
                if 0 < j < k and bracket:
                    (t1, coeff), *tail = bracket
                    pair._sources[p + 1][w] = ([(t1, -coeff), *tail], action)
                    return sector, j, k
    raise AssertionError("no monomial read by two images")


def test_two_failing_images_name_the_lower_basis_index(monkeypatch):
    g = build_osp(1, 2)
    h = named_subalgebra(g, "torus")
    pair = RelativePair(g, h)  # a throwaway pair: its cached d is broken below
    assert _break_at_a_shared_monomial(pair, RelativeComplex(pair, natural(g)), 2) == (0, 1, 3)
    widths = oracles.record_widths(monkeypatch, "_dd_bound")
    cx = RelativeComplex(pair, natural(g))
    assert cx.ddzero(0) and cx.ddzero(1)
    # the witness and its text are those of the check that expanded and
    # differentiated one image at a time
    assert cx.ddzero_witness(2) == (0, 1, (2, (0, 2, 3, 3)), -8)
    # both images fail d o d = 0; the width bounds what d gives them
    numerators = cx.space(2).numerators[0]
    width = next(width for _, p, sector, _, width in widths if (p, sector) == (3, 0))
    for k in (1, 3):
        dd = cx.apply_differential(3, 0, cx.apply_differential(2, 0, numerators[k]))
        assert dd
        assert 1 << width > 2 * max(map(abs, dd.values()))
    monkeypatch.setattr(suites, "ddzero_algebras", lambda: [g])
    monkeypatch.setattr(suites, "ddzero_subalgebras", lambda _: [("torus", h)])
    monkeypatch.setattr(suites, "coefficient_modules", lambda _: [natural(g)])
    monkeypatch.setattr(suites, "RelativePair", lambda *_: pair)
    (row,) = suites.suite_ddzero()["rows"]
    assert row["status"] == "fail"
    assert row["witness"] == "p=2 sector=0 basis=1 coordinate=(2, (0, 2, 3, 3)) value=-8"


def _flip_first_term(pair, p, w):
    """Flip the sign of the first bracket term of d at monomial w of degree
    p, or of its first action term when it has no bracket term."""
    bracket, action = pair.source_maps(p, w)
    if bracket:
        (t1, coeff), *tail = bracket
        bracket = [(t1, -coeff), *tail]
    else:
        (x, t1, m), *tail = action
        action = [(x, t1, -m), *tail]
    pair._sources[p][w] = (bracket, action)


@pytest.mark.parametrize("case, p, k, packed", [
    # d has a Fraction entry: d o d gets no width and is never packed
    ("q(2)-skew-torus", 2, 2, False),
    # basis vector 0 of the even sector of C^3 has scale 2
    ("gl(2|1)-levi", 3, 0, True),
])
def test_a_failing_image_is_named_by_d_of_the_image(case, p, k, packed, monkeypatch):
    pair = PAIRS[case]()  # a throwaway pair: its cached d is broken below
    cx = RelativeComplex(pair, adjoint(pair.g))
    n, numerators = cx.m.dim, cx.space(p).numerators[0]
    # the first monomial of degree p + 1 that image k reads and no image
    # before it in the even sector does
    before = {x // n for phi in numerators[:k] for x in cx.apply_differential(p, 0, phi)}
    w = next(x // n for x in cx.apply_differential(p, 0, numerators[k]) if x // n not in before)
    _flip_first_term(pair, p + 1, w)
    cx.space(p + 1)  # solved before the spy: only d o d's packs are seen
    widths = []

    def spy_packs(vectors, width):
        widths.append(width)
        return PACKS(vectors, width)

    monkeypatch.setattr(engine, "_packs", spy_packs)
    sector, j, (v, monomial), value = cx.ddzero_witness(p)
    assert bool(widths) == packed
    # d(d(numerator)) applied directly, through the same broken d: the
    # witness names the first basis vector it does not kill, and one of its
    # entries divided by the vector's scale
    sp = cx.space(p)
    direct = {
        (s, i): cx.apply_differential(p + 1, s, cx.apply_differential(p, s, phi))
        for s in (0, 1) for i, phi in enumerate(sp.numerators[s])
    }
    assert next(key for key, dd in direct.items() if dd) == (sector, j) == (0, k)
    entry = direct[sector, j][pair.degree(p + 2).index[monomial] * n + v]
    assert value == Fraction(entry, sp.scales[sector][j]) != 0


def test_an_image_off_the_span_raises_in_ddzero():
    # d on C^2 broken at a monomial that basis vector 0 reads: its image
    # leaves the span of C^3, and the check names the residual instead of
    # a d o d witness
    pair = PAIRS["gl(2|1)-levi"]()  # a throwaway pair: its cached d is broken below
    cx = RelativeComplex(pair, adjoint(pair.g))
    _flip_first_term(pair, 2, next(iter(cx.space(2).numerators[0][0])) // cx.m.dim)
    witness = (
        "differential image escapes the equivariant span (degree 3, sector 0) "
        "at coordinate (6, (0, 1, 2)) with residual 2"
    )
    with pytest.raises(ConventionError, match=re.escape(witness) + "$"):
        cx.ddzero_witness(2)
