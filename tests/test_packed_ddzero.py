"""The packed d o d = 0 check of ``ddzero_witness``: the width it packs the
images at leaves room for every digit it must tell from zero, and a failure
it finds is named by the per-vector path, the first failing basis vector
and the same witness text as the unpacked check."""

import sys

from supero import cohomology as engine
from supero import suites
from supero.algebras import build_osp
from supero.cohomology import RelativeComplex, RelativePair
from supero.reps import natural
from supero.roots import named_subalgebra
from supero.suites import coefficient_modules, ddzero_algebras, ddzero_subalgebras

# the ddzero roster without q(3) and p~(3), which would take the test past
# a few seconds
WIDTH_FAMILIES = (
    "gl(1|1)", "gl(1|2)", "gl(2|1)", "gl(2|2)", "q(2)", "p~(2)",
    "osp(1|2)", "osp(2|2)", "osp(3|2)",
)
PACK = engine._pack
PACKS = engine._packs


def _record_widths(monkeypatch) -> list:
    """(complex, degree, sector, images, width) of every packing of
    ``ddzero_witness``, with the width checked to be the one ``_packs``
    receives from it.  The equivariance checks of ``space`` and
    ``_top_rank`` pack at widths of their own (``_defect_width``), so their
    packs are left to ``test_packed_checks``."""
    packing_width = RelativeComplex._packing_width
    witness = RelativeComplex.ddzero_witness.__code__
    widths, packed = [], []

    def spy_width(self, p, sector, images):
        width = packing_width(self, p, sector, images)
        widths.append((self, p, sector, images, width))
        return width

    def spy_packs(images, width):
        if sys._getframe(1).f_code is witness:
            packed.append(width)
            assert width == widths[-1][-1]
        return PACKS(images, width)

    monkeypatch.setattr(RelativeComplex, "_packing_width", spy_width)
    monkeypatch.setattr(engine, "_packs", spy_packs)
    return widths


def _abs_differential(cx, p, image):
    """At each coordinate of degree p + 1, the sum of the absolute values of
    the terms d adds there from ``image``: a bound on that entry of d of
    ``image`` under any choice of the signs of d's terms."""
    n = cx.m.dim
    out = {}
    for x, c in image.items():
        w, v = divmod(x, n)
        bracket, action = cx.pair.source_maps(p, w)
        for t1, coeff in bracket:
            out[t1 * n + v] = out.get(t1 * n + v, 0) + abs(c * coeff)
        for y, t1, m in action:
            for v2, a in cx.m_cols_by_complement[y][v].items():
                out[t1 * n + v2] = out.get(t1 * n + v2, 0) + abs(c * m * a)
    return out


def _abs_residual(space, sector, image):
    """The residual of ``_residual`` with every term taken absolutely."""
    lcm, anchors = space.lcm[sector], space.free_index[sector]
    out = {x: lcm * abs(c) for x, c in image.items()}
    for x, c in image.items():
        k = anchors.get(x)
        if k is not None:
            weight = lcm // space.scales[sector][k]
            for y, a in space.numerators[sector][k].items():
                out[y] = out.get(y, 0) + abs(c * weight * a)
    return out


def test_packing_width_bounds_every_digit_on_the_ddzero_roster(monkeypatch):
    widths = _record_widths(monkeypatch)
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
                *_abs_differential(cx, p, image).values(),
                *_abs_residual(space, sector, image).values(),
            )
        assert 1 << width > 2 * top, where
        # the digits of this pair cancel at one bit less, not at the width
        pair_digits = [{0: 1 << (width - 1)}, {0: -1}]
        assert not any(PACK(pair_digits, width - 1).values()), where
        assert PACK(pair_digits, width) == {0: -(1 << (width - 1))}, where


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
    widths = _record_widths(monkeypatch)
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
