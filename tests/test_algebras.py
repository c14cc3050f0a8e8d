import json
import re
from fractions import Fraction

import pytest

from supero.algebras import (
    LieSuperalgebra,
    SubalgebraSpan,
    bracket,
    build_gl,
    build_osp,
    build_p_tilde,
    build_q,
    check_parity_consistency,
    check_super_antisymmetry,
    check_super_jacobi,
    even_part_span,
    full_span,
    quotient_action,
    special_linear_span,
    torus_span,
)
from supero.errors import (
    DimensionMismatch,
    EmptyAlgebra,
    FormError,
    NotASubalgebra,
    UnsupportedRank,
)
from supero.reps import weight_decomposition

from oracles import verify_representation

F = Fraction


def unit(g, i):
    v = [F(0)] * g.dim
    v[i] = F(1)
    return tuple(v)


def idx(g, label):
    return g.basis_labels.index(label)


# --- constructors -----------------------------------------------------------


def test_gl11_dimensions():
    g = build_gl(1, 1)
    assert g.dim == 4
    assert len(g.odd_indices) == 2


def test_gl21_dimensions():
    g = build_gl(2, 1)
    assert g.dim == 9
    assert len(g.odd_indices) == 4


def test_gl_empty_rejected():
    with pytest.raises(EmptyAlgebra):
        build_gl(0, 0)


def test_q2_shape():
    g = build_q(2)
    assert g.dim == 8
    assert len(g.even_indices) == 4
    assert len(g.odd_indices) == 4


def test_q_empty_rejected():
    with pytest.raises(EmptyAlgebra):
        build_q(0)


def test_p_tilde_shape():
    g = build_p_tilde(2)
    assert g.dim == 8  # gl_2 + S^2 + Lambda^2 = 4 + 3 + 1
    assert len(g.odd_indices) == 4


def test_p_tilde_small_rank_rejected():
    with pytest.raises(UnsupportedRank):
        build_p_tilde(1)


def test_osp12_shape():
    g = build_osp(1, 2)
    assert len(g.even_indices) == 3  # sp_2
    assert len(g.odd_indices) == 2


def test_osp22_shape():
    g = build_osp(2, 2)
    assert len(g.odd_indices) == 4


def test_osp_odd_form_rejected():
    with pytest.raises(FormError):
        build_osp(2, 3)


# --- brackets ---------------------------------------------------------------


def test_gl11_odd_odd_anticommutator():
    g = build_gl(1, 1)
    out = bracket(g, unit(g, idx(g, "e[1,2]")), unit(g, idx(g, "e[2,1]")))
    expected = [F(0)] * 4
    expected[idx(g, "e[1,1]")] = F(1)
    expected[idx(g, "e[2,2]")] = F(1)
    assert list(out) == expected


def test_gl11_even_odd_bracket():
    g = build_gl(1, 1)
    out = bracket(g, unit(g, idx(g, "e[1,1]")), unit(g, idx(g, "e[1,2]")))
    assert out == unit(g, idx(g, "e[1,2]"))


def test_gl11_odd_self_bracket_zero():
    g = build_gl(1, 1)
    e12 = unit(g, idx(g, "e[1,2]"))
    assert all(v == 0 for v in bracket(g, e12, e12))


def test_bracket_bilinear_zero():
    g = build_q(2)
    zero = tuple([F(0)] * g.dim)
    assert all(v == 0 for v in bracket(g, zero, unit(g, 1)))


def test_bracket_dimension_mismatch():
    g = build_gl(1, 1)
    with pytest.raises(DimensionMismatch):
        bracket(g, (F(1),), unit(g, 0))


def test_q2_odd_identity_bracket():
    # [F_I, F_I] = 2 E_I
    g = build_q(2)
    fi = [F(0)] * g.dim
    fi[idx(g, "F[1,1]")] = F(1)
    fi[idx(g, "F[2,2]")] = F(1)
    out = bracket(g, tuple(fi), tuple(fi))
    expected = [F(0)] * g.dim
    expected[idx(g, "E[1,1]")] = F(2)
    expected[idx(g, "E[2,2]")] = F(2)
    assert list(out) == expected


def test_p_tilde_b_block_brackets_vanish():
    g = build_p_tilde(2)
    b11 = unit(g, idx(g, "b[1,1]"))
    b12 = unit(g, idx(g, "b[1,2]"))
    assert all(v == 0 for v in bracket(g, b11, b12))


# --- axioms -----------------------------------------------------------------

BUILTINS = [
    build_gl(1, 1),
    build_gl(2, 1),
    build_gl(1, 2),
    build_gl(2, 2),
    build_q(2),
    build_q(3),
    build_p_tilde(2),
    build_osp(1, 2),
    build_osp(2, 2),
    build_osp(3, 2),
]


@pytest.mark.parametrize("g", BUILTINS, ids=lambda g: g.name)
def test_axioms_all_builtins(g):
    assert check_super_antisymmetry(g) == (True, None)
    assert check_super_jacobi(g) == (True, None)
    assert check_parity_consistency(g) == (True, None)


@pytest.mark.parametrize("g", BUILTINS, ids=lambda g: g.name)
def test_torus_acts_diagonally(g):
    for t in g.torus:
        assert g.ad_matrix(t).is_diagonal()


def test_corrupted_table_fails_jacobi():
    g = build_gl(2, 1)
    table = dict(g.table)
    (i, j), terms = next(iter(sorted(table.items())))
    k, v = terms[0]
    table[i, j] = ((k, v + 1),) + terms[1:]
    bad = LieSuperalgebra("bad", g.parities, table, g.torus)
    ok, witness = check_super_jacobi(bad)
    assert not ok and witness is not None


def test_sl21_span_closed_and_jacobi():
    g = build_gl(2, 1)
    span = special_linear_span(g, 2, 1)
    assert span.dim == 8
    assert span.closure_witness() is None
    sl = span.to_algebra("sl(2|1)")
    assert check_super_jacobi(sl) == (True, None)
    assert len(sl.torus) == 2


# --- spans ------------------------------------------------------------------


def test_span_rejects_inhomogeneous_vector():
    g = build_gl(1, 1)
    vec = [F(0)] * 4
    vec[idx(g, "e[1,1]")] = F(1)
    vec[idx(g, "e[1,2]")] = F(1)
    with pytest.raises(NotASubalgebra):
        SubalgebraSpan(g, [tuple(vec)])


def test_non_closed_span_detected():
    g = build_gl(1, 1)
    span = SubalgebraSpan(g, [unit(g, idx(g, "e[1,2]")), unit(g, idx(g, "e[2,1]"))])
    assert span.closure_witness() is not None
    with pytest.raises(NotASubalgebra):
        span.to_algebra()


def test_even_part_span_is_closed():
    for g in (build_gl(2, 1), build_q(2), build_p_tilde(2)):
        assert even_part_span(g).closure_witness() is None


def test_torus_span_abelian():
    g = build_q(2)
    t = torus_span(g).to_algebra()
    assert t.table == {}


# --- quotient actions -------------------------------------------------------


def test_quotient_by_full_algebra_is_zero_dimensional():
    g = build_gl(1, 1)
    r = quotient_action(g, full_span(g))
    assert r.dim == 0


def test_quotient_by_zero_span():
    g = build_gl(1, 1)
    r = quotient_action(g, SubalgebraSpan(g, [], "zero"))
    assert r.dim == 4
    assert r.actions == ()


def test_quotient_gl11_by_even_part():
    g = build_gl(1, 1)
    r = quotient_action(g, even_part_span(g))
    assert r.dim == 2
    assert all(p == 1 for p in r.parities)
    # torus weights are +-(eps1 - delta1); computed by hand from
    # [e11, e12] = e12, [e22, e12] = -e12 and the opposite for e21
    wd = weight_decomposition(r)
    assert wd == {(F(1), F(-1)): (0, 1), (F(-1), F(1)): (0, 1)}


def test_quotient_action_is_representation():
    g = build_q(2)
    r = quotient_action(g, even_part_span(g))
    assert verify_representation(r) == (True, None)


@pytest.mark.parametrize(
    "make_span",
    [
        lambda: even_part_span(build_q(2)),
        lambda: torus_span(build_osp(1, 2)),
        lambda: special_linear_span(build_gl(2, 1), 2, 1),  # not a coordinate span
    ],
    ids=["q(2)-g0", "osp(1|2)-torus", "sl(2|1)-in-gl(2|1)"],
)
def test_projections_kill_the_span_and_fix_the_complement(make_span):
    span = make_span()
    proj = span.projections()
    pivots = set(span.solver.pivot_cols)
    for k in range(span.parent.dim):
        if k not in pivots:
            assert proj[k] == {k: Fraction(1)}
        assert all(kk not in pivots for kk in proj[k])
    for vec in span.vectors:
        total = {}
        for k, v in enumerate(vec):
            for kk, c in proj[k].items():
                total[kk] = total.get(kk, 0) + v * c
        assert not any(total.values())


def test_quotient_rejects_non_closed_span():
    g = build_gl(1, 1)
    span = SubalgebraSpan(g, [unit(g, idx(g, "e[1,2]")), unit(g, idx(g, "e[2,1]"))])
    with pytest.raises(NotASubalgebra):
        quotient_action(g, span)


# --- serialization ----------------------------------------------------------


def _dumps(g):
    return json.dumps(g.to_json_dict(), sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("g", [build_gl(1, 1), build_q(2), build_osp(1, 2)], ids=lambda g: g.name)
def test_json_round_trip_bit_exact(g):
    s = _dumps(g)
    g2 = LieSuperalgebra.from_json_dict(json.loads(s))
    assert _dumps(g2) == s
    assert g2.table == g.table
    assert g2.parities == g.parities
    assert g2.torus == g.torus


GOOD_JSON = {"name": "t", "dim": 2, "parities": [0, 1], "torus": [0], "bracket": [[0, 1, [[1, 1, 1]]]]}
MISSING = object()  # the key is left out


@pytest.mark.parametrize(
    "key, value",
    [
        ("bracket", [[0, 1, [[7, 1, 1]]]]),
        ("bracket", [[2, 1, [[1, 1, 1]]]]),
        ("bracket", [[0, -1, [[1, 1, 1]]]]),
        ("bracket", [[0, 1, [[1, 1, 0]]]]),
        ("torus", [2]),
        ("torus", [-1]),
        ("parities", [0, 2]),
        ("dim", 3),
        ("name", MISSING),
        ("parities", MISSING),
        ("torus", MISSING),
        ("bracket", MISSING),
        ("bracket", [[0, 1, [[1, 1]]]]),
        ("bracket", [[0, 1, [[1, "1", 1]]]]),
        ("bracket", [[0, 1, [1, 1, 1]]]),
        ("bracket", [[0, 1]]),
        ("bracket", [[0, 1, [[1, 1, 1]]], [0, 1, [[1, 2, 1]]]]),
        # JSON true/false load as bool, an int subclass; they are no numbers
        ("bracket", [[0, True, [[1, 1, 1]]]]),
        ("bracket", [[0, 1, [[1, True, 1]]]]),
        ("bracket", [[0, 1, [[1, 1, True]]]]),
        ("torus", [False]),
        ("parities", [False, True]),
        ("parities", [0, 1.0]),
    ],
    ids=["k-out-of-range", "i-out-of-range", "j-negative", "zero-denominator",
         "torus-out-of-range", "torus-negative", "parity-2", "dim-mismatch",
         "no-name", "no-parities", "no-torus", "no-bracket", "term-too-short",
         "term-not-int", "term-not-a-list", "entry-too-short", "entry-repeated",
         "index-true", "numerator-true", "denominator-true", "torus-false",
         "parities-bool", "parity-float"],
)
def test_from_json_dict_rejects_malformed_input(key, value):
    assert LieSuperalgebra.from_json_dict(GOOD_JSON).table == {(0, 1): ((1, Fraction(1)),)}
    bad = {k: v for k, v in GOOD_JSON.items() if k != key}
    if value is not MISSING:
        bad[key] = value
    with pytest.raises(DimensionMismatch):
        LieSuperalgebra.from_json_dict(bad)


@pytest.mark.parametrize(
    "bad, named",
    [
        ({k: v for k, v in GOOD_JSON.items() if k != "torus"}, "'torus'"),
        ({**GOOD_JSON, "bracket": [[0, 1, [[1, 1]]]]}, "[1, 1] of [0, 1]"),
        ({**GOOD_JSON, "bracket": [[0, 1, [[1, 1, 1]]], [0, 1, []]]}, "[0, 1] is given twice"),
        ({**GOOD_JSON, "parities": 3}, "'parities' is not a list"),
        ({**GOOD_JSON, "torus": ["a"]}, "torus index 'a'"),
        ({**GOOD_JSON, "bracket": 5}, "'bracket' is not a list"),
        ({**GOOD_JSON, "torus": [1]}, "torus index 1 is odd"),
    ],
    ids=["missing-key", "bad-term", "repeated-entry", "parities-not-a-list",
         "torus-not-an-int", "bracket-not-a-list", "torus-odd"],
)
def test_from_json_dict_error_names_key_or_entry(bad, named):
    with pytest.raises(DimensionMismatch, match=re.escape(named)):
        LieSuperalgebra.from_json_dict(bad)


def test_json_is_deterministic():
    a = _dumps(build_q(2))
    b = _dumps(build_q(2))
    assert a == b
    json.loads(a)  # well-formed
