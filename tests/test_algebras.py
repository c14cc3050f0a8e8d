import hashlib
import json
import random
import re
from fractions import Fraction

import pytest

from supero.algebras import (
    LieSuperalgebra,
    SubalgebraSpan,
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
from supero.cli import dumps
from supero.errors import (
    DimensionMismatch,
    EmptyAlgebra,
    FormError,
    NotASubalgebra,
    UnsupportedRank,
)
from supero.suites import jacobi_families

from oracles import super_jacobi, verify_representation, weight_decomposition

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
    out = g.bracket_sparse({idx(g, "e[1,2]"): 1}, {idx(g, "e[2,1]"): 1})
    assert out == {idx(g, "e[1,1]"): 1, idx(g, "e[2,2]"): 1}


def test_gl11_even_odd_bracket():
    g = build_gl(1, 1)
    out = g.bracket_sparse({idx(g, "e[1,1]"): 1}, {idx(g, "e[1,2]"): 1})
    assert out == {idx(g, "e[1,2]"): 1}


def test_gl11_odd_self_bracket_zero():
    g = build_gl(1, 1)
    e12 = {idx(g, "e[1,2]"): 1}
    assert g.bracket_sparse(e12, e12) == {}


def test_bracket_bilinear_zero():
    g = build_q(2)
    assert g.bracket_sparse({}, {1: 1}) == {}


def test_q2_odd_identity_bracket():
    # [F_I, F_I] = 2 E_I
    g = build_q(2)
    fi = {idx(g, "F[1,1]"): 1, idx(g, "F[2,2]"): 1}
    assert g.bracket_sparse(fi, fi) == {idx(g, "E[1,1]"): 2, idx(g, "E[2,2]"): 2}


def test_p_tilde_b_block_brackets_vanish():
    g = build_p_tilde(2)
    assert g.bracket_sparse({idx(g, "b[1,1]"): 1}, {idx(g, "b[1,2]"): 1}) == {}


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


def test_jacobi_matches_the_oracle_on_seeded_corruptions():
    # one structure constant of each jacobi-suite algebra changed, dropped
    # or added; the table check must give the oracle's (ok, witness)
    rng = random.Random(14)
    families = jacobi_families()
    cases = 0
    failing = 0
    for _ in range(5):
        for g in families:
            table = dict(g.table)
            i, j = rng.randrange(g.dim), rng.randrange(g.dim)
            terms = dict(table.get((i, j), ()))
            k = rng.choice(sorted(terms)) if terms and rng.random() < 0.7 else rng.randrange(g.dim)
            terms[k] = terms.get(k, 0) + rng.choice((-2, -1, 1, F(1, 2)))
            table[i, j] = tuple((m, v) for m, v in terms.items() if v)
            bad = LieSuperalgebra("bad", g.parities, table, g.torus)
            expected = super_jacobi(bad)
            assert check_super_jacobi(bad) == expected, (g.name, (i, j, k))
            cases += 1
            failing += not expected[0]
    assert cases >= 100 and 0 < failing < cases


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
    complement = set(span.complement)
    assert complement == set(range(span.parent.dim)) - set(span.solver.pivot_cols)
    for k in range(span.parent.dim):
        if k in complement:
            assert proj[k] == {k: Fraction(1)}
        assert set(proj[k]) <= complement
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


GOOD_JSON = {"name": "t", "dim": 2, "parities": [0, 1], "torus": [0],
             "bracket": [[0, 1, [[1, 1, 1]]], [1, 0, [[1, -1, 1]]]]}
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
        ("name", ["t"]),
        # JSON true equals 1, the dim of one parity, but is no number
        (("dim", "parities", "torus", "bracket"), (True, [0], [0], [])),
        ("dim", 2.0),
        # a repeated term index: bracket() would read 2 b1, the axiom checks b1
        ("bracket", [[0, 1, [[1, 1, 1], [1, 1, 1]]], [1, 0, [[1, -2, 1]]]]),
        # a zero coefficient would be stored as a term
        ("bracket", [[0, 1, [[1, 1, 1]]], [1, 0, [[1, -1, 1]]], [0, 0, [[0, 0, 1]]]]),
    ],
    ids=["k-out-of-range", "i-out-of-range", "j-negative", "zero-denominator",
         "torus-out-of-range", "torus-negative", "parity-2", "dim-mismatch",
         "no-name", "no-parities", "no-torus", "no-bracket", "term-too-short",
         "term-not-int", "term-not-a-list", "entry-too-short", "entry-repeated",
         "index-true", "numerator-true", "denominator-true", "torus-false",
         "parities-bool", "parity-float", "name-not-a-string", "dim-true", "dim-float",
         "term-index-repeated", "zero-coefficient"],
)
def test_from_json_dict_rejects_malformed_input(key, value):
    assert LieSuperalgebra.from_json_dict(GOOD_JSON).table == {(0, 1): ((1, 1),), (1, 0): ((1, -1),)}
    keys, values = (key, value) if isinstance(key, tuple) else ((key,), (value,))
    bad = {k: v for k, v in GOOD_JSON.items() if k not in keys}
    for k, v in zip(keys, values):
        if v is not MISSING:
            bad[k] = v
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
        ({**GOOD_JSON, "bracket": [[0, 1, [[1, 1, 1], [1, 1, 1]]], [1, 0, [[1, -2, 1]]]]},
         "bracket [0, 1] repeats a term index"),
        ({**GOOD_JSON, "bracket": [[0, 0, [[0, 0, 1]]]]}, "zero coefficient in bracket [0, 0]"),
    ],
    ids=["missing-key", "bad-term", "repeated-entry", "parities-not-a-list",
         "torus-not-an-int", "bracket-not-a-list", "torus-odd", "term-index-repeated",
         "zero-coefficient"],
)
def test_from_json_dict_error_names_key_or_entry(bad, named):
    with pytest.raises(DimensionMismatch, match=re.escape(named)):
        LieSuperalgebra.from_json_dict(bad)


def _gl11_json(edit):
    """gl(1|1) as JSON (e11, e22 even; e12, e21 odd), each bracket entry
    [i, j, terms] replaced by ``edit(i, j, terms)``."""
    d = build_gl(1, 1).to_json_dict()
    d["bracket"] = [edit(i, j, terms) for i, j, terms in d["bracket"]]
    return d


@pytest.mark.parametrize(
    "edit, named",
    [
        # [e12, e21] = [e21, e12] = e12, an odd result of two odd factors
        (lambda i, j, t: [i, j, [[2, 1, 1]]] if {i, j} == {2, 3} else [i, j, t],
         "bracket [2, 3] has a term of the wrong parity"),
        # [e12, e11] = -2 e12 against [e11, e12] = e12
        (lambda i, j, t: [i, j, [[2, -2, 1]]] if (i, j) == (2, 0) else [i, j, t],
         "brackets [0, 2] and [2, 0] are not super antisymmetric"),
        # [e11, e12] = 2 e12 on both sides: parity and antisymmetry hold
        (lambda i, j, t: [i, j, [[k, 2 * a, b] for k, a, b in t]] if {i, j} == {0, 2} else [i, j, t],
         "super Jacobi identity fails at the triple (0, 2, 3)"),
    ],
    ids=["parity", "antisymmetry", "jacobi"],
)
def test_from_json_dict_checks_the_axioms(edit, named):
    assert LieSuperalgebra.from_json_dict(_gl11_json(lambda *entry: list(entry))).table == build_gl(1, 1).table
    with pytest.raises(DimensionMismatch, match=re.escape(named)):
        LieSuperalgebra.from_json_dict(_gl11_json(edit))


def test_json_is_deterministic():
    a = _dumps(build_q(2))
    b = _dumps(build_q(2))
    assert a == b
    json.loads(a)  # well-formed


# sha256 of ``cli.dumps(g.to_json_dict())``: every structure constant of the
# jacobi-suite algebras and of osp(5|4), as the matrix models solve them
STRUCTURE_DIGESTS = {
    "gl(0|1)": "658b1dc6a459283f7a7c1b1acd4e1bce170159ac06b9bb8d318ade0335875faf",
    "gl(0|2)": "72823c85434afa9210e8062f638480d3968a4017a94621cab7ed5efb2662b8f2",
    "gl(0|3)": "258547acc85f2fc7c3c9d881ed45823602d65353bb62f7804bc655c25557fe13",
    "gl(1|0)": "2f0b7dd908920512d5881f4d800fa4fbb1e952bdd0581ab0e44714de32640cf7",
    "gl(1|1)": "1d5e84328ce23f2c56d22fc0b8efa0549a3ebd826f8980f22a61ee6ad71bf81f",
    "gl(1|2)": "942a86ed5fa8666915e413985e47bcf2561e6dc2e54eabf51d3f26c4171923d5",
    "gl(1|3)": "0418d698a41009c02433de347a29d8350d3f23400f186aae017bdd6fb8e6df1c",
    "gl(2|0)": "cd793c5d7b107298c4e64df0fc223838737d5366f3db2f233a8bdadc9aa0fa05",
    "gl(2|1)": "ff93409d5466502922c0662ec8388368dcec66e827c5543f231bcc9dd5dea037",
    "gl(2|2)": "cce5293f85863491a4879b20b8c712f15f21e5f452e67caa5169355b1ab956c0",
    "gl(2|3)": "c78066dee8b9c710b2dc013a34af5df05292527c63752ea2f23877b9556b91c0",
    "gl(3|0)": "121623836adad85a184c380aba834e9345ac02c886c084839ec6cf7fe8e95661",
    "gl(3|1)": "c68767863f05af017e257579b60efda450e520897376fd573d66b3ff66ef14e5",
    "gl(3|2)": "f6b0195b707fc7a3baee3c846a760fb28ea6b6f360cf653a5815f3db00bbe143",
    "gl(3|3)": "bf7c4d4e01f657a8c543bc0d0b4b180f3b7cf7c488b5a0742652d9b992f24b3f",
    "sl(2|1)": "27c3045f42023e17598ec5acb59c8203b9877edcc468f346eb6064b5651f2e2f",
    "q(1)": "a512d5878ebe4f7187e293cf7beba23fc7b588c941526bcb0954081d144799da",
    "q(2)": "a2974076301254cd85e9d78565322a3b00fa310af5f5d71117f23273b31d1196",
    "q(3)": "e4906380a1da304a8e25d2ddda6782a1b1d960ae6fc71a8bc84098c7bb553102",
    "p~(2)": "e6068bebbcda42fc979dc7f53dc1344aaa9fe35dbd994e9d0a705f7893eca28a",
    "osp(1|2)": "d6e6d9f82575846feeacd7a6f354d3ceadd921d01ba57ecaf25b532ccc233e60",
    "osp(2|2)": "8f2b0ca93df1d7153e6d0b560e022433046db7e5075af45b93c363a5acaac26f",
    "osp(3|2)": "6eaa4d8ac3deccf946db4f24cbd404dcac9d7d099b26ab525ed1ebc87ff63618",
    "osp(5|4)": "af0cb4ec8e60087a253be5592e63e6bf40584c4492429dfc70d81f949746e0a7",
}


def test_structure_constants_are_pinned():
    algebras = jacobi_families() + [build_osp(5, 4)]
    digests = {g.name: hashlib.sha256(dumps(g.to_json_dict()).encode()).hexdigest() for g in algebras}
    assert digests == STRUCTURE_DIGESTS
