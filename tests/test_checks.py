from fractions import Fraction

import pytest

from supero.algebras import build_gl, build_q, even_part_span, special_linear_span
from supero.checks import (
    GradingTorus,
    appendix_torus,
    check_positive_grading,
    count_graded_monomials,
    even_concentration_check,
    kunneth_check,
    positive_even_roots,
)
from supero.errors import PositivityNotEstablished, UnsupportedRank, UnsupportedSubalgebra
from supero.roots import named_subalgebra, root_decomposition

F = Fraction


# --- appendix torus values ---------------------------------------------------


def test_gl_nn_simple_roots_pair_to_two():
    gt = appendix_torus("gl", (3, 3))
    for i in range(2):
        simple = [F(0)] * 6
        simple[i], simple[i + 1] = F(1), F(-1)
        assert gt.pair(tuple(simple)) == (F(2),)
        simple = [F(0)] * 6
        simple[3 + i], simple[4 + i] = F(1), F(-1)
        assert gt.pair(tuple(simple)) == (F(2),)


def test_osp_simple_root_pattern():
    # (eps_j - eps_{j+1})(t) = 1, (delta_j - delta_{j+1})(t) = 1,
    # eps_n(t) = 1, (2 delta_n)(t) = 2
    n = 2
    gt = appendix_torus("osp_odd", (n,))
    eps_diff = (F(1), F(-1), F(0), F(0))
    delta_diff = (F(0), F(0), F(1), F(-1))
    eps_n = (F(0), F(1), F(0), F(0))
    two_delta_n = (F(0), F(0), F(0), F(2))
    assert gt.pair(eps_diff) == (F(1),)
    assert gt.pair(delta_diff) == (F(1),)
    assert gt.pair(eps_n) == (F(1),)
    assert gt.pair(two_delta_n) == (F(2),)


def test_g3_pairing_pattern():
    # m alpha + m1 alpha1 + m2 alpha2 pairs to (m1, 2m + m2)
    gt = appendix_torus("g3", ())
    assert gt.pair((F(1), F(0), F(0))) == (F(0), F(2))
    assert gt.pair((F(0), F(1), F(0))) == (F(1), F(0))
    assert gt.pair((F(0), F(0), F(1))) == (F(0), F(1))
    assert gt.pair((F(2), F(3), F(1))) == (F(3), F(5))


def test_q_torus_matches_gl_pattern():
    assert appendix_torus("q", (3,)).values == appendix_torus("gl", (3, 0)).values


POSITIVITY_FAMILIES = [
    ("gl", (1, 1)),
    ("gl", (2, 1)),
    ("gl", (2, 2)),
    ("gl", (3, 2)),
    ("gl", (3, 3)),
    ("q", (2,)),
    ("q", (3,)),
    ("p_tilde", (2,)),
    ("osp_odd", (1,)),
    ("osp_odd", (2,)),
    ("osp_even", (2,)),
    ("d21a", ()),
    ("g3", ()),
    ("f4", ()),
]


@pytest.mark.parametrize("family,params", POSITIVITY_FAMILIES)
def test_positive_grading(family, params):
    gt = appendix_torus(family, params)
    ok, witness = check_positive_grading(gt, positive_even_roots(family, params))
    assert ok, witness


def test_zero_cocharacter_fails_with_witness():
    gt = GradingTorus("zero", 1, "torus-dual", ((F(0),), (F(0),)))
    ok, witness = check_positive_grading(gt, positive_even_roots("gl", (2, 0)))
    assert not ok
    assert witness == (F(1), F(-1))


def test_matrix_family_roots_match_root_decomposition():
    # closed-form positive-even-root lists agree with the computed root data
    for family, params, g in (
        ("gl", (2, 1), build_gl(2, 1)),
        ("q", (3,), build_q(3)),
    ):
        rd = root_decomposition(g)
        even_weights = {r.weight for r in rd.roots if r.even_indices}
        listed = set(positive_even_roots(family, params))
        neg = {tuple(-c for c in w) for w in listed}
        assert listed | neg == even_weights


def test_p_tilde_odd_rank_rejected():
    with pytest.raises(UnsupportedRank):
        appendix_torus("p_tilde", (3,))


# --- graded monomial counting --------------------------------------------------


def test_count_target_zero():
    gt = appendix_torus("gl", (2, 2))
    count, cert = count_graded_monomials(gt, positive_even_roots("gl", (2, 2)), 0, 5)
    assert count == 1
    assert cert.stable


def test_count_single_root_cubed():
    gt = appendix_torus("gl", (2, 0))
    count, cert = count_graded_monomials(gt, positive_even_roots("gl", (2, 0)), 6, 10)
    assert count == 1  # alpha^3 is the only monomial of value 6
    assert cert.degree_bound == 3


def test_count_matches_brute_force_gl33():
    gt = appendix_torus("gl", (3, 3))
    roots = positive_even_roots("gl", (3, 3))
    vals = [gt.pair(r)[0] for r in roots]
    import itertools

    brute = 0
    for deg in range(0, 3):
        for combo in itertools.combinations_with_replacement(range(len(roots)), deg):
            if sum(vals[i] for i in combo) == 4:
                brute += 1
    count, cert = count_graded_monomials(gt, roots, 4, 8)
    assert count == brute == 12
    assert cert.stable


def test_count_stability_under_cap_increase():
    gt = appendix_torus("q", (3,))
    roots = positive_even_roots("q", (3,))
    base, cert = count_graded_monomials(gt, roots, 8, cert_cap := 6)
    assert cert.stable
    for cap in (cert_cap + 1, cert_cap + 3):
        again, _ = count_graded_monomials(gt, roots, 8, cap)
        assert again == base


def test_count_rank2_vector_target():
    gt = appendix_torus("g3", ())
    roots = positive_even_roots("g3", ())
    count, cert = count_graded_monomials(gt, roots, (F(1), F(1)), 6)
    # value (1,1): only alpha1 + alpha2 (values (1,0) + (0,1)) and the single
    # root alpha1+alpha2 with value (1,1)
    assert count == 2
    assert cert.stable


def test_count_refuses_without_positivity():
    gt = GradingTorus("bad", 1, "torus-dual", ((F(1),), (F(-1),)))
    with pytest.raises(PositivityNotEstablished):
        count_graded_monomials(gt, [(F(0), F(1))], 2, 4)


# --- kunneth and concentration ---------------------------------------------------


def test_kunneth_gl11_torus_degenerates_to_invariants():
    g = build_gl(1, 1)
    rows, ok = kunneth_check(g, named_subalgebra(g, "torus"), 4)
    assert ok
    assert [r["dim_pair"] for r in rows] == [1, 0, 1, 0, 1]


def test_kunneth_purely_even():
    g = build_gl(2, 0)
    rows, ok = kunneth_check(g, named_subalgebra(g, "torus"), 3)
    assert ok


def test_kunneth_gl21_torus():
    g = build_gl(2, 1)
    rows, ok = kunneth_check(g, named_subalgebra(g, "torus"), 4)
    assert ok
    assert [r["dim_pair"] for r in rows] == [1, 0, 2, 0, 2]


def test_kunneth_rejects_odd_subalgebra():
    g = build_gl(1, 1)
    from supero.algebras import full_span

    with pytest.raises(UnsupportedSubalgebra):
        kunneth_check(g, full_span(g), 2)


def test_even_concentration_sl2_borel():
    g = special_linear_span(build_gl(2, 0), 2, 0).to_algebra("sl(2)")
    rows, ok = even_concentration_check(g, named_subalgebra(g, "borel"), 4)
    assert ok
    assert all(r["dim"] == 0 for r in rows)


def test_even_concentration_self():
    g = special_linear_span(build_gl(2, 0), 2, 0).to_algebra("sl(2)")
    from supero.algebras import full_span

    rows, ok = even_concentration_check(g, full_span(g), 2)
    assert ok


def test_even_concentration_rejects_super():
    g = build_gl(1, 1)
    with pytest.raises(UnsupportedSubalgebra):
        even_concentration_check(g, even_part_span(g), 2)
