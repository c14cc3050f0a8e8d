import random
from fractions import Fraction

import pytest

from supero.algebras import build_gl, build_osp, build_p_tilde, build_q
from supero.errors import DimensionMismatch, UnsupportedSubalgebra
from supero.roots import (
    borel_span,
    check_parabolic_axioms,
    generic_functional,
    named_subalgebra,
    pair,
    principal_parabolic,
    proset_compare,
    root_decomposition,
)

F = Fraction


def test_gl11_roots():
    rd = root_decomposition(build_gl(1, 1))
    weights = {r.weight: (len(r.even_indices), len(r.odd_indices)) for r in rd.roots}
    assert weights == {(F(1), F(-1)): (0, 1), (F(-1), F(1)): (0, 1)}
    assert len(rd.zero_weight_indices) == 2


def test_gl2_classical_roots():
    rd = root_decomposition(build_gl(2, 0))
    weights = {r.weight for r in rd.roots}
    assert weights == {(F(1), F(-1)), (F(-1), F(1))}
    assert all(len(r.odd_indices) == 0 for r in rd.roots)


def test_q2_roots_have_both_parities():
    rd = root_decomposition(build_q(2))
    weights = {r.weight: (len(r.even_indices), len(r.odd_indices)) for r in rd.roots}
    assert weights == {(F(1), F(-1)): (1, 1), (F(-1), F(1)): (1, 1)}
    assert len(rd.zero_weight_indices) == 4  # even Cartan + odd Cartan part


@pytest.mark.parametrize(
    "g",
    [build_gl(2, 1), build_gl(2, 2), build_q(3), build_p_tilde(2), build_osp(3, 2)],
    ids=lambda g: g.name,
)
def test_dimension_conservation(g):
    rd = root_decomposition(g)
    total = len(rd.zero_weight_indices) + sum(
        len(r.even_indices) + len(r.odd_indices) for r in rd.roots
    )
    assert total == g.dim


def test_p_tilde_roots_asymmetric():
    rd = root_decomposition(build_p_tilde(2))
    weights = {r.weight for r in rd.roots}
    assert (F(2), F(0)) in weights  # from the symmetric block
    assert (F(-2), F(0)) not in weights  # no antisymmetric counterpart


# --- principal parabolic ----------------------------------------------------


def test_gl11_parabolic_positive_H():
    g = build_gl(1, 1)
    dec = principal_parabolic(root_decomposition(g), (F(1), F(0)))
    assert [r.weight for r in dec.phi_plus] == [(F(1), F(-1))]
    assert dec.phi_zero == ()
    assert dec.n_plus.dim == 1
    assert g.basis_labels[next(iter(dec.n_plus.sparse_vectors()[0]))] == "e[1,2]"


def test_zero_functional_gives_whole_algebra_as_levi():
    g = build_q(2)
    dec = principal_parabolic(root_decomposition(g), (F(0), F(0)))
    assert dec.levi.dim == g.dim
    assert dec.n_plus.dim == 0 and dec.n_minus.dim == 0
    assert dec.phi_zero == root_decomposition(g).roots


def test_gl21_half_generic_H():
    g = build_gl(2, 1)
    dec = principal_parabolic(root_decomposition(g), (F(1), F(1), F(0)))
    zero_weights = {r.weight for r in dec.phi_zero}
    assert zero_weights == {(F(1), F(-1), F(0)), (F(-1), F(1), F(0))}
    assert dec.levi.dim == 5  # gl2 + gl1, nothing odd
    assert all(p == 0 for p in dec.levi.vector_parities)
    plus_weights = {r.weight for r in dec.phi_plus}
    assert plus_weights == {(F(1), F(0), F(-1)), (F(0), F(1), F(-1))}
    assert dec.n_plus.dim == 2


def test_functional_length_checked():
    g = build_gl(1, 1)
    with pytest.raises(DimensionMismatch):
        principal_parabolic(root_decomposition(g), (F(1),))


def _random_functional(rng, rank):
    return tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rank))


@pytest.mark.parametrize(
    "g", [build_gl(1, 1), build_gl(2, 1), build_q(2), build_p_tilde(2)], ids=lambda g: g.name
)
def test_random_H_closure_and_symmetry(g):
    rd = root_decomposition(g)
    symmetric = {r.weight for r in rd.roots} == {
        tuple(-c for c in r.weight) for r in rd.roots
    }
    rng = random.Random(f"roots-{g.name}")
    for _ in range(50):
        H = _random_functional(rng, rd.rank)
        dec = principal_parabolic(rd, H)  # spans verified closed inside
        if symmetric:
            # -Phi+ = Phi- as weight multisets (fails by design when Phi != -Phi)
            plus = sorted(r.weight for r in dec.phi_plus)
            minus_neg = sorted(tuple(-c for c in r.weight) for r in dec.phi_minus)
            assert plus == minus_neg
        assert dec.n_plus.dim + dec.levi.dim + dec.n_minus.dim == g.dim


# --- parabolic subset axioms ------------------------------------------------


def test_principal_subsets_pass_axioms_case1():
    for g in (build_gl(1, 1), build_gl(2, 1), build_q(2), build_osp(1, 2)):
        rd = root_decomposition(g)
        rng = random.Random(f"axioms-{g.name}")
        for _ in range(50):
            H = _random_functional(rng, rd.rank)
            dec = principal_parabolic(rd, H)
            P = [r.weight for r in dec.phi_plus] + [r.weight for r in dec.phi_zero]
            ok, witness = check_parabolic_axioms(rd, P)
            assert ok, witness


def test_single_root_fails_axioms():
    rd = root_decomposition(build_gl(2, 1))
    (first, *_rest) = [r.weight for r in rd.roots]
    ok, witness = check_parabolic_axioms(rd, [first])
    assert not ok
    assert witness[0] == "union_fails"


def test_gl2_single_positive_root_passes():
    rd = root_decomposition(build_gl(2, 0))
    ok, witness = check_parabolic_axioms(rd, [(F(1), F(-1))])
    assert ok, witness


def test_case2_requires_functional():
    rd = root_decomposition(build_p_tilde(2))
    dec = principal_parabolic(rd, (F(2), F(1)))
    P = [r.weight for r in dec.phi_plus] + [r.weight for r in dec.phi_zero]
    with pytest.raises(UnsupportedSubalgebra):
        check_parabolic_axioms(rd, P)
    ok, witness = check_parabolic_axioms(rd, P, H=(F(2), F(1)))
    assert ok, witness
    bad = P[1:]
    ok, witness = check_parabolic_axioms(rd, bad, H=(F(2), F(1)))
    assert not ok


# --- proset -----------------------------------------------------------------


def test_proset_different_parity_incomparable():
    lam = ((F(1), F(0)), 0)
    mu = ((F(0), F(1)), 1)
    assert proset_compare(lam, mu, (F(1), F(0))) == "incomparable"


def test_proset_gl11_example():
    # eps1 vs delta1 under H = (1, 0): H(eps1) = 1 > 0 = H(delta1)
    eps1 = ((F(1), F(0)), 0)
    delta1 = ((F(0), F(1)), 0)
    assert proset_compare(eps1, delta1, (F(1), F(0))) == "greater"
    assert proset_compare(delta1, eps1, (F(1), F(0))) == "less"


def test_proset_reflexive_and_equal_values():
    lam = ((F(1), F(-1)), 1)
    assert proset_compare(lam, lam, (F(2), F(2))) == "equal"
    mu = ((F(-1), F(1)), 1)  # H = (1,1) pairs both to 0
    assert proset_compare(lam, mu, (F(1), F(1))) == "equal"


def test_proset_preorder_randomized():
    rng = random.Random(424242)
    H = (F(3), F(-1), F(2))
    pool = [
        ((F(rng.randint(-3, 3)), F(rng.randint(-3, 3)), F(rng.randint(-3, 3))), rng.randint(0, 1))
        for _ in range(30)
    ]
    rank = {"less": -1, "equal": 0, "greater": 1}
    for a in pool:
        assert proset_compare(a, a, H) == "equal"
    for a in pool:
        for b in pool:
            for c in pool:
                ab, bc, ac = (
                    proset_compare(a, b, H),
                    proset_compare(b, c, H),
                    proset_compare(a, c, H),
                )
                if ab in rank and bc in rank and ab == bc:
                    # transitivity on comparable chains
                    if ab != "equal":
                        assert ac == ab
                    else:
                        assert ac == "equal"


# --- named subalgebras ------------------------------------------------------


def test_generic_functional_separates():
    for g in (build_gl(2, 2), build_q(3), build_p_tilde(2)):
        rd = root_decomposition(g)
        H = generic_functional(rd)
        assert all(pair(H, r.weight) != 0 for r in rd.roots)


def test_borel_span_dimension():
    g = build_gl(1, 1)
    b = borel_span(g)
    assert b.dim == 3  # torus + one odd root vector


def test_named_subalgebra_specs():
    g = build_q(2)
    assert named_subalgebra(g, "g0").dim == 4
    assert named_subalgebra(g, "torus").dim == 2
    assert named_subalgebra(g, "full").dim == 8
    assert named_subalgebra(g, "levi", H=(F(1), F(1))).dim == 8  # H kills both roots
    with pytest.raises(UnsupportedSubalgebra):
        named_subalgebra(g, "levi")
    with pytest.raises(UnsupportedSubalgebra):
        named_subalgebra(g, "nonsense")
