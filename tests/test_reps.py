import random
from fractions import Fraction

import pytest

from supero.algebras import (
    build_gl,
    build_osp,
    build_p_tilde,
    build_q,
    even_part_span,
    special_linear_span,
)
from supero.errors import AlgebraMismatch, UnsupportedModule
from supero.linalg import SparseMatrix
from supero.reps import (
    Representation,
    adjoint,
    dual,
    monomial_steps,
    natural,
    odd_part_module,
    restrict,
    super_monomial_count,
    super_symmetric_power,
    tensor,
    trivial,
)

import oracles
from oracles import matmul, verify_representation, wedge_insert, weight_decomposition

F = Fraction


def test_trivial_actions_are_zero():
    g = build_gl(1, 1)
    r = trivial(g)
    assert r.dim == 1
    assert all(a.nnz == 0 for a in r.actions)


def test_adjoint_gl2_commutator():
    g = build_gl(2, 0)
    r = adjoint(g)
    i12 = g.basis_labels.index("e[1,2]")
    i21 = g.basis_labels.index("e[2,1]")
    out = [r.actions[i12].entry(k, i21) for k in range(g.dim)]  # the image of e[2,1]
    expected = [F(0)] * g.dim
    expected[g.basis_labels.index("e[1,1]")] = F(1)
    expected[g.basis_labels.index("e[2,2]")] = F(-1)
    assert list(out) == expected


def test_natural_gl11():
    r = natural(build_gl(1, 1))
    assert r.dim == 2
    assert r.parities == (0, 1)


def test_natural_needs_matrix_model():
    g = special_linear_span(build_gl(1, 1), 1, 1).to_algebra()
    with pytest.raises(UnsupportedModule):
        natural(g)


STANDARD = []
for _g in (build_gl(1, 1), build_gl(2, 1), build_q(2)):
    STANDARD += [trivial(_g), natural(_g), adjoint(_g)]


@pytest.mark.parametrize("r", STANDARD, ids=lambda r: f"{r.algebra.name}-{r.name}")
def test_standard_reps_verify(r):
    assert verify_representation(r) == (True, None)


def test_dual_of_trivial_is_trivial():
    g = build_gl(1, 1)
    assert all(a.nnz == 0 for a in dual(trivial(g)).actions)


def test_dual_negates_weights():
    r = natural(build_gl(1, 1))
    wd = weight_decomposition(r)
    dwd = weight_decomposition(dual(r))
    assert dwd == {tuple(-c for c in w): mult for w, mult in wd.items()}


def test_double_dual_is_original_up_to_parity_sign():
    # canonical identification V -> V** carries the sign (-1)^{|v|}; under it
    # the double dual action matrices match the original exactly
    for g in (build_gl(2, 1), build_q(2)):
        r = natural(g)
        dd = dual(dual(r))
        assert verify_representation(dd) == (True, None)
        sign = SparseMatrix(
            r.dim, r.dim, ((i, i, F(-1) if r.parities[i] else F(1)) for i in range(r.dim))
        )
        for a, b in zip(r.actions, dd.actions):
            assert list(matmul(matmul(sign, b), sign).entries()) == list(a.entries())


def test_dual_is_representation():
    for r in STANDARD:
        assert verify_representation(dual(r)) == (True, None)


def test_tensor_dims_and_parity():
    g = build_gl(1, 1)
    r = tensor(natural(g), natural(g))
    assert r.dim == 4
    assert r.parities == (0, 1, 1, 0)
    assert verify_representation(r) == (True, None)


def test_tensor_with_trivial_isomorphic():
    g = build_q(2)
    n = natural(g)
    t = tensor(trivial(g), n)
    assert t.dim == n.dim
    assert t.parities == n.parities
    assert [list(a.entries()) for a in t.actions] == [list(a.entries()) for a in n.actions]


def test_tensor_algebra_mismatch():
    with pytest.raises(AlgebraMismatch):
        tensor(natural(build_gl(1, 1)), natural(build_gl(1, 1)))


def test_tensor_weights_are_sums():
    g = build_gl(1, 1)
    n = natural(g)
    wd_n = weight_decomposition(n)
    wd_t = weight_decomposition(tensor(n, n))
    conv = {}
    for w1, (e1, o1) in wd_n.items():
        for w2, (e2, o2) in wd_n.items():
            w = tuple(a + b for a, b in zip(w1, w2))
            e, o = conv.get(w, (0, 0))
            conv[w] = (e + e1 * e2 + o1 * o2, o + e1 * o2 + o1 * e2)
    assert wd_t == conv


# --- super exterior and symmetric powers ------------------------------------


def _walk(parities, p):
    """The normal-form monomials of degree p by the ``monomial_steps`` walk,
    each degree extending the one below."""
    monos = [()]
    for _ in range(p):
        monos = [mo + (x,) for mo, xs in zip(monos, monomial_steps(parities, monos)) for x in xs]
    return monos


def test_monomial_counts_match_formula():
    cases = [((0, 0), 3, 0), ((1, 1), 3, 4), ((0, 1), 2, 2), ((0, 0, 0), 2, 3), ((0, 0), 0, 1), ((), 0, 1)]
    for parities, p, expected in cases:
        a = sum(1 for q in parities if q == 0)
        b = len(parities) - a
        monos = _walk(parities, p)
        assert len(monos) == expected == super_monomial_count(a, b, p)


def test_super_monomials_match_reference_enumeration():
    # the walk must list the sorted order, interleaved parities included
    rng = random.Random(1515)
    vectors = [(), (0, 0, 0), (1, 1), (1, 1, 0, 1, 0, 1), (0, 1, 0, 1, 1, 0)]
    vectors += [tuple(rng.randrange(2) for _ in range(rng.randrange(1, 7))) for _ in range(12)]
    for parities in vectors:
        for p in range(7):
            expected = oracles.super_monomials(parities, p)
            assert _walk(parities, p) == expected, (parities, p)


def test_exterior_power_dims():
    g = build_gl(1, 1)
    n = natural(g)  # one even, one odd basis vector
    assert oracles.exterior_power(n, 2).dim == 2  # e^f_odd, f_odd^2
    even2 = natural(build_gl(2, 0))
    assert oracles.exterior_power(even2, 3).dim == 0
    odd2 = Representation(
        build_gl(1, 1), "odd2", (1, 1), tuple(SparseMatrix(2, 2) for _ in range(4))
    )
    assert oracles.exterior_power(odd2, 3).dim == 4


def test_exterior_power_is_representation():
    g = build_gl(1, 1)
    for p in range(4):
        assert verify_representation(oracles.exterior_power(adjoint(g), p)) == (True, None)
    g2 = build_q(2)
    assert verify_representation(oracles.exterior_power(natural(g2), 2)) == (True, None)


def test_wedge_insert_signs():
    parities = (0, 0, 1, 1)
    # inserting an even factor already present kills the monomial
    assert wedge_insert(0, (0, 2), parities) is None
    # x is prepended, then bubbled right past every smaller factor
    assert wedge_insert(0, (1,), parities) == (1, (0, 1))  # already in place
    assert wedge_insert(1, (0,), parities) == (-1, (0, 1))  # crosses one even
    # odd past odd commutes
    assert wedge_insert(2, (3,), parities) == (1, (2, 3))
    assert wedge_insert(3, (2,), parities) == (1, (2, 3))
    # odd crossing an even flips
    assert wedge_insert(2, (0,), parities) == (-1, (0, 2))
    # odd repeats allowed
    assert wedge_insert(2, (2,), parities) == (1, (2, 2))


def test_symmetric_power_dims():
    g = build_q(2)
    m = odd_part_module(g)  # 4-dimensional
    s0 = super_symmetric_power(dual(m), 0)
    assert s0.dim == 1 and all(a.nnz == 0 for a in s0.actions)
    assert super_symmetric_power(dual(m), 2).dim == 10  # S^2 of a 4-dim space
    assert verify_representation(super_symmetric_power(dual(m), 2)) == (True, None)


def test_symmetric_power_matches_the_per_position_oracle():
    # the odd modules of the invariants-suite families and their duals,
    # which the invariant rings are read from
    families = [
        build_gl(1, 1), build_gl(1, 2), build_gl(2, 1), build_q(2),
        build_p_tilde(2), build_osp(1, 2), build_osp(2, 2),
    ]
    for g in families:
        odd = odd_part_module(g)
        for m in (odd, dual(odd)):
            for j in range(7):
                got = super_symmetric_power(m, j).actions
                want = oracles.super_symmetric_power_actions(m, j)
                for a, b in zip(got, want, strict=True):
                    assert [(*e, type(e[2])) for e in a.entries()] == [
                        (*e, type(e[2])) for e in b.entries()
                    ], (g.name, m.name, j)


def test_symmetric_power_rejects_mixed_parity():
    g = build_gl(1, 1)
    with pytest.raises(UnsupportedModule):
        super_symmetric_power(natural(g), 2)


def test_s2_weights_of_gl11_odd_dual():
    g = build_gl(1, 1)
    s2 = super_symmetric_power(dual(odd_part_module(g)), 2)
    wd = weight_decomposition(s2)
    alpha = (F(1), F(-1))
    twice = tuple(2 * c for c in alpha)
    ntwice = tuple(-2 * c for c in alpha)
    assert set(wd) == {twice, (F(0), F(0)), ntwice}
    assert wd[F(0), F(0)] == (1, 0)


# --- restrict and weights ---------------------------------------------------


def test_restrict_to_full_algebra_keeps_actions():
    from supero.algebras import full_span

    g = build_gl(1, 1)
    r = natural(g)
    res = restrict(r, full_span(g))
    # full span lists even indices first; actions match vector by vector
    for vec, a in zip(full_span(g).vectors, res.actions):
        assert list(a.entries()) == list(r.action_of_vector(vec).entries())


def test_restrict_trivial_stays_trivial():
    g = build_q(2)
    res = restrict(trivial(g), even_part_span(g))
    assert res.dim == 1 and all(a.nnz == 0 for a in res.actions)


def test_restrict_adjoint_gl11_to_even_part():
    g = build_gl(1, 1)
    res = restrict(adjoint(g), even_part_span(g))
    wd = weight_decomposition(res)
    assert wd == {
        (F(0), F(0)): (2, 0),
        (F(1), F(-1)): (0, 1),
        (F(-1), F(1)): (0, 1),
    }


def test_weight_decomposition_trivial_and_natural():
    g = build_gl(1, 1)
    assert weight_decomposition(trivial(g)) == {(F(0), F(0)): (1, 0)}
    assert weight_decomposition(natural(g)) == {
        (F(1), F(0)): (1, 0),
        (F(0), F(1)): (0, 1),
    }


def test_weight_decomposition_adjoint_q2():
    wd = weight_decomposition(adjoint(build_q(2)))
    assert wd == {
        (F(0), F(0)): (2, 2),
        (F(1), F(-1)): (1, 1),
        (F(-1), F(1)): (1, 1),
    }


def test_weight_dims_sum_to_dim():
    for r in STANDARD:
        wd = weight_decomposition(r)
        assert sum(e + o for e, o in wd.values()) == r.dim


def test_odd_part_module_is_representation():
    for g in (build_gl(2, 1), build_q(2)):
        assert verify_representation(odd_part_module(g)) == (True, None)
