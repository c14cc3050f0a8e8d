"""Executable consistency checks: Kunneth factorization, even-degree
concentration, and the positively-graded torus data per family.

The grading tori assign rational exponent vectors to weight coordinates
(or, for the exceptional families without matrix models, to simple roots).
Positivity means componentwise nonnegative and nonzero for every positive
even root, which is exactly what makes graded monomial counting finite:
any monomial of a fixed grading value has degree at most the value divided
by the minimal positive increment, and the count stabilizes once the
degree cap exceeds that bound.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebras import EVEN, LieSuperalgebra, SubalgebraSpan, even_part_span
from .cohomology import cohomology
from .errors import PositivityNotEstablished, UnsupportedRank, UnsupportedSubalgebra
from .linalg import Scalar, Vector, _exact
from .reps import trivial

Vec = Vector


class GradingTorus(NamedTuple):
    """Cocharacter data: one exponent vector per weight coordinate.

    ``basis_kind`` records whether coordinates are torus-dual basis vectors
    (matrix families: eps_1..eps_m, delta_1..delta_n) or simple roots
    (abstract exceptional families).  Pairing is additive in coordinates.
    """

    label: str
    rank: int
    basis_kind: str
    values: tuple[Vec, ...]

    def pair(self, weight: Vec) -> Vec:
        if len(weight) != len(self.values):
            raise UnsupportedRank(
                f"{self.label}: weight has {len(weight)} coordinates, expected {len(self.values)}"
            )
        acc = [0] * self.rank
        for c, vec in zip(weight, self.values):
            if c:
                for t in range(self.rank):
                    acc[t] += c * vec[t]
        return tuple(map(_exact, acc))


def _rank1(vals: list[int]) -> tuple[Vec, ...]:
    return tuple((v,) for v in vals)


def appendix_torus(family: str, params: tuple = ()) -> GradingTorus:
    """Grading cocharacter for a family.

    Matrix families use step-2 (type A/Q) or step-1 (type P/BC/D) descending
    exponent ladders on each factor of the torus; consecutive simple roots
    then pair to 2 (A/Q) or 1 (BC/D).  The exceptional families carry
    two-parameter exponents on their simple roots.
    """
    if family == "gl":
        m, n = params
        vals = [m + 1 - 2 * i for i in range(1, m + 1)]
        vals += [n + 1 - 2 * j for j in range(1, n + 1)]
        return GradingTorus(f"gl({m}|{n})", 1, "torus-dual", _rank1(vals))
    if family == "q":
        (n,) = params
        vals = [n + 1 - 2 * i for i in range(1, n + 1)]
        return GradingTorus(f"q({n})", 1, "torus-dual", _rank1(vals))
    if family == "p_tilde":
        (n,) = params
        if n % 2 != 0:
            raise UnsupportedRank("type-P grading torus implemented for even n")
        half = n // 2
        vals = [half - i + 1 for i in range(1, half + 1)]
        vals += [half - i for i in range(half + 1, n + 1)]
        return GradingTorus(f"p~({n})", 1, "torus-dual", _rank1(vals))
    if family == "osp_odd":
        (n,) = params
        vals = [n + 1 - i for i in range(1, n + 1)] * 2
        return GradingTorus(f"osp({2 * n + 1}|{2 * n})", 1, "torus-dual", _rank1(vals))
    if family == "osp_even":
        (n,) = params
        vals = [n + 1 - i for i in range(1, n + 1)] * 2
        return GradingTorus(f"osp({2 * n}|{2 * n})", 1, "torus-dual", _rank1(vals))
    if family == "d21a":
        values = ((2, 0), (0, 2), (2, 2))
        return GradingTorus("D(2,1;a)", 2, "simple-roots", values)
    if family == "g3":
        # coordinates: sl2 root, then the two G2 simple roots (alpha2 long)
        values = ((0, 2), (1, 0), (0, 1))
        return GradingTorus("G(3)", 2, "simple-roots", values)
    if family == "f4":
        # coordinates: sl2 root, then the three so(7) simple roots; the
        # two-parameter pattern follows the G(3) calibrated construction
        values = ((0, 2), (1, 0), (0, 1), (1, 0))
        return GradingTorus("F(4)", 2, "simple-roots", values)
    raise UnsupportedRank(f"unknown grading family {family!r}")


def _unit(size: int, *entries: tuple[int, int]) -> Vec:
    v = [0] * size
    for i, c in entries:
        v[i] += c
    return tuple(v)


def positive_even_roots(family: str, params: tuple = ()) -> list[Vec]:
    """Closed-form positive even roots, in the same coordinates as the torus."""
    if family == "gl":
        m, n = params
        size = m + n
        roots = [_unit(size, (i, 1), (j, -1)) for i in range(m) for j in range(i + 1, m)]
        roots += [
            _unit(size, (m + i, 1), (m + j, -1)) for i in range(n) for j in range(i + 1, n)
        ]
        return roots
    if family in ("q", "p_tilde"):
        (n,) = params
        return [_unit(n, (i, 1), (j, -1)) for i in range(n) for j in range(i + 1, n)]
    if family in ("osp_odd", "osp_even"):
        (n,) = params
        size = 2 * n
        roots = []
        for i in range(n):
            for j in range(i + 1, n):
                roots.append(_unit(size, (i, 1), (j, -1)))
                roots.append(_unit(size, (i, 1), (j, 1)))
        if family == "osp_odd":
            roots += [_unit(size, (i, 1)) for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                roots.append(_unit(size, (n + i, 1), (n + j, -1)))
                roots.append(_unit(size, (n + i, 1), (n + j, 1)))
        roots += [_unit(size, (n + i, 2)) for i in range(n)]
        return roots
    if family == "d21a":
        return [_unit(3, (0, 1)), _unit(3, (1, 1)), _unit(3, (2, 1))]
    if family == "g3":
        return [
            _unit(3, (0, 1)),
            _unit(3, (1, 1)),
            _unit(3, (2, 1)),
            _unit(3, (1, 1), (2, 1)),
            _unit(3, (1, 2), (2, 1)),
            _unit(3, (1, 3), (2, 1)),
            _unit(3, (1, 3), (2, 2)),
        ]
    if family == "f4":
        return [
            _unit(4, (0, 1)),
            _unit(4, (1, 1)),
            _unit(4, (2, 1)),
            _unit(4, (3, 1)),
            _unit(4, (1, 1), (2, 1)),
            _unit(4, (2, 1), (3, 1)),
            _unit(4, (1, 1), (2, 1), (3, 1)),
            _unit(4, (2, 1), (3, 2)),
            _unit(4, (1, 1), (2, 1), (3, 2)),
            _unit(4, (1, 1), (2, 2), (3, 2)),
        ]
    raise UnsupportedRank(f"unknown root family {family!r}")


def check_positive_grading(gt: GradingTorus, roots: list[Vec]) -> tuple[bool, Vec | None]:
    """Every root must pair componentwise nonnegative and not to zero."""
    for root in roots:
        val = gt.pair(root)
        if any(c < 0 for c in val) or all(c == 0 for c in val):
            return False, root
    return True, None


class CountCertificate(NamedTuple):
    epsilon: Scalar
    degree_bound: int
    cap: int
    stable: bool
    count_at_bound: int


def count_graded_monomials(
    gt: GradingTorus,
    roots: list[Vec],
    target: Vec | Scalar,
    cap: int,
) -> tuple[int, CountCertificate]:
    """Monomials in the root variables whose grading values sum to target.

    Refuses to count unless positivity holds (otherwise the count need not
    be finite).  The certificate records the minimal increment epsilon, the
    derived degree bound, and whether the count was verified stable (equal
    at the bound and at the cap).  With no roots (gl(1|1), q(1)) the only
    monomial is 1: epsilon is 0, as there is no increment, the degree bound
    is 0, and the count is 1 at target 0 and 0 elsewhere, stable.
    """
    ok, witness = check_positive_grading(gt, roots)
    if not ok:
        raise PositivityNotEstablished(f"grading not positive at root {witness}")
    if not isinstance(target, (tuple, list)):
        target = (target,) + (0,) * (gt.rank - 1)
    target_v = tuple(map(_exact, target))
    if len(target_v) != gt.rank:
        raise UnsupportedRank("target length must equal the torus rank")
    values = [gt.pair(r) for r in roots]
    epsilon = _exact(min((sum(v) for v in values), default=0))
    total = sum(target_v)
    degree_bound = -(-total // epsilon) if epsilon and total >= 0 else 0  # exact ceiling
    limit = max(cap, degree_bound)
    # dp[value][degree] = number of monomials; roots are distinguishable variables
    dp: dict[Vec, dict[int, int]] = {(0,) * gt.rank: {0: 1}}
    for val in values:
        new: dict[Vec, dict[int, int]] = {}
        for base, degs in dp.items():
            k = 0
            cur = base
            while True:
                if any(a > b for a, b in zip(cur, target_v)):
                    break
                deg_shift = k
                slot = new.setdefault(cur, {})
                for d, cnt in degs.items():
                    nd = d + deg_shift
                    if nd <= limit:
                        slot[nd] = slot.get(nd, 0) + cnt
                k += 1
                cur = tuple(a + b for a, b in zip(cur, val))
                if k > limit:
                    break
        dp = new
    at_target = dp.get(target_v, {})
    count_cap = sum(cnt for d, cnt in at_target.items() if d <= cap)
    count_bound = sum(cnt for d, cnt in at_target.items() if d <= degree_bound)
    stable = cap >= degree_bound and count_cap == count_bound
    cert = CountCertificate(epsilon, degree_bound, cap, stable, count_bound)
    return count_cap, cert


# ---------------------------------------------------------------------------
# cohomology factorization checks


def _span_in_even_part(g: LieSuperalgebra, a: SubalgebraSpan, g0_alg: LieSuperalgebra) -> SubalgebraSpan:
    even_idx = [i for i, p in enumerate(g.parities) if p == EVEN]
    vectors = [tuple(vec[i] for i in even_idx) for vec in a.vectors]
    return SubalgebraSpan(g0_alg, vectors, a.label)


def kunneth_check(g: LieSuperalgebra, a: SubalgebraSpan, max_degree: int) -> tuple[list[dict], bool]:
    """Factorization dim H^n(g,a) = sum dim H^p(g,g0) dim H^q(g0,a).

    All three cohomologies are computed by independent engine runs; ``a``
    must lie inside the even part.
    """
    if any(p != EVEN for p in a.vector_parities):
        raise UnsupportedSubalgebra("kunneth_check needs a subalgebra of the even part")
    h0 = even_part_span(g)
    lhs = cohomology(g, a, trivial(g), max_degree).dims()
    mid = cohomology(g, h0, trivial(g), max_degree).dims()
    g0_alg = h0.to_algebra(f"{g.name}_0")
    a0 = _span_in_even_part(g, a, g0_alg)
    rhs = cohomology(g0_alg, a0, trivial(g0_alg), max_degree).dims()
    rows = []
    all_ok = True
    for n in range(max_degree + 1):
        expected = sum(mid[p] * rhs[n - p] for p in range(n + 1))
        ok = lhs[n] == expected
        all_ok = all_ok and ok
        rows.append(
            {
                "degree": n,
                "dim_pair": lhs[n],
                "factorized": expected,
                "status": "pass" if ok else "fail",
            }
        )
    return rows, all_ok


def even_concentration_check(
    g0: LieSuperalgebra, a: SubalgebraSpan, max_degree: int
) -> tuple[list[dict], bool]:
    """Vanishing of odd-degree cohomology for a purely even pair."""
    if g0.odd_indices:
        raise UnsupportedSubalgebra("even_concentration_check needs a purely even algebra")
    dims = cohomology(g0, a, trivial(g0), max_degree).dims()
    rows = []
    all_ok = True
    for q in range(1, max_degree + 1, 2):
        ok = dims[q] == 0
        all_ok = all_ok and ok
        rows.append({"degree": q, "dim": dims[q], "status": "pass" if ok else "fail"})
    return rows, all_ok
