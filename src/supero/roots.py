"""Root decompositions, principal parabolic subsets, and the weight proset.

Weights live in the dual of the designated even torus and are represented
as tuples of rationals (coordinates against the torus generators fixed by
each family constructor), under the scalar convention of ``linalg``.
Functionals pair against weights by the dot product; all sign decisions
are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

from .algebras import (
    LieSuperalgebra,
    SubalgebraSpan,
    _unit_span,
    even_part_span,
    torus_span,
    full_span,
)
from .errors import DimensionMismatch, NotASubalgebra, UnsupportedSubalgebra
from .linalg import Scalar, Vector, _exact

Weight = Vector
Functional = Vector


@dataclass(frozen=True)
class RootSpace:
    """One root: weight, plus the basis indices of its root space by parity."""

    weight: Weight
    even_indices: tuple[int, ...]
    odd_indices: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "weight": [[c.numerator, c.denominator] for c in self.weight],
            "even_indices": list(self.even_indices),
            "odd_indices": list(self.odd_indices),
        }


@dataclass(frozen=True)
class RootDatum:
    algebra: LieSuperalgebra
    roots: tuple[RootSpace, ...]
    zero_weight_indices: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.algebra.torus)

    def to_json_dict(self) -> dict:
        return {
            "schema": "superO/1",
            "kind": "root_datum",
            "algebra": self.algebra.name,
            "rank": self.rank,
            "roots": [r.to_json_dict() for r in self.roots],
            "zero_weight_indices": list(self.zero_weight_indices),
        }


def root_decomposition(g: LieSuperalgebra) -> RootDatum:
    """Simultaneous ad-eigenspace decomposition of the designated torus.

    Requires the torus to act diagonally on the basis (guaranteed for the
    built-in families); raises DecompositionError otherwise, via
    weight_of_basis_index.
    """
    by_weight: dict[Weight, tuple[list[int], list[int]]] = {}
    for j in range(g.dim):
        w = g.weight_of_basis_index(j)
        slot = by_weight.setdefault(w, ([], []))
        slot[g.parities[j]].append(j)
    zero = (0,) * len(g.torus)
    zero_slot = by_weight.pop(zero, ([], []))
    roots = tuple(
        RootSpace(w, tuple(ev), tuple(od))
        for w, (ev, od) in sorted(by_weight.items(), key=lambda item: item[0])
    )
    return RootDatum(g, roots, tuple(sorted(zero_slot[0] + zero_slot[1])))


def pair(H: Functional, w: Weight) -> Scalar:
    if len(H) != len(w):
        raise DimensionMismatch("functional length != weight length")
    return _exact(sum(a * b for a, b in zip(H, w)))


@dataclass(frozen=True)
class ParabolicDecomposition:
    """Triangular decomposition induced by a functional H.

    phi_plus / phi_zero / phi_minus partition the roots by the sign of
    H(alpha); the three spans are verified bracket-closed on construction.
    """

    root_datum: RootDatum
    functional: Functional
    phi_plus: tuple[RootSpace, ...]
    phi_zero: tuple[RootSpace, ...]
    phi_minus: tuple[RootSpace, ...]
    n_plus: SubalgebraSpan
    levi: SubalgebraSpan
    n_minus: SubalgebraSpan

    def to_json_dict(self) -> dict:
        return {
            "schema": "superO/1",
            "kind": "parabolic_decomposition",
            "algebra": self.root_datum.algebra.name,
            "H": [[c.numerator, c.denominator] for c in self.functional],
            "phi_plus": [r.to_json_dict() for r in self.phi_plus],
            "phi_zero": [r.to_json_dict() for r in self.phi_zero],
            "phi_minus": [r.to_json_dict() for r in self.phi_minus],
            "dim_n_plus": self.n_plus.dim,
            "dim_levi": self.levi.dim,
            "dim_n_minus": self.n_minus.dim,
        }


def principal_parabolic(rd: RootDatum, H: Sequence[Scalar]) -> ParabolicDecomposition:
    """Partition the roots by sign of H and build (n-, l, n+).

    The Levi gets the whole zero-weight space (for q(n) this includes the
    odd part of the Cartan) plus the root spaces with H(alpha) = 0.
    """
    g = rd.algebra
    Ht = tuple(map(_exact, H))
    if len(Ht) != rd.rank:
        raise DimensionMismatch(f"functional length {len(Ht)} != torus rank {rd.rank}")
    plus, zero, minus = [], [], []
    for r in rd.roots:
        v = pair(Ht, r.weight)
        (plus if v > 0 else minus if v < 0 else zero).append(r)
    n_plus_idx = [i for r in plus for i in r.even_indices + r.odd_indices]
    n_minus_idx = [i for r in minus for i in r.even_indices + r.odd_indices]
    levi_idx = list(rd.zero_weight_indices) + [
        i for r in zero for i in r.even_indices + r.odd_indices
    ]
    n_plus = _unit_span(g, n_plus_idx, "n+")
    n_minus = _unit_span(g, n_minus_idx, "n-")
    levi = _unit_span(g, levi_idx, "levi")
    for span in (n_plus, levi, n_minus):
        witness = span.closure_witness()
        if witness is not None:
            raise NotASubalgebra(f"{span.label} not closed at {witness} (unexpected)")
    return ParabolicDecomposition(
        rd, Ht, tuple(plus), tuple(zero), tuple(minus), n_plus, levi, n_minus
    )


def check_parabolic_axioms(
    rd: RootDatum,
    P: Sequence[Weight],
    H: Sequence[Scalar] | None = None,
) -> tuple[bool, tuple | None]:
    """Parabolic-subset axioms for a set of root weights.

    Symmetric root systems (Phi = -Phi): require Phi = P u (-P) and
    closure (alpha, beta in P, alpha+beta in Phi => alpha+beta in P).
    Asymmetric systems are handled by comparing P against the sign
    partition of the functional H (which must then be supplied).
    """
    phi = {r.weight for r in rd.roots}
    pset = {tuple(w) for w in P}
    if not pset <= phi:
        stray = sorted(pset - phi)[0]
        return False, ("not_a_root", stray)
    neg = {tuple(-c for c in w) for w in phi}
    if phi == neg:
        negp = {tuple(-c for c in w) for w in pset}
        if pset | negp != phi:
            missing = sorted(phi - (pset | negp))[0]
            return False, ("union_fails", missing)
        for a in sorted(pset):
            for b in sorted(pset):
                s = tuple(x + y for x, y in zip(a, b))
                if s in phi and s not in pset:
                    return False, ("closure_fails", a, b)
        return True, None
    if H is None:
        raise UnsupportedSubalgebra(
            "asymmetric root system: supply the functional H to test P = P_H"
        )
    Ht = tuple(map(_exact, H))
    expected = {r.weight for r in rd.roots if pair(Ht, r.weight) >= 0}
    if pset != expected:
        diff = sorted(pset.symmetric_difference(expected))[0]
        return False, ("not_principal", diff)
    return True, None


Comparison = Literal["less", "equal", "greater", "incomparable"]


def proset_compare(
    lam: tuple[Weight, int], mu: tuple[Weight, int], H: Sequence[Scalar]
) -> Comparison:
    """Preorder on (weight, parity-index) pairs: compare H-values, same parity only."""
    (wl, il), (wm, im) = lam, mu
    if il != im:
        return "incomparable"
    Ht = tuple(map(_exact, H))
    a = pair(Ht, wl)
    b = pair(Ht, wm)
    if a < b:
        return "less"
    if a > b:
        return "greater"
    return "equal"


def generic_functional(rd: RootDatum) -> Functional:
    """Deterministic functional separating every root from zero.

    Tries geometric sequences (base 2, 3, 5, ...) until one pairs nonzero
    with every root; base-r sequences separate all bounded integer weights
    for large enough r, so this terminates on any finite root set.
    """
    rank = rd.rank
    if rank == 0:
        return ()
    base = 2
    while True:
        H = tuple(base ** (rank - 1 - i) for i in range(rank))
        if all(pair(H, r.weight) != 0 for r in rd.roots):
            return H
        base += 1
        if base > 10_000:
            raise UnsupportedSubalgebra("no separating functional found (unexpected)")


def borel_span(g: LieSuperalgebra, rd: RootDatum | None = None, H: Sequence[Scalar] | None = None) -> SubalgebraSpan:
    """Zero-weight space plus all positive root spaces for H (generic by default)."""
    rd = rd or root_decomposition(g)
    dec = principal_parabolic(rd, H if H is not None else generic_functional(rd))
    idx = list(rd.zero_weight_indices)
    for r in dec.phi_zero:
        idx += list(r.even_indices + r.odd_indices)
    for r in dec.phi_plus:
        idx += list(r.even_indices + r.odd_indices)
    return _unit_span(g, idx, "borel")


def levi_span(g: LieSuperalgebra, H: Sequence[Scalar], rd: RootDatum | None = None) -> SubalgebraSpan:
    rd = rd or root_decomposition(g)
    dec = principal_parabolic(rd, H)
    return dec.levi


def named_subalgebra(
    g: LieSuperalgebra, spec: str, H: Sequence[Scalar] | None = None
) -> SubalgebraSpan:
    """Resolve a named subalgebra spec: g0 | torus | full | borel | levi."""
    if spec == "g0":
        return even_part_span(g)
    if spec == "torus":
        return torus_span(g)
    if spec == "full":
        return full_span(g)
    if spec == "borel":
        return borel_span(g, H=H)
    if spec == "levi":
        if H is None:
            raise UnsupportedSubalgebra("levi requires a functional H")
        return levi_span(g, H)
    raise UnsupportedSubalgebra(f"unknown subalgebra spec {spec!r}")
