"""Invariant rings of the odd part, their Hilbert tables, and growth rates.

The degree-j invariants are polynomial functions on the odd part fixed by
the even part, computed as the simultaneous kernel of the even-part action
on the j-th symmetric power of the dual odd module (diagonally acting
elements filter to the zero-weight block first).  The identification with
the relative cohomology of the pair (g, even part) is exposed as an
executable comparison, with both sides computed by independent pipelines.

Growth-rate estimation is a least-squares fit on a finite window and is
reported as a heuristic together with the raw dimension sequence; floating
point is confined to that fit.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .algebras import SCHEMA, LieSuperalgebra, SubalgebraSpan, even_part_span
from .cohomology import RelativePair, cohomology, relative_ext
from .errors import DimensionMismatch
from .linalg import RowMatrix, Scalar, rank
from .reps import Representation, dual, odd_part_module, super_symmetric_power, trivial


class HilbertTable(NamedTuple):
    """Dimensions of the invariant ring per polynomial degree."""

    algebra: str
    dims: list[int]

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": "hilbert_table",
            "algebra": self.algebra,
            "dims": list(self.dims),
        }


def invariant_subspace_dim(r: Representation) -> int:
    """Dimension of the simultaneous kernel of all action matrices.

    Diagonal actions cut to the jointly-zero-eigenvalue coordinates; the
    remaining constraints are solved exactly on that block.
    """
    alg = r.algebra
    diag = [i for i in range(alg.dim) if r.actions[i].is_diagonal()]
    nondiag = [i for i in range(alg.dim) if i not in set(diag)]
    kept = [v for v in range(r.dim) if all(r.actions[i].entry(v, v) == 0 for i in diag)]
    if not nondiag:
        return len(kept)
    pos = {v: t for t, v in enumerate(kept)}
    # one row per (action, output coordinate), in first-appearance order
    rows: dict[tuple[int, int], dict[int, Scalar]] = {}
    for ci in nondiag:
        for row, col, val in r.actions[ci].entries():
            t = pos.get(col)
            if t is not None:
                rows.setdefault((ci, row), {})[t] = val
    return len(kept) - rank(RowMatrix(list(rows.values()), len(kept)))


def invariant_dims(g: LieSuperalgebra, max_degree: int) -> HilbertTable:
    """Per-degree dimensions of the even-part invariants in S(odd dual)."""
    if max_degree < 0:
        raise DimensionMismatch("max_degree must be nonnegative")
    base = dual(odd_part_module(g))
    dims = []
    for j in range(max_degree + 1):
        dims.append(invariant_subspace_dim(super_symmetric_power(base, j)))
    return HilbertTable(g.name, dims)


def compare_invariants_vs_cohomology(
    g: LieSuperalgebra, max_degree: int
) -> tuple[list[dict], bool]:
    """Invariant-ring dims against relative cohomology of (g, even part).

    Both sides are computed by separate pipelines (symmetric-power kernels
    vs the equivariant cochain complex); the rows record each degree.
    """
    table = invariant_dims(g, max_degree)
    report = cohomology(g, even_part_span(g), trivial(g), max_degree)
    rows = []
    all_ok = True
    for j in range(max_degree + 1):
        inv = table.dims[j]
        coh = report.rows[j].dim_cohomology
        ok = inv == coh
        all_ok = all_ok and ok
        rows.append(
            {"degree": j, "invariant_dim": inv, "cohomology_dim": coh,
             "status": "pass" if ok else "fail"}
        )
    return rows, all_ok


class GrowthEstimate(NamedTuple):
    """Finite-window growth-rate estimate for an Ext dimension sequence.

    ``estimated_rate`` approximates the polynomial rate of growth plus one
    (so a bounded nonzero sequence has rate about 1); it is a heuristic on
    the window, not an exact asymptotic.  ``dims`` carries the raw data so
    consumers can re-fit.
    """

    label: str
    window: tuple[int, int]
    estimated_rate: float
    bound: int
    within_bound: bool
    eventually_zero: bool
    dims: list[int]

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": "growth_estimate",
            "label": self.label,
            "window": list(self.window),
            "estimated_rate": self.estimated_rate,
            "bound": self.bound,
            "within_bound": self.within_bound,
            "eventually_zero": self.eventually_zero,
            "dims": list(self.dims),
        }


def _fit_rate(dims: list[int], start: int, end: int) -> tuple[float, bool]:
    """Least-squares slope of log(dim) against log(degree) on the window.

    Zero dims are replaced by the max of the adjacent degrees (alternating
    sequences like 1,0,1,0 are bounded, not eventually zero).  Returns
    (rate, eventually_zero).
    """
    ys = []
    for i in range(start, end + 1):
        y = dims[i]
        if y == 0:
            lo = dims[i - 1] if i - 1 >= 0 else 0
            hi = dims[i + 1] if i + 1 < len(dims) else 0
            y = max(lo, hi)
        ys.append((i, y))
    points = [(math.log(i), math.log(y)) for i, y in ys if y > 0 and i > 0]
    if not points:
        return 0.0, True
    if len(points) == 1:
        return 1.0, False
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    var = sum((x - mean_x) ** 2 for x, _ in points)
    if var == 0:
        return 1.0, False
    slope = sum((x - mean_x) * (y - mean_y) for x, y in points) / var
    return slope + 1.0, False


def ext_growth(
    g: LieSuperalgebra,
    h: SubalgebraSpan,
    m: Representation,
    n: Representation,
    max_degree: int,
    pair: RelativePair | None = None,
) -> GrowthEstimate:
    """Estimate the growth rate of Ext dims and compare with dim(odd part).

    ``pair`` is passed on to ``relative_ext``.
    """
    if max_degree < 4:
        raise DimensionMismatch("growth estimation needs max_degree >= 4")
    report = relative_ext(g, h, m, n, max_degree, pair)
    dims = report.dims()
    start = math.ceil(max_degree / 2)
    rate, eventually_zero = _fit_rate(dims, start, max_degree)
    bound = len(g.odd_indices)
    return GrowthEstimate(
        label=f"Ext_({g.name},{h.label})({m.name},{n.name})",
        window=(start, max_degree),
        estimated_rate=rate,
        bound=bound,
        within_bound=rate <= bound + 0.25,
        eventually_zero=eventually_zero,
        dims=dims,
    )
