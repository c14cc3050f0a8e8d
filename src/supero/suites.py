"""Verification suites shared by the CLI and the acceptance tests.

Each suite returns a machine-readable report: a list of rows with a
pass/fail status (plus a witness on failure) and an ``all_pass`` flag.
Row order is fixed by construction, and every random choice is seeded, so
reports are byte-identical across runs.
"""

from __future__ import annotations

import random

from .algebras import (
    SCHEMA,
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
    special_linear_span,
)
from .checks import (
    appendix_torus,
    check_positive_grading,
    count_graded_monomials,
    even_concentration_check,
    kunneth_check,
    positive_even_roots,
)
from .cohomology import RelativeComplex, RelativePair
from .invariants import compare_invariants_vs_cohomology, ext_growth, invariant_dims
from .linalg import Vector
from .reps import Representation, adjoint, natural, trivial
from .roots import borel_span, generic_functional, named_subalgebra, root_decomposition


def _row(check: str, family: str, params, status: bool, witness: str | None = None) -> dict:
    out = {
        "check": check,
        "family": family,
        "params": params,
        "status": "pass" if status else "fail",
    }
    if witness is not None:
        out["witness"] = witness
    return out


def _report(suite: str, rows: list[dict]) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "verify_report",
        "suite": suite,
        "rows": rows,
        "all_pass": all(r["status"] == "pass" for r in rows),
    }


# ---------------------------------------------------------------------------
# family rosters


def jacobi_families() -> list[LieSuperalgebra]:
    out = []
    for m in range(4):
        for n in range(4):
            if (m, n) != (0, 0):
                out.append(build_gl(m, n))
    out.append(special_linear_span(build_gl(2, 1), 2, 1).to_algebra("sl(2|1)"))
    for n in (1, 2, 3):
        out.append(build_q(n))
    out.append(build_p_tilde(2))
    out.append(build_osp(1, 2))
    out.append(build_osp(2, 2))
    out.append(build_osp(3, 2))
    return out


def ddzero_algebras() -> list[LieSuperalgebra]:
    return [
        build_gl(1, 1),
        build_gl(1, 2),
        build_gl(2, 1),
        build_gl(2, 2),
        build_q(2),
        build_q(3),
        build_p_tilde(2),
        build_p_tilde(3),
        build_osp(1, 2),
        build_osp(2, 2),
        build_osp(3, 2),
    ]


def seeded_levi_functional(g: LieSuperalgebra) -> Vector:
    """Deterministic 'random' functional with repeated values, so the levi
    is usually strictly between the torus and the whole algebra."""
    rng = random.Random(f"levi-{g.name}")
    return tuple(rng.choice((0, 1)) for _ in g.torus)


def ddzero_subalgebras(g: LieSuperalgebra) -> list[tuple[str, SubalgebraSpan]]:
    return [
        ("g0", named_subalgebra(g, "g0")),
        ("torus", named_subalgebra(g, "torus")),
        ("levi", named_subalgebra(g, "levi", H=seeded_levi_functional(g))),
        ("borel", named_subalgebra(g, "borel")),
    ]


def coefficient_modules(g: LieSuperalgebra) -> list[Representation]:
    return [trivial(g), natural(g), adjoint(g)]


# ---------------------------------------------------------------------------
# suites


def suite_jacobi() -> dict:
    rows = []
    for g in jacobi_families():
        ok_a, wa = check_super_antisymmetry(g)
        rows.append(_row("super_antisymmetry", g.name, {}, ok_a, str(wa) if wa else None))
        ok_j, wj = check_super_jacobi(g)
        rows.append(_row("super_jacobi", g.name, {}, ok_j, str(wj) if wj else None))
        ok_p, wp = check_parity_consistency(g)
        rows.append(_row("parity_consistency", g.name, {}, ok_p, str(wp) if wp else None))
    return _report("jacobi", rows)


def suite_ddzero() -> dict:
    """d(d(phi)) = 0 for every cochain basis vector, composites p <= 4."""
    rows = []
    for g in ddzero_algebras():
        for hname, h in ddzero_subalgebras(g):
            pair = RelativePair(g, h)  # shared by the three coefficient modules
            for mod in coefficient_modules(g):
                cx = RelativeComplex(pair, mod)
                bad = next((p for p in range(5) if not cx.ddzero(p)), None)
                witness = None
                if bad is not None:
                    sector, k, (v, monomial), value = cx.ddzero_witness(bad)
                    witness = (
                        f"p={bad} sector={sector} basis={k} coordinate=({v}, {monomial}) "
                        f"value={value}"
                    )
                rows.append(
                    _row(
                        "dd_zero",
                        g.name,
                        {"h": hname, "coefficients": mod.name},
                        bad is None,
                        witness,
                    )
                )
    return _report("ddzero", rows)


def g0_vanishing_families() -> list[LieSuperalgebra]:
    return [build_gl(1, 1), build_gl(2, 1), build_q(2), build_p_tilde(2), build_osp(1, 2)]


def suite_g0_vanishing() -> dict:
    """With h = g0 and trivial coefficients every differential is zero and
    cohomology equals the independently computed invariant dimensions."""
    max_degree = 6
    rows = []
    for g in g0_vanishing_families():
        cx = RelativeComplex(RelativePair(g, even_part_span(g)), trivial(g))
        report = cx.report(max_degree)
        # a rank is 0 exactly when its block of d is zero
        zero = report.all_differentials_zero
        rows.append(_row("differentials_vanish", g.name, {"N": max_degree}, zero))
        table = invariant_dims(g, max_degree)
        ok = report.dims() == table.dims
        rows.append(
            _row(
                "cohomology_equals_invariants",
                g.name,
                {"N": max_degree},
                ok,
                None if ok else f"{report.dims()} != {table.dims}",
            )
        )
    return _report("g0-vanishing", rows)


def suite_invariants() -> dict:
    rows = []
    families = [
        build_gl(1, 1),
        build_gl(1, 2),
        build_gl(2, 1),
        build_q(2),
        build_p_tilde(2),
        build_osp(1, 2),
        build_osp(2, 2),
    ]
    for g in families:
        _, ok = compare_invariants_vs_cohomology(g, 4)
        rows.append(_row("invariants_vs_cohomology", g.name, {"N": 4}, ok))
    for g, expected in (
        (build_q(2), [1, 1, 2, 2, 3, 3, 4]),
        (build_gl(1, 1), [1, 0, 1, 0, 1, 0, 1]),
    ):
        table = invariant_dims(g, 6)
        row = _row(
            "hilbert_series",
            g.name,
            {"N": 6},
            table.dims == expected,
            None if table.dims == expected else str(table.dims),
        )
        row["table"] = table.to_json_dict()
        rows.append(row)
    return _report("invariants", rows)


def kunneth_cells() -> list[tuple[LieSuperalgebra, str, SubalgebraSpan]]:
    cells = []
    for g in (build_gl(1, 1), build_gl(2, 1), build_q(2)):
        h0 = even_part_span(g)
        g0_alg = h0.to_algebra(f"{g.name}_0")
        even_idx = g.even_indices
        rd0 = root_decomposition(g0_alg)

        def lift(span: SubalgebraSpan, label: str) -> SubalgebraSpan:
            vectors = []
            for vec in span.vectors:
                out = [0] * g.dim
                for j, c in enumerate(vec):
                    out[even_idx[j]] = c
                vectors.append(tuple(out))
            return SubalgebraSpan(g, vectors, label)

        cells.append((g, "torus", named_subalgebra(g, "torus")))
        cells.append((g, "borel(g0)", lift(borel_span(g0_alg, rd0), "borel(g0)")))
        cells.append(
            (g, "levi(g0,generic)", lift(
                named_subalgebra(g0_alg, "levi", H=generic_functional(rd0)),
                "levi(g0,generic)",
            ))
        )
    return cells


def suite_kunneth() -> dict:
    max_degree = 4
    rows = []
    for g, aname, a in kunneth_cells():
        table, ok = kunneth_check(g, a, max_degree)
        witness = None if ok else str([r for r in table if r["status"] == "fail"][0])
        rows.append(_row("kunneth_factorization", g.name, {"a": aname, "N": max_degree}, ok, witness))
    # even-degree concentration on the purely even side; the levi functionals
    # are chosen to annihilate a simple root where the rank allows it
    even_cases = [
        ("sl(2)", special_linear_span(build_gl(2, 0), 2, 0).to_algebra("sl(2)"), (0,)),
        ("sl(3)", special_linear_span(build_gl(3, 0), 3, 0).to_algebra("sl(3)"), (1, 2)),
        ("gl(2)+gl(1)", even_part_span(build_gl(2, 1)).to_algebra("gl(2)+gl(1)"), (1, 1, 0)),
    ]
    for name, g0, levi_H in even_cases:
        for sub, a in (
            ("borel", named_subalgebra(g0, "borel")),
            ("levi", named_subalgebra(g0, "levi", H=levi_H)),
        ):
            _, ok = even_concentration_check(g0, a, 4)
            rows.append(_row("even_concentration", name, {"a": sub, "N": 4}, ok))
    return _report("kunneth", rows)


APPENDIX_FAMILIES: list[tuple[str, tuple]] = (
    [("gl", (m, n)) for m in (1, 2, 3) for n in (1, 2, 3)]
    + [("q", (n,)) for n in (1, 2, 3)]
    + [("p_tilde", (2,))]
    + [("osp_odd", (1,)), ("osp_odd", (2,)), ("osp_even", (2,))]
    + [("d21a", ()), ("g3", ()), ("f4", ())]
)


def suite_appendix() -> dict:
    random_targets = 10
    rows = []
    for family, params in APPENDIX_FAMILIES:
        gt = appendix_torus(family, params)
        roots = positive_even_roots(family, params)
        ok, witness = check_positive_grading(gt, roots)
        rows.append(
            _row("positive_grading", gt.label, {"family": family, "params": list(params)}, ok,
                 str(witness) if witness else None)
        )
        if not roots:
            continue
        rng = random.Random(f"appendix-{family}-{params}")
        stable_ok = True
        stable_witness = None
        for _ in range(random_targets):
            if gt.rank == 1:
                target = (rng.randint(0, 10),)
            else:
                target = (rng.randint(0, 5), rng.randint(0, 5))
            count, cert = count_graded_monomials(gt, roots, target, 12)
            again, cert2 = count_graded_monomials(gt, roots, target, cert.degree_bound + 3)
            if not (cert.stable and cert2.stable and count == again):
                stable_ok = False
                stable_witness = f"target={tuple(map(str, target))}"
                break
        rows.append(
            _row("monomial_count_stability", gt.label, {"targets": random_targets}, stable_ok,
                 stable_witness)
        )
    # exact values called out explicitly
    gt33 = appendix_torus("gl", (3, 3))
    simple_ok = all(
        gt33.pair(tuple(1 if k == i else -1 if k == i + 1 else 0 for k in range(6))) == (2,)
        for i in (0, 1, 3, 4)
    )
    rows.append(_row("gl(n|n)_simple_root_value_2", "gl(3|3)", {}, simple_ok))
    gt_osp = appendix_torus("osp_odd", (2,))
    vals = tuple(
        gt_osp.pair(w) for w in ((1, -1, 0, 0), (0, 0, 1, -1), (0, 1, 0, 0), (0, 0, 0, 2))
    )
    osp_ok = vals == ((1,), (1,), (1,), (2,))
    rows.append(
        _row(
            "osp_simple_root_pattern",
            "osp(5|4)",
            {},
            osp_ok,
            None if osp_ok else str(vals),
        )
    )
    return _report("appendix", rows)


def growth_cells() -> list[tuple[LieSuperalgebra, str, SubalgebraSpan, str]]:
    cells = []
    supers = [
        build_gl(1, 1),
        build_gl(1, 2),
        build_gl(2, 1),
        build_q(2),
        build_p_tilde(2),
        build_osp(1, 2),
        build_osp(2, 2),
        build_osp(3, 2),
    ]
    for g in supers:
        cells.append((g, "g0", even_part_span(g), "super"))
        cells.append(
            (g, "levi", named_subalgebra(g, "levi", H=seeded_levi_functional(g)), "super")
        )
    evens = [
        special_linear_span(build_gl(2, 0), 2, 0).to_algebra("sl(2)"),
        even_part_span(build_gl(2, 1)).to_algebra("gl(2)+gl(1)"),
    ]
    for g0 in evens:
        cells.append((g0, "g0", even_part_span(g0), "even"))
        cells.append((g0, "borel", named_subalgebra(g0, "borel"), "even"))
    return cells


def suite_growth(max_degree: int = 8) -> dict:
    rows = []
    for g, hname, h, kind in growth_cells():
        pair = RelativePair(g, h)  # shared by the trivial and natural coefficients
        for label in ("trivial", "natural"):
            if label == "natural":
                if g.matrix_model is None:
                    continue
                mod = natural(g)
            else:
                mod = trivial(g)
            est = ext_growth(g, h, mod, mod, max_degree, pair)
            ok = est.within_bound
            witness = None
            if kind == "even":
                ok = ok and est.eventually_zero
                if not est.eventually_zero:
                    witness = f"dims={est.dims}"
            if not est.within_bound:
                witness = f"rate={est.estimated_rate:.3f} > bound={est.bound}"
            row = _row(
                "complexity_bound",
                g.name,
                {"h": hname, "coefficients": label, "N": max_degree},
                ok,
                witness,
            )
            row["estimate"] = est.to_json_dict()  # raw dims and window, for re-fitting
            rows.append(row)
    return _report("growth", rows)


SUITES = {
    "jacobi": suite_jacobi,
    "ddzero": suite_ddzero,
    "g0-vanishing": suite_g0_vanishing,
    "invariants": suite_invariants,
    "kunneth": suite_kunneth,
    "appendix": suite_appendix,
    "growth": suite_growth,
}


def run_suite(name: str) -> dict:
    return SUITES[name]()
