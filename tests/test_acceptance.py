"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The shared verification suites are executed once per session and reused
across criteria; the determinism criterion reruns every suite a second
time and compares JSON byte for byte.
"""

import json
import time

import pytest

from supero.algebras import build_gl, build_q, even_part_span, special_linear_span
from supero.cohomology import cohomology
from supero.invariants import invariant_dims
from supero.reps import trivial
from supero.roots import named_subalgebra
from supero.suites import SUITES, run_suite

import test_invariants as invariant_oracles


class SuiteRunner:
    def __init__(self):
        self.results: dict[str, dict] = {}
        self.timings: dict[str, float] = {}

    def get(self, name: str) -> dict:
        if name not in self.results:
            t0 = time.monotonic()
            self.results[name] = run_suite(name)
            self.timings[name] = time.monotonic() - t0
        return self.results[name]


@pytest.fixture(scope="module")
def suites() -> SuiteRunner:
    return SuiteRunner()


def record(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {number}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def failing_rows(report: dict) -> list[dict]:
    return [r for r in report["rows"] if r["status"] != "pass"]


def test_criterion_01_axioms(suites):
    report = suites.get("jacobi")
    elapsed = suites.timings["jacobi"]
    ok = report["all_pass"] and elapsed < 10.0
    record(
        1,
        "super-Jacobi and antisymmetry pass exactly for all listed families",
        ok,
        f"{len(report['rows'])} rows, {elapsed:.1f}s",
    )


def test_criterion_02_dd_zero(suites):
    report = suites.get("ddzero")
    elapsed = suites.timings["ddzero"]
    ok = report["all_pass"] and elapsed < 300.0
    record(
        2,
        "d(d(phi)) = 0 exactly on the full (g, h, M) matrix, composites p <= 4",
        ok,
        f"{len(report['rows'])} cells, {elapsed:.1f}s",
    )


def test_criterion_03_g0_vanishing(suites):
    report = suites.get("g0-vanishing")
    record(
        3,
        "h = g0, M = C: all differentials vanish and H matches the invariant ring "
        "(degrees <= 6)",
        report["all_pass"],
        str(failing_rows(report))[:120] if not report["all_pass"] else "",
    )


def test_criterion_04_gl11_table():
    # oracle first: weight-zero monomial count in two opposite-weight variables
    oracle = [sum(1 for a in range(p + 1) if 2 * a == p) for p in range(7)]
    assert oracle == [1, 0, 1, 0, 1, 0, 1]
    g = build_gl(1, 1)
    dims = cohomology(g, even_part_span(g), trivial(g), 6).dims()
    record(4, "gl(1|1) cohomology table equals 1,0,1,0,1,0,1", dims == oracle, str(dims))


def test_criterion_05_q2_hilbert():
    # the independent brute-force coadjoint-kernel oracle, run fresh
    oracle = [invariant_oracles.q2_invariant_dim_oracle(j) for j in range(7)]
    expected = [1, 1, 2, 2, 3, 3, 4]  # truncation of 1/((1-t)(1-t^2))
    table = invariant_dims(build_q(2), 6).dims
    ok = oracle == expected == table
    record(5, "q(2) invariant Hilbert table is 1,1,2,2,3,3,4", ok, f"oracle={oracle} table={table}")


def test_criterion_06_kunneth(suites):
    report = suites.get("kunneth")
    elapsed = suites.timings["kunneth"]
    rows = [r for r in report["rows"] if r["check"] == "kunneth_factorization"]
    ok = all(r["status"] == "pass" for r in rows) and elapsed < 600.0
    record(
        6,
        "Kunneth factorization holds for gl(1|1), gl(2|1), q(2) with torus, "
        "Borel(g0), generic-H Levi (n <= 4)",
        ok,
        f"{len(rows)} cells, {elapsed:.1f}s",
    )


def test_criterion_07_even_concentration(suites):
    report = suites.get("kunneth")
    rows = [r for r in report["rows"] if r["check"] == "even_concentration"]
    ok = all(r["status"] == "pass" for r in rows) and len(rows) >= 6
    # the P^1 Poincare pattern, with C = (1, 0, 1) computed by hand
    g = special_linear_span(build_gl(2, 0), 2, 0).to_algebra("sl(2)")
    dims = cohomology(g, named_subalgebra(g, "torus"), trivial(g), 2).dims()
    ok = ok and dims == [1, 0, 1]
    record(
        7,
        "odd-degree cohomology vanishes for Borel/Levi pairs of sl2, sl3, gl2+gl1; "
        "(sl2, torus) has dims 1,0,1",
        ok,
        f"sl2/torus dims {dims}",
    )


def test_criterion_08_appendix_gradings(suites):
    report = suites.get("appendix")
    record(
        8,
        "appendix torus gradings positive on all families, exact simple-root "
        "values, and stable monomial counts for 10 random targets per family",
        report["all_pass"],
        str(failing_rows(report))[:120] if not report["all_pass"] else "",
    )


def test_criterion_09_complexity_bound(suites):
    report = suites.get("growth")
    record(
        9,
        "growth rate within dim(odd part) for every tested pair at N = 8; "
        "purely even cases detected as eventually zero",
        report["all_pass"],
        str(failing_rows(report))[:120] if not report["all_pass"] else "",
    )


def test_criterion_10_determinism(suites):
    mismatches = []
    for name in sorted(SUITES):
        first = json.dumps(suites.get(name), sort_keys=True, separators=(",", ":"))
        again = json.dumps(run_suite(name), sort_keys=True, separators=(",", ":"))
        if first != again:
            mismatches.append(name)
    record(
        10,
        "repeated verify runs produce byte-identical JSON for every suite",
        not mismatches,
        f"reran {len(SUITES)} suites" if not mismatches else f"mismatch in {mismatches}",
    )
