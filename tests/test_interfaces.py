"""Cross-module invariants and serialization surfaces."""

import ast
import json
import pathlib
import types
from fractions import Fraction

import pytest

import supero
from supero.algebras import build_gl, build_q, special_linear_span
from supero.checks import abstract_root_data
from supero.cli import main
from supero.cohomology import RelativeComplex, RelativePair
from supero.errors import UnsupportedRank
from supero.reps import trivial
from supero.roots import named_subalgebra, principal_parabolic, root_decomposition

F = Fraction


def test_euler_characteristic_purely_even_finite_complex():
    # quotient is finite-dimensional and purely even, so the complex stops;
    # the alternating sums of cochain and cohomology dims must agree
    for g, spec, stop in (
        (special_linear_span(build_gl(2, 0), 2, 0).to_algebra("sl(2)"), "torus", 3),
        (special_linear_span(build_gl(3, 0), 3, 0).to_algebra("sl(3)"), "borel", 4),
    ):
        cx = RelativeComplex(RelativePair(g, named_subalgebra(g, spec)), trivial(g))
        assert cx.space(stop).dim == 0  # window really is finite
        rep = cx.report(stop)
        euler_c = sum((-1) ** p * (r.dim_cochains_even + r.dim_cochains_odd)
                      for p, r in enumerate(rep.rows))
        euler_h = sum((-1) ** p * r.dim_cohomology for p, r in enumerate(rep.rows))
        assert euler_c == euler_h


def test_root_datum_json_rationals():
    rd = root_decomposition(build_gl(1, 1))
    doc = rd.to_json_dict()
    assert doc["kind"] == "root_datum"
    flat = json.dumps(doc)
    assert "." not in flat.replace("superO/1", "")  # no floats anywhere
    weights = {tuple(tuple(c) for c in r["weight"]) for r in doc["roots"]}
    assert ((1, 1), (-1, 1)) in weights


def test_parabolic_decomposition_json():
    rd = root_decomposition(build_q(2))
    dec = principal_parabolic(rd, (F(1), F(0)))
    doc = dec.to_json_dict()
    assert doc["dim_n_plus"] == 2  # one even + one odd root vector
    assert doc["dim_levi"] == 4
    assert doc["H"] == [[1, 1], [0, 1]]


def test_abstract_root_data_bundles():
    for family, n_roots in (("d21a", 3), ("g3", 7), ("f4", 10)):
        data = abstract_root_data(family)
        assert len(data.positive_even_roots) == n_roots
        doc = data.to_json_dict()
        assert doc["schema"] == "superO/1"
        assert doc["torus"]["rank"] == 2
    with pytest.raises(UnsupportedRank):
        abstract_root_data("gl")


def test_cli_verify_exit_3_on_failure(capsys, monkeypatch):
    import supero.cli as cli

    def fake_run_suite(name):
        return {
            "schema": "superO/1",
            "kind": "verify_report",
            "suite": name,
            "rows": [{"check": "x", "family": "y", "params": {}, "status": "fail"}],
            "all_pass": False,
        }

    monkeypatch.setattr(cli, "run_suite", fake_run_suite)
    code = cli.main(["verify", "jacobi"])
    assert code == 3


def test_cli_coh_json_byte_identical(capsys):
    argv = ["coh", "q", "2", "--sub", "torus", "--mod", "natural", "-N", "3",
            "--format", "json"]
    assert main(list(argv)) == 0
    out1 = capsys.readouterr().out
    assert main(list(argv)) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema"] == "superO/1"


def test_growth_rows_carry_raw_dims():
    from supero.suites import run_suite

    report = run_suite("growth")
    row = report["rows"][0]
    assert "estimate" in row
    assert isinstance(row["estimate"]["dims"], list)
    assert row["estimate"]["window"][1] == 8


def test_cohomology_module_is_not_shadowed_by_its_function():
    import supero.cohomology as engine

    assert isinstance(engine, types.ModuleType)
    assert callable(engine.cohomology)
    assert engine.cohomology.__module__ == "supero.cohomology"


def test_every_public_name_in_src_is_called_in_src_or_exported():
    # a module-level function or class that only tests reach is a second
    # spelling of something: delete it, or export it from supero as API
    trees = {f.name: ast.parse(f.read_text(encoding="utf-8"))
             for f in pathlib.Path(supero.__file__).parent.glob("*.py")}
    exported = {alias.asname or alias.name for node in trees.pop("__init__.py").body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = {node.id if isinstance(node, ast.Name) else node.asname or node.name
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.alias))}
    unused = sorted(f"{module}:{node.name}" for module, tree in trees.items() for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in used | exported)
    assert unused == []
