"""Cross-module invariants and serialization surfaces."""

import ast
import importlib
import inspect
import json
import os
import pathlib
import subprocess
import sys
import types
from fractions import Fraction

import supero
from supero.algebras import build_gl, build_q, special_linear_span
from supero.checks import appendix_torus, positive_even_roots
from supero.cli import main
from supero.cohomology import RelativeComplex, RelativePair
from supero.reps import adjoint, trivial
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
    # root weights are exact rationals, no floats anywhere
    rd = root_decomposition(build_gl(1, 1))
    assert {type(c) for r in rd.roots for c in r.weight} <= {int, Fraction}
    assert (1, -1) in {r.weight for r in rd.roots}


def test_parabolic_decomposition_json():
    rd = root_decomposition(build_q(2))
    dec = principal_parabolic(rd, (F(1), F(0)))
    assert dec.n_plus.dim == 2  # one even + one odd root vector
    assert dec.levi.dim == 4
    assert dec.functional == (1, 0)


def test_abstract_root_data_bundles():
    # D(2,1;a), G(3), F(4): roots and a rank-2 torus on simple-root coordinates
    for family, n_roots in (("d21a", 3), ("g3", 7), ("f4", 10)):
        assert len(positive_even_roots(family)) == n_roots
        assert appendix_torus(family).rank == 2


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


# Public names that nothing in src/ calls, kept as library API: name -> why
LIBRARY_ONLY = {
    "reps.py:restrict": "open items 5 and 15 restrict modules to a subalgebra",
}


def test_every_public_name_in_src_is_called_in_src():
    # a module-level function or class that only tests reach is a second
    # spelling of something: delete it, or name it in LIBRARY_ONLY.  Any
    # name read in src/ counts as a use, a local variable of the same name
    # too, so ``python tests/reach.py`` checks the calls themselves
    trees = {f.name: ast.parse(f.read_text(encoding="utf-8"))
             for f in pathlib.Path(supero.__file__).parent.glob("*.py")
             if f.name != "__init__.py"}
    used = {node.id if isinstance(node, ast.Name) else node.asname or node.name
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.alias))}
    unused = sorted(f"{module}:{node.name}" for module, tree in trees.items() for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in used)
    assert unused == sorted(LIBRARY_ONLY)


def test_every_reach_keep_entry_names_a_definition():
    # tests/reach.py excuses unreached definitions by qualified name; without
    # this check a rename in supero would leave an entry that excuses nothing
    import reach

    defined = set(reach.definitions().values())
    assert sorted(set(reach.KEEP) - defined) == []
    kinds = ("CLI path: ", "open item", "error path: ", "perfbench's tracer: ")
    assert [name for name, why in reach.KEEP.items() if not why.startswith(kinds)] == []


def test_every_module_level_import_in_src_is_read_in_its_module():
    # a name imported and never read is a leftover of a deleted use;
    # ``__init__`` imports to re-export, and ``__future__`` sets behaviour
    unread = []
    for f in sorted(pathlib.Path(supero.__file__).parent.glob("*.py")):
        if f.name == "__init__.py":
            continue
        tree = ast.parse(f.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                unread += [f"{f.name}:{name}" for alias in node.names
                           if (name := alias.asname or alias.name.partition(".")[0]) not in read]
    assert unread == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every CLI process pays for its imports: compare the modules a clean
    # interpreter holds before and after ``import supero.cli``
    src = pathlib.Path(supero.__file__).parent.parent
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(src)
    code = ("import sys; before = set(sys.modules); import supero.cli; "
            "print(*sorted(set(sys.modules) - before))")
    added = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True).stdout.split()
    assert "supero.cli" in added
    assert [name for name in added if name in ("dataclasses", "inspect")] == []


def test_perfbench_tracer_finds_what_it_wraps(monkeypatch):
    # perfbench/tracing.py looks its methods up with vars(cls)[name] and reads
    # apply_differential's fourth positional argument as the cochain; without
    # this check a rename in supero would only surface in a traced run
    root = pathlib.Path(supero.__file__).parents[2]
    tree = ast.parse((root / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    methods = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "METHODS")
    for layer, classes in methods.items():
        module = importlib.import_module(f"supero.{layer}")
        for cls_name, names in classes.items():
            cls = vars(module)[cls_name]
            for name in names:
                assert callable(vars(cls).get(name)), f"{layer}.{cls_name}.{name}"
    apply = RelativeComplex.apply_differential
    assert list(inspect.signature(apply).parameters)[:4] == ["self", "p", "sector", "phi"]
    calls = []

    def spy(self, *args, **kwargs):
        calls.append((args, kwargs))
        return apply(self, *args, **kwargs)

    monkeypatch.setattr(RelativeComplex, "apply_differential", spy)
    g = build_gl(2, 1)
    cx = RelativeComplex(RelativePair(g, named_subalgebra(g, "g0")), adjoint(g))
    cx.report(3)
    from_report = len(calls)
    assert cx.ddzero(1)
    assert calls
    for args, kwargs in calls:
        assert kwargs == {} and len(args) == 3
    # report applies d to basis numerators; ddzero also to packed images,
    # cochains on the flat coordinates of their degree
    for args, _ in calls[:from_report]:
        p, sector, phi = args
        assert any(phi is num for num in cx.space(p).numerators[sector])
    assert len(calls) > from_report
    for args, _ in calls[from_report:]:
        p, sector, phi = args
        coords = len(cx.pair.degree(p).monomials) * cx.m.dim
        assert all(type(x) is int and 0 <= x < coords for x in phi)
