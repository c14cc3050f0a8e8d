"""Which definitions in ``src/supero`` a command reaches.

Runs CI's hash-seed jobs (the ``JOBS`` block of
``.github/workflows/tests.yml``) and the default-format runs in EXTRA in
one process under ``sys.setprofile``, then names every function or method
defined in ``src/supero`` that no run called and that KEEP does not list
with a reason, and every KEEP entry that some run does call. Exits 1 if
there is one, or if a run fails.

    python tests/reach.py

A call is matched to its definition by file and ``co_firstlineno``; for a
decorated def that is the line of the first decorator, not of ``def``.
"""

import ast
import contextlib
import io
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "supero"

# Runs besides CI's jobs: the default table format of each command, and
# the whole algebra as h.
EXTRA = (
    "coh gl 1 1 --sub full -N 2",
    "coh q 2 --sub g0 --mod adjoint -N 3",
    "verify jacobi",
)

# Qualified name -> why it stays although no run above calls it.  Each
# reason starts with what needs it: a CLI path, an open ROADMAP item, an
# error path, or perfbench's tracer.
KEEP = {
    "cohomology.RelativeComplex.lambda_rep": "perfbench's tracer: wraps it",
    "cohomology.RelativeComplex.monomials": "perfbench's tracer: wraps it",
    "cohomology.RelativeComplex.differential": "perfbench's tracer: wraps it",
    "cohomology.CochainSpace.basis": "perfbench's tracer: its space counter reads it",
    "cohomology.CochainSpace.dim": "perfbench's tracer: its space counter reads it",
    "linalg.SparseMatrix.nnz": "error path: SparseMatrix.__repr__ reads it",
    "linalg.SparseMatrix.row_dicts":
        "perfbench's tracer: wraps differential, whose matrix rank and kernel read by it",
    "algebras.LieSuperalgebra.from_json_dict": "open item 9: algebras read from JSON",
    "algebras._is_triple": "open item 9: from_json_dict checks bracket entries with it",
    "reps.restrict": "open items 5 and 15: a module restricted to a subalgebra",
    "cohomology.RelativeComplex._failure":
        "error path: the ConventionError of a failed equivariance or expansion check",
    "cohomology.RelativeComplex._coordinate": "error path: names the coordinate in _failure's message",
    "algebras.LieSuperalgebra.__repr__": "error path: pytest prints it when an assertion fails",
    "algebras.SubalgebraSpan.__repr__": "error path: pytest prints it when an assertion fails",
    "reps.Representation.__repr__": "error path: pytest prints it when an assertion fails",
    "linalg.SparseMatrix.__repr__": "error path: pytest prints it when an assertion fails",
}


def jobs() -> list[list[str]]:
    """CI's hash-seed jobs, argv as the shell splits each line, then EXTRA."""
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    lines = [line.strip() for line in text.split("<<'JOBS'\n", 1)[1].splitlines()]
    ci = [line.split()[1:] for line in lines[: lines.index("JOBS")]]
    return ci + [job.split() for job in EXTRA]


def definitions() -> dict[tuple[str, int], str]:
    """(file, first line) -> qualified name of every def in ``src/supero``."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    found[path, first] = name
                walk(child, path, name)

    for f in sorted(SRC.glob("*.py")):
        walk(ast.parse(f.read_text(encoding="utf-8")), str(f), f.stem)
    return found


def reached(argvs) -> tuple[set[tuple[str, int]], list[str]]:
    """The (file, first line) of every code object called, and the runs
    that did not exit 0."""
    sys.path.insert(0, str(ROOT / "src"))
    from supero.cli import main

    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    failed = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
        finally:
            sys.setprofile(None)
        if code != 0:
            failed.append(f"{' '.join(argv)}: exit {code}: {err.getvalue().strip()}")
    return {(c.co_filename, c.co_firstlineno) for c in codes}, failed


def main() -> int:
    os.chdir(ROOT)  # CI runs its jobs from the checkout, span files included
    defs = definitions()
    hit, failed = reached(jobs())
    unreached = sorted(name for key, name in defs.items() if key not in hit and name not in KEEP)
    needless = sorted(name for key, name in defs.items() if key in hit and name in KEEP)
    for line in failed:
        print(f"failed: {line}")
    for name in unreached:
        print(f"unreached: {name}")
    for name in needless:
        print(f"kept but reached: {name}")
    print(f"{len(defs)} definitions, {len(defs) - len(unreached)} reached or kept")
    return 1 if failed or unreached or needless else 0


if __name__ == "__main__":
    sys.exit(main())
