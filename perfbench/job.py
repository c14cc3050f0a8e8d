"""One benchmark job: set up, then run one ``supero`` CLI command.

run.py starts this from the checkout root with ``src`` on PYTHONPATH:

    python3 perfbench/job.py SPEC               set up, run the CLI job
    python3 perfbench/job.py --setup-only SPEC  set up, then exit
    python3 perfbench/job.py --traced PLAN      the traced run, in-process

SPEC is JSON: {"argv": [...], "keep": [algebra names] or null,
"order": int or null}. PLAN is JSON: {"jobs": [SPEC, ...], "seconds": s,
"spans": path}.

Set-up imports supero and builds the job's inputs (algebras, subalgebra
spans, coefficient modules) with the same roster functions and parsers
the CLI calls. It then binds the prebuilt objects in their place, so
``supero.cli.main(argv)`` runs the unchanged suite or cohomology code on
them. ``keep`` restricts a suite's roster to the named algebras. ``order``
seeds a shuffle of the roster; rows are independent, so the work and each
row's bytes stay the same. The first stdout line is ``ready <t>``, with
t = time.perf_counter() at the end of set-up. On Linux that clock is
CLOCK_MONOTONIC, which the parent process shares. The CLI's output
follows, byte for byte.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

# Suite -> the roster functions it calls to build its inputs. The first
# returns the roster list; the rest take one algebra of that list.
# `invariants` and `appendix` build their few inputs inline.
ROSTERS = {
    "ddzero": ("ddzero_algebras", "ddzero_subalgebras"),
    "growth": ("growth_cells",),
    "jacobi": ("jacobi_families",),
    "g0-vanishing": ("g0_vanishing_families",),
    "kunneth": ("kunneth_cells",),
}

# A roster function or parser left unused: the program no longer builds
# its inputs where the benchmark binds them.
EXIT_UNUSED_BINDING = 5


def import_supero():
    """Import supero from this checkout's src, never from anywhere else."""
    import supero
    import supero.cli

    where = Path(supero.__file__).resolve().parent
    if where != (ROOT / "src" / "supero").resolve():
        sys.exit(f"perfbench: supero imported from {where}, not from this checkout's src")


class Bindings:
    """Module attributes replaced for one job; restored by ``restore``."""

    def __init__(self):
        self._saved = []
        self.unused: set[str] = set()

    def bind(self, module, name: str, make) -> None:
        label = f"{module.__name__}.{name}"
        self._saved.append((module, name, getattr(module, name)))
        self.unused.add(label)

        def prebuilt(*args, **kwargs):
            self.unused.discard(label)
            return make(*args, **kwargs)

        setattr(module, name, prebuilt)

    def restore(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()


def _algebra(item):
    return item[0] if isinstance(item, tuple) else item


def setup(spec: dict, bindings: Bindings) -> None:
    """Build the job's inputs and bind them where the CLI will look them up."""
    from supero import cli, suites

    argv = spec["argv"]
    if argv[0] == "verify":
        names = ROSTERS.get(argv[1], ())
        if names:
            items = getattr(suites, names[0])()
            if spec.get("keep") is not None:
                items = [x for x in items if _algebra(x).name in spec["keep"]]
            if spec.get("order") is not None:
                random.Random(spec["order"]).shuffle(items)
            bindings.bind(suites, names[0], lambda: list(items))
            for name in names[1:]:
                built = {id(g): getattr(suites, name)(g) for g in items}
                bindings.bind(suites, name, lambda g, built=built: built[id(g)])
    elif argv[0] == "coh":
        args = cli.make_parser().parse_args(argv)
        g = cli.build_family(args.family, args.params)
        h = cli.parse_subalgebra(g, args.sub, cli.parse_rationals(args.H) if args.H else None)
        m = cli.parse_module(g, args.mod)
        bindings.bind(cli, "build_family", lambda family, params: g)
        bindings.bind(cli, "parse_subalgebra", lambda parent, spec, H: h)
        bindings.bind(cli, "parse_module", lambda parent, spec: m)


def run_in_process(spec: dict) -> tuple[int, str]:
    """Set up and run one job in this process; returns (exit code, stdout)."""
    from supero import cli

    buf = io.StringIO()
    bindings = Bindings()
    try:
        setup(spec, bindings)
        with contextlib.redirect_stdout(buf):
            rc = cli.main(spec["argv"])
    except Exception:  # a crash is a failed operation, not the end of the run
        traceback.print_exc()
        rc = 1
    finally:
        bindings.restore()
    if bindings.unused and rc == 0:
        rc = EXIT_UNUSED_BINDING
    return rc, buf.getvalue()


def traced_run(plan: dict) -> dict:
    """Alternate untraced and traced in-process passes for plan["seconds"].

    Passes are reported as (start, end) perf_counter pairs.
    """
    import tracing

    tracer = tracing.Tracer()
    untraced, traced, outputs = [], [], []

    def one_pass(intervals):
        gc.collect()
        t0 = perf_counter()
        results = [run_in_process(spec) for spec in plan["jobs"]]
        intervals.append((t0, perf_counter()))
        outputs.append(results)

    start = perf_counter()
    while True:
        one_pass(untraced)
        tracer.install()
        try:
            one_pass(traced)
        finally:
            tracer.uninstall()
        if 2 * perf_counter() - start - untraced[-1][0] > plan["seconds"]:
            break
    tracer.write_spans(plan["spans"])
    return {"untraced": untraced, "traced": traced, "outputs": outputs, "trace": tracer.summary()}


def main(argv: list[str]) -> int:
    import_supero()
    if argv[0] == "--traced":
        result = traced_run(json.loads(argv[1]))
        sys.stdout.write(json.dumps(result) + "\n")
        return 0
    setup_only = argv[0] == "--setup-only"
    spec = json.loads(argv[-1])
    bindings = Bindings()
    setup(spec, bindings)
    sys.stdout.write(f"ready {perf_counter()!r}\n")
    sys.stdout.flush()
    if setup_only:
        return 0
    from supero import cli

    rc = cli.main(spec["argv"])
    sys.stdout.flush()
    if bindings.unused and rc == 0:
        sys.stderr.write(f"perfbench: prebuilt inputs never used: {sorted(bindings.unused)}\n")
        rc = EXIT_UNUSED_BINDING
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
