#!/usr/bin/env python3
"""The supero benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload ddzero --seed 1 --seconds 24 --trace 0

Run from anywhere; it works on the checkout that holds this file, whose
``src/`` it puts first on the jobs' PYTHONPATH. With ``--trace 0`` each pass
runs the workload's jobs one after another, each in a fresh process. Passes
repeat while the next one fits in ``--seconds``. The run reports the median
over passes of wall_s, cpu_s and peak_rss_mb, and the median set-up time
over passes and extra set-up-only probes. Times are scaled to a reference
core speed measured on the jobs' CPU while they run (see SpeedProbe). With ``--trace 1`` one process
runs the jobs in-process, alternating untraced and traced passes, and
reports per-layer self-time shares and counts (see tracing.py).

Every operation (a suite row, or a ``coh`` job) is checked against the
sha256 digests in golden.json, recorded from the plain CLI at the seed
commit. ``--seed`` shuffles job order and roster order; inputs are
unchanged, so the digests hold for every seed. ``--smoke`` runs tiny
versions of the workloads to test the benchmark itself.

The last stdout line is one JSON object: correct, attempted, failed and
metrics. The line before it holds the run's metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path
from time import perf_counter, thread_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
JOB = HERE / "job.py"
GOLDEN = HERE / "golden.json"
OUT = ROOT / ".perfbench-out"

# Set-up-only passes per run, besides the one discarded warm-up and the
# set-up of every measured pass.
SETUP_PROBES = 5
# SpeedProbe: sampling period, and the reference loop's CPU seconds on an
# uncontended core of the machine this was tuned on (2-vCPU Xeon VM,
# CPython 3.11), where it measured 0.72-0.81 ms.
PROBE_INTERVAL_S = 0.025
PROBE_REF_S = 0.00075

# The ddzero suite without q(3) and p~(3): 108 of its 132 cells, 9 of 11
# algebras with all four subalgebras and all three modules. The full suite
# takes about 50 s, longer than one run may last; q(3) with the torus and
# adjoint coefficients alone takes about 24 s.
DDZERO_SLICE = (
    "gl(1|1)", "gl(1|2)", "gl(2|1)", "gl(2|2)", "q(2)", "p~(2)",
    "osp(1|2)", "osp(2|2)", "osp(3|2)",
)
SMALL_SUITES = ("jacobi", "g0-vanishing", "kunneth", "invariants", "appendix")


def verify(suite: str, keep=None) -> dict:
    return {"argv": ["verify", suite, "--format", "json"], "keep": keep and list(keep)}


def coh(*args: str) -> dict:
    return {"argv": ["coh", *args, "--format", "json"]}


WORKLOADS = {
    "ddzero": [verify("ddzero", DDZERO_SLICE)],
    "growth": [verify("growth")],
    "coh-stress": [
        coh("q", "3", "--sub", "g0", "--mod", "adjoint", "-N", "4"),
        coh("gl", "2", "2", "--sub", "g0", "--mod", "trivial", "-N", "6"),
    ],
    "small-suites": [verify(s) for s in SMALL_SUITES],
}

SMOKE = {
    "ddzero": [verify("ddzero", ("gl(1|1)", "osp(1|2)"))],
    "growth": [verify("growth", ("gl(1|1)",))],
    "coh-stress": [
        coh("q", "2", "--sub", "g0", "--mod", "adjoint", "-N", "3"),
        coh("gl", "1", "1", "--sub", "g0", "--mod", "trivial", "-N", "4"),
    ],
    "small-suites": [verify("jacobi"), verify("appendix")],
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    """This checkout's src first, hashing fixed, no supero settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "SUPERO_"))}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", PYTHONNOUSERSITE="1")
    return env


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dumps(obj) -> str:
    """The CLI's JSON serialisation."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def row_key(row: dict) -> str:
    return dumps([row["check"], row["family"], row["params"]])


def job_key(spec: dict) -> str:
    return " ".join(spec["argv"])


def plan(workload: str, seed: int, smoke: bool) -> list[dict]:
    """The workload's jobs in the seed's order, each with a roster-order seed."""
    rng = random.Random(seed)
    jobs = [dict(spec) for spec in (SMOKE if smoke else WORKLOADS)[workload]]
    rng.shuffle(jobs)
    for spec in jobs:
        spec["order"] = rng.randrange(2**32)
    return jobs


def check(spec: dict, rc: int, out: bytes, golden: dict) -> tuple[int, int]:
    """(attempted, failed) operations of one job, against the golden digests."""
    if spec["argv"][0] == "coh":
        return 1, int(rc != 0 or sha256(out) != golden["coh"].get(job_key(spec)))
    keep = spec.get("keep")
    expected = {
        k: d for k, d in golden["verify"][spec["argv"][1]].items()
        if keep is None or json.loads(k)[1] in keep
    }
    try:
        rows = json.loads(out)["rows"]
    except (ValueError, KeyError, TypeError):
        return len(expected), len(expected)
    got = {row_key(r): (sha256(dumps(r).encode()), r.get("status")) for r in rows}
    failed = sum(got.get(k) != (d, "pass") for k, d in expected.items())
    failed += len(rows) - len(set(got) & set(expected))  # extra or repeated rows
    if rc != 0 and failed == 0:
        failed = 1
    return len(expected), failed


def reference_loop() -> None:
    """Fixed Fraction and dict work, the same kind of work supero does."""
    acc: dict[int, Fraction] = {}
    for i in range(1, 300):
        k = i % 13
        acc[k] = acc.get(k, Fraction(0)) + Fraction(i, k + 1)


class SpeedProbe(threading.Thread):
    """Times reference_loop every PROBE_INTERVAL_S on the CPU the jobs run on.

    On a shared host one core runs the same code up to twice as slowly for
    seconds at a time, as other tenants' work comes and goes; the CPU time of
    the job grows with it. The probe wakes, preempts the job for about a
    millisecond, and records speed = PROBE_REF_S / loop CPU seconds. Times
    scaled by the mean speed over a job's interval read as seconds on a core
    where the loop takes PROBE_REF_S.
    """

    def __init__(self, cpu: int):
        super().__init__(daemon=True)
        self.cpu = cpu
        self.samples: list[tuple[float, float]] = []  # (perf_counter, speed)
        self.done = threading.Event()

    def run(self) -> None:
        os.sched_setaffinity(0, {self.cpu})  # this thread only
        while not self.done.wait(PROBE_INTERVAL_S):
            t0 = thread_time()
            reference_loop()
            self.samples.append((perf_counter(), PROBE_REF_S / (thread_time() - t0)))

    def speed(self, t0: float, t1: float) -> float:
        inside = [v for t, v in self.samples if t0 <= t <= t1]
        if inside:
            return statistics.fmean(inside)
        return min(self.samples, key=lambda s: abs(s[0] - t1))[1] if self.samples else 1.0


def pin(pid: int, cpu: int) -> None:
    try:
        os.sched_setaffinity(pid, {cpu})
    except ProcessLookupError:  # already exited; wait4 still reaps it
        pass


class Job:
    """One finished child process, pinned to the probe's CPU."""

    def __init__(self, spec: dict, probe: SpeedProbe, setup_only: bool = False):
        cmd = [sys.executable, str(JOB)] + (["--setup-only"] if setup_only else []) + [json.dumps(spec)]
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
        pin(proc.pid, probe.cpu)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = perf_counter()
        self.rc = proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024  # Linux reports KiB
        first, _, self.out = out.partition(b"\n")
        self.ready_seen = first.startswith(b"ready ")
        ready = float(first.split()[1]) if self.ready_seen else t1
        speed = probe.speed(t0, t1)
        self.raw = {"wall_s": t1 - t0, "cpu_s": usage.ru_utime + usage.ru_stime, "setup_s": ready - t0}
        self.scaled = {"wall_s": (t1 - t0) * speed, "cpu_s": self.raw["cpu_s"] * speed,
                       "setup_s": (ready - t0) * probe.speed(t0, ready)}


def measure(jobs: list[dict], seconds: float, golden: dict) -> tuple[dict, dict, int, int, list[str]]:
    """Samples per pass: times scaled to the reference speed, and raw."""
    start = perf_counter()
    probe = SpeedProbe(max(os.sched_getaffinity(0)))
    probe.start()
    notes = []
    scaled = {k: [] for k in END_TO_END_UNITS}
    raw = {k: [] for k in END_TO_END_UNITS if k != "peak_rss_mb"}

    def record(done: list[Job], keys) -> None:
        for k in keys:
            scaled[k].append(sum(j.scaled[k] for j in done))
            raw[k].append(sum(j.raw[k] for j in done))

    try:
        for spec in jobs:  # warm-up, not measured: bytecode and file caches
            Job(spec, probe, setup_only=True)
        for _ in range(SETUP_PROBES):
            done = [Job(spec, probe, setup_only=True) for spec in jobs]
            if any(j.rc != 0 or not j.ready_seen for j in done):
                notes.append("a set-up probe failed")
            record(done, ["setup_s"])
        attempted = failed = 0
        while True:
            done = [Job(spec, probe) for spec in jobs]
            if not all(j.ready_seen for j in done):
                notes.append("a job did not finish set-up")
            for spec, job in zip(jobs, done):
                a, f = check(spec, job.rc, job.out, golden)
                attempted += a
                failed += f
            record(done, raw)
            scaled["peak_rss_mb"].append(max(j.rss_mb for j in done))
            if perf_counter() - start + statistics.median(raw["wall_s"]) > seconds:
                break
    finally:
        probe.done.set()
        probe.join()
    if notes:
        failed = max(failed, 1)
    return scaled, raw, attempted, failed, notes


# Per-layer metrics: name -> the spans whose self time and calls it sums.
FUNCTIONS = {
    "cohomology.apply_differential": ["cohomology.RelativeComplex.apply_differential"],
    "cohomology.ddzero": ["cohomology.RelativeComplex.ddzero"],
    "cohomology.report": ["cohomology.RelativeComplex.report"],
    "cohomology.space": ["cohomology.RelativeComplex.space"],
    "cohomology.RelativeComplex.init": ["cohomology.RelativeComplex.__init__"],
    "reps.super_exterior_power": ["reps.super_exterior_power"],
    "reps.super_symmetric_power": ["reps.super_symmetric_power"],
    "reps.tensor": ["reps.tensor"],
    "reps.dual": ["reps.dual"],
    "linalg.kernel_basis_with_free": ["linalg.kernel_basis_with_free"],
    "linalg.kernel_basis": ["linalg.kernel_basis"],
    "linalg.rank": ["linalg.rank"],
    "linalg.SpanSolver.reduce": ["linalg.SpanSolver.reduce"],
    "algebras.build": ["algebras.build_gl", "algebras.build_q", "algebras.build_p_tilde", "algebras.build_osp"],
    "algebras.check_super_jacobi": ["algebras.check_super_jacobi"],
    "algebras.closure_witness": ["algebras.SubalgebraSpan.closure_witness"],
    "algebras.to_algebra": ["algebras.SubalgebraSpan.to_algebra"],
    "algebras.quotient_action": ["algebras.quotient_action"],
    "roots.named_subalgebra": ["roots.named_subalgebra"],
    "roots.root_decomposition": ["roots.root_decomposition"],
    "invariants.invariant_subspace_dim": ["invariants.invariant_subspace_dim"],
    "invariants.ext_growth": ["invariants.ext_growth"],
    "checks.count_graded_monomials": ["checks.count_graded_monomials"],
    "checks.kunneth_check": ["checks.kunneth_check"],
    "suites.jacobi": ["suites.suite_jacobi"],
    "suites.ddzero": ["suites.suite_ddzero"],
    "suites.g0-vanishing": ["suites.suite_g0_vanishing"],
    "suites.invariants": ["suites.suite_invariants"],
    "suites.kunneth": ["suites.suite_kunneth"],
    "suites.appendix": ["suites.suite_appendix"],
    "suites.growth": ["suites.suite_growth"],
    "cli.main": ["cli.main"],
}
# name -> (span, count key); sums per traced pass
COUNTS = {
    "cohomology.apply_differential.terms_in": ("cohomology.RelativeComplex.apply_differential", "terms_in"),
    "cohomology.apply_differential.terms_out": ("cohomology.RelativeComplex.apply_differential", "terms_out"),
    "cohomology.space.dim": ("cohomology.RelativeComplex.space", "dim"),
    "cohomology.space.coords": ("cohomology.RelativeComplex.space", "coords"),
    "reps.super_exterior_power.out_dim": ("reps.super_exterior_power", "out_dim"),
    "reps.super_exterior_power.action_nnz": ("reps.super_exterior_power", "action_nnz"),
    "linalg.kernel_basis_with_free.rows": ("linalg.kernel_basis_with_free", "rows"),
    "linalg.kernel_basis_with_free.cols": ("linalg.kernel_basis_with_free", "cols"),
    "linalg.kernel_basis_with_free.nnz": ("linalg.kernel_basis_with_free", "nnz"),
    "linalg.rank.nnz": ("linalg.rank", "nnz"),
}
LAYERS = ("algebras", "roots", "reps", "linalg", "cohomology", "invariants", "checks", "suites", "cli")


def per_layer(result: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, and its report lines."""
    trace = result["trace"]
    passes = len(result["traced"])
    wall = statistics.median(result["traced_scaled"])
    untraced = statistics.median(result["untraced_scaled"])
    total = sum(result["traced"])
    self_s, calls, counts = trace["self_s"], trace["calls"], trace["counts"]
    metrics = {
        "trace.wall_s": (wall, "s"),
        "trace.overhead_frac": (wall / untraced - 1, "frac"),
    }
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_frac"] = (
            sum(v for k, v in self_s.items() if k.startswith(layer + ".")) / total, "frac")
    for name, spans in FUNCTIONS.items():
        metrics[f"{name}.self_frac"] = (sum(self_s.get(s, 0.0) for s in spans) / total, "frac")
        metrics[f"{name}.calls"] = (sum(calls.get(s, 0) for s in spans) / passes, "count")
    for name, (span, key) in COUNTS.items():
        metrics[name] = (counts.get(span, {}).get(key, 0) / passes, "count")
    space = counts.get("cohomology.RelativeComplex.space", {})
    kernel = counts.get("linalg.kernel_basis_with_free", {})
    metrics["cohomology.space.useful_frac"] = (space.get("dim", 0) / max(space.get("coords", 0), 1), "frac")
    metrics["cohomology.space.max_coeff_bits"] = (space.get("max_coeff_bits", 0), "bits")
    metrics["linalg.kernel_basis_with_free.nullity_frac"] = (
        kernel.get("nullity", 0) / max(kernel.get("cols", 0), 1), "frac")

    lines = [f"traced passes {passes}: traced {wall:.3f} s, untraced {untraced:.3f} s "
             f"(medians, reference-core seconds); {trace['spans']} spans"]
    lines.append(f"{'layer':<12}{'raw s/pass':>12}{'share':>8}")
    for layer in LAYERS:
        share = metrics[f"layer.{layer}.self_frac"][0]
        lines.append(f"{layer:<12}{share * total / passes:>12.3f}{share:>8.1%}")
    outside = total - sum(self_s.values()) - trace["counting_s"]
    lines.append(f"{'(harness)':<12}{outside / passes:>12.3f}{outside / total:>8.1%}")
    lines.append(f"{'(counting)':<12}{trace['counting_s'] / passes:>12.3f}{trace['counting_s'] / total:>8.1%}")
    lines.append(f"{'span':<52}{'raw s/pass':>12}{'share':>8}{'calls/pass':>12}")
    for span, secs in sorted(self_s.items(), key=lambda kv: -kv[1])[:25]:
        lines.append(f"{span:<52}{secs / passes:>12.3f}{secs / total:>8.1%}{calls[span] / passes:>12.0f}")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def traced(jobs: list[dict], seconds: float, golden: dict, spans_path: Path):
    plan_ = {"jobs": jobs, "seconds": seconds, "spans": str(spans_path)}
    probe = SpeedProbe(max(os.sched_getaffinity(0)))
    probe.start()
    try:
        proc = subprocess.Popen([sys.executable, str(JOB), "--traced", json.dumps(plan_)],
                                stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
        pin(proc.pid, probe.cpu)
        with proc.stdout:
            out = proc.stdout.read()
        rc = proc.wait()
    finally:
        probe.done.set()
        probe.join()
    if rc != 0:
        sys.exit(f"perfbench: traced run exited with {rc}")
    result = json.loads(out.splitlines()[-1])
    attempted = failed = 0
    for outputs in result["outputs"]:
        for spec, (job_rc, text) in zip(jobs, outputs):
            a, f = check(spec, job_rc, text.encode(), golden)
            attempted += a
            failed += f
    for kind in ("untraced", "traced"):
        result[kind + "_scaled"] = [(t1 - t0) * probe.speed(t0, t1) for t0, t1 in result[kind]]
        result[kind] = [t1 - t0 for t0, t1 in result[kind]]
    metrics, lines = per_layer(result)
    return metrics, attempted, failed, lines


def git_state() -> tuple[str | None, bool | None]:
    if not (ROOT / ".git").exists():
        return None, None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, check=True).stdout.strip()
        status = subprocess.run(["git", "-C", str(ROOT), "--no-optional-locks", "status", "--porcelain",
                                 "--untracked-files=no"], env=env, capture_output=True, text=True,
                                check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return rev, bool(status.strip())


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "supero").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for testing the benchmark")
    args = parser.parse_args(argv)
    if not (SRC / "supero" / "__init__.py").is_file() or not GOLDEN.is_file():
        sys.stderr.write(f"perfbench: no supero sources under {SRC} or no {GOLDEN.name}\n")
        return 2
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    jobs = plan(args.workload, args.seed, args.smoke)
    nproc = len(os.sched_getaffinity(0))
    rev, dirty = git_state()
    load_start = os.getloadavg()[0]
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "jobs": [job_key(s) for s in jobs],
        "git_rev": rev, "git_dirty": dirty, "src_sha256": src_digest(),
        "python": platform.python_version(), "nproc": nproc, "cpu_model": cpu_model(),
        "load1_start": load_start, "loaded_at_start": load_start > nproc,
    }
    print(f"# {args.workload} seed={args.seed} trace={args.trace} jobs: {'; '.join(meta['jobs'])}")
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        metrics, attempted, failed, lines = traced(jobs, args.seconds, golden, spans_path)
        meta["spans_file"] = str(spans_path.relative_to(ROOT))
        meta["notes"] = []
    else:
        samples, raw, attempted, failed, notes = measure(jobs, args.seconds, golden)
        metrics = {k: {"value": statistics.median(v), "unit": END_TO_END_UNITS[k]} for k, v in samples.items()}
        lines = [f"{k:<12}{metrics[k]['value']:>10.4f} {END_TO_END_UNITS[k]:<3} median of n={len(v)}: "
                 + " ".join(f"{x:.4f}" for x in v) for k, v in samples.items()]
        lines += [f"raw {k:<8}{statistics.median(v):>10.4f} s   unscaled: " + " ".join(f"{x:.4f}" for x in v)
                  for k, v in raw.items()]
        meta["samples"] = samples
        meta["raw_samples"] = raw
        meta["notes"] = notes
    meta["load1_end"] = os.getloadavg()[0]
    if meta["loaded_at_start"]:
        meta["notes"].append(f"load average {load_start:.2f} above nproc {nproc} at start")
    for line in lines:
        print(line)
    print(f"operations: {attempted} attempted, {failed} failed")
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
