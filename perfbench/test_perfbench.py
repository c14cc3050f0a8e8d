"""Tests of the benchmark itself, on its smoke workloads.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
GOLDEN = json.loads(run.GOLDEN.read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(run.SMOKE)


def test_seed_permutes_jobs_but_not_inputs():
    orders = {tuple(run.job_key(s) for s in run.plan("small-suites", seed, False)) for seed in range(8)}
    assert len(orders) > 1
    assert {tuple(sorted(o)) for o in orders} == {
        tuple(sorted(run.job_key(s) for s in run.WORKLOADS["small-suites"]))
    }
    assert run.plan("growth", 5, False) == run.plan("growth", 5, False)


def test_check_counts_changed_and_missing_rows():
    spec = run.verify("ddzero", ("gl(1|1)",))
    rows = []
    for key in GOLDEN["verify"]["ddzero"]:
        check, family, params = json.loads(key)
        if family == "gl(1|1)":
            rows.append({"check": check, "family": family, "params": params, "status": "pass"})
    report = json.dumps({"rows": rows}).encode()
    assert run.check(spec, 0, report, GOLDEN) == (12, 0)
    rows[0]["status"] = "fail"
    assert run.check(spec, 3, json.dumps({"rows": rows}).encode(), GOLDEN) == (12, 1)
    assert run.check(spec, 0, json.dumps({"rows": rows[2:]}).encode(), GOLDEN) == (12, 2)
    assert run.check(spec, 1, b"", GOLDEN) == (12, 12)


def test_check_compares_coh_output_bytes():
    spec = run.SMOKE["coh-stress"][1]
    out = subprocess.run([sys.executable, "-m", "supero.cli", *spec["argv"]], cwd=HERE.parent,
                         env=run.child_env(), capture_output=True, check=True).stdout
    assert hashlib.sha256(out).hexdigest() == GOLDEN["coh"][run.job_key(spec)]
    assert run.check(spec, 0, out, GOLDEN) == (1, 0)
    assert run.check(spec, 0, out.replace(b'"N":4', b'"N":5'), GOLDEN) == (1, 1)
    assert run.check(spec, 2, out, GOLDEN) == (1, 1)


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "ddzero", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
