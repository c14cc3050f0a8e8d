"""Record golden.json: the sha256 of every benchmark operation's output.

    python3 perfbench/golden.py

Runs, through the plain CLI (``python -m supero.cli ... --format json``),
every suite the workloads use, in full, and every ``coh`` job of the
workloads and of their smoke versions. It stores one digest per suite row
(of the row's JSON as the CLI prints it) and one per ``coh`` job (of its
whole stdout). Record only at a commit whose reports are known good: the
benchmark counts every later mismatch as a failed operation.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import GOLDEN, ROOT, SMOKE, WORKLOADS, child_env, dumps, job_key, row_key, sha256


def cli(argv: list[str]) -> bytes:
    proc = subprocess.run([sys.executable, "-m", "supero.cli", *argv], stdout=subprocess.PIPE,
                          env=child_env(), cwd=ROOT, check=False)
    if proc.returncode != 0:
        sys.exit(f"golden: {' '.join(argv)} exited with {proc.returncode}")
    return proc.stdout


def main() -> None:
    golden = {"verify": {}, "coh": {}}
    specs = [spec for table in (WORKLOADS, SMOKE) for jobs in table.values() for spec in jobs]
    for spec in specs:
        argv = spec["argv"]
        if argv[0] == "coh":
            golden["coh"][job_key(spec)] = sha256(cli(argv))
        elif argv[1] not in golden["verify"]:
            rows = json.loads(cli(argv))["rows"]
            digests = {row_key(r): sha256(dumps(r).encode()) for r in rows}
            if len(digests) != len(rows) or any(r["status"] != "pass" for r in rows):
                sys.exit(f"golden: suite {argv[1]} has repeated or failing rows")
            golden["verify"][argv[1]] = digests
        print(f"recorded {job_key(spec)}", flush=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
