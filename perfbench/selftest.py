"""The benchmark's own test: no output check is vacuous.

For every workload, a short clean run must report ``failed == 0`` and
``correct: true``; the same run with one output corrupted after its
timed call must report ``failed >= 1`` and ``correct: false``.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Short runs: long enough for each workload to reach its checks.
SECONDS = {"compile-cold": 2, "serve-zipf": 4, "exec-rw": 3}


def run(workload: str, corrupt: bool) -> dict:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "5",
               "--seconds", str(SECONDS[workload]), "--trace", "0"]
    if corrupt:
        command.append("--corrupt")
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                               timeout=180, check=False)
    if completed.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {completed.returncode}:\n"
                           f"{completed.stderr[-2000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main() -> int:
    problems = []
    for workload in SECONDS:
        clean = run(workload, corrupt=False)
        corrupted = run(workload, corrupt=True)
        clean_frac = clean["failed"] / clean["attempted"]
        corrupt_frac = corrupted["failed"] / corrupted["attempted"]
        print(f"{workload}: failed_frac {clean_frac:.4g} clean, "
              f"{corrupt_frac:.4g} with one output corrupted")
        if clean["failed"] or not clean["correct"]:
            problems.append(f"{workload}: the clean run failed its checks")
        if corrupted["failed"] < 1 or corrupted["correct"]:
            problems.append(f"{workload}: a corrupted output went unnoticed")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
