"""Show that a wrong result is counted as a failure, on every workload.

    python3 perfbench/selfcheck.py

Runs each workload briefly with --corrupt 3, which falsifies every third
result before its check, and exits 1 unless every run reports
correct = false with a failure count that matches the falsified results.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).with_name("run.py")
EVERY = 3


def main() -> int:
    ok = True
    for workload in ("cli-cold", "stencil-tables", "weights-census", "face-scan"):
        argv = [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
                "--seconds", "4", "--trace", "0", "--corrupt", str(EVERY)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        # the run falsifies its 1st, 4th, 7th, ... result
        want = int(lines[0].split(" corrupted=")[1].split()[0])
        passed = proc.returncode == 0 and not result["correct"] and result["failed"] == want
        ok &= passed
        print(f"{workload:15s} attempted={result['attempted']} failed={result['failed']} "
              f"expected={want} fail_frac={result['failed'] / result['attempted']:.3f} "
              f"{'ok' if passed else 'NOT DETECTED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
