"""Freeze the cli-cold request universe and its output digests.

    PYTHONPATH=src python3 perfbench/freeze_golden.py

Runs every candidate CLI request in process through `reconkernel.cli.main`
and writes golden_cli.json: request argv -> SHA-256 of "<exit code>\\n" and
stdout.  Requests that do not exit 0 (e.g. `converge` fits that hit the
rounding floor) are left out of the universe.  A sample of the digests is
confirmed against real `python -m reconkernel.cli` processes.  Digests are
frozen once, at the commit that defines the benchmark; later commits must
reproduce them byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys

from run import digest
from workloads import GOLDEN, shapes

import reconkernel.cli as cli

FORMATS = ("json", "csv")


def stencils(min_m: int, max_m: int = 6) -> list[str]:
    return [f"--stencil {mm} {mp}" for m in range(min_m, max_m + 1) for mm, mp in shapes(m)]


def candidates() -> list[str]:
    """Every subcommand at small sizes: M <= 6, extent <= 4, order <= 300."""
    reqs = [f"tau --order {n}" for n in range(150, 301)]
    for cmd in ("vandermonde", "basis", "face-coeffs"):
        reqs += [f"{cmd} {s}" for s in stencils(0)]
    for cmd in ("error-poly", "lambda"):
        reqs += [f"{cmd} {s} --kind {k}" for s in stencils(0) for k in ("f", "h")]
    for cmd in ("weights", "poles"):
        reqs += [
            f"{cmd} --stencil {mm} {mp} --levels {k}"
            for m in range(2, 7)
            for mm, mp in shapes(m)
            for k in range(1, m)
        ]
    reqs += ["positivity"] + [f"positivity --extent {e}" for e in range(0, 5)]
    reqs += [f"beta {s}{flag}" for s in stencils(1) for flag in ("", " --face-centered")]
    reqs += [f"converge {s} --target {t}" for s in stencils(0) for t in ("face", "derivative")]
    reqs += [f"check-noninterp {s} --dx {dx}" for s in stencils(0) for dx in ("0.01", "0.05")]
    out = [f"{r} --format {f}" for r in reqs for f in FORMATS]
    # positivity has few sizes, so its default-format spellings join the universe
    return out + [r for r in reqs if r.startswith("positivity")]


def run_in_process(key: str) -> tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(key.split())
    return code, out.getvalue().encode()


def main() -> int:
    golden = {}
    for key in candidates():
        code, out = run_in_process(key)
        if code == 0:
            golden[key] = digest(code, out)
    env = dict(os.environ)
    for key in random.Random(0).sample(sorted(golden), 40):
        proc = subprocess.run([sys.executable, "-m", "reconkernel.cli", *key.split()], env=env, capture_output=True)
        if digest(proc.returncode, proc.stdout) != golden[key]:
            print(f"in-process and subprocess output differ for {key}", file=sys.stderr)
            return 1
    GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"{len(golden)} requests frozen, {len(candidates()) - len(golden)} left out")
    return 0


if __name__ == "__main__":
    sys.exit(main())
