"""Byte-identical CLI output against the frozen digests of the benchmark set.

`perfbench/golden_cli.json` maps each request (the argv as one string) to
the SHA-256 of "<exit code>\\n" followed by its stdout.  Every request is
replayed in process here, one test per (subcommand, format) group: the tau
numbers (tau), the stencil tables (vandermonde, basis, face-coeffs), the
error polynomials (error-poly, lambda), the weight commands (positivity,
weights, poles), the smoothness forms (beta), the convergence study
(converge) and the nodal mismatch (check-noninterp).  The file is only read.
"""

import hashlib
import json
from collections import defaultdict
from pathlib import Path

import pytest

from reconkernel.cli import main

GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "golden_cli.json").read_text()
)


def groups() -> dict[str, list[str]]:
    out = defaultdict(list)
    for key in sorted(GOLDEN):
        argv = key.split()
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
        out[f"{argv[0]}-{fmt}"].append(key)
    return out


GROUPS = groups()


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_replay_matches_frozen_digest(group, capsys):
    mismatched = []
    for key in GROUPS[group]:
        code = main(key.split())
        out = capsys.readouterr().out.encode()
        if hashlib.sha256(b"%d\n" % code + out).hexdigest() != GOLDEN[key]:
            mismatched.append(key)
    assert not mismatched, f"{len(mismatched)} requests changed, first: {mismatched[:5]}"
