"""Byte-identical CLI output against the frozen digests of the benchmark set.

`perfbench/golden_cli.json` maps each request (the argv as one string) to
the SHA-256 of "<exit code>\\n" followed by its stdout.  Every request of
the stencil tables (vandermonde, basis, face-coeffs), of the error
polynomials (error-poly, lambda), of the weight commands (positivity,
weights, poles), of the smoothness forms (beta), of the convergence study
(converge) and of the nodal mismatch (check-noninterp) is replayed in
process here.  Of every other (subcommand, format) group, every tenth
request and the group's last one are, so small groups are sampled past
their trivial first entry.  The file is only read.
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
STRIDE = 10
#: subcommands whose every request is replayed
FULL = (
    "vandermonde",
    "basis",
    "face-coeffs",
    "error-poly",
    "lambda",
    "positivity",
    "weights",
    "poles",
    "beta",
    "converge",
    "check-noninterp",
)


def sampled_groups() -> dict[str, list[str]]:
    groups = defaultdict(list)
    for key in sorted(GOLDEN):
        argv = key.split()
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
        groups[f"{argv[0]}-{fmt}"].append(key)
    return {
        name: keys if name.rsplit("-", 1)[0] in FULL else sorted(set(keys[::STRIDE] + keys[-1:]))
        for name, keys in groups.items()
    }


SAMPLES = sampled_groups()


@pytest.mark.parametrize("group", sorted(SAMPLES))
def test_replay_matches_frozen_digest(group, capsys):
    mismatched = []
    for key in SAMPLES[group]:
        code = main(key.split())
        out = capsys.readouterr().out.encode()
        if hashlib.sha256(b"%d\n" % code + out).hexdigest() != GOLDEN[key]:
            mismatched.append(key)
    assert not mismatched, f"{len(mismatched)} requests changed, first: {mismatched[:5]}"
