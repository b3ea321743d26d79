"""Request universes of the four workloads and their seeded orders.

Each workload draws from a finite universe and never repeats a request key
within a run.  The seed sets the order of the requests and the data of
their checks; it changes neither the amount of work nor its spread of
costs, so that two seeds measure the same thing.

The host this benchmark was tuned on swings between two speeds, 1.7x
apart, in stretches of a fraction of a second to half a minute; the slow
one holds most of the time.  A quantile of latency is steady only when the
requests around it are many and cost the same, and when it sits in the
upper part of their spread, which the slow speed holds: it is then a
quantile of the host's speed over the whole run.  Among a handful of
requests it follows the speed of the moment those few ran, and near the
middle of a class it jumps with the share of fast time.  So each library
universe is mostly two classes of requests of equal cost, a cheap one and
a dear one half its size, mixed evenly through the run: the median falls
in the upper quarter of the cheap class and the tail, the 11th largest
latency, in the upper quarter of the dear one.  A few requests of other
widths ride along, too few to move either quantile out of its class, so
that the traced run sees how each layer grows with the width.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("cli-cold", "stencil-tables", "weights-census", "face-scan")

GOLDEN = Path(__file__).with_name("golden_cli.json")

#: cli-cold rounds per run.  A round holds one key of every subcommand and
#: TAU_PER_ROUND tau keys; tau at orders of TAU_MIN and up is the dearest
#: request, so those 22 tau requests hold the tail.
CLI_ROUNDS = 11
TAU_PER_ROUND = 2
TAU_MIN = 276
#: stencil-tables: every window of the cheap width and of the dear width
#: whose pivot lies inside it or up to the given number of cells beyond
#: either end (cost does not depend on that distance), and one centred
#: window of each other width
TABLE_CHEAP = (7, 28)
TABLE_DEAR = (9, 11)
TABLE_WIDTHS = range(4, 13)
#: weights-census: (M, K, first, count) of each class: the windows of width
#: M whose nearest cell lies first .. first + count - 1 cells right of the
#: pivot, and their mirror images left of it.  Cost grows fast with that
#: distance up to about 20 cells and slowly beyond, so the classes
#: lie beyond 20 cells, on cells of their own.  Plus one centred window of
#: each width at K = M/2, as in the ROADMAP baseline.
CENSUS_CHEAP = (5, 2, 20, 44)
CENSUS_DEAR = (6, 3, 70, 22)
CENSUS_WIDTHS = range(3, 12)
#: face-scan: subdivision level; windows of the cheap and the dear width on
#: each side of the pivot; one window of each other width; the positivity
#: extents, one scan each
FACE_LEVELS = 3
FACE_CHEAP = (12, 36)
FACE_DEAR = (16, 18)
FACE_WIDTHS = (6, 8, 10, 14, 18, 20)
FACE_EXTENTS = range(5, 10)
#: face windows start this far from the pivot: beyond every window the
#: positivity scans build, and where cost no longer grows with distance
FACE_NEAR = 50


def shapes(m: int, pad: int = 2) -> list[tuple[int, int]]:
    """Centred, one-sided and pivot-excluding windows of width m: the pivot
    cell lies inside the window or up to pad cells beyond either end."""
    return [(mm, m - mm) for mm in range(-pad, m + pad + 1)]


def centred(m: int) -> tuple[int, int]:
    return m // 2, m - m // 2


def build(workload: str, seed: int) -> list[list]:
    """The seeded rounds of one run; each request is a JSON-able list."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "cli-cold":
        return cli_rounds(rng)
    if workload == "stencil-tables":
        # the beta_form check reconstructs a seeded polynomial of degree M
        def table(mm: int, mp: int) -> list:
            return ["table", mm, mp, [rng.randint(-9, 9) for _ in range(mm + mp + 1)]]

        (cheap, cheap_pad), (dear, dear_pad) = TABLE_CHEAP, TABLE_DEAR
        return mixed(
            [table(*w) for w in shapes(cheap, cheap_pad)],
            [table(*w) for w in shapes(dear, dear_pad)],
            [table(*centred(m)) for m in TABLE_WIDTHS if m not in (cheap, dear)],
            rng,
        )
    if workload == "weights-census":
        def census(m: int, k: int, first: int, count: int) -> list[list]:
            cells = range(first, first + count)
            return [["census", -c, m + c, k] for c in cells] + [["census", m + c, -c, k] for c in cells]

        others = [["census", *centred(m), m // 2] for m in CENSUS_WIDTHS]
        return mixed(census(*CENSUS_CHEAP), census(*CENSUS_DEAR), others, rng)
    if workload == "face-scan":
        cheap, dear, others = face_keys()
        # the scans share their weights, so they run in ascending extent,
        # each paying for what its smaller predecessor did not build
        return mixed(cheap, dear, others, rng, positivity_keys(rng))
    raise ValueError(f"unknown workload {workload!r}")


def mixed(cheap: list, dear: list, others: list, rng: random.Random, in_order: list = ()) -> list[list]:
    """Rounds of one dear request and its share of the cheap ones, in a
    seeded order.  The other requests, shuffled, and the in_order ones, as
    given, join rounds spread evenly through the run.  Rounds let a run that
    falls behind its time budget stop early."""
    rng.shuffle(cheap)
    rng.shuffle(dear)
    rng.shuffle(others)
    n = len(dear)
    rounds = [cheap[i * len(cheap) // n : (i + 1) * len(cheap) // n] + [d] for i, d in enumerate(dear)]
    for extra in (others, in_order):
        for i, key in enumerate(extra):
            rounds[(2 * i + 1) * n // (2 * len(extra))].append(key)
    for rnd in rounds:
        rng.shuffle(rnd)
    return rounds


def cost_rank(key: str) -> tuple:
    """What drives a CLI request's cost: stencil width, levels, order, extent."""
    tokens = key.split()
    rank: list[int] = []
    for i, tok in enumerate(tokens):
        if tok == "--stencil":
            rank.append(int(tokens[i + 1]) + int(tokens[i + 2]))
        elif tok in ("--levels", "--order", "--extent"):
            rank.append(int(tokens[i + 1]))
    return tuple(rank)


def cli_strata(keys) -> dict[str, list[str]]:
    """Keys by subcommand, each sorted by cost; tau only from TAU_MIN up."""
    by_cmd: dict[str, list[str]] = {}
    for key in keys:
        cmd = key.split()[0]
        if cmd != "tau" or int(key.split()[2]) >= TAU_MIN:
            by_cmd.setdefault(cmd, []).append(key)
    return {cmd: sorted(by_cmd[cmd], key=lambda k: (cost_rank(k), k)) for cmd in sorted(by_cmd)}


def cli_rounds(rng: random.Random) -> list[list]:
    """CLI_ROUNDS rounds of one key per subcommand, and TAU_PER_ROUND of tau.

    Each subcommand is sampled at even steps through its cost order from a
    seeded start, so every seed draws the same spread of sizes; the seed
    picks the keys and the order.
    """
    rounds: list[list] = [[] for _ in range(CLI_ROUNDS)]
    for cmd, stratum in cli_strata(json.loads(GOLDEN.read_text())).items():
        n = CLI_ROUNDS * (TAU_PER_ROUND if cmd == "tau" else 1)
        step = len(stratum) / n
        start = rng.random() * step
        chosen = [stratum[int(start + i * step)] for i in range(n)]
        rng.shuffle(chosen)
        for i, key in enumerate(chosen):
            rounds[i % CLI_ROUNDS].append(["cli", key])
    for rnd in rounds:
        rng.shuffle(rnd)
    return rounds


def face_keys() -> tuple[list, list, list]:
    """Face-weight requests at K = FACE_LEVELS on windows that share nothing:
    the cheap class, the dear class and the other widths.

    A request at width M touches windows of widths M-3..M inside its own
    cells.  Windows of one class sit four cells apart, and each class and
    each other width has its own cells, so no two requests share a window,
    whatever the order: each pays for its own substencil face values.
    """
    step = FACE_LEVELS + 1
    c = FACE_NEAR
    classes = []
    for m, count in (FACE_CHEAP, FACE_DEAR):
        keys = []
        for j in range(count):
            keys.append(["face", -(c + step * j), m + c + step * j, FACE_LEVELS])  # right of the pivot
            keys.append(["face", m + c + step * j, -(c + step * j), FACE_LEVELS])  # left of the pivot
        classes.append(keys)
        c += step * count + m
    others = []
    for i, m in enumerate(FACE_WIDTHS):
        others.append(["face", -c, m + c, FACE_LEVELS] if i % 2 else ["face", m + c, -c, FACE_LEVELS])
        c += m
    return classes[0], classes[1], others


def positivity_keys(rng: random.Random) -> list[list]:
    """One positivity scan per extent, with three seeded rows to recheck."""
    keys = []
    for extent in FACE_EXTENTS:
        n_rows = sum(max(0, a + b - 1) for a in range(-extent, extent + 1) for b in range(-extent, extent + 1))
        keys.append(["positivity", extent, sorted(rng.sample(range(n_rows), 3))])
    return keys
