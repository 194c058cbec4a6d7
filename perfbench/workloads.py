"""Seeded edge-list generators for the benchmark workloads.

The benchmark owns these generators instead of calling ``bicount.generate``,
so a change to the program cannot change a workload.  Every generator is a
pure function of its seed and returns edge-list text: one ``upper lower``
pair per line, in draw order.
"""

from __future__ import annotations

import os
import random
from itertools import accumulate

UNIFORM_SIDE = 20_000
UNIFORM_EDGES = 200_000
SKEWED_SIDE = 20_000
SKEWED_DRAWS = 200_000
SKEWED_EXPONENT = 0.8
SMALL_GRAPHS = 1_000
SMALL_SIDE = (5, 60)
SMALL_DEGREE = 6
SMALL_CLI_STRIDE = 50  # the CLI runs on every 50th small graph: 20 files


def _lines(pairs) -> str:
    return "".join(f"{u} {v}\n" for u, v in pairs)


def uniform_text(seed: int) -> str:
    """Exactly UNIFORM_EDGES distinct edges, uniform over the grid."""
    side = UNIFORM_SIDE
    cells = random.Random(seed).sample(range(side * side), UNIFORM_EDGES)
    return _lines(divmod(c, side) for c in cells)


def skewed_text(seed: int) -> str:
    """SKEWED_DRAWS edges whose layer indices follow weight 1/(i+1)^0.8:
    all upper ends are drawn first, then all lower ends.  Duplicate draws
    stay in the text, for the parser to drop."""
    rng = random.Random(seed)
    cum = list(accumulate((i + 1) ** -SKEWED_EXPONENT for i in range(SKEWED_SIDE)))
    side = range(SKEWED_SIDE)
    uppers = rng.choices(side, cum_weights=cum, k=SKEWED_DRAWS)
    lowers = rng.choices(side, cum_weights=cum, k=SKEWED_DRAWS)
    return _lines(zip(uppers, lowers))


def small_texts(seed: int) -> list[str]:
    """SMALL_GRAPHS graphs with 5-60 vertex labels per layer and between 1
    and SMALL_DEGREE*(r+l) edge draws, duplicates included."""
    rng = random.Random(seed)
    texts = []
    for _ in range(SMALL_GRAPHS):
        r = rng.randint(*SMALL_SIDE)
        l = rng.randint(*SMALL_SIDE)
        m = rng.randint(1, SMALL_DEGREE * (r + l))
        texts.append(_lines((rng.randrange(r), rng.randrange(l)) for _ in range(m)))
    return texts


GENERATORS = {
    "uniform": lambda seed: [uniform_text(seed)],
    "skewed": lambda seed: [skewed_text(seed)],
    "small": small_texts,
}


def shape(text: str) -> dict:
    """What the generator knows of an edge list: its distinct edges, the
    duplicate lines a parser must drop, and its distinct labels per layer."""
    lines = text.splitlines()
    distinct = set(lines)
    pairs = [line.split() for line in distinct]
    return {"edges": len(distinct), "duplicates_dropped": len(lines) - len(distinct),
            "vertices": len({u for u, _ in pairs}) + len({v for _, v in pairs})}


def write_inputs(workload: str, seed: int, directory) -> list[tuple[str, dict]]:
    """Write the workload's edge lists into ``directory``; return each
    file's path and shape."""
    inputs = []
    for i, text in enumerate(GENERATORS[workload](seed)):
        path = os.path.join(directory, f"{workload}-{i:04d}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        inputs.append((path, shape(text)))
    return inputs


def cli_subset(paths: list[str]) -> list[str]:
    """The files the CLI is timed on: all of a one-file workload, every
    SMALL_CLI_STRIDE-th file of a batch."""
    return paths if len(paths) == 1 else paths[::SMALL_CLI_STRIDE]
