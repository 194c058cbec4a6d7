"""Sampling-based approximate butterfly counting.

Each edge survives independently with probability p; a butterfly survives
iff its four edges do, so exact-counting the sample and scaling by p**-4
gives an unbiased estimate.  The exact counter is an injected dependency
(``count_butterflies``, the vpp engine, by default), and all randomness
flows through a seeded generator so trials replay bit-for-bit.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .exact import CountReport, count_butterflies
from .graph import BipartiteGraph

SEED_STRIDE = 1_000_003

Counter = Callable[[BipartiteGraph], CountReport]
_generators = threading.local()


def _draws(seed: int, count: int) -> np.ndarray:
    """The first ``count`` values of ``random.Random(seed).random()``, bit
    for bit, at numpy speed: both generators are MT19937 and build each
    double from the same two 32-bit outputs.  Each thread reseeds one numpy
    generator of its own, cheaper than building one (seeded from the OS)."""
    _, (*key, position), _ = random.Random(seed).getstate()
    if not hasattr(_generators, "state"):
        _generators.state = np.random.RandomState()
    _generators.state.set_state(("MT19937", np.array(key, dtype=np.uint32), position))
    return _generators.state.random_sample(count)


def sparsify(g: BipartiteGraph, p: float, seed: int) -> BipartiteGraph:
    """Keep each edge independently with probability p (seeded, so the
    same seed reproduces the same subset).  The vertex set is unchanged.
    One draw per edge, in edge order."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"sampling probability must be in (0, 1], got {p}")
    kept = _draws(seed, g.edge_count) < p
    return g.replace_edges(g.uppers[kept], g.lowers[kept])


def _trial(g: BipartiteGraph, p: float, seed: int, counter: Counter) -> tuple[Fraction, int]:
    """One trial: the estimate and the wedges its sample count processed."""
    report = counter(sparsify(g, p, seed))
    return Fraction(report.butterflies) / Fraction(p) ** 4, report.wedges_processed


@dataclass
class TrialSet:
    """Estimates from repeated independent sparsification trials, and the
    wedges each trial's count processed."""

    estimates: list[Fraction]
    wedges: list[int]


@dataclass
class TrialSummary:
    p: float
    trials: int
    mean: Fraction
    variance: Fraction
    exact: int | None = None
    relative_error: Fraction | None = None

    def to_dict(self) -> dict:
        out = {"p": self.p, "trials": self.trials, "mean": float(self.mean),
               "variance": float(self.variance)}
        if self.exact is not None:
            out["exact"] = self.exact
        if self.relative_error is not None:
            out["relative_error"] = float(self.relative_error)
        return out


def run_trials(g: BipartiteGraph, p: float, trials: int, seed: int,
               counter: Counter = count_butterflies,
               with_exact: bool = True) -> tuple[TrialSet, TrialSummary]:
    """Run seeded trials (trial i uses seed*stride + i) and summarize.

    The summary holds the mean and the n-1 sample variance (0 for a single
    trial); when ``with_exact`` is set, the exact count and the relative
    error of the mean are included (error is omitted for a zero exact
    count).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    estimates, wedges = map(list, zip(*(_trial(g, p, seed * SEED_STRIDE + i, counter)
                                        for i in range(trials))))
    mean = sum(estimates, Fraction(0)) / trials
    if trials > 1:
        variance = sum((e - mean) ** 2 for e in estimates) / (trials - 1)
    else:
        variance = Fraction(0)
    exact = None
    relative_error = None
    if with_exact:
        exact = counter(g).butterflies
        if exact:
            relative_error = abs(mean - exact) / exact
    summary = TrialSummary(p, trials, mean, variance, exact, relative_error)
    return TrialSet(estimates, wedges), summary
