"""What every workload declares, and helpers that import nothing heavy.

Kept free of numpy and hazardsignal so that the cli_scenarios worker stays
small: a child process starts with its parent's peak memory on record, so
only a small parent lets the CLI children's own peak show.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that imports the checkout's package."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one client, no threads: numpy's BLAS would otherwise start a thread per
    # CPU at import, and on a shared 2-core machine that start-up swings with
    # the other tenants' load (about 60 of 300 ms per CLI op when it is busy)
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: pool(seed, share, shares): the inputs of one share of the pool
    pool: Callable[[int, int, int], list]
    op: Callable
    #: returns None for a right output, else a short reason
    check: Callable
    #: leading pool items run once before timing starts (counted in setup_s)
    warmup: int
    #: fixed tail percentile, chosen when the benchmark was added (2-core machine):
    #: at least ten samples lie beyond it, and it falls inside a cluster of
    #: latencies, not on the edge between two where the seed moves it most
    tail_pct: float
    #: traced ops per stratum (None: every item)
    trace_per_stratum: int | None
    #: listed in BENCHMARK.json; False when ops fail by a known defect, since
    #: the workloads listed there must be ones on which no op fails
    listed: bool = True


def order(seed: int, n: int, share: int = 0) -> list[int]:
    """The fixed op order of every pass over one share of n items."""
    idx = list(range(n))
    random.Random(f"{seed}:order:{share}").shuffle(idx)
    return idx


def strata_counts(items) -> dict[str, int]:
    counts: dict[str, int] = {}
    for item in items:
        counts[item.stratum] = counts.get(item.stratum, 0) + 1
    return dict(sorted(counts.items()))
