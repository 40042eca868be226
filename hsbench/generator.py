"""Seeded game generator shared by the library workloads.

Every game is drawn from its own substream, seeded by (seed, pool, stratum,
slot), so a game does not depend on any other and the same seed always gives
the same pools. A pool can be generated in shares: share k of m holds the
slots j with j % m == k of every stratum, so the shares are disjoint, each
holds about 1/m of every stratum, and together they are the whole pool.
Strata are:

* hazard family: affine, power, table (3 to 5 knots);
* region at the game's own beta (point_solve, oracle pools), or, for the
  design pool, the sweep path (whether the 101-point beta sweep enters NCVR,
  which sends ``optimal_beta_social`` down its grid + golden-section path)
  and the sweep work (whether most sweep betas need a numeric solve: a
  fixed-point bisection, or a table inverse). Work is the main cost factor,
  up to tenfold for table hazards, so fixing it keeps seeds comparable;
* parameter kind: ``well`` (the well-conditioned ranges of the test suite's
  random games, with r log-uniform so every region is reachable) or
  ``extreme`` (power exponents 0.02..50, r up to 1e4, y in [0.02, 0.98]).

NRVR (everyone reckless) is rare under both kinds, so the NRVR cells of the
region-stratified pools draw from a low-stakes variant: shallow hazards, r
close to 1, high adoption and reach.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import hazardsignal as hs

FAMILIES = ("affine", "power", "table")
REGIONS = tuple(r.value for r in hs.Region)

#: region reachability is scanned on this beta grid before a beta is picked
COARSE_BETAS = tuple(i / 20 for i in range(21))
#: the grid optimal_beta_social samples at its default grid_n = 101
SWEEP_BETAS = tuple(i / 100 for i in range(101))

#: candidates tried per game before a cell is left short (its count is recorded)
MAX_TRIES = 400

#: games per cell in the region-stratified pools, per region. The rarer
#: NCVR and NRVR cells get a third of the weight, so that more than half of
#: the point_solve ops are closed-form solves and its median latency sits
#: inside that cluster instead of on the edge between two.
REGION_WEIGHTS = {"NCVC": 3, "NCVI": 3, "NCVR": 1, "NIVR": 3, "NRVR": 1}

#: The oracle-check verdict needs the eps-equilibrium set to be narrower than
#: its agreement tolerance. Along a near-flat table segment x_n moves at almost
#: no cost, the set widens past the tolerance and the verdict is "disagree"
#: (1 of 10800 oracle_well rows at seeds 1-30: a segment of slope 0.012). The
#: well-conditioned oracle pool redraws tables with a segment flatter than this;
#: oracle_check keeps them.
MIN_ORACLE_TABLE_SLOPE = 0.05

#: generator parameters of each pool; recorded in the baseline beside its counts.
#: Every count is a multiple of 4, so that four shares hold equal strata.
#: A quarter of the design games take the refine path (the sweep enters NCVR).
POOLS = {
    "design": {"kind": "well", "strata": "family x sweep path x sweep work",
               "cells": {
                   "affine:fast:closed": 108, "affine:refine:closed": 24,
                   "affine:refine:numeric": 12,
                   "power:fast:closed": 108, "power:refine:closed": 36,
                   "table:fast:closed": 36, "table:fast:numeric": 72,
                   "table:refine:numeric": 36,
               }},
    "point": {"kind": "well", "strata": "family x region at beta", "per_weight": 12,
              "region_weights": REGION_WEIGHTS},
    "oracle_well": {"kind": "well", "strata": "family x region at beta", "per_weight": 12,
                    "region_weights": REGION_WEIGHTS},
    "oracle_wellcond": {"kind": "well", "strata": "family x region at beta", "per_weight": 12,
                        "region_weights": REGION_WEIGHTS,
                        "min_table_slope": MIN_ORACLE_TABLE_SLOPE},
    "oracle_extreme": {"kind": "extreme", "strata": "family (regions as drawn)",
                       "per_family": 64},
}


@dataclass(frozen=True)
class Item:
    """Pre-drawn parameters of one game and the stratum it fills."""

    stratum: str
    family: str
    kind: str
    beta: float
    y: float
    r: float
    hazard: object
    reach: object
    region: str

    def game(self) -> hs.SignalingGame:
        return hs.SignalingGame(
            beta=self.beta, y=self.y, r=self.r, hazard=self.hazard, signal_reach=self.reach
        )


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _table(rng: random.Random, v0_hi: float, v1_lo: float, v1_hi: float) -> hs.TableHazard:
    k = rng.randint(3, 5)
    ds = [0.0] + sorted(rng.uniform(0.05, 0.95) for _ in range(k - 2)) + [1.0]
    v0 = rng.uniform(0.0, v0_hi)
    v1 = rng.uniform(max(v1_lo, v0 + 0.05), v1_hi)
    vs = [v0] + sorted(rng.uniform(v0, v1) for _ in range(k - 2)) + [v1]
    return hs.TableHazard(tuple(zip(ds, vs)))


def _candidate(rng: random.Random, family: str, kind: str):
    """(hazard, reach, y, r) for one family under one parameter kind."""
    if kind == "low_stakes":
        if family == "affine":
            hazard = hs.AffineHazard(rng.uniform(0.05, 0.3), rng.uniform(0.01, 0.15))
        elif family == "power":
            hazard = hs.PowerHazard(_log_uniform(rng, 1.5, 3.0))
        else:
            hazard = _table(rng, 0.1, 0.2, 0.45)
        reach = hs.LinearReach(rng.uniform(0.8, 1.0))
        return hazard, reach, rng.uniform(0.7, 0.95), _log_uniform(rng, 1.01, 1.3)
    extreme = kind == "extreme"
    if family == "affine":
        slope = rng.uniform(0.15, 0.85)
        hazard = hs.AffineHazard(slope, rng.uniform(0.01, min(0.5, 0.99 - slope)))
    elif family == "power":
        lo, hi = (0.02, 50.0) if extreme else (0.3, 3.0)
        hazard = hs.PowerHazard(_log_uniform(rng, lo, hi))
    else:
        hazard = _table(rng, 0.3, 0.5, 1.0)
    if rng.random() < 0.8:
        reach = hs.LinearReach(rng.uniform(0.1, 1.0))
    else:
        reach = hs.ConstantReach(rng.uniform(0.1, 1.0))
    if extreme:
        return hazard, reach, rng.uniform(0.02, 0.98), _log_uniform(rng, 1.01, 1e4)
    return hazard, reach, rng.uniform(0.05, 0.95), _log_uniform(rng, 1.01, 25.0)


def _region(hazard, reach, y: float, r: float, beta: float) -> str:
    return hs.classify_region(hs.SignalingGame(beta, y, r, hazard, reach)).value


def _sweep_class(hazard, reach, y: float, r: float) -> str:
    """"path:work" of a game's 101-point beta sweep (see the module doc)."""
    regions = [_region(hazard, reach, y, r, b) for b in SWEEP_BETAS]
    numeric = {"NCVR", "NRVR"}
    if isinstance(hazard, hs.TableHazard):
        numeric |= {"NCVI", "NIVR"}  # closed-form regions that still invert p
    path = "refine" if "NCVR" in regions else "fast"
    work = "numeric" if 2 * sum(reg in numeric for reg in regions) > len(regions) else "closed"
    return f"{path}:{work}"


def _pick_beta(rng: random.Random, params, target: str) -> float | None:
    """A beta whose game lies in the target region, or None if none is seen."""
    hits = [b for b in COARSE_BETAS if _region(*params, b) == target]
    if not hits:
        return None
    beta = rng.choice(hits)
    jittered = min(max(beta + rng.uniform(-0.025, 0.025), 0.0), 1.0)
    return jittered if _region(*params, jittered) == target else beta


def _item(stratum, family, kind, params, beta) -> Item:
    hazard, reach, y, r = params
    return Item(
        stratum=stratum, family=family, kind=kind, beta=beta, y=y, r=r, hazard=hazard,
        reach=reach, region=_region(hazard, reach, y, r, beta),
    )


def _slots(seed, cell: str, n: int, share: int, shares: int):
    """The substreams of a cell's slots that belong to one share."""
    for j in range(share, n, shares):
        yield random.Random(f"{seed}:{cell}:{j}")


def _flattest(hazard) -> float:
    """Smallest segment slope of a table hazard; inf for the other families."""
    knots = getattr(hazard, "knots", None)
    if knots is None:
        return math.inf
    return min((v1 - v0) / (d1 - d0) for (d0, v0), (d1, v1) in zip(knots, knots[1:]))


def _region_cells(seed, pool: str, kind: str, per_weight: int, share: int, shares: int,
                  min_table_slope: float = 0.0) -> list[Item]:
    items = []
    for family in FAMILIES:
        for region in REGIONS:
            if family == "power" and region == "NCVC":
                continue  # p(0) = 0 lies below every caution threshold: infeasible
            draw_kind = "low_stakes" if region == "NRVR" else kind
            stratum = f"{kind}:{family}:{region}"
            n = per_weight * REGION_WEIGHTS[region]
            for rng in _slots(seed, f"{pool}:{family}:{region}", n, share, shares):
                for _ in range(MAX_TRIES):
                    params = _candidate(rng, family, draw_kind)
                    if _flattest(params[0]) < min_table_slope:
                        continue
                    beta = _pick_beta(rng, params, region)
                    if beta is not None:
                        items.append(_item(stratum, family, kind, params, beta))
                        break
    return items


def design_pool(seed: int, share: int = 0, shares: int = 1) -> list[Item]:
    """Games stratified by family, sweep path and sweep work."""
    items = []
    for cell, want in POOLS["design"]["cells"].items():
        family, sweep = cell.split(":", 1)
        for rng in _slots(seed, f"design:{cell}", want, share, shares):
            for _ in range(MAX_TRIES):
                params = _candidate(rng, family, "well")
                if _sweep_class(*params) == sweep:
                    items.append(_item(f"well:{cell}", family, "well", params, rng.random()))
                    break
    return items


def point_pool(seed: int, share: int = 0, shares: int = 1) -> list[Item]:
    """Well-conditioned games stratified by family and region at beta."""
    return _region_cells(seed, "point", "well", POOLS["point"]["per_weight"], share, shares)


def oracle_well_pool(seed: int, share: int = 0, shares: int = 1) -> list[Item]:
    """The well share of the oracle_check pool."""
    return _region_cells(seed, "oracle", "well", POOLS["oracle_well"]["per_weight"],
                         share, shares)


def oracle_wellcond_pool(seed: int, share: int = 0, shares: int = 1) -> list[Item]:
    """The oracle_well pool with every near-flat table redrawn."""
    params = POOLS["oracle_wellcond"]
    return _region_cells(seed, "oracle", "well", params["per_weight"], share, shares,
                         params["min_table_slope"])


def oracle_extreme_pool(seed: int, share: int = 0, shares: int = 1) -> list[Item]:
    """Extreme games per family, regions as drawn at a uniform beta."""
    items = []
    for family in FAMILIES:
        n = POOLS["oracle_extreme"]["per_family"]
        for rng in _slots(seed, f"oracle:{family}:extreme", n, share, shares):
            params = _candidate(rng, family, "extreme")
            items.append(_item(f"extreme:{family}", family, "extreme", params, rng.random()))
    return items
