"""The library workloads and the registry of all of them: the inputs of
each, the op one input runs, and the check applied to the op's output
outside the timed region (None when right, else a short reason).
"""

from __future__ import annotations

import hazardsignal as hs
from hazardsignal.cli import MASS_TOL_STEPS, P_TOL_STEPS

import clicases
import generator
from spec import Workload

GRID_N = 101
ORACLE_STEP = 0.01
ORACLE_EPS = 1e-3
#: agreement tolerances of `hazardsignal oracle-check` at this scan step
MASS_TOL = MASS_TOL_STEPS * ORACLE_STEP
P_TOL = P_TOL_STEPS * ORACLE_STEP
#: equilibrium-condition slack for point_solve's independent check
CHECK_EPS = 1e-6


# --- design_sweep -------------------------------------------------------------

def design_op(item: generator.Item):
    game = item.game()
    return (
        hs.sweep_beta(game, GRID_N),
        hs.optimal_beta_social(game, GRID_N),
        hs.optimal_beta_accidents(game),
    )


def design_check(item: generator.Item, out) -> str | None:
    records, social, accidents = out
    s_min = min(rec.S for rec in records)
    if not social.value_at_star <= s_min + 1e-12:
        return f"value_at_star {social.value_at_star!r} exceeds sweep minimum {s_min!r}"
    fresh = hs.solve_equilibrium(hs.with_beta(item.game(), social.beta_star)).social_cost
    if social.value_at_star != fresh:
        return f"value_at_star {social.value_at_star!r} != fresh solve {fresh!r}"
    p0, p1 = records[0].P, records[-1].P
    want = (0.0, p0) if p0 <= p1 else (1.0, p1)
    if (accidents.beta_star, accidents.value_at_star) != want:
        return f"accident optimum {accidents.beta_star!r} is not the smaller endpoint"
    if not hs.single_peaked([rec.P for rec in records]):
        return "sweep P series is not single-peaked"
    return None


# --- point_solve --------------------------------------------------------------

def point_op(item: generator.Item):
    game = hs.SignalingGame(
        beta=item.beta, y=item.y, r=item.r, hazard=item.hazard, signal_reach=item.reach
    )
    return hs.solve_equilibrium(game)


def point_check(item: generator.Item, rep) -> str | None:
    check = hs.check_equilibrium_conditions(item.game(), rep.x_ne, CHECK_EPS)
    return None if check.ok else f"equilibrium conditions fail: {check.failures()}"


# --- oracle_check / oracle_wellcond -------------------------------------------

def oracle_op(item: generator.Item) -> tuple[str, int]:
    """One oracle-check row: closed form, eps-equilibria, then the CLI's verdict.

    The verdict repeats the loop inside ``hazardsignal.cli._cmd_oracle_check``,
    which prints rather than returns it; the tolerances are the CLI's own.
    """
    game = item.game()
    rep = hs.solve_equilibrium(game)
    found = hs.epsilon_equilibria(game, ORACLE_STEP, ORACLE_EPS)
    if not found.members:
        return "empty", 0
    star_mass = rep.x_ne.x_n + (1.0 - rep.Q) * rep.x_ne.x_vu
    mass_dev = p_dev = 0.0
    for member in found.members:
        res = hs.solve_profile_P(game, member)
        mass = member.x_n + (1.0 - res.Q) * member.x_vu
        mass_dev = max(mass_dev, abs(mass - star_mass))
        p_dev = max(p_dev, abs(res.P - rep.P))
    verdict = "agree" if mass_dev <= MASS_TOL and p_dev <= P_TOL else "disagree"
    return verdict, len(found.members)


def oracle_check(item: generator.Item, out) -> str | None:
    verdict, _ = out
    return None if verdict == "agree" else f"oracle verdict {verdict}"


# --- registry -----------------------------------------------------------------

def _oracle_check_pool(seed: int, share: int = 0, shares: int = 1) -> list:
    return (generator.oracle_well_pool(seed, share, shares)
            + generator.oracle_extreme_pool(seed, share, shares))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "design_sweep",
            "sweep_beta, optimal_beta_social and optimal_beta_accidents per game; "
            "design, equilibrium, consistency and TableHazard.inverse do the work",
            generator.design_pool, design_op, design_check,
            warmup=6, tail_pct=95.0, trace_per_stratum=1,
        ),
        Workload(
            "point_solve",
            "one SignalingGame plus one solve_equilibrium per op, per region; "
            "shows what a batch-first core costs single solves",
            generator.point_pool, point_op, point_check,
            warmup=360, tail_pct=99.0, trace_per_stratum=None,
        ),
        Workload(
            "oracle_wellcond",
            "epsilon_equilibria plus the oracle-check verdict on well-conditioned "
            "and table games; the vectorised oracle bisections dominate",
            generator.oracle_wellcond_pool, oracle_op, oracle_check,
            warmup=6, tail_pct=90.0, trace_per_stratum=8,
        ),
        Workload(
            "oracle_check",
            "oracle_wellcond without its table-slope condition plus an extreme share; "
            "its known empty rows (NCVI, x_vu below 1e-19) and rare flat-table disagree "
            "rows fail, so it is left out of BENCHMARK.json",
            _oracle_check_pool, oracle_op, oracle_check,
            warmup=6, tail_pct=90.0, trace_per_stratum=8, listed=False,
        ),
        clicases.WORKLOAD,
    )
}
