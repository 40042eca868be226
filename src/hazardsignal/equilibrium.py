"""Closed-form signaling equilibria via parameter-space region classification.

Five regions partition the parameter space by what each group ends up
doing at equilibrium (N = non-V2V drivers, V = unsignaled V2V drivers;
C/I/R = careful, indifferent, reckless). Each region pins the equilibrium
profile and accident probability:

    region  profile (x_n, x_vu, x_vs)    accident probability
    NCVC    (0, 0, 0)                    p(0)
    NCVI    (0, chi_vu, 0)               1 / (1 + r(1 - beta·q))
    NCVR    (0, y, 0)                    fixed point of the consistency map
    NIVR    (chi_n, y, 0)                1 / (1 + r)
    NRVR    (1-y, y, 0)                  fixed point of the consistency map

Signaled V2V drivers are always careful, so x_vs = 0 throughout. Region
conditions can overlap only where their closed forms agree, so the
classification priority below never changes the reported probability.

solve_equilibrium wraps a private core, _solve: one branch per region
sets the profile and P, then Q and the posterior follow from P once. It
returns design.SweepRecord's field order, so design's beta sweeps and
optimizers build no report, profile or cost table per beta.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .model import BehaviorProfile, ModelError, SignalingGame
from .consistency import DegenerateSignalError, posterior_no_signal
from .consistency import _SHARE_MIN

__all__ = [
    "Region",
    "LogicError",
    "EquilibriumReport",
    "classify_region",
    "solve_equilibrium",
]

#: closed-form masses may overshoot their bounds by at most this before we
#: flag a classification bug; smaller overshoot is clamped
MASS_SLACK = 1e-9


class Region(enum.Enum):
    """Parameter-space region labels (non-V2V outcome x V2V outcome)."""

    NCVC = "NCVC"  # both groups careful
    NCVI = "NCVI"  # non-V2V careful, unsignaled V2V indifferent
    NCVR = "NCVR"  # non-V2V careful, unsignaled V2V reckless
    NIVR = "NIVR"  # non-V2V indifferent, unsignaled V2V reckless
    NRVR = "NRVR"  # both groups reckless


class LogicError(ModelError):
    """A closed form left its region's feasible bounds: classification bug."""


@dataclass(frozen=True)
class EquilibriumReport:
    """Everything known about one game's equilibrium."""

    region: Region
    x_ne: BehaviorProfile
    P: float
    Q: float
    posterior: float
    social_cost: float


def classify_region(game: SignalingGame) -> Region:
    """Assign the unique applicable region label.

    Conditions are evaluated with exact floating comparisons in priority
    order NCVC, NCVI, NIVR, NRVR; NCVR is the complement of the other
    four, so it is returned when none fires.
    """
    # rate, both thresholds and y lie in [0, 1], so every curve argument below does too
    p, rate, y = game.hazard._eval, game.signal_rate, game.y
    t_prior, t_unsignaled = game.t_prior, game.t_unsignaled
    if game.hazard.floor > t_unsignaled:
        return Region.NCVC
    if t_unsignaled <= p((1.0 - rate * t_unsignaled) * y):
        return Region.NCVI
    if p((1.0 - rate * t_prior) * y) <= t_prior <= p(1.0 - rate * t_prior * y):
        return Region.NIVR
    if p(1.0 - rate * t_prior * y) < t_prior:
        return Region.NRVR
    return Region.NCVR


def _bounded(value: float, lo: float, hi: float, what: str, region: Region) -> float:
    if value < lo - MASS_SLACK or value > hi + MASS_SLACK:
        raise LogicError(
            f"{what} {value:.12g} escapes [{lo:.12g}, {hi:.12g}] in region "
            f"{region.value}; closed form disagrees with its range condition"
        )
    return min(max(value, lo), hi)


def solve_equilibrium(game: SignalingGame) -> EquilibriumReport:
    """Produce the game's (essentially unique) signaling equilibrium.

    Closed-P regions use exact formulas; NCVR and NRVR solve the
    consistency fixed point at their corner profiles. When beta*q(y) = 0
    distinct profiles with the same aggregate reckless mass are also
    equilibria; the canonical one (V2V group saturated first) is returned.
    """
    region, P, s, x_n, x_vu, Q, posterior = _solve(game)
    return EquilibriumReport(
        region=region,
        x_ne=BehaviorProfile(x_n, x_vu, 0.0),
        P=P,
        Q=Q,
        posterior=posterior,
        social_cost=s,
    )


def _solve(game: SignalingGame) -> tuple[Region, float, float, float, float, float, float]:
    """solve_equilibrium's values as (region, P, S, x_n, x_vu, Q, posterior).

    That is design.SweepRecord's field order after beta, so design builds
    each beta's record straight from this tuple and no report, profile or
    GroupCosts is made for a beta it discards. The game itself is still
    built and validated per beta. NCVR and NRVR call the hazard's
    _fixed_point with no profile check, which their corner profiles pass.
    S is group_costs' cost table summed in the same operand order, so it
    matches the report's social_cost bit for bit; x_vs is always 0.
    """
    region = classify_region(game)
    p, y, r, rate = game.hazard, game.y, game.r, game.signal_rate
    if region is Region.NCVC:
        x_n, x_vu, P = 0.0, 0.0, p.floor
    elif region is Region.NCVI:
        P = game.t_unsignaled
        share = 1.0 - rate * P
        if share <= _SHARE_MIN:
            raise DegenerateSignalError(
                "beta*q(y) * P reaches 1 in region NCVI: the no-signal posterior is undefined"
            )
        x_n = 0.0
        x_vu = _bounded(p.inverse(P) / share, 0.0, y, "unsignaled V2V reckless mass", region)
    elif region is Region.NIVR:
        P = game.t_prior
        x_n = p.inverse(P) - (1.0 - rate * P) * y
        x_n = _bounded(x_n, 0.0, 1.0 - y, "non-V2V reckless mass", region)
        x_vu = y
    else:
        # NCVR and NRVR: the consistency fixed point at the region's corner profile
        x_n, x_vu = (1.0 - y if region is Region.NRVR else 0.0), y
        P = p._fixed_point(x_n, x_vu, rate)[0]
    Q = P * rate
    posterior = posterior_no_signal(game, P)

    # group_costs' clamps and cost table, summed in its order; signaled V2V
    # drivers act on certainty and incur no cost either way
    Pc = min(max(P, 0.0), 1.0)
    bc = min(max(posterior, 0.0), 1.0)
    s = (
        (1.0 - Pc) * (1.0 - y - x_n)
        + (r * Pc) * x_n
        + (1.0 - Q) * ((1.0 - bc) * (y - x_vu) + (r * bc) * x_vu)
    )
    return region, P, s, x_n, x_vu, Q, posterior
