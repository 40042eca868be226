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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .model import (
    BehaviorProfile,
    ModelError,
    SignalingGame,
)
from .consistency import DegenerateSignalError, group_costs, posterior_no_signal, solve_profile_P

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
    p = game.hazard._eval
    rate = game.signal_rate
    y = game.y
    t_prior = 1.0 / (1.0 + game.r)
    t_unsignaled = 1.0 / (1.0 + game.r * (1.0 - rate))
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
    region = classify_region(game)
    p, y, r, rate = game.hazard, game.y, game.r, game.signal_rate
    t_prior = 1.0 / (1.0 + r)
    t_unsignaled = 1.0 / (1.0 + r * (1.0 - rate))

    P = None
    if region is Region.NCVC:
        x = BehaviorProfile(0.0, 0.0, 0.0)
        P = p.floor
    elif region is Region.NCVI:
        share = 1.0 - rate * t_unsignaled
        if share <= 1e-15:
            # the invariant posterior_no_signal guards, at the same threshold
            raise DegenerateSignalError(
                "beta*q(y) * P reaches 1 in region NCVI: the no-signal posterior is undefined"
            )
        x_vu = p.inverse(t_unsignaled) / share
        x = BehaviorProfile(0.0, _bounded(x_vu, 0.0, y, "unsignaled V2V reckless mass", region), 0.0)
        P = t_unsignaled
    elif region is Region.NIVR:
        x_n = p.inverse(t_prior) - (1.0 - rate * t_prior) * y
        x = BehaviorProfile(_bounded(x_n, 0.0, 1.0 - y, "non-V2V reckless mass", region), y, 0.0)
        P = t_prior
    elif region is Region.NRVR:
        x = BehaviorProfile(1.0 - y, y, 0.0)
    else:
        x = BehaviorProfile(0.0, y, 0.0)

    if P is None:
        res = solve_profile_P(game, x)
        P, Q, posterior = res.P, res.Q, res.posterior_no_signal
    else:
        Q = P * rate
        posterior = posterior_no_signal(game, P)

    costs = group_costs(game, P, posterior)
    # signaled V2V drivers act on certainty and incur no cost either way
    s = (
        costs.n_careful * (1.0 - y - x.x_n)
        + costs.n_reckless * x.x_n
        + (1.0 - Q) * (costs.vu_careful * (y - x.x_vu) + costs.vu_reckless * x.x_vu)
    )
    return EquilibriumReport(
        region=region, x_ne=x, P=P, Q=Q, posterior=posterior, social_cost=s
    )

