"""Consistent accident probability for a behavior profile.

The model's feedback loop: aggregate recklessness drives the accident
probability, accidents drive warnings, and warnings pull some V2V drivers
back to caution, which feeds back into aggregate recklessness. For a fixed
profile this closes into a one-dimensional fixed point

    P = p(x_n + (1 - P * beta * q(y)) * x_vu)

whose left side rises from p(0) to p(1) while the right side is
nonincreasing in P, so the solution is unique and bisection converges
unconditionally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    BehaviorProfile,
    InputError,
    ModelError,
    SignalingGame,
    _bisect,
    validate_profile,
)

__all__ = [
    "DegenerateSignalError",
    "ConsistencyResult",
    "GroupCosts",
    "solve_profile_P",
    "posterior_no_signal",
    "group_costs",
]


class DegenerateSignalError(ModelError):
    """The no-signal posterior is 0/0: certain signaling of a certain accident."""


@dataclass(frozen=True)
class ConsistencyResult:
    """Fixed point and the signal quantities derived from it.

    P is the consistent accident probability, Q = P * beta * q(y) the
    chance a given V2V driver sees a warning, posterior_no_signal the
    driver's accident belief after seeing none, and residual the absolute
    fixed-point defect at termination.
    """

    P: float
    Q: float
    posterior_no_signal: float
    residual: float


@dataclass(frozen=True)
class GroupCosts:
    """Expected cost of each action for each driver group."""

    n_careful: float
    n_reckless: float
    vu_careful: float
    vu_reckless: float
    vs_careful: float
    vs_reckless: float


def solve_profile_P(game: SignalingGame, profile: BehaviorProfile) -> ConsistencyResult:
    """Solve the accident-probability fixed point for one behavior profile.

    x_vs never enters the equation: signaled drivers adjust behavior only
    on days a warning shows, which is exactly when they stay cautious, so
    their reckless mass never reaches the road.
    """
    validate_profile(game, profile)
    rate = game.signal_rate
    x_n, x_vu = profile.x_n, profile.x_vu
    hazard = game.hazard

    def gap(P: float) -> float:
        arg = x_n + (1.0 - P * rate) * x_vu
        return P - hazard(min(max(arg, 0.0), 1.0))

    P, g = _bisect(gap, hazard.floor, hazard.ceiling)
    return ConsistencyResult(
        P=P,
        Q=P * rate,
        posterior_no_signal=posterior_no_signal(game, P),
        residual=abs(g),
    )


def posterior_no_signal(game: SignalingGame, P: float) -> float:
    """P(accident | no warning shown) = P(1 - beta*q) / (1 - P*beta*q).

    Monotone in P, so comparisons against the reckless-indifference
    threshold 1/(1+r) transfer exactly to comparisons of P against
    1/(1 + r(1 - beta*q)). Never exceeds the prior P: silence is weakly
    good news.
    """
    if isinstance(P, (int, float)):
        if math.isnan(P) or P < -1e-12 or P > 1.0 + 1e-12:
            raise InputError(f"accident probability must lie in [0, 1], got {P!r}")
    P = min(max(float(P), 0.0), 1.0)
    rate = game.signal_rate
    denom = 1.0 - P * rate
    if denom <= 1e-15:
        raise DegenerateSignalError(
            "beta*q(y) = 1 with a certain accident leaves the no-signal posterior undefined"
        )
    return P * (1.0 - rate) / denom


def group_costs(game: SignalingGame, P: float, posterior: float) -> GroupCosts:
    """Cost table for the three groups given accident beliefs.

    Careful drivers regret caution when nothing happens (unit cost times
    the no-accident chance they perceive); reckless drivers pay r times
    their accident belief. Signaled drivers know the accident is real, so
    caution is free and recklessness costs the full r.
    """
    for name, v in (("P", P), ("posterior", posterior)):
        if math.isnan(v) or v < -1e-12 or v > 1.0 + 1e-12:
            raise InputError(f"{name} must lie in [0, 1], got {v!r}")
    P = min(max(float(P), 0.0), 1.0)
    posterior = min(max(float(posterior), 0.0), 1.0)
    return GroupCosts(
        n_careful=1.0 - P,
        n_reckless=game.r * P,
        vu_careful=1.0 - posterior,
        vu_reckless=game.r * posterior,
        vs_careful=0.0,
        vs_reckless=game.r,
    )
