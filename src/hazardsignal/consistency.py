"""Consistent accident probability for a behavior profile.

The model's feedback loop: aggregate recklessness drives the accident
probability, accidents drive warnings, and warnings pull some V2V drivers
back to caution, which feeds back into aggregate recklessness. For a fixed
profile this closes into a one-dimensional fixed point

    P = p(x_n + (1 - P * beta * q(y)) * x_vu)

whose left side rises from p(0) to p(1) while the right side is
nonincreasing in P, so the solution is unique and bisection converges
unconditionally. Each hazard family solves it in model, by its
_fixed_point on model._gap. solve_profile_P is the checked entry point for
profiles from outside (the oracle, users): it checks the profile and derives
the signal quantities from P. equilibrium's core calls _fixed_point itself,
on corner profiles it builds.

posterior_no_signal and group_costs take any real probability within
1e-12 of [0, 1] as a clamped Python float (model._number).
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import BehaviorProfile, ModelError, SignalingGame, validate_profile
from .model import _number

__all__ = [
    "DegenerateSignalError",
    "ConsistencyResult",
    "GroupCosts",
    "solve_profile_P",
    "posterior_no_signal",
    "group_costs",
]

#: tolerated floating overshoot of a probability argument outside [0, 1]
_PROBABILITY_SLACK = 1e-12

#: least chance 1 - P*beta*q(y) of seeing no warning at which the no-signal
#: posterior, which divides by it, is defined; equilibrium's NCVI branch
#: refuses a smaller one too
_SHARE_MIN = 1e-15


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
    P, g = game.hazard._fixed_point(profile.x_n, profile.x_vu, rate)
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
    P = _number(P, "accident probability", 0.0, 1.0, _PROBABILITY_SLACK)
    rate = game.signal_rate
    denom = 1.0 - P * rate
    if denom <= _SHARE_MIN:
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
    P = _number(P, "P", 0.0, 1.0, _PROBABILITY_SLACK)
    posterior = _number(posterior, "posterior", 0.0, 1.0, _PROBABILITY_SLACK)
    return GroupCosts(
        n_careful=1.0 - P,
        n_reckless=game.r * P,
        vu_careful=1.0 - posterior,
        vu_reckless=game.r * posterior,
        vs_careful=0.0,
        vs_reckless=game.r,
    )
