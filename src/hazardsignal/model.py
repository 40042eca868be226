"""Domain types for hazard-signaling games.

A game couples a strictly increasing hazard curve p(d) (accident
probability as a function of the total reckless driver mass), a signal
reach curve q(y) (chance a hazard is detected and broadcast at V2V
penetration y), a display quality beta, a penetration y, and an accident
cost r > 1. Behavior profiles record the reckless mass in each of the
three driver groups: non-V2V, unsignaled V2V, and signaled V2V.

All types are immutable and validated at construction; every operation is
a pure function, so everything here is safe for concurrent use. Curve
evaluation accepts scalars or numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelError",
    "InputError",
    "RangeError",
    "CurveError",
    "ParameterError",
    "AffineHazard",
    "PowerHazard",
    "TableHazard",
    "HazardCurve",
    "LinearReach",
    "ConstantReach",
    "SignalReachCurve",
    "SignalingGame",
    "BehaviorProfile",
    "validate_game",
    "validate_profile",
]

#: tolerated floating overshoot outside [0, 1] before an argument is rejected
UNIT_SLACK = 1e-9

#: tolerated floating overshoot of a reckless mass over its group's size
GROUP_SLACK = 1e-9

#: bisection stops once |f(x)| is within this (or the bracket is 4 ulp wide)
BISECT_TOL = 1e-12

#: bisection iteration cap; the bracket collapses to float resolution long before this
MAX_ITERATIONS = 200


class ModelError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ModelError):
    """An argument lies outside the operation's domain."""


class RangeError(ModelError):
    """A target value lies outside the curve's attainable range."""


class CurveError(ModelError):
    """A curve violates its family invariants."""


class ParameterError(ModelError):
    """A game parameter violates the model's constraints."""


def _unit(x, what: str):
    """Validate x in [0, 1] (scalar or array), clamping float overshoot."""
    if isinstance(x, (int, float)):
        v = float(x)
        if math.isnan(v) or v < -UNIT_SLACK or v > 1.0 + UNIT_SLACK:
            raise InputError(f"{what} must lie in [0, 1], got {x!r}")
        return min(max(v, 0.0), 1.0)
    arr = np.asarray(x, dtype=float)
    if np.any(np.isnan(arr)) or np.any(arr < -UNIT_SLACK) or np.any(arr > 1.0 + UNIT_SLACK):
        raise InputError(f"{what} must lie in [0, 1]")
    return np.clip(arr, 0.0, 1.0)


def _bisect(f, lo: float, hi: float) -> tuple[float, float]:
    """Root of an increasing scalar function on [lo, hi]; returns (x, f(x)).

    Stops when |f(x)| <= BISECT_TOL or the bracket is narrower than 4 ulp of 1.
    """
    for _ in range(MAX_ITERATIONS):
        x = 0.5 * (lo + hi)
        fx = f(x)
        if abs(fx) <= BISECT_TOL or (hi - lo) < 4.0 * math.ulp(1.0):
            break
        if fx > 0.0:
            hi = x
        else:
            lo = x
    return x, fx


def _target(v: float, lo: float, hi: float) -> float:
    """Validate an inversion target against the curve's attainable range."""
    v = float(v)
    if math.isnan(v) or v < lo - UNIT_SLACK or v > hi + UNIT_SLACK:
        raise RangeError(
            f"target probability {v!r} outside attainable range [{lo:.12g}, {hi:.12g}]"
        )
    return min(max(v, lo), hi)


@dataclass(frozen=True)
class AffineHazard:
    """p(d) = slope * d + intercept."""

    slope: float
    intercept: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.slope) and math.isfinite(self.intercept)):
            raise CurveError("affine hazard parameters must be finite")
        if self.slope <= 0:
            raise CurveError(
                f"affine hazard must be strictly increasing (slope > 0), got slope {self.slope!r}"
            )
        if self.intercept < 0:
            raise CurveError(f"affine hazard needs p(0) >= 0, got intercept {self.intercept!r}")
        if self.slope + self.intercept > 1.0 + 1e-12:
            raise CurveError(
                f"affine hazard needs p(1) <= 1, got p(1) = {self.slope + self.intercept!r}"
            )

    @property
    def floor(self) -> float:
        return self.intercept

    @property
    def ceiling(self) -> float:
        return min(self.slope + self.intercept, 1.0)

    def __call__(self, d):
        return self.slope * _unit(d, "reckless mass") + self.intercept

    def inverse(self, v: float) -> float:
        v = _target(v, self.floor, self.ceiling)
        return min(max((v - self.intercept) / self.slope, 0.0), 1.0)


@dataclass(frozen=True)
class PowerHazard:
    """p(d) = d ** exponent with exponent > 0 (so p(0) = 0, p(1) = 1)."""

    exponent: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.exponent) or self.exponent <= 0:
            raise CurveError(
                f"power hazard must be strictly increasing (exponent > 0), got {self.exponent!r}"
            )

    @property
    def floor(self) -> float:
        return 0.0

    @property
    def ceiling(self) -> float:
        return 1.0

    def __call__(self, d):
        return _unit(d, "reckless mass") ** self.exponent

    def inverse(self, v: float) -> float:
        v = _target(v, 0.0, 1.0)
        return min(max(v ** (1.0 / self.exponent), 0.0), 1.0)


@dataclass(frozen=True)
class TableHazard:
    """Piecewise-linear hazard through (mass, probability) knots.

    Knots must start at d = 0, end at d = 1, and increase strictly in both
    coordinates, with probabilities staying inside [0, 1]. Inversion is by
    bisection to BISECT_TOL in value space; the analytic families above
    invert in closed form instead.
    """

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "knots", tuple((float(d), float(v)) for d, v in self.knots)
        )
        if len(self.knots) < 2:
            raise CurveError("hazard table needs at least two knots")
        if any(not (math.isfinite(d) and math.isfinite(v)) for d, v in self.knots):
            raise CurveError("hazard table knots must be finite")
        ds = [d for d, _ in self.knots]
        vs = [v for _, v in self.knots]
        if abs(ds[0]) > 1e-12 or abs(ds[-1] - 1.0) > 1e-12:
            raise CurveError("hazard table must cover masses from 0 to 1")
        for (d0, v0), (d1, v1) in zip(self.knots, self.knots[1:]):
            if d1 <= d0 or v1 <= v0:
                raise CurveError(
                    "hazard table knots must increase strictly in both coordinates"
                )
        if vs[0] < 0 or vs[-1] > 1:
            raise CurveError("hazard table probabilities must stay within [0, 1]")
        object.__setattr__(self, "_d_grid", np.array(ds))
        object.__setattr__(self, "_v_grid", np.array(vs))

    @property
    def floor(self) -> float:
        return self.knots[0][1]

    @property
    def ceiling(self) -> float:
        return self.knots[-1][1]

    def __call__(self, d):
        d = _unit(d, "reckless mass")
        out = np.interp(d, self._d_grid, self._v_grid)
        return float(out) if np.ndim(out) == 0 else out

    def inverse(self, v: float) -> float:
        v = _target(v, self.floor, self.ceiling)
        return _bisect(lambda d: self(d) - v, 0.0, 1.0)[0]


@dataclass(frozen=True)
class LinearReach:
    """q(y) = slope * y."""

    slope: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.slope) or not 0.0 <= self.slope <= 1.0:
            raise CurveError(
                f"linear reach slope must lie in [0, 1] to keep q inside [0, 1], got {self.slope!r}"
            )

    def __call__(self, y):
        return self.slope * _unit(y, "penetration")


@dataclass(frozen=True)
class ConstantReach:
    """q(y) = value, independent of penetration."""

    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value) or not 0.0 <= self.value <= 1.0:
            raise CurveError(f"constant reach must lie in [0, 1], got {self.value!r}")

    def __call__(self, y):
        y = _unit(y, "penetration")
        if isinstance(y, float):
            return self.value
        return np.full_like(y, self.value)


HazardCurve = AffineHazard | PowerHazard | TableHazard
SignalReachCurve = LinearReach | ConstantReach


@dataclass(frozen=True)
class SignalingGame:
    """One game instance: display quality, penetration, stakes, and curves.

    beta is the probability a received warning is actually shown to the
    driver (the designer's control), y the fraction of V2V-equipped cars,
    and r > 1 the expected cost of driving recklessly into an accident.
    """

    beta: float
    y: float
    r: float
    hazard: HazardCurve
    signal_reach: SignalReachCurve

    def __post_init__(self) -> None:
        validate_game(self)

    @property
    def signal_rate(self) -> float:
        """beta * q(y): probability an accident is shown to a V2V driver."""
        return self.beta * self.signal_reach(self.y)


@dataclass(frozen=True)
class BehaviorProfile:
    """Reckless mass in each group: non-V2V, unsignaled V2V, signaled V2V."""

    x_n: float
    x_vu: float
    x_vs: float = 0.0

    def __post_init__(self) -> None:
        for name in ("x_n", "x_vu", "x_vs"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or not math.isfinite(v) or v < 0:
                raise InputError(
                    f"reckless mass {name} must be a finite nonnegative number, got {v!r}"
                )


def validate_game(game: SignalingGame) -> SignalingGame:
    """Check every game invariant; returns the game unchanged if all hold.

    The curves are frozen and validated at their own construction, so only
    their type and the derived signal rate are checked here.
    """
    for name in ("beta", "y", "r"):
        v = getattr(game, name)
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ParameterError(f"game parameter {name} must be a finite number, got {v!r}")
    if not 0.0 <= game.beta <= 1.0:
        raise ParameterError(f"signal quality beta must lie in [0, 1], got {game.beta!r}")
    if not 0.0 <= game.y <= 1.0:
        raise ParameterError(f"V2V penetration y must lie in [0, 1], got {game.y!r}")
    if not game.r > 1.0:
        raise ParameterError(f"accident cost r must exceed 1, got {game.r!r}")
    if not isinstance(game.hazard, HazardCurve):
        raise CurveError(f"unsupported hazard curve {game.hazard!r}")
    if not isinstance(game.signal_reach, SignalReachCurve):
        raise CurveError(f"unsupported signal reach curve {game.signal_reach!r}")
    rate = game.beta * game.signal_reach(game.y)
    if not 0.0 <= rate <= 1.0:
        raise ParameterError(f"derived signal rate beta*q(y) = {rate!r} escapes [0, 1]")
    return game


def validate_profile(game: SignalingGame, profile: BehaviorProfile) -> BehaviorProfile:
    """Check the profile's masses against the game's group sizes."""
    if profile.x_n > 1.0 - game.y + GROUP_SLACK:
        raise InputError(
            f"non-V2V reckless mass {profile.x_n!r} exceeds group size {1.0 - game.y:.12g}"
        )
    if profile.x_vu > game.y + GROUP_SLACK:
        raise InputError(
            f"unsignaled V2V reckless mass {profile.x_vu!r} exceeds group size {game.y:.12g}"
        )
    if profile.x_vs > game.y + GROUP_SLACK:
        raise InputError(
            f"signaled V2V reckless mass {profile.x_vs!r} exceeds group size {game.y:.12g}"
        )
    return profile
