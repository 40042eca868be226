"""Domain types for hazard-signaling games.

A game couples a strictly increasing hazard curve p(d) (accident
probability as a function of the total reckless driver mass), a signal
reach curve q(y) (chance a hazard is detected and broadcast at V2V
penetration y), a display quality beta, a penetration y, and an accident
cost r > 1. Behavior profiles record the reckless mass in each of the
three driver groups: non-V2V, unsignaled V2V, and signaled V2V.

All types are immutable and validated at construction; curves and games
also store their parameters there as Python floats. Every operation is a
pure function, so everything here is safe for concurrent use. The only
mutable state is one cache in an instance __dict__: design's memo of solved
signal qualities on each SignalingGame. Concurrent callers at worst both
build the same entry, with identical bits.

A curve takes one number and returns one float, in pure Python: the solvers
call curves tens of times per solve, one mass at a time. An array or a list
is refused like any other non-number, and this module never imports numpy.
The oracle's scan is the one place that evaluates curves on arrays (see
oracle._hazard_at); a table's scalar path reproduces np.interp bit for bit,
so the scan and the solvers read the same table.

Numbers follow one rule where they enter the package: any finite real
(int, bool, float, numpy scalar, Fraction) converts once to a Python float
through _float, anything else is refused, not converted, and _number adds
a range check that clamps overshoot (UNIT_SLACK for curve arguments and
inverse targets, 1e-12 for probabilities). A curve's __call__ runs _number,
then the family's _eval, which checks nothing; the inner loops (the
fixed-point bisection, the table inverse and region classification) call
_eval directly, so no loop step pays for a check.

Both scalar bisections (the table inverse and the consistency fixed point)
are guided by a guess of their root and a margin around it. The guess only
lets _bisect skip the steps whose outcome is certain; it still returns the
plain bisection's (x, f(x)), bit for bit. Each hazard family solves the
consistency fixed point itself: its _fixed_point(x_n, x_vu, rate) bisects
_gap, the one float evaluation of the fixed point's gap, guided by the
family's own guess and margin, and returns (P, gap(P)). Affine and table
hazards solve the linear piece that holds the mass in closed form
(_piece_fixed_point), and a power hazard takes a few safeguarded Newton
steps (PowerHazard._fixed_point).
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass

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
    "validate_profile",
]

#: tolerated floating overshoot outside [0, 1] before an argument is rejected
UNIT_SLACK = 1e-9

#: tolerated floating overshoot of a reckless mass over its group's size
GROUP_SLACK = 1e-9

#: bisection stops once |f(x)| is within this (or the bracket is 4 ulp wide); a
#: guided bisection's margin covers it, so steps it skips could not have stopped
BISECT_TOL = 1e-12

#: bisection also stops once its bracket is narrower than this (4 ulp of 1)
_BRACKET_MIN = 4.0 * math.ulp(1.0)

#: bisection iteration cap; the bracket collapses to float resolution long before this
MAX_ITERATIONS = 200

#: rounding slack of a guided bisection's margin: 64 ulp of 1, several times
#: the few ulp (per unit of the steepest slope) that a curve evaluation, its
#: clamped argument and a closed-form guess may each be off by
_ROUNDING = 64.0 * math.ulp(1.0)

#: most Newton steps of a power hazard's fixed-point guess; on the benchmark's
#: pools it takes about two on average and seldom reaches this cap
_NEWTON_STEPS = 8

#: largest rounding bound E at which a power hazard's fixed point is guided;
#: far below the size at which E's first-order error analysis would fail
_NEWTON_ERROR_MAX = 1e-3

#: most points a beta grid or an oracle lattice may hold, checked before allocating one
MAX_GRID_POINTS = 1_000_000


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


def _real(x) -> bool:
    """True for a real number of any type: int, bool, float, a numpy scalar,
    a Fraction. False for text, None, complex numbers and arrays."""
    return isinstance(x, numbers.Real)


def _float(x) -> float:
    """x as a Python float if it is a finite real number of any type (an int,
    a numpy scalar, a Fraction). Anything else gives nan, which fails every
    range check: text, None, complex numbers, inf, nan, an int too large for a float."""
    if type(x) is not float:
        if not _real(x):
            return math.nan
        try:
            x = float(x)
        except OverflowError:
            return math.nan
    return x if math.isfinite(x) else math.nan


def _number(x, what: str, lo: float, hi: float, slack: float, error=InputError) -> float:
    """x as a Python float in [lo, hi], clamping overshoot of up to slack.

    The range is checked on _float(x), so every real type passes as its
    float does (a huge int as nan). Out of range raises error; a non-number
    raises InputError.
    """
    if type(x) is float and lo <= x <= hi:
        return x
    v = _float(x)
    if not lo - slack <= v <= hi + slack:
        if not _real(x):
            raise InputError(f"{what} must be a number, got {_show(x)}")
        raise error(f"{what} must lie in [{lo:.12g}, {hi:.12g}], got {_show(x)}")
    return min(max(v, lo), hi)


def _show(v) -> str:
    """repr(v) for an error message. Python refuses to print an int of more
    than 4300 digits, so such an int, alone or in a tuple or list, shows as
    its size instead."""
    try:
        return repr(v)
    except ValueError:
        if isinstance(v, int):
            return f"<{'negative ' if v < 0 else ''}int of {v.bit_length()} bits>"
        if isinstance(v, (tuple, list)):
            return "(" + ", ".join(map(_show, v)) + ")"
        return f"<{type(v).__name__} too long to print>"


def _bisect(
    f, lo: float, hi: float, guess: float = math.nan, margin: float = math.inf
) -> tuple[float, float]:
    """Root of an increasing scalar function on [lo, hi]; returns (x, f(x)).

    Stops when |f(x)| <= BISECT_TOL or the bracket is narrower than 4 ulp of 1.

    guess and margin make the bisection guided, with the same result. The
    caller promises f(x) > BISECT_TOL wherever x > guess + margin and
    f(x) < -BISECT_TOL wherever x < guess - margin, rounding included. At
    such a midpoint the plain step would neither stop nor move any other
    way, so it is taken without calling f; only midpoints within the
    margin, and the last step on a collapsed bracket, call f. The loop thus
    visits the same midpoints and returns the same (x, f(x)) as without a
    guess. A NaN guess or an infinite margin skips nothing. A bracket inside
    [0, 1] collapses within about 55 steps, so the loop ends on a call of f.
    """
    below, above = guess - margin, guess + margin
    for _ in range(MAX_ITERATIONS):
        x = 0.5 * (lo + hi)
        if x > above and (hi - lo) >= _BRACKET_MIN:
            hi = x
            continue
        if x < below and (hi - lo) >= _BRACKET_MIN:
            lo = x
            continue
        fx = f(x)
        if abs(fx) <= BISECT_TOL or (hi - lo) < _BRACKET_MIN:
            break
        if fx > 0.0:
            hi = x
        else:
            lo = x
    return x, fx


def _linear_pieces(hazard, segments, first: float, last: float) -> tuple:
    """A hazard's linear pieces, for the consistency fixed point's guess.

    Each piece is (first mass, last mass, d_j, slope_j, v_j), meaning
    p(d) = slope_j * (d - d_j) + v_j for masses in the closed range.
    `segments` cover [first, last]; the fixed point clamps its mass to
    [0, 1], so below first the curve reads p(0) and above last p(1), and
    two flat pieces say so.
    """
    return (
        *segments,
        (last, math.inf, 0.0, 0.0, hazard._eval(1.0)),
        (-math.inf, first, 0.0, 0.0, hazard._eval(0.0)),
    )


def _gap(hazard, x_n: float, x_vu: float, rate: float):
    """The consistency fixed point's gap g(P) = P - p(x_n + (1 - P*rate)*x_vu),
    its mass clamped to [0, 1], as the one float function every family's
    _fixed_point bisects and checks its guess and margin against. g rises at
    least as fast as P, so |g(P)| >= |P - P*| but for rounding."""
    p = hazard._eval

    def gap(P: float) -> float:
        return P - p(min(max(x_n + (1.0 - P * rate) * x_vu, 0.0), 1.0))

    return gap


def _piece_fixed_point(hazard, x_n: float, x_vu: float, rate: float) -> tuple[float, float]:
    """(P, gap(P)) of the consistency fixed point for a piecewise-linear
    hazard, bisected guided by the closed form
    P = (s(x_n + x_vu - d_j) + v_j) / (1 + s*rate*x_vu) on the first piece
    p(d) = s(d - d_j) + v_j that holds its own mass (no guess if none does),
    within the hazard's _fixed_point_margin: BISECT_TOL plus rounding that
    grows with the steepest slope."""
    for first, last, d, s, v in hazard._pieces:
        guess = (s * (x_n + x_vu - d) + v) / (1.0 + s * rate * x_vu)
        if first <= x_n + (1.0 - guess * rate) * x_vu <= last:
            break
    else:
        guess = math.nan
    gap = _gap(hazard, x_n, x_vu, rate)
    return _bisect(gap, hazard.floor, hazard.ceiling, guess, hazard._fixed_point_margin)


@dataclass(frozen=True)
class AffineHazard:
    """p(d) = slope * d + intercept."""

    slope: float
    intercept: float

    def __post_init__(self) -> None:
        slope, intercept = _float(self.slope), _float(self.intercept)
        if math.isnan(slope) or math.isnan(intercept):
            raise CurveError(
                f"affine hazard parameters must be finite numbers, got slope {_show(self.slope)} "
                f"and intercept {_show(self.intercept)}"
            )
        if slope <= 0:
            raise CurveError(
                f"affine hazard must be strictly increasing (slope > 0), got slope {slope!r}"
            )
        if intercept < 0:
            raise CurveError(f"affine hazard needs p(0) >= 0, got intercept {intercept!r}")
        if slope + intercept > 1.0 + 1e-12:
            raise CurveError(f"affine hazard needs p(1) <= 1, got p(1) = {slope + intercept!r}")
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "intercept", intercept)
        pieces = _linear_pieces(self, ((0.0, 1.0, 0.0, slope, intercept),), 0.0, 1.0)
        object.__setattr__(self, "_pieces", pieces)
        object.__setattr__(self, "_fixed_point_margin", BISECT_TOL + _ROUNDING * (1.0 + slope))

    @property
    def floor(self) -> float:
        return self.intercept

    @property
    def ceiling(self) -> float:
        return min(self.slope + self.intercept, 1.0)

    def __call__(self, d):
        return self._eval(_number(d, "reckless mass", 0.0, 1.0, UNIT_SLACK))

    def _eval(self, d):
        return self.slope * d + self.intercept

    def inverse(self, v: float) -> float:
        v = _number(v, "target probability", self.floor, self.ceiling, UNIT_SLACK, RangeError)
        return min(max((v - self.intercept) / self.slope, 0.0), 1.0)

    _fixed_point = _piece_fixed_point


@dataclass(frozen=True)
class PowerHazard:
    """p(d) = d ** exponent with exponent > 0 (so p(0) = 0, p(1) = 1).

    The consistency fixed point has no closed form here, so _fixed_point
    guides its bisection of _gap by a few safeguarded Newton steps, within a
    margin made of the guess's own gap plus a bound on the gap's rounding.
    """

    exponent: float

    def __post_init__(self) -> None:
        exponent = _float(self.exponent)
        if not exponent > 0:
            raise CurveError(
                f"power hazard must be strictly increasing (exponent > 0), got {_show(self.exponent)}"
            )
        object.__setattr__(self, "exponent", exponent)

    @property
    def floor(self) -> float:
        return 0.0

    @property
    def ceiling(self) -> float:
        return 1.0

    def __call__(self, d):
        return self._eval(_number(d, "reckless mass", 0.0, 1.0, UNIT_SLACK))

    def _eval(self, d):
        return d ** self.exponent

    def inverse(self, v: float) -> float:
        v = _number(v, "target probability", 0.0, 1.0, UNIT_SLACK, RangeError)
        return min(max(v ** (1.0 / self.exponent), 0.0), 1.0)

    def _fixed_point(self, x_n: float, x_vu: float, rate: float) -> tuple[float, float]:
        """(P, gap(P)) of the consistency fixed point P = p(m(P)), with
        m(P) = x_n + (1 - P*rate)*x_vu clamped to [0, 1] (see _gap).

        The bisection's guess is at most _NEWTON_STEPS Newton steps on the
        gap g, from p(m(0)), inside the bracket the signs of g have shown so
        far. It stops once |g| <= E, past which a step would shrink the
        margin by less than E, or once a step no longer moves P. The gap
        rises at least as fast as P, so |guess - P*| <= |g(guess)| + E,
        where E bounds the rounding of one evaluation of g: m carries a
        relative error of at most u(3 + rate/(1 - rate)) (u = 2**-53; the
        last term is P*rate's error over 1 - P*rate), the power multiplies
        it by the exponent k, and pow and the final subtraction add a few
        ulp each. E = _ROUNDING * (3 + k(3 + rate/(1 - rate))) holds that
        more than a hundred times over. A midpoint farther than
        BISECT_TOL + 2E + |g(guess)| from the guess thus lies more than
        BISECT_TOL + E from P*, where the computed gap exceeds BISECT_TOL in
        size, so that is a safe margin. At rate = 1 the mass's relative
        error is unbounded, and where E exceeds _NEWTON_ERROR_MAX the
        first-order bound is no longer worth trusting; the fixed point then
        bisects plainly.
        """
        gap = _gap(self, x_n, x_vu, rate)
        k = self.exponent
        error = _ROUNDING * (3.0 + k * (3.0 + rate / (1.0 - rate))) if rate < 1.0 else math.inf
        if not error <= _NEWTON_ERROR_MAX:
            return _bisect(gap, 0.0, 1.0, math.nan, math.inf)
        lo, hi = 0.0, 1.0
        c = k * rate * x_vu
        P = min(max(x_n + x_vu, 0.0), 1.0) ** k
        for step in range(_NEWTON_STEPS + 1):
            g = gap(P)
            if abs(g) <= error or step == _NEWTON_STEPS:
                break
            if g > 0.0:
                hi = P
            else:
                lo = P
            # g'(P) = 1 + c*d**(k - 1) at the mass d, taken as 1 where the
            # mass clamps to 0; p(d) is P - g up to rounding
            d = x_n + (1.0 - P * rate) * x_vu
            newton = P - g / (1.0 + c * (P - g) / d) if d > 0.0 else P - g
            if newton == P:
                break
            P = newton if lo < newton < hi else 0.5 * (lo + hi)
        return _bisect(gap, 0.0, 1.0, P, BISECT_TOL + 2.0 * error + abs(g))


def _float_knots(knots) -> tuple[tuple[float, float], ...]:
    """A table's knots as pairs of floats.

    Anything but a sequence of pairs of finite numbers raises CurveError,
    not the TypeError, ValueError or OverflowError of unpacking or float().
    """
    try:
        knots = tuple(knots)
    except TypeError:
        raise CurveError(
            f"hazard table knots must be a sequence of (mass, probability) pairs, got {_show(knots)}"
        ) from None
    pairs = []
    for knot in knots:
        try:
            d, v = knot
        except (TypeError, ValueError):
            raise CurveError(
                f"hazard table knot {_show(knot)} is not a (mass, probability) pair"
            ) from None
        d, v = _float(d), _float(v)
        if math.isnan(d) or math.isnan(v):
            raise CurveError(f"hazard table knots must be finite numbers, got {_show(knot)}")
        pairs.append((d, v))
    return tuple(pairs)


@dataclass(frozen=True)
class TableHazard:
    """Piecewise-linear hazard through (mass, probability) knots.

    Knots must start at d = 0, end at d = 1, and increase strictly in both
    coordinates, with probabilities staying inside [0, 1]. A mass is
    evaluated in pure Python with np.interp's rules and formula, so it gets
    np.interp's value on the knot coordinates bit for bit, as the oracle's
    scan reads the table.

    Inversion is by bisection to BISECT_TOL in value space, guided by the
    closed form d_j + (v - v_j)/slope_j on the segment that holds v: every
    step whose midpoint lies more than a margin from it is taken without
    evaluating the curve, and the result keeps the plain bisection's bits.
    The curve rises at least s_min (its least slope) per unit of mass, except
    on the at most 1e-12 of [0, 1] that validation lets the end knots leave
    uncovered, so the margin is BISECT_TOL / s_min plus rounding and those
    ends. Where the guess's own segment holds the margin BISECT_TOL / slope_j
    (plus rounding) on both sides, or [0, 1] ends within it, that segment's
    margin is used instead: a steep segment next to a shallow one would
    otherwise evaluate every midpoint of a wide margin. On a segment flatter
    than BISECT_TOL / GROUP_SLACK (1e-3) the bisection may stop farther than
    GROUP_SLACK from the closed form, past a small group's size; the clamped
    closed form is returned then. The analytic families invert in closed form.

    _pieces lists the segments and the flat ends for the consistency fixed
    point's closed-form guess (see _linear_pieces); that guess is safe
    within _fixed_point_margin, which grows with the steepest slope.
    """

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "knots", _float_knots(self.knots))
        if len(self.knots) < 2:
            raise CurveError("hazard table needs at least two knots")
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
        object.__setattr__(self, "_ds", tuple(ds))
        object.__setattr__(self, "_vs", tuple(vs))
        # np.interp's own slope formula, so the scalar path rounds exactly as it does
        slopes = tuple(
            (v1 - v0) / (d1 - d0) for (d0, v0), (d1, v1) in zip(self.knots, self.knots[1:])
        )
        object.__setattr__(self, "_slopes", slopes)
        segments = tuple(
            (max(d0, 0.0), min(d1, 1.0), d0, s, v0)
            for (d0, v0), (d1, _), s in zip(self.knots, self.knots[1:], slopes)
        )
        pieces = _linear_pieces(self, segments, max(ds[0], 0.0), min(ds[-1], 1.0))
        object.__setattr__(self, "_pieces", pieces)
        object.__setattr__(
            self, "_fixed_point_margin", BISECT_TOL + _ROUNDING * (1.0 + max(slopes))
        )
        object.__setattr__(
            self,
            "_inverse_margin",
            (BISECT_TOL + _ROUNDING) / min(slopes)
            + _ROUNDING
            + max(ds[0], 0.0)
            + max(1.0 - ds[-1], 0.0),
        )
        object.__setattr__(
            self, "_segment_margins", tuple((BISECT_TOL + _ROUNDING) / s + _ROUNDING for s in slopes)
        )

    @property
    def floor(self) -> float:
        return self.knots[0][1]

    @property
    def ceiling(self) -> float:
        return self.knots[-1][1]

    def __call__(self, d):
        return self._eval(_number(d, "reckless mass", 0.0, 1.0, UNIT_SLACK))

    def _eval(self, d):
        # np.interp's branches: below the first knot, at or past the last knot,
        # exactly on a knot (no slope, which may be inf), inside a segment
        ds = self._ds
        j = bisect.bisect_right(ds, d) - 1
        if j < 0:
            return self._vs[0]
        if j == len(ds) - 1 or ds[j] == d:
            return self._vs[j]
        return self._slopes[j] * (d - ds[j]) + self._vs[j]

    _fixed_point = _piece_fixed_point

    def inverse(self, v: float) -> float:
        v = _number(v, "target probability", self.floor, self.ceiling, UNIT_SLACK, RangeError)
        vs = self._vs
        j = min(bisect.bisect_right(vs, v), len(vs) - 1) - 1
        ds = self._ds
        guess = ds[j] + (v - vs[j]) / self._slopes[j]
        margin = self._segment_margins[j]
        below, above = guess - margin, guess + margin
        if not (
            (below - _ROUNDING >= ds[j] or below <= 0.0)
            and (above + _ROUNDING <= ds[j + 1] or above >= 1.0)
        ):
            margin = self._inverse_margin
        d = _bisect(lambda d: self._eval(d) - v, 0.0, 1.0, guess, margin)[0]
        return d if abs(d - guess) <= GROUP_SLACK else min(max(guess, 0.0), 1.0)


@dataclass(frozen=True)
class LinearReach:
    """q(y) = slope * y."""

    slope: float

    def __post_init__(self) -> None:
        slope = _float(self.slope)
        if not 0.0 <= slope <= 1.0:
            raise CurveError(
                f"linear reach slope must lie in [0, 1] to keep q inside [0, 1], got {_show(self.slope)}"
            )
        object.__setattr__(self, "slope", slope)

    def __call__(self, y):
        return self.slope * _number(y, "penetration", 0.0, 1.0, UNIT_SLACK)


@dataclass(frozen=True)
class ConstantReach:
    """q(y) = value, independent of penetration."""

    value: float

    def __post_init__(self) -> None:
        value = _float(self.value)
        if not 0.0 <= value <= 1.0:
            raise CurveError(f"constant reach must lie in [0, 1], got {_show(self.value)}")
        object.__setattr__(self, "value", value)

    def __call__(self, y):
        _number(y, "penetration", 0.0, 1.0, UNIT_SLACK)
        return self.value


HazardCurve = AffineHazard | PowerHazard | TableHazard
SignalReachCurve = LinearReach | ConstantReach


@dataclass(frozen=True)
class SignalingGame:
    """One game instance: display quality, penetration, stakes, and curves.

    beta is the probability a received warning is actually shown to the
    driver (the designer's control), y the fraction of V2V-equipped cars,
    and r > 1 the expected cost of driving recklessly into an accident.

    The constructor checks every invariant and settles the game's numbers
    once: beta, y and r are stored as Python floats (any finite real number
    converts), and so are three derived values that every solver reads
    rather than recomputes: signal_rate = beta*q(y), the chance an accident
    is shown to a V2V driver; t_prior = 1/(1+r), the accident belief at
    which a driver is indifferent; and t_unsignaled = 1/(1+r(1-signal_rate)),
    the accident probability at which an unsignaled V2V driver's posterior
    reaches t_prior.

    Neither these nor the memo of solved betas that design keeps in the
    instance __dict__ are fields: ==, hash, repr, dataclasses.fields and
    dataclasses.replace ignore them, so replace computes the derived values
    anew and an equal game built anew starts with an empty memo.
    """

    beta: float
    y: float
    r: float
    hazard: HazardCurve
    signal_reach: SignalReachCurve

    def __post_init__(self) -> None:
        for name in ("beta", "y", "r"):
            v = _float(getattr(self, name))
            if math.isnan(v):
                raise ParameterError(
                    f"game parameter {name} must be a finite number, "
                    f"got {_show(getattr(self, name))}"
                )
            object.__setattr__(self, name, v)
        beta, y, r = self.beta, self.y, self.r
        if not 0.0 <= beta <= 1.0:
            raise ParameterError(f"signal quality beta must lie in [0, 1], got {beta!r}")
        if not 0.0 <= y <= 1.0:
            raise ParameterError(f"V2V penetration y must lie in [0, 1], got {y!r}")
        if not r > 1.0:
            raise ParameterError(f"accident cost r must exceed 1, got {r!r}")
        if not isinstance(self.hazard, HazardCurve):
            raise CurveError(f"unsupported hazard curve {_show(self.hazard)}")
        if not isinstance(self.signal_reach, SignalReachCurve):
            raise CurveError(f"unsupported signal reach curve {_show(self.signal_reach)}")
        rate = beta * self.signal_reach(y)
        if not 0.0 <= rate <= 1.0:
            raise ParameterError(f"derived signal rate beta*q(y) = {rate!r} escapes [0, 1]")
        object.__setattr__(self, "signal_rate", rate)
        object.__setattr__(self, "t_prior", 1.0 / (1.0 + r))
        object.__setattr__(self, "t_unsignaled", 1.0 / (1.0 + r * (1.0 - rate)))


@dataclass(frozen=True)
class BehaviorProfile:
    """Reckless mass in each group: non-V2V, unsignaled V2V, signaled V2V,
    each stored as a Python float."""

    x_n: float
    x_vu: float
    x_vs: float = 0.0

    def __post_init__(self) -> None:
        for name in ("x_n", "x_vu", "x_vs"):
            v = _float(getattr(self, name))
            if not v >= 0:
                raise InputError(
                    f"reckless mass {name} must be a finite nonnegative number, "
                    f"got {_show(getattr(self, name))}"
                )
            object.__setattr__(self, name, v)


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
