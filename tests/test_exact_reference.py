"""Exact rational references for the solver's fixed points.

In NCVR and NRVR the equilibrium P solves P = p(x_n + (1 - P·ρ)·x_vu) with
ρ = β·q(y). For an affine hazard p(d) = a·d + b that equation is linear, so

    P* = (a·(x_n + x_vu) + b) / (1 + a·ρ·x_vu)

holds exactly when every float parameter is read as the rational it is.
A table hazard is linear on each segment between its knots and flat past
its end knots, so its fixed point is that closed form on the one piece that
holds its own mass, and its inverse is d_j + (v - v_j)/s_j on the segment
that holds v, both exact in rationals.

A power hazard p(d) = d**k has no closed-form fixed point, so its reference
is a bisection in 50-digit decimal arithmetic (the standard library's
decimal, not mpmath, which the package does not depend on).
"""

import dataclasses
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

from hypothesis import given, strategies as st

from hazardsignal import (
    AffineHazard,
    BehaviorProfile,
    PowerHazard,
    Region,
    classify_region,
    solve_equilibrium,
    solve_profile_P,
)
from hazardsignal.model import BISECT_TOL, GROUP_SLACK

from conftest import adversarial_tables, knot_targets, random_game, table_curves

#: the bisection stops once |P - p(...)| <= BISECT_TOL or its bracket is
#: narrower than 4 ulp of 1; the map's slope is at least 1, so P is that close
FIXED_POINT_BOUND = BISECT_TOL + 4 * math.ulp(1.0)


def exact_affine_P(game, profile) -> Fraction:
    a, b = Fraction(game.hazard.slope), Fraction(game.hazard.intercept)
    rho = Fraction(game.signal_rate)
    x_n, x_vu = Fraction(profile.x_n), Fraction(profile.x_vu)
    return (a * (x_n + x_vu) + b) / (1 + a * rho * x_vu)


def fixed_point_games(family, seed: int, count: int):
    """The first count random_game draws with a family hazard in NCVR or NRVR."""
    rng = random.Random(seed)
    while count:
        game = random_game(rng)
        if isinstance(game.hazard, family) and classify_region(game) in (
            Region.NCVR,
            Region.NRVR,
        ):
            count -= 1
            yield game, solve_equilibrium(game)


def test_exact_reference_is_a_fixed_point():
    # the formula solves the linear equation exactly, not only to float precision
    for game, rep in fixed_point_games(AffineHazard, seed=3, count=200):
        P = exact_affine_P(game, rep.x_ne)
        a, b = Fraction(game.hazard.slope), Fraction(game.hazard.intercept)
        rho = Fraction(game.signal_rate)
        x_n, x_vu = Fraction(rep.x_ne.x_n), Fraction(rep.x_ne.x_vu)
        assert P == a * (x_n + (1 - P * rho) * x_vu) + b


def test_affine_fixed_point_within_bisection_bound():
    for game, rep in fixed_point_games(AffineHazard, seed=11, count=3000):
        error = abs(Fraction(rep.P) - exact_affine_P(game, rep.x_ne))
        assert error <= FIXED_POINT_BOUND, (game, rep.region, float(error))


#: the rounding a guided bisection's margin allows per unit of slope: 64 ulp of 1
ROUNDING = 64 * math.ulp(1.0)


def exact_table(curve):
    """The table's knots and segment slopes as rationals."""
    knots = [(Fraction(d), Fraction(v)) for d, v in curve.knots]
    slopes = [(v1 - v0) / (d1 - d0) for (d0, v0), (d1, v1) in zip(knots, knots[1:])]
    return knots, slopes


def exact_table_eval(knots, slopes, d: Fraction) -> Fraction:
    """p(d) of the table read exactly, flat past its end knots, as np.interp is."""
    if d <= knots[0][0]:
        return knots[0][1]
    for (d0, v0), (d1, _), s in zip(knots, knots[1:], slopes):
        if d <= d1:
            return s * (d - d0) + v0
    return knots[-1][1]


def exact_table_P(game, profile) -> Fraction:
    """The fixed point P = p(m(P)), m(P) = x_n + (1 - P·ρ)·x_vu clamped to [0, 1],
    of a table game: one candidate per piece, kept when it is a fixed point."""
    knots, slopes = exact_table(game.hazard)
    rho = Fraction(game.signal_rate)
    x_n, x_vu = Fraction(profile.x_n), Fraction(profile.x_vu)

    def p_of_mass(P):
        return exact_table_eval(knots, slopes, min(max(x_n + (1 - P * rho) * x_vu, 0), 1))

    candidates = [
        (s * (x_n + x_vu - d) + v) / (1 + s * rho * x_vu) for (d, v), s in zip(knots, slopes)
    ]
    # the flat stretches past the end knots, and a mass clamped to 1
    candidates += [knots[0][1], knots[-1][1], exact_table_eval(knots, slopes, Fraction(1))]
    [P] = {P for P in candidates if P == p_of_mass(P)}
    return P


def exact_table_inverse(curve, v: float) -> Fraction:
    """The mass in [0, 1] at which the segment that holds v reaches it, read exactly."""
    knots, slopes = exact_table(curve)
    v = Fraction(v)
    for (d0, v0), (_, v1), s in zip(knots, knots[1:], slopes):
        if v <= v1:
            return min(max(d0 + (v - v0) / s, Fraction(0)), Fraction(1))


@given(
    st.one_of(table_curves(), adversarial_tables()),
    st.randoms(use_true_random=False),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
def test_table_fixed_point_within_bisection_bound(curve, rng, a, b):
    # the bisection stops once |gap| <= BISECT_TOL or its bracket is 4 ulp
    # wide, and the gap rises at least as fast as P, so P lies within that
    # of the exact root, plus the gap's rounding, which grows with the
    # steepest slope (the table's fixed-point margin)
    game = dataclasses.replace(random_game(rng), hazard=curve)
    _, slopes = exact_table(curve)
    bound = FIXED_POINT_BOUND + ROUNDING * (1 + float(max(slopes)))
    y = game.y
    for x_n, x_vu in ((0.0, 0.0), (0.0, y), (1.0 - y, y), (a * (1.0 - y), b * y)):
        profile = BehaviorProfile(x_n, x_vu, 0.0)
        P = solve_profile_P(game, profile).P
        error = abs(Fraction(P) - exact_table_P(game, profile))
        assert error <= bound, (curve, game, profile, float(error))


@given(st.one_of(table_curves(), adversarial_tables()), st.lists(st.floats(0.0, 1.0), max_size=4))
def test_table_inverse_within_bisection_bound(curve, ts):
    # the TableHazard docstring's bound: BISECT_TOL / s_min plus rounding and
    # the ends of [0, 1] that the end knots may leave uncovered, and never more
    # than GROUP_SLACK plus rounding, past which the closed form is returned
    knots, slopes = exact_table(curve)
    bound = (
        min((BISECT_TOL + ROUNDING) / float(min(slopes)), GROUP_SLACK)
        + ROUNDING
        + 4 * math.ulp(1.0)
        + max(curve.knots[0][0], 0.0)
        + max(1.0 - curve.knots[-1][0], 0.0)
    )
    targets = knot_targets(curve) + [curve.floor + t * (curve.ceiling - curve.floor) for t in ts]
    for v in targets:
        error = abs(Fraction(curve.inverse(v)) - exact_table_inverse(curve, v))
        assert error <= bound, (curve.knots, v, float(error), bound)


#: the power reference's working precision and the width of its final bracket
DIGITS = 50
REFERENCE_WIDTH = Decimal(10) ** -30


def exact_power_P(game, profile) -> tuple[Decimal, Decimal]:
    """A bracket [lo, hi] around the fixed point P = m(P)**k of a power game,
    m(P) = x_n + (1 - P·ρ)·x_vu clamped to [0, 1], bisected in decimal with
    every float parameter read as the number it is."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        k, rho = Decimal(game.hazard.exponent), Decimal(game.signal_rate)
        x_n, x_vu = Decimal(profile.x_n), Decimal(profile.x_vu)
        lo, hi = Decimal(0), Decimal(1)
        while hi - lo > REFERENCE_WIDTH:
            mid = (lo + hi) / 2
            mass = min(max(x_n + (1 - mid * rho) * x_vu, Decimal(0)), Decimal(1))
            if mid > mass**k:
                hi = mid
            else:
                lo = mid
        return lo, hi


def power_fixed_point_bound(game) -> float:
    """FIXED_POINT_BOUND plus E, the bound on one gap evaluation's rounding
    that PowerHazard._fixed_point guides its bisection by (see its docstring)."""
    k, rate = game.hazard.exponent, game.signal_rate
    return FIXED_POINT_BOUND + ROUNDING * (3.0 + k * (3.0 + rate / (1.0 - rate)))


def test_power_fixed_point_within_bisection_bound():
    # random_game draws exponents in [0.3, 3] and no signal rate within a few
    # ulp of 1, where E's first-order rounding bound would not be trusted
    for game, rep in fixed_point_games(PowerHazard, seed=13, count=150):
        lo, hi = exact_power_P(game, rep.x_ne)
        P = Decimal(rep.P)
        error = max(abs(P - lo), abs(P - hi))
        assert error <= Decimal(power_fixed_point_bound(game)), (game, rep.region, float(error))
