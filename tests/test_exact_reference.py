"""Exact rational references for the solver's fixed points.

In NCVR and NRVR the equilibrium P solves P = p(x_n + (1 - P·ρ)·x_vu) with
ρ = β·q(y). For an affine hazard p(d) = a·d + b that equation is linear, so

    P* = (a·(x_n + x_vu) + b) / (1 + a·ρ·x_vu)

holds exactly when every float parameter is read as the rational it is.
"""

import math
import random
from fractions import Fraction

from hazardsignal import AffineHazard, Region, classify_region, solve_equilibrium
from hazardsignal.model import BISECT_TOL

from conftest import random_game

#: the bisection stops once |P - p(...)| <= BISECT_TOL or its bracket is
#: narrower than 4 ulp of 1; the map's slope is at least 1, so P is that close
FIXED_POINT_BOUND = BISECT_TOL + 4 * math.ulp(1.0)


def exact_affine_P(game, profile) -> Fraction:
    a, b = Fraction(game.hazard.slope), Fraction(game.hazard.intercept)
    rho = Fraction(game.signal_rate)
    x_n, x_vu = Fraction(profile.x_n), Fraction(profile.x_vu)
    return (a * (x_n + x_vu) + b) / (1 + a * rho * x_vu)


def affine_fixed_point_games(seed: int, count: int):
    """The first count random_game draws with an affine hazard in NCVR or NRVR."""
    rng = random.Random(seed)
    while count:
        game = random_game(rng)
        if isinstance(game.hazard, AffineHazard) and classify_region(game) in (
            Region.NCVR,
            Region.NRVR,
        ):
            count -= 1
            yield game, solve_equilibrium(game)


def test_exact_reference_is_a_fixed_point():
    # the formula solves the linear equation exactly, not only to float precision
    for game, rep in affine_fixed_point_games(seed=3, count=200):
        P = exact_affine_P(game, rep.x_ne)
        a, b = Fraction(game.hazard.slope), Fraction(game.hazard.intercept)
        rho = Fraction(game.signal_rate)
        x_n, x_vu = Fraction(rep.x_ne.x_n), Fraction(rep.x_ne.x_vu)
        assert P == a * (x_n + (1 - P * rho) * x_vu) + b


def test_affine_fixed_point_within_bisection_bound():
    for game, rep in affine_fixed_point_games(seed=11, count=3000):
        error = abs(Fraction(rep.P) - exact_affine_P(game, rep.x_ne))
        assert error <= FIXED_POINT_BOUND, (game, rep.region, float(error))
