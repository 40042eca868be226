"""Region classification, closed-form equilibria, and their invariants."""

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np

import pytest
from hypothesis import example, given, settings, strategies as st

from hazardsignal import (
    AffineHazard,
    ConstantReach,
    DegenerateSignalError,
    LinearReach,
    LogicError,
    PowerHazard,
    Region,
    SignalingGame,
    TableHazard,
    check_equilibrium_conditions,
    classify_region,
    solve_equilibrium,
    solve_profile_P,
    with_beta,
)
from hazardsignal import equilibrium

from conftest import (
    adoption_backfire_game,
    all_reckless_game,
    cost_reversal_game,
    extreme_game,
    random_game,
    same_bits,
    steep_hazard_game,
    table_curves,
)

import generator


class TestClassifyRegion:
    def test_steep_hazard_endpoints(self):
        assert classify_region(steep_hazard_game(0.0)) is Region.NCVC
        assert classify_region(steep_hazard_game(1.0)) is Region.NCVI

    def test_backfire_game_is_ncvr_at_full_quality(self):
        assert classify_region(adoption_backfire_game(1.0)) is Region.NCVR

    def test_backfire_game_at_zero_quality(self):
        # beta*q = 0 collapses the two careful-side thresholds to 1/(1+r),
        # so the game sits in NCVI with P = 1/(1+r)
        assert classify_region(adoption_backfire_game(0.0)) is Region.NCVI

    def test_all_reckless_game(self):
        assert classify_region(all_reckless_game(0.0)) is Region.NRVR
        assert classify_region(all_reckless_game(1.0)) is Region.NRVR

    def test_cost_reversal_family(self):
        assert classify_region(cost_reversal_game(0.9)) is Region.NCVR
        assert classify_region(cost_reversal_game(1.0)) is Region.NCVR


class TestSolveEquilibrium:
    def test_ncvc_closed_form(self):
        rep = solve_equilibrium(steep_hazard_game(0.0))
        assert rep.region is Region.NCVC
        assert (rep.x_ne.x_n, rep.x_ne.x_vu, rep.x_ne.x_vs) == (0.0, 0.0, 0.0)
        assert rep.P == 0.1

    def test_ncvi_closed_form(self):
        rep = solve_equilibrium(steep_hazard_game(1.0))
        assert rep.region is Region.NCVI
        assert rep.P == pytest.approx(1.0 / 8.4, abs=1e-12)
        # chi_vu = p^{-1}(P) / (1 - beta*q*P)
        expected_x_vu = ((1.0 / 8.4 - 0.1) / 0.8) / (1.0 - 0.63 / 8.4)
        assert rep.x_ne.x_n == 0.0
        assert rep.x_ne.x_vu == pytest.approx(expected_x_vu, abs=1e-12)

    def test_ncvr_fixed_point(self):
        rep = solve_equilibrium(adoption_backfire_game(1.0))
        assert rep.region is Region.NCVR
        assert (rep.x_ne.x_n, rep.x_ne.x_vu) == (0.0, 0.9)
        assert rep.P == pytest.approx(0.37 / 1.2187, abs=1e-10)

    def test_nrvr_fixed_point(self):
        rep = solve_equilibrium(all_reckless_game(1.0))
        assert rep.region is Region.NRVR
        assert rep.x_ne.x_n == pytest.approx(0.1, abs=1e-15)
        assert rep.x_ne.x_vu == 0.9
        # algebra: P = 0.3 - 0.1458 P
        assert rep.P == pytest.approx(0.3 / 1.1458, abs=1e-10)

    def test_nivr_interior_mass(self):
        # beta*q(y) = 0.135, so chi_n = p^{-1}(1/3) - (1 - 0.135/3)*0.3
        game = SignalingGame(
            beta=0.5, y=0.3, r=2.0, hazard=AffineHazard(0.3, 0.1), signal_reach=LinearReach(0.9)
        )
        rep = solve_equilibrium(game)
        assert rep.region is Region.NIVR
        assert rep.P == pytest.approx(1.0 / 3.0, abs=1e-15)
        expected_x_n = (1.0 / 3.0 - 0.1) / 0.3 - (1.0 - 0.135 / 3.0) * 0.3
        assert rep.x_ne.x_n == pytest.approx(expected_x_n, abs=1e-12)
        assert rep.x_ne.x_vu == 0.3

    def test_reports_are_internally_consistent(self):
        # the core solves NCVR and NRVR by the hazard's own _fixed_point, so
        # there solve_profile_P at the reported profile gives the same bits
        rng = random.Random(500)
        games = [random_game(rng) for _ in range(2000)]
        games += [item.game() for item in generator.point_pool(1)]
        fixed_point = 0
        for game in games:
            rep = solve_equilibrium(game)
            assert rep.Q == pytest.approx(rep.P * game.signal_rate, abs=1e-12)
            res = solve_profile_P(game, rep.x_ne)
            if rep.region in (Region.NCVR, Region.NRVR):
                got = (res.P, res.Q, res.posterior_no_signal)
                assert same_bits(got, (rep.P, rep.Q, rep.posterior)), (game, rep, got)
                fixed_point += 1
            else:
                assert res.P == pytest.approx(rep.P, abs=1e-9)
        assert fixed_point >= 100

    def test_near_certain_signal_of_a_rising_near_certain_accident(self):
        # p is not flat (p(0) < p(1)), yet at the NCVI indifference point
        # beta*q(y) * P is within 1e-15 of 1, as posterior_no_signal forbids
        game = SignalingGame(
            beta=1.0,
            y=0.5,
            r=1.5,
            hazard=AffineHazard(1e-16, 1.0 - 2.0**-52),
            signal_reach=ConstantReach(1.0 - 2.0**-53),
        )
        assert game.hazard(0.0) < game.hazard(1.0)
        assert classify_region(game) is Region.NCVI
        with pytest.raises(DegenerateSignalError, match="reaches 1 in region NCVI"):
            solve_equilibrium(game)

    def test_closed_form_outside_its_range_is_a_logic_error(self, monkeypatch):
        # the backfire game is NCVR at full quality; forced into NIVR, its
        # closed-form non-V2V mass goes negative
        monkeypatch.setattr(equilibrium, "classify_region", lambda game: Region.NIVR)
        with pytest.raises(LogicError) as info:
            solve_equilibrium(adoption_backfire_game(1.0))
        assert str(info.value) == (
            "non-V2V reckless mass -0.21775 escapes [0, 0.1] in region NIVR; "
            "closed form disagrees with its range condition"
        )


#: one game per row as (beta, y, r, hazard family, its parameters, reach
#: family, its parameters), covering every region and curve family
PARAMETER_GAMES = [
    (0.0, 0.25, 30.0, AffineHazard, (0.5, 0.1), LinearReach, (0.9,)),
    (1.0, 0.6, 30.0, AffineHazard, (0.5, 0.1), ConstantReach, (0.9,)),
    (1.0, 0.6, 30.0, PowerHazard, (2.0,), LinearReach, (0.9,)),
    (0.5, 0.25, 3.0, AffineHazard, (0.75, 0.125), ConstantReach, (0.5,)),
    (0.5, 0.75, 2.0, PowerHazard, (2.0,), LinearReach, (0.9,)),
    (0.5, 0.6, 4.0, TableHazard, (((0.0, 0.05), (0.5, 0.25), (1.0, 0.7)),), LinearReach, (1.0,)),
    (0.0, 0.25, 2.0, AffineHazard, (0.5, 0.1), LinearReach, (0.9,)),
    (1.0, 0.75, 2.0, AffineHazard, (0.25, 0.125), LinearReach, (0.9,)),
]


def parameter_game(row, convert) -> SignalingGame:
    """The row's game with convert applied to every number, table knots included."""

    def deep(v):
        return tuple(map(deep, v)) if isinstance(v, tuple) else convert(v)

    beta, y, r, hazard, hazard_args, reach, reach_args = row
    return SignalingGame(
        deep(beta), deep(y), deep(r), hazard(*deep(hazard_args)), reach(*deep(reach_args))
    )


def report_bits(rep) -> tuple:
    x = rep.x_ne
    numbers = (x.x_n, x.x_vu, x.x_vs, rep.P, rep.Q, rep.posterior, rep.social_cost)
    return (rep.region, *map(float.hex, numbers))


def stored_numbers(game) -> list:
    """beta, y, r and every curve parameter as stored, table knots flattened."""
    out = [game.beta, game.y, game.r]
    for curve in (game.hazard, game.signal_reach):
        for field in dataclasses.fields(curve):
            v = getattr(curve, field.name)
            out += [c for knot in v for c in knot] if field.name == "knots" else [v]
    return out


#: DegenerateSignalError's two messages, from posterior_no_signal and the NCVI branch
DEGENERATE_MESSAGES = (
    "beta*q(y) = 1 with a certain accident leaves the no-signal posterior undefined",
    "beta*q(y) * P reaches 1 in region NCVI: the no-signal posterior is undefined",
)


class TestExtremeGames:
    @settings(max_examples=500)
    @given(extreme_game())
    # NCVI on tables flatter than 1e-3, where a bisected inverse may stop up to
    # BISECT_TOL/slope from the mass, past the V2V group's size
    @example(SignalingGame(0.0, 0.0, 2.0, TableHazard(((0.0, 1 / 3), (1.0, 1 / 3 + 1e-6))),
                           ConstantReach(1.0)))
    @example(SignalingGame(0.0, 1e-6, 1e12 + 1.0, TableHazard(((0.0, 0.0), (1.0, 1e-6))),
                           ConstantReach(1.0)))
    def test_solve_reports_a_valid_equilibrium_or_a_documented_error(self, game):
        """Every extreme game either raises DegenerateSignalError with one of its
        messages or reports masses, probabilities and a cost in their ranges,
        under the label classify_region gives."""
        try:
            rep = solve_equilibrium(game)
        except DegenerateSignalError as e:
            assert str(e) in DEGENERATE_MESSAGES, game
            return
        y, x = game.y, rep.x_ne
        assert 0.0 <= x.x_n <= 1.0 - y and 0.0 <= x.x_vu <= y and x.x_vs == 0.0, (game, rep)
        assert game.hazard.floor <= rep.P <= game.hazard.ceiling, (game, rep)
        assert same_bits(rep.Q, rep.P * game.signal_rate), (game, rep)
        assert 0.0 <= rep.posterior <= rep.P, (game, rep)
        assert math.isfinite(rep.social_cost) and rep.social_cost >= 0.0, (game, rep)
        assert classify_region(game) is rep.region, (game, rep)


class TestParameterTypes:
    """A game built from numpy scalars or Fractions is the game built from
    their floats: every parameter is stored as a float, and the report is
    the same, bit for bit."""

    def test_the_rows_cover_every_region(self):
        regions = {classify_region(parameter_game(row, float)) for row in PARAMETER_GAMES}
        assert regions == set(Region)

    @pytest.mark.parametrize("row", PARAMETER_GAMES, ids=lambda row: row[3].__name__)
    @pytest.mark.parametrize(
        "convert",
        [np.float32, Fraction, lambda v: np.int64(v) if float(v).is_integer() else v],
        ids=["float32", "fraction", "int64"],
    )
    def test_report_equals_the_float_games(self, row, convert):
        game = parameter_game(row, convert)
        ref = parameter_game(row, lambda v: float(convert(v)))
        assert all(type(v) is float for v in stored_numbers(game))
        assert stored_numbers(game) == stored_numbers(ref)
        rep = solve_equilibrium(game)
        assert type(rep.P) is float
        assert report_bits(rep) == report_bits(solve_equilibrium(ref))

    @pytest.mark.parametrize(
        "hazard, reach",
        [(AffineHazard(np.float32(0.5), np.float32(0.1)), ConstantReach(np.float32(0.9))),
         (PowerHazard(np.float32(2.0)), LinearReach(np.float32(0.9)))],
        ids=["affine-constant", "power-linear"],
    )
    def test_float32_curves_in_a_float_game(self, hazard, reach):
        # curves that kept float32 parameters made an NCVI mass of float32,
        # which the solver's own BehaviorProfile then refused
        rep = solve_equilibrium(SignalingGame(1.0, 0.6, 30.0, hazard, reach))
        assert rep.region is Region.NCVI
        assert all(type(v) is float for v in (rep.x_ne.x_vu, rep.P, rep.Q, rep.social_cost))


class TestAccidentProbability:
    def test_backfire_game_at_zero_quality(self):
        assert solve_equilibrium(adoption_backfire_game(0.0)).P == pytest.approx(
            0.25, abs=1e-12
        )

    def test_steep_hazard_at_full_quality(self):
        assert solve_equilibrium(steep_hazard_game(1.0)).P == pytest.approx(
            0.1190476190476, abs=1e-9
        )

    def test_all_reckless_at_zero_quality(self):
        assert solve_equilibrium(all_reckless_game(0.0)).P == pytest.approx(0.3, abs=1e-10)


class TestSocialCost:
    def test_cost_reversal_values(self):
        s_09 = solve_equilibrium(cost_reversal_game(0.9)).social_cost
        s_10 = solve_equilibrium(cost_reversal_game(1.0)).social_cost
        assert s_09 == pytest.approx(0.4889, abs=5e-4)
        assert s_10 == pytest.approx(0.4890, abs=5e-4)
        assert s_09 < s_10

    def test_ncvc_cost_is_pure_regret(self):
        game = steep_hazard_game(0.0)
        assert solve_equilibrium(game).social_cost == pytest.approx(1.0 - 0.1, abs=1e-12)

    def test_nonnegative(self):
        rng = random.Random(501)
        for _ in range(40):
            assert solve_equilibrium(random_game(rng)).social_cost >= 0.0

    def test_matches_first_principles_at_resolved_fixed_point(self):
        from hazardsignal import group_costs

        rng = random.Random(505)
        for _ in range(100):
            game = random_game(rng)
            rep = solve_equilibrium(game)
            res = solve_profile_P(game, rep.x_ne)
            costs = group_costs(game, res.P, res.posterior_no_signal)
            s = (
                costs.n_careful * (1.0 - game.y - rep.x_ne.x_n)
                + costs.n_reckless * rep.x_ne.x_n
                + (1.0 - res.Q)
                * (
                    costs.vu_careful * (game.y - rep.x_ne.x_vu)
                    + costs.vu_reckless * rep.x_ne.x_vu
                )
            )
            assert s == pytest.approx(rep.social_cost, abs=1e-9)


def region_range_holds(game, rep, tol=1e-9):
    """The reported P must land in its region's prescribed range."""
    t_prior = 1.0 / (1.0 + game.r)
    t_unsignaled = 1.0 / (1.0 + game.r * (1.0 - game.signal_rate))
    if rep.region is Region.NCVC:
        return abs(rep.P - game.hazard.floor) <= tol
    if rep.region is Region.NCVI:
        return abs(rep.P - t_unsignaled) <= tol
    if rep.region is Region.NIVR:
        return abs(rep.P - t_prior) <= tol
    if rep.region is Region.NRVR:
        return rep.P < t_prior + tol
    return t_prior - tol < rep.P < t_unsignaled + tol


def equilibrium_form_holds(game, rep, tol=1e-9):
    """Equilibria take one of three shapes, always with x_vs = 0."""
    x = rep.x_ne
    if x.x_vs != 0.0:
        return False
    if not (0.0 <= x.x_n <= 1.0 - game.y + tol and 0.0 <= x.x_vu <= game.y + tol):
        return False
    return x.x_n <= tol or abs(x.x_vu - game.y) <= tol


#: the order regions take as beta rises: each condition is monotone in beta*q(y)
REGION_ORDER = (Region.NCVC, Region.NCVI, Region.NCVR, Region.NIVR, Region.NRVR)


@st.composite
def table_games(draw):
    reach = draw(st.sampled_from([LinearReach, ConstantReach]))
    return SignalingGame(
        beta=0.0,
        y=draw(st.floats(0.05, 0.95)),
        r=draw(st.floats(1.01, 25.0)),
        hazard=draw(table_curves()),
        signal_reach=reach(draw(st.floats(0.1, 1.0))),
    )


def regions_never_step_back(game) -> bool:
    ranks = [REGION_ORDER.index(classify_region(with_beta(game, i / 200))) for i in range(201)]
    return ranks == sorted(ranks)


class TestStructuralInvariants:
    # most games keep one region for every beta, so draw more than the default
    @settings(max_examples=300)
    @given(st.integers(0, 2**32 - 1))
    def test_region_order_along_beta(self, seed):
        game = random_game(random.Random(seed))
        assert regions_never_step_back(game), game

    @settings(max_examples=300)
    @given(table_games())
    def test_region_order_along_beta_table(self, game):
        assert regions_never_step_back(game), game

    def test_region_ranges_and_forms(self):
        rng = random.Random(502)
        for _ in range(200):
            game = random_game(rng)
            rep = solve_equilibrium(game)
            assert region_range_holds(game, rep), (game, rep)
            assert equilibrium_form_holds(game, rep), (game, rep)

    def test_equilibrium_conditions_hold(self):
        rng = random.Random(503)
        for _ in range(100):
            game = random_game(rng)
            rep = solve_equilibrium(game)
            check = check_equilibrium_conditions(game, rep.x_ne, eps=1e-9)
            assert check.ok, (game, rep, check.failures())

    def test_boundary_continuity_at_seams(self):
        rng = random.Random(504)
        seams = 0
        for _ in range(60):
            game = random_game(rng, beta=0.0)
            grid = [i / 16 for i in range(17)]
            regions = [classify_region(with_beta(game, b)) for b in grid]
            for (b0, r0), (b1, r1) in zip(zip(grid, regions), zip(grid[1:], regions[1:])):
                if r0 is r1:
                    continue
                lo, hi = b0, b1
                while hi - lo > 1e-12:
                    mid = 0.5 * (lo + hi)
                    if classify_region(with_beta(game, mid)) is r0:
                        lo = mid
                    else:
                        hi = mid
                p_left = solve_equilibrium(with_beta(game, lo)).P
                p_right = solve_equilibrium(with_beta(game, hi)).P
                assert abs(p_left - p_right) <= 1e-9, (game, r0, r1, lo)
                seams += 1
        assert seams > 10  # the sample actually exercised region seams
