"""Fixed-point solver, no-signal posterior, and group costs."""

import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from hazardsignal import (
    AffineHazard,
    BehaviorProfile,
    ConstantReach,
    DegenerateSignalError,
    InputError,
    LinearReach,
    PowerHazard,
    SignalingGame,
    TableHazard,
    group_costs,
    oracle_verdict,
    posterior_no_signal,
    solve_equilibrium,
    solve_profile_P,
    sweep_beta,
)

from conftest import (
    adoption_backfire_game,
    adversarial_tables,
    extreme_affine,
    extreme_power,
    guided_against_plain,
    random_game,
    same_bits,
    steep_hazard_game,
    table_curves,
)
import generator
import workloads


def reference_P(game, profile, lo=0.0, hi=1.0, iterations=200):
    """Independent bisection on the raw consistency gap over a wider bracket."""
    rate = game.signal_rate
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        arg = min(max(profile.x_n + (1.0 - mid * rate) * profile.x_vu, 0.0), 1.0)
        if mid - game.hazard(arg) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestSolveProfileP:
    def test_saturated_v2v_group(self):
        game = adoption_backfire_game(1.0)
        res = solve_profile_P(game, BehaviorProfile(0.0, 0.9, 0.0))
        # algebra: P = 0.37 - 0.2187 P
        assert res.P == pytest.approx(0.37 / 1.2187, abs=1e-10)
        assert res.residual <= 1e-12
        assert res.Q == pytest.approx(res.P * 0.81, abs=1e-12)

    def test_both_groups_reckless(self):
        game = adoption_backfire_game(1.0)
        res = solve_profile_P(game, BehaviorProfile(0.1, 0.9, 0.0))
        assert res.P == pytest.approx(0.4 / 1.2187, abs=1e-10)

    def test_no_signals_reduces_to_plain_hazard(self):
        game = adoption_backfire_game(0.0)
        res = solve_profile_P(game, BehaviorProfile(0.05, 0.6, 0.0))
        assert res.P == pytest.approx(game.hazard(0.65), abs=1e-10)
        assert res.Q == 0.0
        assert res.posterior_no_signal == pytest.approx(res.P, abs=1e-12)

    def test_signaled_mass_is_ignored(self):
        game = adoption_backfire_game(0.7)
        base = solve_profile_P(game, BehaviorProfile(0.05, 0.5, 0.0))
        shifted = solve_profile_P(game, BehaviorProfile(0.05, 0.5, 0.9))
        assert base.P == shifted.P

    def test_agrees_with_wide_bracket_oracle(self):
        rng = random.Random(401)
        for _ in range(50):
            game = random_game(rng)
            profile = BehaviorProfile(
                rng.uniform(0.0, 1.0 - game.y), rng.uniform(0.0, game.y), 0.0
            )
            res = solve_profile_P(game, profile)
            assert res.P == pytest.approx(reference_P(game, profile), abs=1e-10)

    def test_monotone_response_to_masses(self):
        rng = random.Random(402)
        for _ in range(50):
            game = random_game(rng)
            x_n = rng.uniform(0.0, (1.0 - game.y) * 0.9)
            x_vu = rng.uniform(0.0, game.y * 0.9)
            base = solve_profile_P(game, BehaviorProfile(x_n, x_vu, 0.0)).P
            more_n = solve_profile_P(
                game, BehaviorProfile(min(x_n + 0.05, 1.0 - game.y), x_vu, 0.0)
            ).P
            more_vu = solve_profile_P(
                game, BehaviorProfile(x_n, min(x_vu + 0.05, game.y), 0.0)
            ).P
            assert more_n >= base - 1e-12
            assert more_vu >= base - 1e-12

    def test_result_invariants(self):
        rng = random.Random(403)
        for _ in range(50):
            game = random_game(rng)
            profile = BehaviorProfile(
                rng.uniform(0.0, 1.0 - game.y), rng.uniform(0.0, game.y), 0.0
            )
            res = solve_profile_P(game, profile)
            assert game.hazard.floor - 1e-12 <= res.P <= game.hazard.ceiling + 1e-12
            assert res.residual <= 1e-12
            assert res.posterior_no_signal <= res.P + 1e-12


def solved_profiles(game, a, b):
    """The corner profiles the equilibrium solver uses, an interior one, and
    the unsignaled group's full size with the 1e-9 slack validation allows."""
    y = game.y
    return [
        BehaviorProfile(0.0, 0.0, 0.0),
        BehaviorProfile(0.0, y, 0.0),
        BehaviorProfile(1.0 - y, y, 0.0),
        BehaviorProfile(a * (1.0 - y), b * y, 0.0),
        BehaviorProfile(1.0 - y + 1e-9, y + 1e-9, 0.0),
    ]


def redrawn(game, hazard, rate):
    """game with the given hazard (None keeps its own) and signal rate 0, 1
    or any other (None keeps its own)."""
    if hazard is not None:
        game = dataclasses.replace(game, hazard=hazard)
    if rate is not None:
        game = dataclasses.replace(game, beta=rate, signal_reach=ConstantReach(1.0))
    return game


@st.composite
def redrawn_games(draw):
    """random_game's reach, y, r and beta, with a drawn hazard (None keeps its
    affine or power one) and signal rate 0, 1 or as drawn."""
    return redrawn(
        random_game(draw(st.randoms(use_true_random=False))),
        draw(st.one_of(table_curves(), adversarial_tables(), extreme_affine(), st.none())),
        draw(st.sampled_from([None, 0.0, 1.0])),
    )


class TestGuidedFixedPoint:
    """Each hazard family's _fixed_point bisects guided by its guess of the
    fixed point (the closed form on the linear piece that holds its mass, or a
    power hazard's Newton steps); the guess may skip steps, never change a bit."""

    @given(st.one_of(redrawn_games(), extreme_power()), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @example(redrawn(random_game(random.Random(0)), AffineHazard(1e-300, 0.5), 1.0), 0.5, 0.5)
    @example(
        redrawn(random_game(random.Random(0)), TableHazard(((1e-13, 0.1), (1.0 - 1e-13, 1.0))), 1.0),
        1.0,
        1.0,
    )
    @example(SignalingGame(1.0 - 1e-9, 0.98, 1e4, PowerHazard(50.0), ConstantReach(1.0)), 1.0, 1.0)
    @example(SignalingGame(1.0 - 1e-9, 0.02, 1e4, PowerHazard(0.02), ConstantReach(1.0)), 0.0, 1.0)
    def test_guided_returns_the_plain_bits(self, game, a, b):
        with guided_against_plain() as calls:
            for profile in solved_profiles(game, a, b):
                try:
                    solve_profile_P(game, profile)
                except DegenerateSignalError:
                    pass  # raised by the posterior, after the bisection
        assert len(calls) == 5
        for guided, plain, guided_points, plain_points in calls:
            assert same_bits(guided, plain), (game, guided, plain)
            assert set(guided_points) <= set(plain_points)

    @given(st.randoms(use_true_random=False), st.one_of(table_curves(), st.none()),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_guided_evaluates_a_few_points_of_the_plain_path(self, rng, table, a, b):
        # a guess that went missing would evaluate the plain path's ~40 points.
        # A power hazard's margin grows as 1/(1 - rate), and at rate 1 it has
        # no guess, so its games join at rates up to 0.999
        game = random_game(rng)
        if table is not None:
            game = dataclasses.replace(game, hazard=table)
        elif isinstance(game.hazard, PowerHazard):
            assume(game.signal_rate <= 0.999)
        with guided_against_plain() as calls:
            for profile in solved_profiles(game, a, b):
                solve_profile_P(game, profile)
        for _, _, guided_points, plain_points in calls:
            assert [x for x in plain_points if x in guided_points] == guided_points
            assert 1 <= len(guided_points) <= 12

    def test_power_hazard_is_guided(self):
        game = SignalingGame(0.5, 0.5, 3.0, PowerHazard(2.0), LinearReach(1.0))
        with guided_against_plain() as calls:
            solve_profile_P(game, BehaviorProfile(0.2, 0.5, 0.0))
        [(guided, plain, guided_points, plain_points)] = calls
        assert same_bits(guided, plain)
        assert set(guided_points) <= set(plain_points)
        assert len(guided_points) <= 3 and len(plain_points) >= 30

    def test_benchmark_pools_get_the_plain_bits(self):
        # the benchmark's seed-1 pools: design sweeps, then point and oracle solves
        pools = [generator.point_pool, generator.oracle_well_pool, generator.oracle_extreme_pool]
        with guided_against_plain() as calls:
            for item in generator.design_pool(1):
                sweep_beta(item.game(), 101)
            for game in (item.game() for pool in pools for item in pool(1)):
                rep = solve_equilibrium(game)
                oracle_verdict(game, rep, workloads.ORACLE_STEP, workloads.ORACLE_EPS)
        assert calls
        for guided, plain, _, _ in calls:
            assert same_bits(guided, plain), (guided, plain)


class TestPosterior:
    def test_no_signals_returns_prior(self):
        game = adoption_backfire_game(0.0)
        assert posterior_no_signal(game, 0.37) == pytest.approx(0.37, abs=0)

    def test_threshold_crossing_value(self):
        # with beta*q = 0.81 and r = 3, prior 1/1.57 maps to posterior 1/(1+r)
        game = adoption_backfire_game(1.0)
        assert game.signal_rate == pytest.approx(0.81, abs=1e-15)
        assert posterior_no_signal(game, 1.0 / 1.57) == pytest.approx(0.25, abs=1e-12)

    def test_no_accidents(self):
        game = adoption_backfire_game(0.6)
        assert posterior_no_signal(game, 0.0) == 0.0

    def test_degenerate_signal_guard(self):
        game = SignalingGame(
            beta=1.0,
            y=0.5,
            r=2.0,
            hazard=AffineHazard(0.5, 0.2),
            signal_reach=ConstantReach(1.0),
        )
        assert game.signal_rate == 1.0
        with pytest.raises(DegenerateSignalError):
            posterior_no_signal(game, 1.0)
        # strictly below 1 the posterior is still fine
        assert posterior_no_signal(game, 0.9) == pytest.approx(0.0, abs=1e-12)

    def test_bayes_threshold_equivalence(self):
        rng = random.Random(404)
        for _ in range(300):
            game = random_game(rng)
            rate = game.signal_rate
            P = rng.uniform(0.0, 0.999)
            lhs = posterior_no_signal(game, P) - 1.0 / (1.0 + game.r)
            rhs = P - 1.0 / (1.0 + game.r * (1.0 - rate))
            # the relation may not flip sign beyond tolerance
            assert not (lhs > 1e-9 and rhs < -1e-9)
            assert not (lhs < -1e-9 and rhs > 1e-9)


class TestGroupCosts:
    def test_indifference_point(self):
        game = adoption_backfire_game(1.0)  # r = 3
        costs = group_costs(game, 0.25, 0.25)
        assert costs.n_careful == pytest.approx(0.75)
        assert costs.n_reckless == pytest.approx(0.75)
        assert costs.vu_careful == pytest.approx(0.75)
        assert costs.vu_reckless == pytest.approx(0.75)
        assert costs.vs_careful == 0.0
        assert costs.vs_reckless == 3.0

    def test_no_accidents_caution_is_pure_regret(self):
        game = adoption_backfire_game(0.5)
        costs = group_costs(game, 0.0, 0.0)
        assert (costs.n_careful, costs.n_reckless) == (1.0, 0.0)
        assert (costs.vu_careful, costs.vu_reckless) == (1.0, 0.0)
        assert costs.vs_reckless == game.r

    def test_high_stakes_point(self):
        game = steep_hazard_game(0.0)  # r = 20, beta*q = 0
        posterior = posterior_no_signal(game, 0.1)
        costs = group_costs(game, 0.1, posterior)
        assert costs.n_careful == pytest.approx(0.9)
        assert costs.n_reckless == pytest.approx(2.0)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_signaled_drivers_strictly_prefer_caution(self, P, posterior):
        game = adoption_backfire_game(0.3)
        costs = group_costs(game, P, posterior)
        assert costs.vs_careful < costs.vs_reckless


#: (argument, message) for the probability arguments of posterior_no_signal
#: and group_costs; {what} is the argument's name in the message
PROBABILITY_ARGUMENTS = [
    ("0.5", "{what} must be a number, got '0.5'"),
    (b"0.5", "{what} must be a number, got b'0.5'"),
    (None, "{what} must be a number, got None"),
    (0.5j, "{what} must be a number, got 0.5j"),
    (np.float32(5.0), "{what} must lie in [0, 1], got " + repr(np.float32(5.0))),
    (np.float32("nan"), "{what} must lie in [0, 1], got " + repr(np.float32("nan"))),
    (float("nan"), "{what} must lie in [0, 1], got nan"),
    (10**400, "{what} must lie in [0, 1], got " + repr(10**400)),
    (10**5000, "{what} must lie in [0, 1], got <int of 16610 bits>"),
    (-1e-9, "{what} must lie in [0, 1], got -1e-09"),
    (Fraction(10**5000, 3), "{what} must lie in [0, 1], got <Fraction too long to print>"),
]
PROBABILITY_IDS = ["str", "bytes", "None", "complex", "float32-over", "float32-nan", "nan",
                   "huge-int", "5000-digit-int", "negative", "5000-digit-fraction"]


class TestProbabilityArguments:
    """posterior_no_signal and group_costs share one check: a real number of
    any type is range-checked, and anything else raises InputError."""

    @pytest.mark.parametrize("v, message", PROBABILITY_ARGUMENTS, ids=PROBABILITY_IDS)
    def test_posterior(self, v, message):
        with pytest.raises(InputError) as info:
            posterior_no_signal(adoption_backfire_game(0.5), v)
        assert str(info.value) == message.format(what="accident probability")

    @pytest.mark.parametrize("v, message", PROBABILITY_ARGUMENTS, ids=PROBABILITY_IDS)
    @pytest.mark.parametrize("which", ["P", "posterior"])
    def test_group_costs(self, v, message, which):
        args = {"P": 0.25, "posterior": 0.25, which: v}
        with pytest.raises(InputError) as info:
            group_costs(adoption_backfire_game(0.5), **args)
        assert str(info.value) == message.format(what=which)

    @pytest.mark.parametrize(
        "v", [np.float32(0.25), np.float64(0.25), 1.0 + 1e-13, 0, True],
        ids=["float32", "float64", "overshoot", "int", "bool"],
    )
    def test_real_numbers_accepted_as_floats(self, v):
        game = adoption_backfire_game(0.5)
        want = min(max(float(v), 0.0), 1.0)
        assert posterior_no_signal(game, v).hex() == posterior_no_signal(game, want).hex()
        costs = group_costs(game, v, v)
        assert dataclasses.astuple(costs) == dataclasses.astuple(group_costs(game, want, want))
