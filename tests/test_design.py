"""Signal-quality optimization and sweeps."""

import dataclasses
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hazardsignal.design as design
from hazardsignal import (
    ConstantReach,
    DegenerateSignalError,
    DesignObjective,
    InputError,
    ParameterError,
    Region,
    SignalingGame,
    AffineHazard,
    SweepRecord,
    group_costs,
    optimal_beta_accidents,
    optimal_beta_social,
    single_peaked,
    solve_equilibrium,
    sweep_beta,
    with_beta,
)

from conftest import (
    adoption_backfire_game,
    all_reckless_game,
    cost_reversal_game,
    random_game,
    same_bits,
    steep_hazard_game,
    table_curves,
)
import generator


def no_reach_game(beta: float) -> SignalingGame:
    """q = 0: signal quality is irrelevant."""
    return SignalingGame(
        beta=beta, y=0.5, r=2.0, hazard=AffineHazard(0.4, 0.1), signal_reach=ConstantReach(0.0)
    )


class TestOptimalBetaAccidents:
    def test_steep_hazard_prefers_silence(self):
        result = optimal_beta_accidents(steep_hazard_game(0.5))
        assert result.objective is DesignObjective.ACCIDENT_PROBABILITY
        assert result.beta_star == 0.0
        assert result.endpoint_comparison[0] == pytest.approx(0.1, abs=1e-12)
        assert result.endpoint_comparison[1] == pytest.approx(1.0 / 8.4, abs=1e-9)
        assert result.value_at_star == result.endpoint_comparison[0]

    def test_backfire_family_prefers_silence(self):
        assert optimal_beta_accidents(adoption_backfire_game(0.3)).beta_star == 0.0

    def test_all_reckless_family_prefers_full_quality(self):
        result = optimal_beta_accidents(all_reckless_game(0.2))
        assert result.beta_star == 1.0
        assert result.endpoint_comparison[0] == pytest.approx(0.3, abs=1e-10)
        assert result.value_at_star == pytest.approx(0.3 / 1.1458, abs=1e-10)

    def test_tie_goes_to_zero(self):
        result = optimal_beta_accidents(no_reach_game(0.5))
        assert result.beta_star == 0.0
        assert result.endpoint_comparison[0] == result.endpoint_comparison[1]


class TestOptimalBetaSocial:
    def test_cost_reversal_family_rejects_full_quality(self):
        result = optimal_beta_social(cost_reversal_game(0.5), grid_n=101)
        assert result.objective is DesignObjective.SOCIAL_COST
        assert result.beta_star != 1.0
        s_09 = sweep_beta(cost_reversal_game(0.5), 2, lo=0.9, hi=1.0)
        assert s_09[0].S < s_09[1].S
        assert result.value_at_star <= s_09[0].S + 1e-9

    def test_fast_path_when_ncvr_absent(self):
        result = optimal_beta_social(steep_hazard_game(0.5), grid_n=51)
        assert result.beta_star == 1.0
        records = sweep_beta(steep_hazard_game(0.5), 51)
        assert {rec.region for rec in records} <= {Region.NCVC, Region.NCVI}

    def test_no_reach_family_fast_path(self):
        result = optimal_beta_social(no_reach_game(0.5), grid_n=21)
        assert result.beta_star == 1.0
        assert result.endpoint_comparison[0] == pytest.approx(
            result.endpoint_comparison[1], abs=1e-12
        )

    def test_value_never_worse_than_endpoints(self):
        rng = random.Random(600)
        for _ in range(15):
            game = random_game(rng)
            result = optimal_beta_social(game, grid_n=31)
            assert result.value_at_star <= min(result.endpoint_comparison) + 1e-9

    def test_full_quality_dominates_when_ncvr_absent(self):
        # whenever no sampled beta classifies NCVR, S(1) is the sampled minimum
        rng = random.Random(602)
        confirmed = 0
        for _ in range(40):
            game = random_game(rng)
            records = sweep_beta(game, 21)
            if any(rec.region is Region.NCVR for rec in records):
                continue
            assert all(records[-1].S <= rec.S + 1e-9 for rec in records), game
            confirmed += 1
        assert confirmed >= 10


class TestSweepBeta:
    def test_backfire_sweep_shape(self):
        records = sweep_beta(adoption_backfire_game(0.0), 101)
        assert len(records) == 101
        assert records[0].beta == 0.0 and records[-1].beta == 1.0
        assert records[0].P == pytest.approx(0.25, abs=1e-12)
        assert records[-1].P == pytest.approx(0.37 / 1.2187, abs=1e-10)
        assert records[-1].P > records[0].P
        assert single_peaked([rec.P for rec in records], tol=1e-9)
        peak = max(records, key=lambda rec: rec.P)
        assert 0.38 <= peak.beta <= 0.48

    def test_two_point_sweep(self):
        records = sweep_beta(steep_hazard_game(0.7), 2)
        assert [rec.beta for rec in records] == [0.0, 1.0]

    def test_constant_when_reach_is_zero(self):
        records = sweep_beta(no_reach_game(0.3), 11)
        assert len({rec.P for rec in records}) == 1
        assert len({rec.S for rec in records}) == 1

    def test_rejects_degenerate_grid(self):
        with pytest.raises(InputError):
            sweep_beta(steep_hazard_game(0.5), 1)

    @pytest.mark.parametrize(
        "count",
        [2.5, 3.0, pytest.param(None, id="none"), pytest.param("5", id="str"),
         pytest.param(b"5", id="bytes")],
    )
    def test_count_must_be_an_integer(self, count):
        game = steep_hazard_game(0.5)
        with pytest.raises(InputError, match="must be an integer"):
            sweep_beta(game, count)
        with pytest.raises(InputError, match="must be an integer"):
            optimal_beta_social(game, count)

    def test_numpy_integer_count(self):
        game = cost_reversal_game(0.0)
        assert sweep_beta(game, np.int64(11)) == sweep_beta(game, 11)
        assert optimal_beta_social(game, np.int32(21)) == optimal_beta_social(game, 21)

    def test_records_match_reports(self):
        records = sweep_beta(cost_reversal_game(0.0), 11)
        for rec in records:
            rep = solve_equilibrium(with_beta(cost_reversal_game(0.0), rec.beta))
            assert rec.P == rep.P and rec.S == rep.social_cost
            assert rec.region is rep.region

    @pytest.mark.parametrize(
        "lo, hi",
        [("0", 1), (0, "1"), (b"0", 1), (None, 1), (0, None), (np.array([0, 0.1]), 1)],
        ids=["lo-str", "hi-str", "lo-bytes", "lo-none", "hi-none", "lo-array"],
    )
    def test_range_must_be_numbers(self, lo, hi):
        with pytest.raises(InputError, match=r"sweep range \[.*\] must be two numbers"):
            sweep_beta(steep_hazard_game(0.5), 5, lo, hi)

    @pytest.mark.parametrize(
        "lo, hi",
        [(0.7, 0.2), (-0.1, 1), (0, 1.5), (float("nan"), 1), (0, 10**400), (0, 10**5000)],
        ids=["reversed", "below-0", "above-1", "nan", "huge-int", "5000-digit-int"],
    )
    def test_range_out_of_order_or_outside_the_unit_interval(self, lo, hi):
        with pytest.raises(InputError, match=r"must be ordered within \[0, 1\]"):
            sweep_beta(steep_hazard_game(0.5), 5, lo, hi)

    def test_ints_too_long_to_print_shown_by_their_size(self):
        game = steep_hazard_game(0.5)
        with pytest.raises(InputError, match=r"^sweep range \[3, <int of 16610 bits>\] must"):
            sweep_beta(game, 5, 3, 10**5000)
        with pytest.raises(InputError, match="^a grid of <int of 16610 bits> signal qualities"):
            sweep_beta(game, 10**5000)


class TestWithBeta:
    @pytest.mark.parametrize(
        "beta", ["0.5", b"0.5", None, [0.5], 10**400, 10**5000],
        ids=["str", "bytes", "none", "list", "huge-int", "5000-digit-int"],
    )
    def test_refuses_what_the_constructor_refuses(self, beta):
        game = steep_hazard_game(0.5)
        with pytest.raises(ParameterError, match="beta must be a finite number"):
            SignalingGame(beta, game.y, game.r, game.hazard, game.signal_reach)
        with pytest.raises(ParameterError, match="beta must be a finite number"):
            with_beta(game, beta)

    def test_numbers_convert_to_float(self):
        game = steep_hazard_game(0.5)
        for beta in (1, np.float32(0.25), np.float64(0.75), np.int64(0)):
            changed = with_beta(game, beta).beta
            assert type(changed) is float and changed == float(beta)


@st.composite
def design_games(draw):
    """random_game draws, half of them with a table hazard instead."""
    game = random_game(random.Random(draw(st.integers(0, 2**32 - 1))))
    if draw(st.booleans()):
        game = dataclasses.replace(game, hazard=draw(table_curves()))
    return game


def public_solve(game, beta):
    return solve_equilibrium(with_beta(game, beta))


class TestSolveCore:
    """Sweeps and optimizers read the equilibrium core; every value they
    return equals the public solve_equilibrium's at the same beta, bit for bit."""

    @given(design_games())
    def test_sweep_records_equal_the_public_solve(self, game):
        for rec in sweep_beta(game, 11):
            ref = SweepRecord.from_report(rec.beta, public_solve(game, rec.beta))
            assert record_bits(rec) == record_bits(ref)

    @given(design_games())
    def test_optimizers_equal_the_public_solve(self, game):
        acc = optimal_beta_accidents(game)
        assert same_bits(acc.value_at_star, public_solve(game, acc.beta_star).P)
        ends = (public_solve(game, 0.0), public_solve(game, 1.0))
        assert all(map(same_bits, acc.endpoint_comparison, [rep.P for rep in ends]))
        social = optimal_beta_social(game, 11)
        assert same_bits(social.value_at_star, public_solve(game, social.beta_star).social_cost)
        assert all(map(same_bits, social.endpoint_comparison, [rep.social_cost for rep in ends]))

    @given(design_games(), st.floats(0.0, 1.0))
    def test_social_cost_is_the_group_cost_sum(self, game, beta):
        game = with_beta(game, beta)
        rep = solve_equilibrium(game)
        costs = group_costs(game, rep.P, rep.posterior)
        x, y = rep.x_ne, game.y
        s = (
            costs.n_careful * (1.0 - y - x.x_n)
            + costs.n_reckless * x.x_n
            + (1.0 - rep.Q) * (costs.vu_careful * (y - x.x_vu) + costs.vu_reckless * x.x_vu)
        )
        assert same_bits(rep.social_cost, s)

    def test_degenerate_signal_error_is_the_same_on_every_path(self):
        # p rounds to 1 everywhere and beta*q = 1: the NCVI posterior is 0/0
        game = SignalingGame(1.0, 0.5, 3.0, AffineHazard(1e-17, 1.0), ConstantReach(1.0))
        message = "beta*q(y) * P reaches 1 in region NCVI: the no-signal posterior is undefined"
        for call in (
            lambda: solve_equilibrium(game),
            lambda: sweep_beta(game, 5),
            lambda: optimal_beta_accidents(game),
            lambda: optimal_beta_social(game, 5),
        ):
            with pytest.raises(DegenerateSignalError) as info:
                call()
            assert type(info.value) is DegenerateSignalError and str(info.value) == message


def record_bits(rec: SweepRecord) -> tuple:
    return tuple(
        rec.region if f.name == "region" else float.hex(getattr(rec, f.name))
        for f in dataclasses.fields(SweepRecord)
    )


def result_bits(res) -> tuple:
    return (
        res.objective,
        float.hex(res.beta_star),
        float.hex(res.value_at_star),
        tuple(map(float.hex, res.endpoint_comparison)),
    )


def design_bits(game, grid_n: int) -> tuple:
    """The three design calls on one game object, as bits."""
    return (
        [record_bits(rec) for rec in sweep_beta(game, grid_n)],
        result_bits(optimal_beta_social(game, grid_n)),
        result_bits(optimal_beta_accidents(game)),
    )


def fresh(game: SignalingGame) -> SignalingGame:
    return SignalingGame(game.beta, game.y, game.r, game.hazard, game.signal_reach)


@pytest.fixture
def games_built(monkeypatch):
    """Counts the games design builds, one per with_beta call."""
    built = []
    real = design.with_beta

    def counting(game, beta):
        built.append(beta)
        return real(game, beta)

    monkeypatch.setattr(design, "with_beta", counting)
    return built


class TestSolveMemo:
    """Each game object remembers the betas its design calls solved."""

    @settings(max_examples=40)
    @given(design_games(), st.sampled_from([2, 11, 31]))
    def test_warm_calls_equal_cold_calls_bit_for_bit(self, game, grid_n):
        design_bits(game, grid_n)
        warm = design_bits(game, grid_n)
        cold = (
            [record_bits(rec) for rec in sweep_beta(fresh(game), grid_n)],
            result_bits(optimal_beta_social(fresh(game), grid_n)),
            result_bits(optimal_beta_accidents(fresh(game))),
        )
        assert warm == cold

    @pytest.mark.parametrize(
        "make", [cost_reversal_game, steep_hazard_game, adoption_backfire_game]
    )
    def test_warm_calls_build_no_game(self, games_built, make):
        game = make(0.5)
        cold = design_bits(game, 101)
        assert len(games_built) >= 101
        games_built.clear()
        assert design_bits(game, 101) == cold
        assert games_built == []

    def test_a_second_sweep_returns_the_first_sweeps_records(self, games_built):
        game = cost_reversal_game(0.5)
        first = sweep_beta(game, 11)
        games_built.clear()
        second = sweep_beta(game, 11)
        assert games_built == []
        assert len(second) == 11 and all(a is b for a, b in zip(first, second))

    def test_accident_rule_reuses_the_sweep_endpoints(self, games_built):
        game = adoption_backfire_game(0.5)
        sweep_beta(game, 5)
        games_built.clear()
        optimal_beta_accidents(game)
        assert games_built == []

    def test_equal_games_do_not_share_a_memo(self, games_built):
        first, second = cost_reversal_game(0.5), cost_reversal_game(0.5)
        sweep_beta(first, 11)
        assert first == second and hash(first) == hash(second)
        assert repr(first) == repr(second)
        assert [f.name for f in dataclasses.fields(first)] == [
            "beta", "y", "r", "hazard", "signal_reach"
        ]
        for other in (second, dataclasses.replace(first), dataclasses.replace(first, beta=0.2)):
            games_built.clear()
            sweep_beta(other, 11)
            assert len(games_built) == 11

    def test_a_beta_that_raises_raises_again(self, games_built):
        # degenerate at beta = 1 only: p rounds to 1 everywhere and q = 1
        game = SignalingGame(0.5, 0.5, 3.0, AffineHazard(1e-17, 1.0), ConstantReach(1.0))
        for call in (lambda: sweep_beta(game, 5), lambda: optimal_beta_accidents(game)):
            games_built.clear()
            with pytest.raises(DegenerateSignalError):
                call()
            assert games_built[-1] == 1.0

    def test_threads_sharing_one_game_get_the_cold_bits(self):
        game = cost_reversal_game(0.5)
        cold = design_bits(fresh(game), 41)
        results = []
        threads = [
            threading.Thread(target=lambda: results.append(design_bits(game, 41)))
            for _ in range(6)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [cold] * len(threads)

    def test_memo_stops_at_its_cap(self, games_built):
        cap = design._MEMO_CAP
        assert 1000 <= cap <= 10_000
        game = adoption_backfire_game(0.5)
        grid_n = cap + 50
        first = [record_bits(rec) for rec in sweep_beta(game, grid_n)]
        assert len(games_built) == grid_n
        for _ in range(2):
            games_built.clear()
            assert [record_bits(rec) for rec in sweep_beta(game, grid_n)] == first
            assert len(games_built) == 50
        assert first == [record_bits(rec) for rec in sweep_beta(fresh(game), grid_n)]


@pytest.mark.parametrize("item", generator.design_pool(1))
def test_benchmark_design_pool_bit_for_bit(item):
    """On the benchmark's seed-1 design pool, 101-point sweeps equal the public
    solve, repeat their records, and warm design calls equal a fresh game's."""
    game = item.game()
    first = sweep_beta(game, 101)
    for rec in first:
        ref = SweepRecord.from_report(rec.beta, public_solve(game, rec.beta))
        assert record_bits(rec) == record_bits(ref), rec.beta
    assert all(a is b for a, b in zip(first, sweep_beta(game, 101), strict=True))
    assert design_bits(game, 101) == design_bits(item.game(), 101)


class TestSweepInvariants:
    def test_single_peak_and_endpoint_dominance(self):
        rng = random.Random(601)
        for _ in range(40):
            game = random_game(rng)
            records = sweep_beta(game, 21)
            values = [rec.P for rec in records]
            assert single_peaked(values, tol=1e-9), game
            assert min(values) >= min(values[0], values[-1]) - 1e-9

    def test_tension_witness_in_cost_reversal_family(self):
        # accidents fall while social cost rises on [0.9, 1.0]
        records = sweep_beta(cost_reversal_game(0.0), 3, lo=0.9, hi=1.0)
        assert records[-1].P < records[0].P
        assert records[-1].S > records[0].S


class TestSinglePeaked:
    @pytest.mark.parametrize(
        "values,expected",
        [
            ([1, 2, 3], True),
            ([3, 2, 1], True),
            ([1, 3, 2], True),
            ([1, 3, 2, 3], False),
            ([2, 1, 2], False),
            ([1.0, 1.0, 1.0], True),
            ([], True),
            ([5.0], True),
        ],
    )
    def test_cases(self, values, expected):
        assert single_peaked(values, tol=0.0) is expected

    def test_tolerance_absorbs_noise(self):
        assert single_peaked([0.0, 1.0, 1.0 - 1e-12, 0.5], tol=1e-9)

    @pytest.mark.parametrize(
        "values,tol,message",
        [
            ([1, 2, 1], "x", "tol must be a finite number, got 'x'"),
            ([1, 2, 1], None, "tol must be a finite number, got None"),
            ([1, 2, 1], float("nan"), "tol must be a finite number, got nan"),
            (["a", "b"], 1e-9, "values must be finite numbers, got 'a'"),
            ([0.0, None], 1e-9, "values must be finite numbers, got None"),
            ([0.0, float("inf")], 1e-9, "values must be finite numbers, got inf"),
            (None, 1e-9, "values must be a sequence of numbers, got None"),
        ],
    )
    def test_non_numbers_rejected(self, values, tol, message):
        with pytest.raises(InputError) as info:
            single_peaked(values, tol)
        assert str(info.value) == message

    def test_any_real_numbers_accepted(self):
        from fractions import Fraction

        assert single_peaked([Fraction(1, 3), np.float32(0.5), 1, np.int64(0)], tol=Fraction(0))
        assert not single_peaked(iter([1, 0, 1]), tol=0)
