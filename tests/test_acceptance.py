"""End-to-end acceptance suite.

One test per release criterion. Each prints a PASS/FAIL line (visible with
pytest -s) and enforces its stated numeric tolerance and runtime budget.
"""

import contextlib
import random
import time

from hazardsignal import (
    Region,
    classify_region,
    optimal_beta_accidents,
    oracle_verdict,
    posterior_no_signal,
    single_peaked,
    solve_equilibrium,
    solve_profile_P,
    sweep_beta,
    with_beta,
)
from hazardsignal.cli import main

from conftest import (
    SCENARIO_DIR,
    cost_reversal_game,
    random_game,
    steep_hazard_game,
)


@contextlib.contextmanager
def criterion(name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.perf_counter() - start:.2f} s)")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"{name} exceeded its {budget_s} s budget: {elapsed:.2f} s"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f} s)")


def test_criterion_1_endpoint_rule_reproduction(tmp_path):
    """Steep-hazard scenario: P(0) = 0.1 exactly, P(1) = 1/8.4, beta* = 0."""
    with criterion("1 endpoint-rule reproduction", 1.0):
        assert solve_equilibrium(steep_hazard_game(0.0)).P == 0.1
        p1 = solve_equilibrium(steep_hazard_game(1.0)).P
        assert abs(p1 - 0.119047619) <= 1e-9
        assert abs(p1 - 1.0 / 8.4) <= 1e-12

        result = optimal_beta_accidents(steep_hazard_game(0.5))
        assert result.beta_star == 0.0

        out = tmp_path / "optimize_p.csv"
        code = main(
            ["optimize-p", str(SCENARIO_DIR / "zero_signal_optimum.scn"), "--out", str(out)]
        )
        assert code == 0
        row = out.read_text().splitlines()[-1].split(",")
        assert float(row[1]) == 0.0
        assert abs(float(row[3]) - 0.1) <= 1e-12
        assert abs(float(row[4]) - 1.0 / 8.4) <= 1e-9


def test_criterion_2_social_cost_reproduction():
    """Sparse-adoption scenario: S(0.9) ~ 0.4889 < S(1.0) ~ 0.4890."""
    with criterion("2 social-cost reproduction", 1.0):
        s_09 = solve_equilibrium(cost_reversal_game(0.9)).social_cost
        s_10 = solve_equilibrium(cost_reversal_game(1.0)).social_cost
        assert abs(s_09 - 0.4889) <= 5e-4
        assert abs(s_10 - 0.4890) <= 5e-4
        assert s_09 < s_10


def test_criterion_3_sweep_reproduction(tmp_path):
    """101-point sweep: exact endpoints, single peak within beta in [0.38, 0.48]."""
    with criterion("3 sweep reproduction", 2.0):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", str(SCENARIO_DIR / "partial_adoption_backfire.scn"), "--out", str(out)]
        )
        assert code == 0
        rows = [
            line.split(",")
            for line in out.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("beta,")
        ]
        assert len(rows) == 101
        betas = [float(r[0]) for r in rows]
        probs = [float(r[2]) for r in rows]
        assert abs(probs[0] - 0.25) <= 1e-9
        assert abs(probs[-1] - 0.37 / 1.2187) <= 1e-9
        assert probs[-1] > probs[0]
        assert single_peaked(probs, tol=1e-9)
        peak_beta = betas[max(range(len(probs)), key=probs.__getitem__)]
        assert 0.38 <= peak_beta <= 0.48


def test_criterion_4_oracle_equivalence():
    """200 random games: eps-equilibria exist and agree with the closed form."""
    with criterion("4 oracle equivalence", 60.0):
        rng = random.Random(20260808)
        for trial in range(200):
            game = random_game(rng)
            # agreement is within 3 grid steps (0.03) of reckless mass and 2 (0.02) of P
            found = oracle_verdict(game, solve_equilibrium(game), grid_step=0.01, eps=1e-3)
            assert found.verdict == "agree", (trial, game, found.mass_dev, found.P_dev)


def test_criterion_5_invariant_suites():
    """Bayes equivalence, range containment, form check, seam continuity,
    and sweep single-peakedness over 1000 random games."""
    with criterion("5 invariant suites", 30.0):
        rng = random.Random(987654321)
        games = [random_game(rng) for _ in range(1000)]

        # Bayes-threshold equivalence at tolerance 1e-9
        for game in games:
            P = rng.uniform(0.0, 0.999)
            lhs = posterior_no_signal(game, P) - 1.0 / (1.0 + game.r)
            rhs = P - 1.0 / (1.0 + game.r * (1.0 - game.signal_rate))
            assert not (lhs > 1e-9 and rhs < -1e-9)
            assert not (lhs < -1e-9 and rhs > 1e-9)

        # range containment, equilibrium form, and consistency closure, 1e-9
        for game in games:
            rep = solve_equilibrium(game)
            assert abs(solve_profile_P(game, rep.x_ne).P - rep.P) <= 1e-9
            t_prior = 1.0 / (1.0 + game.r)
            t_unsignaled = 1.0 / (1.0 + game.r * (1.0 - game.signal_rate))
            if rep.region is Region.NCVC:
                assert abs(rep.P - game.hazard.floor) <= 1e-9
            elif rep.region is Region.NCVI:
                assert abs(rep.P - t_unsignaled) <= 1e-9
            elif rep.region is Region.NIVR:
                assert abs(rep.P - t_prior) <= 1e-9
            elif rep.region is Region.NRVR:
                assert rep.P < t_prior + 1e-9
            else:
                assert t_prior - 1e-9 < rep.P < t_unsignaled + 1e-9
            x = rep.x_ne
            assert x.x_vs == 0.0
            assert x.x_n <= 1e-9 or abs(x.x_vu - game.y) <= 1e-9
            assert -1e-12 <= x.x_n <= 1.0 - game.y + 1e-9
            assert -1e-12 <= x.x_vu <= game.y + 1e-9

        # boundary continuity across every region seam found along beta
        seams = 0
        for game in games:
            grid = [i / 16 for i in range(17)]
            regions = [classify_region(with_beta(game, b)) for b in grid]
            for i in range(16):
                if regions[i] is regions[i + 1]:
                    continue
                lo, hi = grid[i], grid[i + 1]
                left = regions[i]
                while hi - lo > 1e-12:
                    mid = 0.5 * (lo + hi)
                    if classify_region(with_beta(game, mid)) is left:
                        lo = mid
                    else:
                        hi = mid
                p_left = solve_equilibrium(with_beta(game, lo)).P
                p_right = solve_equilibrium(with_beta(game, hi)).P
                assert abs(p_left - p_right) <= 1e-9, (game, regions[i], regions[i + 1])
                seams += 1
        assert seams >= 50

        # sweep single-peakedness, 1e-9 per comparison
        for game in games:
            records = sweep_beta(game, 21)
            assert single_peaked([rec.P for rec in records], tol=1e-9), game


def test_criterion_6_tradeoff_witness():
    """An interval where accidents strictly fall while social cost strictly rises."""
    with criterion("6 trade-off witness", 5.0):
        low = solve_equilibrium(cost_reversal_game(0.9))
        high = solve_equilibrium(cost_reversal_game(1.0))
        assert high.P < low.P
        assert high.social_cost > low.social_cost
        # same conflict visible at finer resolution inside the interval
        records = sweep_beta(cost_reversal_game(0.0), 6, lo=0.9, hi=1.0)
        probs = [rec.P for rec in records]
        costs = [rec.S for rec in records]
        assert all(b < a for a, b in zip(probs, probs[1:]))
        assert all(b > a for a, b in zip(costs, costs[1:]))
