"""Degenerate penetrations, table-curve games, and the full-pipeline seams
the module tests do not reach."""

import pytest

from hazardsignal import (
    AffineHazard,
    BehaviorProfile,
    ConstantReach,
    LinearReach,
    Region,
    SignalingGame,
    TableHazard,
    check_equilibrium_conditions,
    epsilon_equilibria,
    optimal_beta_accidents,
    solve_equilibrium,
    solve_profile_P,
    sweep_beta,
)
from hazardsignal.cli import main


def table_game(beta: float, y: float = 0.5, r: float = 3.0) -> SignalingGame:
    curve = TableHazard(((0.0, 0.05), (0.3, 0.2), (0.7, 0.5), (1.0, 0.95)))
    return SignalingGame(beta=beta, y=y, r=r, hazard=curve, signal_reach=LinearReach(0.9))


class TestTableCurvePipeline:
    def test_equilibrium_is_internally_consistent(self):
        for beta in (0.0, 0.3, 0.7, 1.0):
            game = table_game(beta)
            rep = solve_equilibrium(game)
            res = solve_profile_P(game, rep.x_ne)
            assert res.P == pytest.approx(rep.P, abs=1e-9)
            assert check_equilibrium_conditions(game, rep.x_ne, eps=1e-8).ok

    def test_oracle_agrees(self):
        game = table_game(0.8)
        rep = solve_equilibrium(game)
        found = epsilon_equilibria(game, grid_step=0.01, eps=1e-3)
        assert found.members
        star_mass = rep.x_ne.x_n + (1.0 - rep.Q) * rep.x_ne.x_vu
        for member in found.members:
            res = solve_profile_P(game, member)
            mass = member.x_n + (1.0 - res.Q) * member.x_vu
            assert abs(mass - star_mass) <= 0.03
            assert abs(res.P - rep.P) <= 0.02

    def test_sweep_is_single_peaked(self):
        from hazardsignal import single_peaked

        records = sweep_beta(table_game(0.0), 21)
        assert single_peaked([rec.P for rec in records], tol=1e-9)


class TestDegeneratePenetration:
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_no_v2v_cars(self, beta):
        game = SignalingGame(
            beta=beta, y=0.0, r=3.0, hazard=AffineHazard(0.3, 0.1), signal_reach=LinearReach(0.9)
        )
        rep = solve_equilibrium(game)
        assert rep.x_ne.x_vu == 0.0
        # signals cannot exist, so beta never matters
        base = solve_equilibrium(SignalingGame(
            beta=0.0, y=0.0, r=3.0, hazard=AffineHazard(0.3, 0.1), signal_reach=LinearReach(0.9)
        ))
        assert rep.P == pytest.approx(base.P, abs=1e-12)
        assert check_equilibrium_conditions(game, rep.x_ne, eps=1e-8).ok

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_everyone_has_v2v(self, beta):
        game = SignalingGame(
            beta=beta, y=1.0, r=3.0, hazard=AffineHazard(0.3, 0.1), signal_reach=LinearReach(0.9)
        )
        rep = solve_equilibrium(game)
        assert rep.x_ne.x_n == 0.0
        assert check_equilibrium_conditions(game, rep.x_ne, eps=1e-8).ok

    def test_oracle_handles_collapsed_axes(self):
        game = SignalingGame(
            beta=0.7, y=0.0, r=2.0, hazard=AffineHazard(0.4, 0.1), signal_reach=LinearReach(0.9)
        )
        found = epsilon_equilibria(game, grid_step=0.01, eps=1e-3)
        assert found.members
        assert all(m.x_vu == 0.0 for m in found.members)

        game = SignalingGame(
            beta=0.7, y=1.0, r=2.0, hazard=AffineHazard(0.4, 0.1), signal_reach=LinearReach(0.9)
        )
        found = epsilon_equilibria(game, grid_step=0.01, eps=1e-3)
        assert found.members
        assert all(m.x_n == 0.0 for m in found.members)

    def test_constant_reach_with_no_penetration_is_harmless(self):
        # q(0) > 0 but there is nobody to warn; the fixed point ignores it
        game = SignalingGame(
            beta=1.0, y=0.0, r=2.0, hazard=AffineHazard(0.4, 0.1), signal_reach=ConstantReach(0.8)
        )
        res = solve_profile_P(game, BehaviorProfile(0.5, 0.0, 0.0))
        assert res.P == pytest.approx(game.hazard(0.5), abs=1e-10)

    def test_certain_signal_of_a_certain_accident(self, tmp_path, capsys):
        # beta*q = 1 and p(1) = 1: the scan's fixed point at x_n = 1 is P = 1.0
        # exactly, where posterior_no_signal raises; the scan must not use it
        game = SignalingGame(
            beta=1.0, y=0.0, r=3.0, hazard=AffineHazard(0.5, 0.5), signal_reach=ConstantReach(1.0)
        )
        found = epsilon_equilibria(game, grid_step=0.01, eps=1e-3)
        assert found.members == (BehaviorProfile(0.0, 0.0, 0.0),)
        assert not check_equilibrium_conditions(game, BehaviorProfile(1.0, 0.0, 0.0), 1e-3).ok
        scn = tmp_path / "certain.scn"
        scn.write_text(
            "hazard = affine(0.5, 0.5)\nsignal_reach = constant(1)\ny = 0\nr = 3\nbeta = 1\n"
        )
        assert main(["oracle-check", str(scn)]) == 0
        assert capsys.readouterr().out.splitlines()[-1].endswith(",agree")


class TestDesignEdges:
    def test_endpoint_rule_survives_degenerate_penetration(self):
        for y in (0.0, 1.0):
            game = SignalingGame(
                beta=0.5, y=y, r=2.0, hazard=AffineHazard(0.4, 0.1), signal_reach=LinearReach(0.9)
            )
            result = optimal_beta_accidents(game)
            assert result.beta_star in (0.0, 1.0)
            assert result.value_at_star <= min(result.endpoint_comparison) + 1e-12

    def test_region_labels_cover_enum(self):
        # the shipped families exercise every region label somewhere in beta
        seen = set()
        families = [
            lambda b: SignalingGame(beta=b, y=0.9, r=3.0, hazard=AffineHazard(0.3, 0.1),
                                    signal_reach=LinearReach(0.9)),
            lambda b: SignalingGame(beta=b, y=0.7, r=20.0, hazard=AffineHazard(0.8, 0.1),
                                    signal_reach=LinearReach(0.9)),
            lambda b: SignalingGame(beta=b, y=0.9, r=1.5, hazard=AffineHazard(0.2, 0.1),
                                    signal_reach=LinearReach(0.9)),
            lambda b: SignalingGame(beta=b, y=0.3, r=2.0, hazard=AffineHazard(0.3, 0.1),
                                    signal_reach=LinearReach(0.9)),
        ]
        for family in families:
            for i in range(21):
                seen.add(solve_equilibrium(family(i / 20)).region)
        assert seen == set(Region)
