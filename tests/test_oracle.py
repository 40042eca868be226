"""Equilibrium-condition check, brute-force eps-equilibrium scan and oracle verdict."""

import dataclasses
import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hazardsignal import oracle
from hazardsignal import (
    AffineHazard,
    BehaviorProfile,
    ConstantReach,
    InputError,
    LinearReach,
    PowerHazard,
    SignalingGame,
    TableHazard,
    check_equilibrium_conditions,
    epsilon_equilibria,
    load_scenario,
    oracle_verdict,
    solve_equilibrium,
    solve_profile_P,
)

from conftest import (
    SCENARIO_DIR,
    adoption_backfire_game,
    adversarial_tables,
    extreme_game,
    knot_points,
    random_game,
    steep_hazard_game,
    table_curves,
)
import generator
import workloads


def lattice(bound, step):
    """The scan's axis: 0, step, 2*step, ... with the exact bound as the last point."""
    pts = [k * step for k in range(math.floor(bound / step + 1e-9) + 1)]
    if bound - pts[-1] > 1e-12:
        return pts + [bound]
    return pts[:-1] + [bound]


def linf(profile, x_n, x_vu):
    return max(abs(profile.x_n - x_n), abs(profile.x_vu - x_vu))


def reference_crossings(game, xn_axis, xvu_axis):
    """The gap crossings as a plain reference: 60 np.where halvings of every
    line's [0, bound] bracket, each reading the doubly clamped _hazard_at."""
    p = oracle._hazard_at(game)
    rate = game.signal_rate
    moves_n = np.repeat([True, False], [len(xvu_axis), len(xn_axis)])
    t = np.where(moves_n, game.t_prior, game.t_unsignaled)
    bound = np.where(moves_n, 1.0 - game.y, game.y)
    fixed = np.concatenate([xvu_axis, xn_axis])
    scale = 1.0 - t * rate
    coef = np.where(moves_n, 1.0, scale)
    const = np.where(moves_n, scale * fixed, fixed)
    change = ~(p(coef * 0.0 + const) >= t) & (p(coef * bound + const) >= t)
    moves_n, t, bound, fixed, coef, const = (
        a[change] for a in (moves_n, t, bound, fixed, coef, const)
    )
    lo, hi = np.zeros_like(bound), bound
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        down = p(coef * mid + const) >= t
        hi = np.where(down, mid, hi)
        lo = np.where(down, lo, mid)
    m = 0.5 * (lo + hi)
    return np.where(moves_n, m, fixed), np.where(moves_n, fixed, m)


def reference_members(game, step, eps):
    """The scan's members as a plain reference: a meshgrid lattice plus the
    reference crossings, filtered by the scan's own _member_mask, rows
    deduplicated and sorted by np.unique."""
    xn_axis, xvu_axis = oracle._axis(1.0 - game.y, step), oracle._axis(game.y, step)
    grid_n, grid_vu = np.meshgrid(xn_axis, xvu_axis, indexing="ij")
    cross_n, cross_vu = reference_crossings(game, xn_axis, xvu_axis)
    xs = np.concatenate([grid_n.ravel(), cross_n])
    vus = np.concatenate([grid_vu.ravel(), cross_vu])
    ok = oracle._member_mask(game, xs, vus, eps)
    points = np.column_stack([xs[ok], vus[ok]])
    if len(points):
        points = np.unique(points, axis=0)
    return [(float(a).hex(), float(b).hex()) for a, b in points]


def assert_crossings_match_reference(game, step):
    """_gap_crossings' candidates equal reference_crossings' by float.hex; both
    run in this process, so no CPU difference in np.power's last bit can come
    between them."""
    axes = oracle._axis(1.0 - game.y, step), oracle._axis(game.y, step)
    got = [[v.hex() for v in a.tolist()] for a in oracle._gap_crossings(game, *axes)]
    expected = [[v.hex() for v in a.tolist()] for a in reference_crossings(game, *axes)]
    assert got == expected, game


def assert_members_match_reference(game, step, eps):
    """epsilon_equilibria's members equal reference_members' by float.hex."""
    members = epsilon_equilibria(game, step, eps).members
    assert all(m.x_vs == 0.0 for m in members)
    got = [(m.x_n.hex(), m.x_vu.hex()) for m in members]
    assert got == reference_members(game, step, eps), game


class TestConditionCheck:
    def test_closed_form_passes_its_own_conditions(self):
        game = adoption_backfire_game(1.0)
        check = check_equilibrium_conditions(game, BehaviorProfile(0.0, 0.9, 0.0), eps=1e-6)
        assert check.ok
        assert check.failures() == ()

    def test_misplaced_mass_fails(self):
        # any reckless non-V2V mass pushes P above 1/(1+r): caution strictly wins
        game = adoption_backfire_game(1.0)
        check = check_equilibrium_conditions(game, BehaviorProfile(0.1, 0.9, 0.0), eps=1e-6)
        assert not check.ok
        assert "n_reckless_in_use" in check.failures()

    def test_infeasible_profile_is_a_precondition_error(self):
        game = adoption_backfire_game(1.0)  # non-V2V group size is 0.1
        with pytest.raises(InputError):
            check_equilibrium_conditions(game, BehaviorProfile(0.5, 0.9, 0.0), eps=1e-6)

    def test_signaled_recklessness_always_fails(self):
        game = adoption_backfire_game(0.4)
        check = check_equilibrium_conditions(game, BehaviorProfile(0.0, 0.3, 0.2), eps=1e-6)
        assert not check.ok
        assert "vs_reckless_in_use" in check.failures()

    def test_huge_eps_accepts_anything(self):
        game = adoption_backfire_game(0.4)
        check = check_equilibrium_conditions(
            game, BehaviorProfile(0.05, 0.3, 0.0), eps=game.r
        )
        assert check.ok

    @pytest.mark.parametrize(
        "eps", [math.inf, math.nan, "1e-3", b"1e-3", None, 10**400, 10**5000],
        ids=["inf", "nan", "str", "bytes", "none", "huge-int", "5000-digit-int"],
    )
    def test_non_finite_eps_rejected(self, eps):
        # signaled drivers reckless: fails at any finite eps, so an infinite one must not pass it
        game = SignalingGame(0.5, 0.5, 3.0, AffineHazard(0.5, 0.4), LinearReach(1.0))
        profile = BehaviorProfile(0.5, 0.0, 0.5)
        assert not check_equilibrium_conditions(game, profile, 1e-3).ok
        with pytest.raises(InputError, match="eps must be finite and nonnegative"):
            check_equilibrium_conditions(game, profile, eps)

    @pytest.mark.parametrize(
        "eps", [0, 1, 1e-3, np.float32(1e-3), np.float64(1e-3), np.int64(0)],
        ids=["int-0", "int-1", "float", "float32", "float64", "int64"],
    )
    def test_numeric_eps_accepted(self, eps):
        game = SignalingGame(0.5, 0.5, 3.0, AffineHazard(0.5, 0.4), LinearReach(1.0))
        check = check_equilibrium_conditions(game, BehaviorProfile(0.0, 0.0, 0.0), eps)
        assert check.ok and check.epsilon == eps

    def test_binding_reports_indifference(self):
        game = adoption_backfire_game(0.0)  # NCVI at beta = 0: vu group indifferent
        rep = solve_equilibrium(game)
        check = check_equilibrium_conditions(game, rep.x_ne, eps=1e-6)
        assert "vu_careful_in_use" in check.binding()
        assert "vu_reckless_in_use" in check.binding()


class TestEpsilonEquilibria:
    def test_backfire_members_cluster_at_corner(self):
        game = adoption_backfire_game(1.0)
        found = epsilon_equilibria(game, grid_step=0.01, eps=1e-3)
        assert found.members
        assert all(linf(m, 0.0, 0.9) <= 2 * 0.01 for m in found.members)

    def test_steep_hazard_members_cluster_at_origin(self):
        game = steep_hazard_game(0.0)
        found = epsilon_equilibria(game, grid_step=0.01, eps=1e-3)
        assert found.members
        assert all(linf(m, 0.0, 0.0) <= 2 * 0.01 for m in found.members)

    def test_interior_equilibrium_found_via_crossings(self):
        # NCVI with chi_vu strictly between lattice points
        game = steep_hazard_game(1.0)
        rep = solve_equilibrium(game)
        found = epsilon_equilibria(game, grid_step=0.01, eps=1e-3)
        assert found.members
        assert any(linf(m, rep.x_ne.x_n, rep.x_ne.x_vu) <= 1e-6 for m in found.members)

    def test_nivr_interior_equilibrium_found(self):
        game = SignalingGame(
            beta=0.5, y=0.3, r=2.0, hazard=AffineHazard(0.3, 0.1), signal_reach=LinearReach(0.9)
        )
        rep = solve_equilibrium(game)
        found = epsilon_equilibria(game, grid_step=0.01, eps=1e-3)
        assert any(linf(m, rep.x_ne.x_n, rep.x_ne.x_vu) <= 1e-6 for m in found.members)

    def test_giant_eps_admits_every_lattice_point(self):
        game = adoption_backfire_game(0.5)
        found = epsilon_equilibria(game, grid_step=0.1, eps=game.r)
        # lattice for y = 0.9: x_n in {0, 0.1}, x_vu in {0, 0.1, ..., 0.9}
        member_keys = {(round(m.x_n, 10), round(m.x_vu, 10)) for m in found.members}
        for a in (0.0, 0.1):
            for j in range(10):
                assert (round(a, 10), round(j * 0.1, 10)) in member_keys

    def test_members_satisfy_scalar_conditions(self):
        rng = random.Random(700)
        for _ in range(10):
            game = random_game(rng)
            found = epsilon_equilibria(game, grid_step=0.05, eps=1e-3)
            for member in found.members[:50]:
                assert check_equilibrium_conditions(game, member, eps=1.1e-3).ok

    def test_lattice_verdicts_match_scalar_conditions(self):
        # the scalar check solves each profile's P, so it is an independent reference
        # for the scan's sign tests: away from the band edges both give one verdict
        rng = random.Random(702)
        step, eps = 0.05, 0.5
        passing = 0
        for _ in range(12):
            game = random_game(rng)
            found = epsilon_equilibria(game, grid_step=step, eps=eps)
            members = {(m.x_n, m.x_vu) for m in found.members}
            for x_n in lattice(1.0 - game.y, step):
                for x_vu in lattice(game.y, step):
                    profile = BehaviorProfile(x_n, x_vu, 0.0)
                    if check_equilibrium_conditions(game, profile, 0.9 * eps).ok:
                        passing += 1
                        assert (x_n, x_vu) in members, (game, profile)
                    if (x_n, x_vu) in members:
                        assert check_equilibrium_conditions(game, profile, 1.1 * eps).ok
        assert passing > 50

    def test_agreement_with_closed_form(self):
        rng = random.Random(701)
        for _ in range(30):
            game = random_game(rng)
            # agreement is within 3 grid steps (0.03) of reckless mass and 2 (0.02) of P
            v = oracle_verdict(game, solve_equilibrium(game), 0.01, 1e-3)
            assert v.verdict == "agree", (game, v.mass_dev, v.P_dev)

    def test_parameter_validation(self):
        game = adoption_backfire_game(0.5)
        with pytest.raises(InputError):
            epsilon_equilibria(game, grid_step=0.0, eps=1e-3)
        with pytest.raises(InputError):
            epsilon_equilibria(game, grid_step=0.01, eps=0.0)
        with pytest.raises(InputError):
            epsilon_equilibria(game, grid_step=0.2, eps=1e-3)  # exceeds min(y, 1-y)

    @pytest.mark.parametrize(
        "grid_step, eps",
        [(math.inf, 1e-3), (0.5, math.inf), (math.nan, 1e-3), (0.5, math.nan),
         (None, 1e-3), (0.5, None), ("0.5", 1e-3), (0.5, "1e-3"), (b"0.5", 1e-3),
         (10**400, 1e-3), (0.5, 10**400), (10**5000, 1e-3), (0.5, 10**5000)],
        ids=["step-inf", "eps-inf", "step-nan", "eps-nan",
             "step-none", "eps-none", "step-str", "eps-str", "step-bytes",
             "step-huge-int", "eps-huge-int", "step-5000-digit-int", "eps-5000-digit-int"],
    )
    def test_non_finite_parameters_rejected(self, grid_step, eps):
        # y = 0 admits any step, so only finiteness stands between inf and a
        # lattice of inf * 0 = nan; an infinite eps would admit every profile
        game = SignalingGame(0.5, 0.0, 3.0, AffineHazard(0.5, 0.4), LinearReach(1.0))
        with pytest.raises(InputError, match="must be finite and positive"):
            epsilon_equilibria(game, grid_step=grid_step, eps=eps)
        assert epsilon_equilibria(game, grid_step=1e308, eps=1e-3).members == (
            BehaviorProfile(0.0, 0.0, 0.0),
        )

    @pytest.mark.parametrize(
        "grid_step, eps",
        [(1, 1), (np.float32(0.5), np.float32(1e-3)), (np.float64(0.5), np.float64(1e-3)),
         (np.int64(1), 1e-3)],
        ids=["int", "float32", "float64", "int64"],
    )
    def test_numeric_parameters_accepted(self, grid_step, eps):
        # y = 0 admits any step; the lattice is the one profile at the origin
        game = SignalingGame(0.5, 0.0, 3.0, AffineHazard(0.5, 0.4), LinearReach(1.0))
        assert epsilon_equilibria(game, grid_step, eps).members == (
            BehaviorProfile(0.0, 0.0, 0.0),
        )

    def test_certain_signal_leaves_a_zero_posterior(self):
        # beta*q = 1: silence means no accident, so unsignaled caution never pays, even
        # where p rounds to 1.0 and every profile's consistent P is 1
        game = SignalingGame(1.0, 0.5, 3.0, AffineHazard(1e-17, 1.0), ConstantReach(1.0))
        found = epsilon_equilibria(game, grid_step=0.01, eps=1e-3)
        assert found.members == (BehaviorProfile(0.0, 0.5, 0.0),)

    def test_members_pinned(self):
        # every member's float.hex over a fixed game set, recorded from the scan as it
        # stands; a change in how membership is decided must not move a single bit.
        # Power hazards are left out: np.power is not correctly rounded, so its last
        # bit (and with it a crossing's) may differ between CPUs and numpy builds.
        rng = random.Random(7)
        games = [g for g in (random_game(rng) for _ in range(24))
                 if isinstance(g.hazard, AffineHazard)]
        games.append(SignalingGame(
            0.6, 0.5, 3.65, TableHazard(((0.0, 0.1), (0.4, 0.15), (1.0, 0.6))), LinearReach(0.83)
        ))
        # beta*q = 1: silence means no accident; y = 0 with p(1) = 1 reaches P = 1.0
        games += [
            SignalingGame(1.0, y, 3.0, hazard, ConstantReach(1.0))
            for y, hazard in (
                (0.0, AffineHazard(0.5, 0.5)),
                (0.5, AffineHazard(0.5, 0.5)),
                (0.5, AffineHazard(0.6, 0.2)),
                (1.0, AffineHazard(0.3, 0.1)),
            )
        ]
        digest = hashlib.sha256()
        # at eps 0.05 the members are whole lattice bands, so their edges are pinned too
        for eps in (1e-3, 0.05):
            for game in games:
                digest.update(b"game\n")
                for m in epsilon_equilibria(game, 0.01, eps).members:
                    digest.update(f"{m.x_n.hex()} {m.x_vu.hex()} {m.x_vs.hex()}\n".encode())
        assert len(games) == 22
        assert digest.hexdigest() == "2919b5ec79934fa15988a0ae688c699b598330361ab828acff67bd96db60a440"

    def test_crossings_pinned(self):
        # every crossing candidate's float.hex over a fixed game set, recorded from the
        # row bisection as it stands; a faster kernel must not move a single bit.
        # Power hazards are left out, as in test_members_pinned.
        rng = random.Random(13)
        games = [g for g in (random_game(rng) for _ in range(60))
                 if isinstance(g.hazard, AffineHazard)]
        tables = [
            TableHazard(((0.0, 0.1), (0.4, 0.15), (1.0, 0.6))),
            TableHazard(((0.0, 0.02), (0.25, 0.3), (0.5, 0.35), (0.8, 0.5), (1.0, 0.9))),
            TableHazard(((0.0, 0.0), (0.6, 0.05), (1.0, 1.0))),
        ]
        for hazard in tables:
            for _ in range(4):
                games.append(SignalingGame(
                    rng.random(), rng.uniform(0.05, 0.95), rng.uniform(1.01, 10.0), hazard,
                    LinearReach(rng.uniform(0.1, 1.0)),
                ))
        # beta*q = 1, and y at 0 or 1, for both an affine and a table hazard
        for hazard in (AffineHazard(0.5, 0.5), AffineHazard(0.6, 0.2), tables[1]):
            for y in (0.0, 0.3, 0.5, 1.0):
                games.append(SignalingGame(1.0, y, 3.0, hazard, ConstantReach(1.0)))
            for y in (0.0, 1.0):
                games.append(SignalingGame(0.5, y, 1.5, hazard, LinearReach(0.8)))
        digest = hashlib.sha256()
        candidates = 0
        for step in (0.01, 0.05):
            for game in games:
                digest.update(b"game\n")
                xs, vus = oracle._gap_crossings(
                    game, oracle._axis(1.0 - game.y, step), oracle._axis(game.y, step)
                )
                candidates += len(xs)
                for a, b in zip(xs.tolist(), vus.tolist()):
                    digest.update(f"{a.hex()} {b.hex()}\n".encode())
        assert (len(games), candidates) == (62, 1081)
        assert digest.hexdigest() == "161bb05e721afd5314dc05856bf345ee1709fa82e297d257b0a1427214e84451"

    @pytest.mark.parametrize("step", [0.01, 0.005])
    @pytest.mark.parametrize(
        "pool", [generator.oracle_wellcond_pool, generator.oracle_well_pool,
                 generator.oracle_extreme_pool],
        ids=["wellcond", "well", "extreme"],
    )
    def test_scan_matches_reference_on_benchmark_pools(self, pool, step):
        # power games included: the reference runs in this process, so it meets the
        # scan's np.power bits on any CPU, which test_members_pinned cannot
        for item in pool(1):
            game = item.game()
            assert_crossings_match_reference(game, step)
            assert_members_match_reference(game, step, workloads.ORACLE_EPS)

    @settings(max_examples=300, deadline=None)
    @given(
        extreme_game(),
        st.sampled_from([0.01, 0.05, 0.25]),
        st.sampled_from([1e-3, 0.05, 0.5]),
    )
    def test_scan_matches_reference_on_extreme_games(self, game, step, eps):
        """Every family, y at 0 or 1, beta*q = 1 and r >> 1: each bisected mass
        is coef*m + const with all three >= 0, so the scan may leave out the
        reference's lower clamp without moving a bit."""
        assert_crossings_match_reference(game, step)
        y = game.y
        if 0.0 < y < 1.0:
            step = min(step, y, 1.0 - y)
        # y within 1e-12 of 0 or 1 needs a step too fine for a lattice of any size
        if math.prod(b / step + 2.0 if b > 0.0 else 1.0 for b in (1.0 - y, y)) <= 1e4:
            assert_members_match_reference(game, step, eps)

    @given(
        st.one_of(table_curves(), adversarial_tables()), st.lists(st.floats(-0.5, 1.5), max_size=20)
    )
    def test_table_array_matches_np_interp_bits(self, curve, points):
        """The scan reads a table by np.interp on its knot coordinates, with each
        mass clamped to [0, 1], and so gets the curve's own value bit for bit."""
        game = SignalingGame(0.5, 0.5, 3.0, curve, LinearReach(0.9))
        points = knot_points(curve, points)
        masses = [min(max(x, 0.0), 1.0) for x in points]
        got = oracle._hazard_at(game)(np.array(points)).tolist()
        ds, vs = zip(*curve.knots)
        expected = np.interp(np.array(masses), np.array(ds), np.array(vs)).tolist()
        assert [v.hex() for v in got] == [v.hex() for v in expected]
        assert [v.hex() for v in got] == [curve(m).hex() for m in masses]


class TestOracleVerdict:
    def scenario_game(self):
        scenario = load_scenario(SCENARIO_DIR / "zero_signal_optimum.scn")
        return scenario.game_at(scenario.beta)

    def test_agrees_on_a_shipped_scenario(self):
        game = self.scenario_game()
        v = oracle_verdict(game, solve_equilibrium(game), 0.01, 1e-3)
        assert v.verdict == "agree"
        assert v.mass_dev <= 0.03 and v.P_dev <= 0.02

    def test_members_are_the_scans(self):
        game = self.scenario_game()
        v = oracle_verdict(game, solve_equilibrium(game), 0.01, 1e-3)
        assert v.members
        assert v.members == epsilon_equilibria(game, 0.01, 1e-3).members

    def test_moved_P_disagrees(self):
        game = self.scenario_game()
        rep = solve_equilibrium(game)
        v = oracle_verdict(game, dataclasses.replace(rep, P=rep.P + 0.1), 0.01, 1e-3)
        assert v.verdict == "disagree"
        assert v.P_dev > 0.02

    def test_no_member_is_empty(self):
        game = SignalingGame(
            beta=1e-9, y=0.5, r=1000, hazard=PowerHazard(0.00365),
            signal_reach=ConstantReach(0.0894),
        )
        v = oracle_verdict(game, solve_equilibrium(game), 0.01, 1e-3)
        assert (v.verdict, v.members) == ("empty", ())
        assert math.isnan(v.mass_dev) and math.isnan(v.P_dev)

    def test_deviation_at_the_tolerance_agrees(self):
        # everyone careful (p(0) = 0.4 > 1/(1+r)): the one member is the origin, whose
        # mass is 0. A step of 2**-4 makes both tolerances and both deviations exact.
        game = SignalingGame(0.5, 0.5, 3.0, AffineHazard(0.5, 0.4), LinearReach(1.0))
        step = 2.0**-4
        origin = BehaviorProfile(0.0, 0.0, 0.0)
        rep = solve_equilibrium(game)
        P = solve_profile_P(game, origin).P
        at = dataclasses.replace(rep, x_ne=BehaviorProfile(3 * step, 0.0), P=P - 2 * step)
        v = oracle_verdict(game, at, step, 1e-3)
        assert v.members == (origin,)
        assert (v.mass_dev, v.P_dev) == (3 * step, 2 * step)
        assert v.verdict == "agree"
        # one ulp further on either deviation disagrees
        for beyond in (
            dataclasses.replace(at, x_ne=BehaviorProfile(math.nextafter(3 * step, 1.0), 0.0)),
            dataclasses.replace(at, P=math.nextafter(at.P, 0.0)),
        ):
            assert oracle_verdict(game, beyond, step, 1e-3).verdict == "disagree"

    @pytest.mark.parametrize(
        "grid_step, eps, what",
        [(0.05, "1e-3", "eps"), (None, 1e-3, "grid_step"), (math.inf, 1e-3, "grid_step"),
         (10**400, 1e-3, "grid_step"), (10**5000, 1e-3, "grid_step")],
        ids=["eps-str", "step-none", "step-inf", "step-huge-int", "step-5000-digit-int"],
    )
    def test_parameters_checked_as_the_scan_checks_them(self, grid_step, eps, what):
        game = self.scenario_game()
        with pytest.raises(InputError, match=f"^{what} must be finite and positive"):
            oracle_verdict(game, solve_equilibrium(game), grid_step, eps)

    def test_numpy_float32_parameters_accepted(self):
        game = self.scenario_game()
        rep = solve_equilibrium(game)
        v = oracle_verdict(game, rep, np.float32(0.05), np.float32(1e-3))
        assert v.verdict == "agree"

    def test_benchmark_oracle_op_is_the_library_verdict(self):
        # hsbench/workloads.py::oracle_op repeats the verdict rule; both agree on its seed-1 pools
        for item in generator.oracle_well_pool(1) + generator.oracle_extreme_pool(1):
            game = item.game()
            rep = solve_equilibrium(game)
            v = oracle_verdict(game, rep, workloads.ORACLE_STEP, workloads.ORACLE_EPS)
            assert workloads.oracle_op(item) == (v.verdict, len(v.members)), item
