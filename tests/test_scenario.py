"""Scenario grammar: parsing, validation diagnostics, canonical echo."""

import pytest
from hypothesis import given, strategies as st

from hazardsignal import (
    AffineHazard,
    BetaSweep,
    ConstantReach,
    LinearReach,
    ParameterError,
    PowerHazard,
    Scenario,
    ScenarioError,
    TableHazard,
    parse_scenario,
)

BASIC = """
# moderate game
hazard = affine(0.3, 0.1)
signal_reach = linear(0.9)
y = 0.9
r = 3
beta = 1
"""


class TestParse:
    def test_basic(self):
        sc = parse_scenario(BASIC)
        assert sc.hazard == AffineHazard(0.3, 0.1)
        assert sc.signal_reach == LinearReach(0.9)
        assert (sc.y, sc.r, sc.beta) == (0.9, 3.0, 1.0)
        assert not sc.is_sweep
        game = sc.game_at(sc.beta)
        assert game.beta == 1.0 and game.r == 3.0

    def test_power_and_constant(self):
        sc = parse_scenario(
            "hazard = power(0.25)\nsignal_reach = constant(0.5)\ny = 0.07\nr = 1.001\nbeta = 0.9\n"
        )
        assert sc.hazard == PowerHazard(0.25)
        assert sc.signal_reach == ConstantReach(0.5)

    def test_table(self):
        sc = parse_scenario(
            "hazard = table(0:0.05, 0.5:0.3, 1:0.8)\nsignal_reach = linear(0.9)\n"
            "y = 0.5\nr = 2\nbeta = 0.5\n"
        )
        assert sc.hazard == TableHazard(((0.0, 0.05), (0.5, 0.3), (1.0, 0.8)))

    def test_sweep_spec(self):
        sc = parse_scenario(BASIC.replace("beta = 1", "beta = sweep(0, 1, 11)"))
        assert sc.is_sweep
        assert sc.beta == BetaSweep(0.0, 1.0, 11)
        betas = sc.betas()
        assert len(betas) == 11 and betas[0] == 0.0 and betas[-1] == 1.0

    def test_comments_whitespace_and_order(self):
        text = "beta=0.5 # inline\n\nr = 2\ny=0.5\nsignal_reach = linear( 0.9 )\nhazard=affine(0.3,0.1)\n"
        sc = parse_scenario(text)
        assert sc.beta == 0.5


class TestParseErrors:
    def test_missing_key(self):
        with pytest.raises(ScenarioError, match="missing required key"):
            parse_scenario("hazard = affine(0.3, 0.1)\ny = 0.5\nr = 2\nbeta = 0.5\n")

    def test_unknown_key(self):
        with pytest.raises(ScenarioError, match="unknown key"):
            parse_scenario(BASIC + "extra = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario(BASIC + "r = 4\n")

    def test_unknown_curve_family(self):
        with pytest.raises(ScenarioError, match="unknown hazard family"):
            parse_scenario(BASIC.replace("affine", "cubic"))

    def test_bad_number(self):
        with pytest.raises(ScenarioError, match="expected a number"):
            parse_scenario(BASIC.replace("r = 3", "r = three"))

    def test_invalid_game_names_the_parameter(self):
        with pytest.raises(ParameterError, match="r must exceed 1"):
            parse_scenario(BASIC.replace("r = 3", "r = 0.5"))

    def test_bad_sweep(self):
        with pytest.raises(ScenarioError, match="at least 2"):
            parse_scenario(BASIC.replace("beta = 1", "beta = sweep(0, 1, 1)"))
        with pytest.raises(ScenarioError, match="integer"):
            parse_scenario(BASIC.replace("beta = 1", "beta = sweep(0, 1, 2.5)"))

    @pytest.mark.parametrize("count", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_sweep_count(self, count):
        with pytest.raises(ScenarioError, match="must be an integer"):
            parse_scenario(BASIC.replace("beta = 1", f"beta = sweep(0, 1, {count})"))

    def test_missing_equals(self):
        with pytest.raises(ScenarioError, match="key = value"):
            parse_scenario("hazard affine(0.3, 0.1)\n")


class TestCanonicalEcho:
    @pytest.mark.parametrize(
        "text",
        [
            BASIC,
            BASIC.replace("beta = 1", "beta = sweep(0, 1, 101)"),
            "hazard = power(0.25)\nsignal_reach = constant(0.5)\ny = 0.07\nr = 1.001\nbeta = 0.9\n",
            "hazard = table(0:0.05, 0.5:0.3, 1:0.8)\nsignal_reach = linear(0.9)\n"
            "y = 0.5\nr = 2\nbeta = 0.5\n",
        ],
    )
    def test_round_trip(self, text):
        sc = parse_scenario(text)
        echoed = parse_scenario(sc.canonical_text())
        assert echoed == sc
        if not sc.is_sweep:
            assert echoed.game_at(echoed.beta) == sc.game_at(sc.beta)

    def test_canonical_text_is_stable(self):
        sc = parse_scenario(BASIC)
        assert sc.canonical_text() == parse_scenario(sc.canonical_text()).canonical_text()

    @given(
        slope=st.floats(0.05, 0.9),
        intercept_frac=st.floats(0.0, 1.0),
        reach=st.floats(0.0, 1.0),
        y=st.floats(0.0, 1.0),
        r=st.floats(1.001, 50.0),
        beta=st.floats(0.0, 1.0),
    )
    def test_round_trip_any_affine_scenario(self, slope, intercept_frac, reach, y, r, beta):
        sc = Scenario(
            hazard=AffineHazard(slope, intercept_frac * (1.0 - slope)),
            signal_reach=LinearReach(reach),
            y=y,
            r=r,
            beta=beta,
        )
        echoed = parse_scenario(sc.canonical_text())
        # 12 significant digits bound the drift of the reparsed game
        assert echoed.hazard.slope == pytest.approx(sc.hazard.slope, rel=1e-11)
        assert echoed.hazard.intercept == pytest.approx(sc.hazard.intercept, rel=1e-11, abs=1e-12)
        assert echoed.y == pytest.approx(sc.y, rel=1e-11, abs=1e-12)
        assert echoed.r == pytest.approx(sc.r, rel=1e-11)
        assert echoed.beta == pytest.approx(sc.beta, rel=1e-11, abs=1e-12)
