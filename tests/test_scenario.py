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
    format_curve,
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

    def test_sweep_bound_too_long_to_print_shown_by_its_size(self):
        with pytest.raises(ScenarioError, match=r"^beta sweep range \[0, <int of 16610 bits>\] "):
            BetaSweep(0, 10**5000, 5)

    @pytest.mark.parametrize(
        "lo, hi", [("0", 1), (0, b"1"), (None, 1), (0, [1])], ids=["str", "bytes", "None", "list"]
    )
    def test_sweep_bounds_that_are_not_numbers(self, lo, hi):
        with pytest.raises(ScenarioError, match=r"^beta sweep range \[.*\] must be two numbers$"):
            BetaSweep(lo, hi, 3)

    @pytest.mark.parametrize("count", [2.5, 11.0, "3", None], ids=["2.5", "float-11", "str", "None"])
    def test_sweep_count_that_is_not_an_integer(self, count):
        # refused when the sweep is built, not later when its betas are listed
        with pytest.raises(ScenarioError, match="^beta sweep count must be an integer, got "):
            BetaSweep(0, 1, count)

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


class TestNumbersStored:
    def test_y_r_and_beta_stored_as_floats(self):
        from fractions import Fraction

        import numpy as np

        sc = Scenario(
            AffineHazard(0.3, 0.1), LinearReach(0.9), Fraction(1, 2), 3, np.float32(0.5)
        )
        assert [type(v) for v in (sc.y, sc.r, sc.beta)] == [float, float, float]
        assert (sc.y, sc.r, sc.betas()) == (0.5, 3.0, [0.5])
        assert sc == Scenario(AffineHazard(0.3, 0.1), LinearReach(0.9), 0.5, 3.0, 0.5)

    def test_sweep_scenario_stores_floats(self):
        sc = Scenario(AffineHazard(0.3, 0.1), LinearReach(0.9), 1, 2, BetaSweep(0, 1, 3))
        assert [type(v) for v in (sc.y, sc.r)] == [float, float]
        assert sc.betas() == [0.0, 0.5, 1.0]

    def test_non_number_still_refused(self):
        with pytest.raises(ParameterError, match="got '0.5'"):
            Scenario(AffineHazard(0.3, 0.1), LinearReach(0.9), "0.5", 3.0, 0.5)


def _scenario(**values):
    """BASIC's entries as scenario text, with the given keys replaced."""
    entries = {
        "hazard": "affine(0.3, 0.1)",
        "signal_reach": "linear(0.9)",
        "y": "0.9",
        "r": "3",
        "beta": "1",
        **values,
    }
    return "".join(f"{key} = {value}\n" for key, value in entries.items())


HAZARD_FAMILIES = "(expected affine, power, or table)"
REACH_FAMILIES = "(expected linear or constant)"


class TestMessagesPinned:
    """Full text of every curve and number diagnostic, not just a fragment."""

    @pytest.mark.parametrize(
        "key, value, message",
        [
            # arity of each analytic family
            ("hazard", "affine()", "hazard: affine takes 2 argument(s), got 0"),
            ("hazard", "affine(0.3)", "hazard: affine takes 2 argument(s), got 1"),
            ("hazard", "affine(0.3, 0.1, 0)", "hazard: affine takes 2 argument(s), got 3"),
            ("hazard", "power()", "hazard: power takes 1 argument(s), got 0"),
            ("hazard", "power(1, 2)", "hazard: power takes 1 argument(s), got 2"),
            ("signal_reach", "linear()", "signal_reach: linear takes 1 argument(s), got 0"),
            ("signal_reach", "linear(0.5, 0.5)", "signal_reach: linear takes 1 argument(s), got 2"),
            ("signal_reach", "constant()", "signal_reach: constant takes 1 argument(s), got 0"),
            ("signal_reach", "constant(0.5, 0.5)", "signal_reach: constant takes 1 argument(s), got 2"),
            # every number field
            ("hazard", "affine(a, 0.1)", "hazard slope: expected a number, got 'a'"),
            ("hazard", "affine(0.3, b)", "hazard intercept: expected a number, got 'b'"),
            ("hazard", "affine(0.3,)", "hazard intercept: expected a number, got ''"),
            ("hazard", "affine(a, b)", "hazard slope: expected a number, got 'a'"),
            ("hazard", "power(x)", "hazard exponent: expected a number, got 'x'"),
            ("hazard", "table(0:0.05, z:0.3, 1:0.8)", "table mass: expected a number, got 'z'"),
            ("hazard", "table(0:0.05, 0.5:w, 1:0.8)", "table probability: expected a number, got 'w'"),
            ("signal_reach", "linear(s)", "signal_reach slope: expected a number, got 's'"),
            ("signal_reach", "constant(v)", "signal_reach value: expected a number, got 'v'"),
            ("y", "most", "y: expected a number, got 'most'"),
            ("r", "three", "r: expected a number, got 'three'"),
            ("beta", "high", "beta: expected a number, got 'high'"),
            ("beta", "sweep(a, 1, 11)", "beta sweep lo: expected a number, got 'a'"),
            ("beta", "sweep(0, b, 11)", "beta sweep hi: expected a number, got 'b'"),
            ("beta", "sweep(0, 1, c)", "beta sweep count: expected a number, got 'c'"),
            ("beta", "grid(0, 1, 3)", "beta: unknown form 'grid' (expected a number or sweep)"),
            ("beta", "", "line 5: empty value for 'beta'"),
            # unknown family on each key
            ("hazard", "cubic(1)", f"unknown hazard family 'cubic' {HAZARD_FAMILIES}"),
            ("hazard", "linear(0.9)", f"unknown hazard family 'linear' {HAZARD_FAMILIES}"),
            ("hazard", "constant(0.5)", f"unknown hazard family 'constant' {HAZARD_FAMILIES}"),
            ("signal_reach", "cubic(1)", f"unknown signal_reach family 'cubic' {REACH_FAMILIES}"),
            ("signal_reach", "table(0:0, 1:1)", f"unknown signal_reach family 'table' {REACH_FAMILIES}"),
            ("signal_reach", "affine(0.3, 0.1)", f"unknown signal_reach family 'affine' {REACH_FAMILIES}"),
            ("signal_reach", "power(2)", f"unknown signal_reach family 'power' {REACH_FAMILIES}"),
            # malformed calls and knots
            ("hazard", "0.3", "hazard: expected name(args), got '0.3'"),
            ("signal_reach", "linear 0.9", "signal_reach: expected name(args), got 'linear 0.9'"),
            ("hazard", "table(0:0.05, 0.5, 1:0.8)", "hazard table knot '0.5' must look like d:p"),
        ],
    )
    def test_full_message(self, key, value, message):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(_scenario(**{key: value}))
        assert str(exc.value) == message


class TestFormatCurve:
    @pytest.mark.parametrize(
        "curve, text",
        [
            (AffineHazard(0.3, 0.1), "affine(0.3, 0.1)"),
            (AffineHazard(1.0 / 3.0, 0.0), "affine(0.333333333333, 0)"),
            (PowerHazard(0.25), "power(0.25)"),
            (TableHazard(((0.0, 0.05), (0.5, 0.3), (1.0, 0.8))), "table(0:0.05, 0.5:0.3, 1:0.8)"),
            (LinearReach(0.9), "linear(0.9)"),
            (ConstantReach(0.5), "constant(0.5)"),
        ],
    )
    def test_canonical_spelling(self, curve, text):
        assert format_curve(curve) == text

    def test_unknown_curve(self):
        with pytest.raises(ScenarioError, match=r"^cannot serialize curve 0\.5$"):
            format_curve(0.5)
