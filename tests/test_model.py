"""Curve families, game validation, and profile bounds."""

import copy
import dataclasses
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from hazardsignal import (
    AffineHazard,
    BehaviorProfile,
    ConstantReach,
    CurveError,
    InputError,
    LinearReach,
    ParameterError,
    PowerHazard,
    RangeError,
    SignalingGame,
    TableHazard,
    validate_profile,
)
from hazardsignal.oracle import _gap_crossings, _hazard_at, _member_mask

from conftest import (
    adversarial_tables,
    guided_against_plain,
    knot_points,
    knot_targets,
    random_game,
    same_bits,
    table_curves,
)


@st.composite
def affine_curves(draw):
    slope = draw(st.floats(min_value=0.01, max_value=0.98))
    intercept = draw(st.floats(min_value=0.0, max_value=1.0 - slope))
    return AffineHazard(slope, intercept)


power_curves = st.floats(min_value=0.1, max_value=10.0).map(PowerHazard)


hazard_curves = st.one_of(affine_curves(), power_curves, table_curves())

#: tables of test_table_round_trip; the second has a near-vertical segment,
#: where bisection stops on bracket width
ROUND_TRIP_TABLES = (
    ((0.0, 0.05), (0.3, 0.2), (0.7, 0.5), (1.0, 0.95)),
    ((0.0, 0.05), (0.5, 0.1), (0.5 + 5e-6, 0.6), (1.0, 0.95)),
)

#: one curve of each family, for the argument checks shared by all of them
every_family = pytest.mark.parametrize(
    "curve",
    [
        AffineHazard(0.3, 0.1),
        PowerHazard(3.0),
        TableHazard(ROUND_TRIP_TABLES[0]),
        LinearReach(0.9),
        ConstantReach(0.4),
    ],
    ids=lambda c: type(c).__name__,
)


class TestHazardEval:
    def test_affine_values(self):
        curve = AffineHazard(0.3, 0.1)
        assert curve(0.9) == pytest.approx(0.37, abs=1e-15)
        assert PowerHazard(0.25)(0.0) == 0.0
        assert AffineHazard(0.8, 0.1)(0.0) == pytest.approx(0.1, abs=0)

    def test_domain_violation(self):
        curve = AffineHazard(0.3, 0.1)
        with pytest.raises(InputError):
            curve(-0.2)
        with pytest.raises(InputError):
            curve(1.2)

    def test_table_interpolation(self):
        curve = TableHazard(((0.0, 0.05), (0.5, 0.3), (1.0, 0.8)))
        assert curve(0.0) == 0.05
        assert curve(0.25) == pytest.approx(0.175)
        assert curve(1.0) == 0.8

    @given(
        st.one_of(table_curves(), adversarial_tables()), st.lists(st.floats(0.0, 1.0), max_size=20)
    )
    @example(TableHazard(((1e-13, 0.1), (0.5, 0.4), (1.0, 0.9))), [])
    @example(TableHazard(((-1e-13, 0.1), (0.5, 0.4), (1.0, 0.9))), [])
    @example(TableHazard(((0.0, 0.1), (0.5, 0.4), (1.0 - 1e-13, 0.9))), [])
    @example(TableHazard(((0.0, 0.1), (0.5, 0.4), (1.0 + 1e-13, 0.9))), [])
    def test_table_scalar_matches_np_interp_bits(self, curve, points):
        # the oracle's scan reads a table through np.interp (oracle._hazard_at),
        # the solvers through this scalar path; both must read the same table
        ds = [d for d, _ in curve.knots]
        vs = [v for _, v in curve.knots]
        for x in (x for x in knot_points(curve, points) if 0.0 <= x <= 1.0):
            expected = float(np.interp(x, ds, vs))
            assert curve(x).hex() == expected.hex(), (curve.knots, x)

    @given(hazard_curves, st.lists(st.floats(0.0, 1.0), max_size=20))
    @example(PowerHazard(0.5), [])
    def test_unchecked_eval_matches_call_bits(self, curve, points):
        # _eval skips the argument check for callers that keep to [0, 1] themselves,
        # so there it must give __call__'s value bit for bit
        for x in (x for x in knot_points(curve, points) if 0.0 <= x <= 1.0):
            got = curve._eval(x)
            assert type(got) is float and got.hex() == curve(x).hex(), (curve, x)

    @given(hazard_curves, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_strictly_increasing(self, curve, a, b):
        lo, hi = min(a, b), max(a, b)
        if hi - lo < 1e-9:
            return
        assert curve(lo) < curve(hi)


class TestHazardInverse:
    def test_analytic_inverses(self):
        assert AffineHazard(0.3, 0.1).inverse(0.25) == pytest.approx(0.5, abs=1e-12)
        assert PowerHazard(0.25).inverse(0.5) == pytest.approx(0.0625, abs=1e-12)
        assert AffineHazard(0.8, 0.1).inverse(0.1) == pytest.approx(0.0, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            AffineHazard(0.3, 0.1).inverse(0.05)
        with pytest.raises(RangeError):
            AffineHazard(0.3, 0.1).inverse(0.5)

    @given(hazard_curves, st.floats(0.0, 1.0))
    def test_round_trip(self, curve, t):
        v = curve.floor + t * (curve.ceiling - curve.floor)
        assert abs(curve(curve.inverse(v)) - v) <= 1e-10

    def test_table_round_trip(self):
        for knots in ROUND_TRIP_TABLES:
            curve = TableHazard(knots)
            for i in range(41):
                v = 0.05 + (0.95 - 0.05) * i / 40
                assert abs(curve(curve.inverse(v)) - v) <= 1e-10

    @pytest.mark.parametrize(
        "knots,expected",
        [
            (
                ROUND_TRIP_TABLES[0],
                ["0x1.0000000000000p-39", "0x1.3333333340000p-3", "0x1.0000000000000p-1",
                 "0x1.8888888888000p-1", "0x1.ffffffffff000p-1"],
            ),
            (
                ROUND_TRIP_TABLES[1],
                ["0x1.0000000000000p-37", "0x1.000008637bd06p-1", "0x1.000053e2d623ap-1",
                 "0x1.0000a7c5ae000p-1", "0x1.fffffffffe000p-1"],
            ),
        ],
        ids=["smooth", "near-vertical"],
    )
    def test_table_inverse_values_pinned(self, knots, expected):
        # recorded from the bisection as it stands; any change to it shows here
        curve = TableHazard(knots)
        got = [curve.inverse(v).hex() for v in (0.05, 0.125, 0.35, 0.6, 0.95)]
        assert got == expected


class TestGuidedInverse:
    """TableHazard.inverse bisects guided by its closed form on the segment
    that holds the target; the guess may skip steps, never change a bit."""

    @given(st.one_of(table_curves(), adversarial_tables()), st.lists(st.floats(0.0, 1.0), max_size=4))
    @example(TableHazard(ROUND_TRIP_TABLES[1]), [])
    @example(TableHazard(((0.0, 0.1), (0.5, 0.1 + 1e-9), (1.0, 0.9))), [0.5])
    @example(TableHazard(((1e-13, 0.0), (1.0 - 1e-13, 1.0))), [0.0, 1.0])
    def test_guided_returns_the_plain_bits(self, curve, ts):
        targets = knot_targets(curve) + [curve.floor + t * (curve.ceiling - curve.floor) for t in ts]
        with guided_against_plain() as calls:
            for v in targets:
                curve.inverse(v)
        assert len(calls) == len(targets)
        for v, (guided, plain, guided_points, plain_points) in zip(targets, calls):
            assert same_bits(guided, plain), (curve.knots, v, guided, plain)
            assert set(guided_points) <= set(plain_points)

    @given(table_curves(), st.floats(0.0, 1.0))
    @example(TableHazard(ROUND_TRIP_TABLES[0]), 0.5)
    # steep end segments whose end knots lie 1e-13 outside [0, 1]
    @example(TableHazard(((-1e-13, 0.0), (1 / 13, 7 / 9), (3 / 13, 8 / 9), (1.0, 1.0))), 0.0)
    @example(TableHazard(((0.0, 0.0), (10 / 13, 1 / 9), (12 / 13, 2 / 9), (1.0 + 1e-13, 1.0))), 1.0)
    def test_guided_evaluates_a_few_points_of_the_plain_path(self, curve, t):
        # a guess that went missing would evaluate the plain path's 30-50 points
        with guided_against_plain() as calls:
            curve.inverse(curve.floor + t * (curve.ceiling - curve.floor))
        [(_, _, guided_points, plain_points)] = calls
        assert [x for x in plain_points if x in guided_points] == guided_points
        assert 1 <= len(guided_points) <= 12


@pytest.mark.parametrize(
    "curve",
    [AffineHazard(0.3, 0.1), PowerHazard(3.0), TableHazard(ROUND_TRIP_TABLES[0])],
    ids=lambda c: type(c).__name__,
)
class TestInverseArguments:
    """Every hazard's inverse checks its target the same way."""

    @pytest.mark.parametrize(
        "v", ["0.25", b"0.25", None, [0.25], 0.25j], ids=["str", "bytes", "None", "list", "complex"]
    )
    def test_non_numbers_rejected(self, curve, v):
        # refused, not converted: float("0.25") would read it as 0.25
        with pytest.raises(InputError) as info:
            curve.inverse(v)
        assert str(info.value) == f"target probability must be a number, got {v!r}"

    @pytest.mark.parametrize(
        "v", [10**400, -(10**400), 10**5000, -(10**5000), math.nan, np.float32("nan")],
        ids=["huge-int", "huge-negative-int", "5000-digit-int", "5000-digit-negative-int", "nan",
             "float32-nan"],
    )
    def test_unattainable_numbers_rejected(self, curve, v):
        with pytest.raises(RangeError, match=r"^target probability must lie in \[.*\], got "):
            curve.inverse(v)

    def test_int_too_long_to_print_shown_by_its_size(self, curve):
        # Python refuses to turn an int of over 4300 digits into text
        with pytest.raises(
            RangeError, match=r"^target probability must lie in \[.*\], got <negative int of 16610 bits>$"
        ):
            curve.inverse(-(10**5000))

    @pytest.mark.parametrize(
        "v", [np.float64(0.25), np.float32(0.25), Fraction(1, 4)],
        ids=["float64", "float32", "fraction"],
    )
    def test_real_numbers_invert_like_the_float(self, curve, v):
        assert curve.inverse(v).hex() == curve.inverse(0.25).hex()


class TestCurveArguments:
    """Every family validates its argument the same way for every input type."""

    @every_family
    @pytest.mark.parametrize("x", [0.0, -0.0, 0.3, 0.77, 1.0])
    def test_float_matches_numpy_scalar(self, curve, x):
        # np.float64 takes the general check; the result is a Python float either way
        got, ref = curve(x), curve(np.float64(x))
        assert type(got) is float and type(ref) is float
        assert got.hex() == ref.hex()

    @every_family
    @pytest.mark.parametrize("x", [1, True, 1.0 + 5e-10, np.float64(1.0 + 5e-10)])
    def test_clamped_or_converted_like_one(self, curve, x):
        got = curve(x)
        assert type(got) is float
        assert got.hex() == curve(1.0).hex()

    @every_family
    def test_negative_zero_kept(self, curve):
        # -0.0 passes the check unchanged, so its sign survives wherever the formula keeps it
        expected = {
            AffineHazard: 0.1, PowerHazard: -0.0, TableHazard: 0.05, LinearReach: -0.0,
            ConstantReach: 0.4,
        }
        assert curve(-0.0).hex() == expected[type(curve)].hex()

    @every_family
    @pytest.mark.parametrize(
        "x",
        [math.nan, math.inf, -math.inf, -1e-8, 1.0 + 1e-8, pytest.param(10**400, id="huge-int"),
         pytest.param(10**5000, id="5000-digit-int")],
    )
    def test_outside_unit_interval_rejected(self, curve, x):
        with pytest.raises(InputError):
            curve(x)
        # the array check: one bad element among good ones, and a 0-d array
        with pytest.raises(InputError):
            curve(np.array([0.0, 0.5, x, 1.0]))
        with pytest.raises(InputError):
            curve(np.array(x))

    @every_family
    @pytest.mark.parametrize(
        "x",
        ["0.5", b"1", None, ["0.1", "0.2"], np.array([0.5], dtype=object), np.array("0.5")],
        ids=["str", "bytes", "None", "str-list", "object-array", "str-array"],
    )
    def test_text_and_objects_rejected(self, curve, x):
        # refused, not converted: np.asarray would read "0.5" as 0.5
        with pytest.raises(InputError, match="must be a number"):
            curve(x)

    @every_family
    def test_arrays_and_lists_refused(self, curve):
        # a curve takes one number; only the oracle's scan evaluates on arrays
        for x in (np.array([0.0, 0.5, 1.0]), np.array([]), [0.0, 0.5, 1.0]):
            with pytest.raises(InputError, match="must be a number, got"):
                curve(x)

    @every_family
    def test_array_overshoot_clamped(self, curve):
        # an array's elements, read one number at a time, clamp like the ends they overshoot
        over, ends = np.array([-5e-10, 0.5, 1.0 + 5e-10]), [0.0, 0.5, 1.0]
        assert [curve(x).hex() for x in over] == [curve(x).hex() for x in ends]
        game = game_using(curve)
        if game.hazard is curve:
            # the oracle scan's array reading of the hazard clamps them the same way
            got = _hazard_at(game)(over)
            assert [v.hex() for v in got.tolist()] == [curve(x).hex() for x in ends]

    @every_family
    def test_empty_array_gives_empty_array(self, curve):
        # the oracle scan's array functions, on a game using the curve, map no masses to none
        game, empty = game_using(curve), np.array([])
        got = [_hazard_at(game)(empty), _member_mask(game, empty, empty, 0.01)]
        got.extend(_gap_crossings(game, empty, empty))
        assert all(isinstance(a, np.ndarray) and a.shape == (0,) for a in got)


def game_using(curve) -> SignalingGame:
    """A game whose hazard or reach is curve."""
    if isinstance(curve, (LinearReach, ConstantReach)):
        hazard, reach = AffineHazard(0.3, 0.1), curve
    else:
        hazard, reach = curve, ConstantReach(1.0)
    return SignalingGame(beta=0.5, y=0.5, r=2.0, hazard=hazard, signal_reach=reach)


class TestCurveValidation:
    def test_decreasing_affine_rejected(self):
        with pytest.raises(CurveError):
            AffineHazard(-0.3, 0.5)

    def test_codomain_escape_rejected(self):
        with pytest.raises(CurveError):
            AffineHazard(0.8, 0.3)
        with pytest.raises(CurveError):
            AffineHazard(0.5, -0.1)

    def test_power_needs_positive_exponent(self):
        with pytest.raises(CurveError):
            PowerHazard(0.0)
        with pytest.raises(CurveError):
            PowerHazard(-2.0)

    @pytest.mark.parametrize(
        "make",
        [lambda v: AffineHazard(v, 0.0), lambda v: AffineHazard(0.5, v), PowerHazard,
         LinearReach, ConstantReach],
        ids=["affine-slope", "affine-intercept", "power", "linear", "constant"],
    )
    @pytest.mark.parametrize(
        "v, shown",
        [(10**400, repr(10**400)), (10**5000, "<int of 16610 bits>"), ("0.5", "'0.5'"),
         (None, "None")],
        ids=["huge-int", "5000-digit-int", "str", "none"],
    )
    def test_parameter_that_is_not_a_finite_number(self, make, v, shown):
        # every family's message names the value it refused
        with pytest.raises(CurveError) as info:
            make(v)
        assert shown in str(info.value)

    def test_table_invariants(self):
        with pytest.raises(CurveError):
            TableHazard(((0.0, 0.1),))
        with pytest.raises(CurveError):
            TableHazard(((0.1, 0.1), (1.0, 0.5)))  # does not start at 0
        with pytest.raises(CurveError):
            TableHazard(((0.0, 0.5), (1.0, 0.2)))  # decreasing value
        with pytest.raises(CurveError):
            TableHazard(((0.0, 0.1), (1.0, 1.2)))  # exceeds 1

    @pytest.mark.parametrize(
        "knots, message",
        [
            (((0, 0.1), (10**400, 1)),
             f"hazard table knots must be finite numbers, got ({10**400!r}, 1)"),
            (((0, 0.1), (10**5000, 1)),
             "hazard table knots must be finite numbers, got (<int of 16610 bits>, 1)"),
            (((0, "a"), (1, 1)), "hazard table knots must be finite numbers, got (0, 'a')"),
            (((0, 0.1, 5), (1, 1)),
             "hazard table knot (0, 0.1, 5) is not a (mass, probability) pair"),
            (None, "hazard table knots must be a sequence of (mass, probability) pairs, got None"),
        ],
        ids=["huge-int", "5000-digit-int", "str", "three-element", "none"],
    )
    def test_table_knots_that_are_not_pairs_of_finite_numbers(self, knots, message):
        with pytest.raises(CurveError) as info:
            TableHazard(knots)
        assert str(info.value) == message


class TestSignalReach:
    def test_linear_values(self):
        assert LinearReach(0.9)(0.9) == pytest.approx(0.81, abs=1e-15)
        assert LinearReach(0.9)(0.0) == 0.0
        assert LinearReach(0.9)(0.7) == pytest.approx(0.63, abs=1e-15)

    def test_constant(self):
        assert ConstantReach(0.4)(0.2) == 0.4

    def test_bounds(self):
        with pytest.raises(CurveError):
            LinearReach(1.5)
        with pytest.raises(CurveError):
            ConstantReach(-0.1)
        with pytest.raises(InputError):
            LinearReach(0.9)(1.5)


class TestGameValidation:
    def test_valid_game_passes(self):
        game = SignalingGame(
            beta=1, y=0.7, r=20, hazard=AffineHazard(0.8, 0.1), signal_reach=LinearReach(0.9)
        )
        assert [(type(v), v) for v in (game.beta, game.y, game.r)] == [
            (float, 1.0), (float, 0.7), (float, 20.0)
        ]

    def test_r_must_exceed_one(self):
        with pytest.raises(ParameterError):
            SignalingGame(
                beta=0.5, y=0.5, r=1.0, hazard=AffineHazard(0.3, 0.1), signal_reach=LinearReach(0.9)
            )

    @pytest.mark.parametrize("beta,y", [(-0.1, 0.5), (1.1, 0.5), (0.5, -0.2), (0.5, 1.3)])
    def test_unit_interval_parameters(self, beta, y):
        with pytest.raises(ParameterError):
            SignalingGame(
                beta=beta, y=y, r=2.0, hazard=AffineHazard(0.3, 0.1), signal_reach=LinearReach(0.9)
            )

    @pytest.mark.parametrize(
        "name, v, shown",
        [(name, v, shown)
         for v, shown in ((10**400, repr(10**400)), (10**5000, "<int of 16610 bits>"))
         for name in ("beta", "y", "r")],
        ids=["beta", "y", "r", "beta-5000-digit-int", "y-5000-digit-int", "r-5000-digit-int"],
    )
    def test_int_too_large_for_a_float_rejected(self, name, v, shown):
        params = dict(beta=0.5, y=0.5, r=3.0) | {name: v}
        with pytest.raises(ParameterError) as info:
            SignalingGame(hazard=AffineHazard(0.3, 0.1), signal_reach=LinearReach(0.9), **params)
        assert str(info.value) == f"game parameter {name} must be a finite number, got {shown}"

    @pytest.mark.parametrize(
        "curves, message",
        [
            (("affine", LinearReach(0.9)), "unsupported hazard curve 'affine'"),
            ((AffineHazard(0.3, 0.1), "linear"), "unsupported signal reach curve 'linear'"),
        ],
        ids=["hazard", "reach"],
    )
    def test_curve_that_is_not_a_curve_rejected(self, curves, message):
        with pytest.raises(CurveError) as info:
            SignalingGame(0.5, 0.5, 3.0, *curves)
        assert str(info.value) == message

    def test_signal_rate_outside_the_unit_interval_rejected(self):
        # the built-in reaches stay inside [0, 1]; a subclass need not
        class OverReach(LinearReach):
            def __call__(self, y):
                return 2.0

        with pytest.raises(ParameterError) as info:
            SignalingGame(1.0, 0.9, 3.0, AffineHazard(0.3, 0.1), OverReach(0.9))
        assert str(info.value) == "derived signal rate beta*q(y) = 2.0 escapes [0, 1]"

    def test_signal_rate(self):
        game = SignalingGame(
            beta=0.5, y=0.9, r=3.0, hazard=AffineHazard(0.3, 0.1), signal_reach=LinearReach(0.9)
        )
        assert game.signal_rate == pytest.approx(0.5 * 0.81)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(1.0 + 1e-9, 50.0))
    def test_accepts_exactly_the_parameter_domain(self, beta, y, r):
        game = SignalingGame(
            beta=beta, y=y, r=r, hazard=AffineHazard(0.3, 0.1), signal_reach=LinearReach(0.9)
        )
        assert (game.beta, game.y, game.r) == (beta, y, r)
        assert game.signal_rate == beta * (0.9 * y)


def derived_bits(game) -> tuple[list[str], list[str]]:
    """The stored signal rate and thresholds, and the same from their formulas."""
    rate = game.beta * game.signal_reach(game.y)
    formulas = [rate, 1.0 / (1.0 + game.r), 1.0 / (1.0 + game.r * (1.0 - rate))]
    stored = [game.signal_rate, game.t_prior, game.t_unsignaled]
    return [v.hex() for v in stored], [v.hex() for v in formulas]


class TestDerivedValues:
    """The constructor stores the signal rate and both thresholds once."""

    def test_stored_values_equal_their_formulas(self):
        rng = random.Random(1501)
        for _ in range(300):
            game = random_game(rng)
            stored, formulas = derived_bits(game)
            assert stored == formulas, game

    def test_copies_keep_values_equal_to_their_formulas(self):
        rng = random.Random(1502)
        for _ in range(100):
            game = random_game(rng)
            for other in (
                dataclasses.replace(game),
                dataclasses.replace(game, beta=rng.random(), r=rng.uniform(1.01, 25.0)),
                dataclasses.replace(game, y=rng.random(), signal_reach=LinearReach(rng.random())),
                copy.copy(game),
                pickle.loads(pickle.dumps(game)),
            ):
                stored, formulas = derived_bits(other)
                assert stored == formulas, other

    def test_derived_values_are_not_fields(self):
        game = SignalingGame(0.5, 0.5, 3.0, AffineHazard(0.3, 0.1), LinearReach(0.9))
        assert "signal_rate" not in repr(game)
        assert game == dataclasses.replace(game)
        with pytest.raises(dataclasses.FrozenInstanceError):
            game.signal_rate = 0.0


class TestBehaviorProfile:
    def test_negative_mass_rejected(self):
        with pytest.raises(InputError):
            BehaviorProfile(-0.1, 0.0, 0.0)
        with pytest.raises(InputError):
            BehaviorProfile(0.0, math.nan, 0.0)
        with pytest.raises(InputError):
            BehaviorProfile(math.inf, 0.0)
        with pytest.raises(InputError, match="x_n must be a finite nonnegative number"):
            BehaviorProfile(10**400, 0)
        with pytest.raises(InputError, match="x_vu must be .* number, got <int of 16610 bits>$"):
            BehaviorProfile(0, 10**5000)

    def test_profile_bounds_against_game(self):
        game = SignalingGame(
            beta=0.5, y=0.4, r=2.0, hazard=AffineHazard(0.3, 0.1), signal_reach=LinearReach(0.9)
        )
        validate_profile(game, BehaviorProfile(0.6, 0.4, 0.0))
        with pytest.raises(InputError):
            validate_profile(game, BehaviorProfile(0.7, 0.0, 0.0))
        with pytest.raises(InputError):
            validate_profile(game, BehaviorProfile(0.0, 0.5, 0.0))
        with pytest.raises(
            InputError, match=r"^signaled V2V reckless mass 0\.6 exceeds group size 0\.5$"
        ):
            validate_profile(dataclasses.replace(game, y=0.5), BehaviorProfile(0.0, 0.0, 0.6))
