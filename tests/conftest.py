"""Shared game factories for the test suite."""

import contextlib
import math
import random
import sys
from pathlib import Path
from unittest import mock

from hypothesis import reject, strategies as st

from hazardsignal import (
    AffineHazard,
    ConstantReach,
    CurveError,
    LinearReach,
    PowerHazard,
    SignalingGame,
    TableHazard,
)
from hazardsignal import model

REPO_ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = REPO_ROOT / "scenarios"
# the benchmark's modules import by bare name, as in hsbench/test_hsbench.py
sys.path.insert(0, str(REPO_ROOT / "hsbench"))


def adoption_backfire_game(beta: float) -> SignalingGame:
    """High adoption, moderate stakes; accidents peak at interior beta."""
    return SignalingGame(
        beta=beta, y=0.9, r=3.0, hazard=AffineHazard(0.3, 0.1), signal_reach=LinearReach(0.9)
    )


def steep_hazard_game(beta: float) -> SignalingGame:
    """Steep hazard and high stakes; zero display quality is optimal."""
    return SignalingGame(
        beta=beta, y=0.7, r=20.0, hazard=AffineHazard(0.8, 0.1), signal_reach=LinearReach(0.9)
    )


def cost_reversal_game(beta: float) -> SignalingGame:
    """Sparse adoption, near-indifferent stakes; social cost prefers beta < 1."""
    return SignalingGame(
        beta=beta, y=0.07, r=1.001, hazard=PowerHazard(0.25), signal_reach=LinearReach(0.9)
    )


def all_reckless_game(beta: float) -> SignalingGame:
    """Shallow hazard, low stakes; everyone drives recklessly (NRVR)."""
    return SignalingGame(
        beta=beta, y=0.9, r=1.5, hazard=AffineHazard(0.2, 0.1), signal_reach=LinearReach(0.9)
    )


def random_game(rng: random.Random, beta: float | None = None) -> SignalingGame:
    """A random valid game: affine or power hazard, linear or constant reach.

    Slopes stay off the extremes so indifference points remain numerically
    well conditioned.
    """
    if rng.random() < 0.5:
        slope = rng.uniform(0.15, 0.85)
        intercept = rng.uniform(0.01, min(0.5, 0.99 - slope))
        hazard = AffineHazard(slope, intercept)
    else:
        hazard = PowerHazard(math.exp(rng.uniform(math.log(0.3), math.log(3.0))))
    if rng.random() < 0.8:
        reach = LinearReach(rng.uniform(0.1, 1.0))
    else:
        reach = ConstantReach(rng.uniform(0.1, 1.0))
    if beta is None:
        beta = rng.choice([0.0, 1.0]) if rng.random() < 0.1 else rng.random()
    return SignalingGame(
        beta=beta,
        y=rng.uniform(0.05, 0.95),
        r=rng.uniform(1.01, 25.0),
        hazard=hazard,
        signal_reach=reach,
    )


@st.composite
def table_curves(draw):
    """2-6 knots, every segment at least 1/41 wide and rising at least 0.0024,
    with the end knots sometimes 1e-13 off 0 and 1, as validation allows."""
    segments = draw(st.integers(1, 5))
    widths = draw(st.lists(st.floats(1.0, 10.0), min_size=segments, max_size=segments))
    rises = draw(st.lists(st.floats(1.0, 10.0), min_size=segments, max_size=segments))
    floor = draw(st.floats(0.0, 0.3))
    span = draw(st.floats(0.1, 1.0 - floor))
    ds = [sum(widths[:i]) / sum(widths) for i in range(segments + 1)]
    vs = [min(floor + span * sum(rises[:i]) / sum(rises), 1.0) for i in range(segments + 1)]
    ds[0] = draw(st.sampled_from([0.0, 1e-13, -1e-13]))
    ds[-1] = draw(st.sampled_from([1.0, 1.0 - 1e-13, 1.0 + 1e-13]))
    return TableHazard(tuple(zip(ds, vs)))


@st.composite
def adversarial_tables(draw):
    """1-5 segments with slopes anywhere from about 1e-9 to near-vertical
    (a segment 1e-9 wide with most of the rise), end knots sometimes 1e-13
    off 0 and 1; draws whose knots collapse in float are rejected."""
    segments = draw(st.integers(1, 5))
    exponents = st.floats(-9.0, 0.0)
    widths = [10.0 ** draw(exponents) for _ in range(segments)]
    rises = [10.0 ** draw(exponents) for _ in range(segments)]
    floor = draw(st.floats(0.0, 0.5))
    span = draw(st.floats(1e-6, 1.0 - floor))
    ds = [sum(widths[:i]) / sum(widths) for i in range(segments + 1)]
    vs = [min(floor + span * sum(rises[:i]) / sum(rises), 1.0) for i in range(segments + 1)]
    ds[0] = draw(st.sampled_from([0.0, 1e-13, -1e-13]))
    ds[-1] = draw(st.sampled_from([1.0, 1.0 - 1e-13, 1.0 + 1e-13]))
    try:
        return TableHazard(tuple(zip(ds, vs)))
    except CurveError:
        reject()


@st.composite
def extreme_affine(draw):
    """Affine hazards with slopes from 1e-300 up to 1, intercept at either end or between."""
    slope = min(10.0 ** draw(st.floats(-300.0, 0.0)), 1.0)
    intercept = draw(st.sampled_from([0.0, 1.0 - slope, 0.5 * (1.0 - slope)]))
    return AffineHazard(slope, max(intercept, 0.0))


#: power exponents 0.02-50, log-uniform
extreme_exponents = st.floats(math.log10(0.02), math.log10(50.0)).map(
    lambda e: min(max(10.0 ** e, 0.02), 50.0)
)

#: signal rates anywhere in [0, 1 - 1e-12], within 1e-1 .. 1e-12 of 1, or exactly 1
extreme_rates = st.one_of(
    st.floats(0.0, 1.0 - 1e-12),
    st.floats(1.0, 12.0).map(lambda e: 1.0 - 10.0 ** -e),
    st.just(1.0),
)


@st.composite
def extreme_power(draw):
    """Power-hazard games at the extremes of the fixed point's Newton guess:
    exponents 0.02-50, y in [0.02, 0.98], r up to 1e4, and any extreme_rates."""
    exponent = draw(extreme_exponents)
    return SignalingGame(
        beta=draw(extreme_rates),
        y=draw(st.floats(0.02, 0.98)),
        r=draw(st.floats(1.01, 1e4)),
        hazard=PowerHazard(exponent),
        signal_reach=ConstantReach(1.0),
    )


@st.composite
def extreme_game(draw):
    """Games at every extreme the model admits: an extreme_affine,
    adversarial table or extreme power hazard; y at 0, 1e-12, 1 - 1e-12, 1
    or anywhere; r from 1 + 1e-12 to 1e12; a signal rate of 0 or any
    extreme_rates."""
    hazard = draw(
        st.one_of(extreme_affine(), adversarial_tables(), extreme_exponents.map(PowerHazard))
    )
    return SignalingGame(
        beta=draw(st.one_of(st.just(0.0), extreme_rates)),
        y=draw(st.one_of(st.sampled_from([0.0, 1e-12, 1.0 - 1e-12, 1.0]), st.floats(0.0, 1.0))),
        r=1.0 + 10.0 ** draw(st.floats(-12.0, 12.0)),
        hazard=hazard,
        signal_reach=ConstantReach(1.0),
    )


def knot_points(curve, points) -> list[float]:
    """points, plus a table's knot masses and both float neighbours of each,
    and the ends 0 and 1: where np.interp's branches meet."""
    ds = [d for d, _ in getattr(curve, "knots", ())]
    neighbours = [math.nextafter(d, side) for d in ds for side in (-math.inf, math.inf)]
    return [*points, *ds, *neighbours, 0.0, 1.0]


def knot_targets(curve) -> list[float]:
    """Inversion targets where a table is hardest: floor, ceiling, every
    knot and every knot +- 1e-15 .. 1e-12, those inside the range."""
    out = []
    for _, v in curve.knots:
        out.append(v)
        out += [v + s * e for e in (1e-15, 1e-14, 1e-13, 1e-12) for s in (1.0, -1.0)]
    return [curve.floor, curve.ceiling] + [v for v in out if curve.floor <= v <= curve.ceiling]


@contextlib.contextmanager
def guided_against_plain():
    """Run every guided bisection (a table inverse or a hazard's consistency
    fixed point, both in model) a second time without its guess, recording
    per call the two results and the points at which each evaluated f:
    (guided, plain, guided_points, plain_points)."""
    bisect = model._bisect
    calls = []

    def both(f, lo, hi, guess, margin):
        guided_points, plain_points = [], []

        def traced(points):
            return lambda x: points.append(x) or f(x)

        guided = bisect(traced(guided_points), lo, hi, guess, margin)
        plain = bisect(traced(plain_points), lo, hi)
        calls.append((guided, plain, guided_points, plain_points))
        return guided

    with mock.patch.object(model, "_bisect", both):
        yield calls


def same_bits(a: float | tuple[float, ...], b: float | tuple[float, ...]) -> bool:
    """Whether two floats, or two tuples of floats, are equal bit for bit."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same_bits, a, b))
    return float.hex(a) == float.hex(b)
