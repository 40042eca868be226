"""Information design over signal quality beta.

Accident probability is single-peaked in beta (weakly increasing then
weakly decreasing), so its minimum sits at an endpoint and two solves
settle the question. Social cost has no such global structure: full
display is optimal unless some quality lands the game in the NCVR region,
where cost can move against beta; there we grid-sample and refine the best
cell by golden section.

Each distinct beta per game object builds and validates its own
SignalingGame and calls the equilibrium core (equilibrium._solve), whose
values come in SweepRecord's field order, so no report, profile or cost
table is built for any beta. The one SweepRecord built per beta is
remembered on the caller's game object, keyed by beta: a repeated sweep
returns the same record objects, and the social optimizer's grid, the
endpoints of its refinement and the accident rule's endpoints reuse what an
earlier call on the same object solved, bit for bit.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import operator

from .model import MAX_GRID_POINTS, InputError, SignalingGame, _float, _real, _show
from .equilibrium import EquilibriumReport, Region, _solve
# unused here since sweeps call _solve; hsbench/test_hsbench.py traces it under this name
from .equilibrium import solve_equilibrium  # noqa: F401

__all__ = [
    "DesignObjective",
    "SweepRecord",
    "DesignResult",
    "with_beta",
    "sweep_beta",
    "optimal_beta_accidents",
    "optimal_beta_social",
    "single_peaked",
]

#: beta-interval width at which golden-section refinement stops
REFINE_BETA_TOL = 1e-6

#: most solved betas one game object remembers. A 101-point sweep, the
#: social optimizer's grid and its refinement need about 130, and grids of a
#: few thousand still fit; a MAX_GRID_POINTS sweep would otherwise keep its
#: million records alive on the game after the caller drops them, so past
#: the cap betas are solved and not stored.
_MEMO_CAP = 4096

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0


class DesignObjective(enum.Enum):
    ACCIDENT_PROBABILITY = "accident_probability"
    SOCIAL_COST = "social_cost"


@dataclasses.dataclass(frozen=True)
class SweepRecord:
    """One fully solved beta sample."""

    beta: float
    region: Region
    P: float
    S: float
    x_n: float
    x_vu: float
    Q: float
    posterior: float

    @classmethod
    def from_report(cls, beta: float, rep: EquilibriumReport) -> SweepRecord:
        """The sample of one solved game at signal quality beta."""
        return cls(
            beta=beta,
            region=rep.region,
            P=rep.P,
            S=rep.social_cost,
            x_n=rep.x_ne.x_n,
            x_vu=rep.x_ne.x_vu,
            Q=rep.Q,
            posterior=rep.posterior,
        )


@dataclasses.dataclass(frozen=True)
class DesignResult:
    """Optimizer output plus the two endpoint values for context."""

    objective: DesignObjective
    beta_star: float
    value_at_star: float
    endpoint_comparison: tuple[float, float]


def with_beta(game: SignalingGame, beta: float) -> SignalingGame:
    """Same game, different signal quality, checked and converted to a
    float by the SignalingGame constructor."""
    return SignalingGame(beta, game.y, game.r, game.hazard, game.signal_reach)


def sweep_beta(
    game: SignalingGame, grid_n: int, lo: float = 0.0, hi: float = 1.0
) -> list[SweepRecord]:
    """Solve grid_n evenly spaced signal qualities in [lo, hi], in order.

    The game's own beta is ignored; each sample is solved independently.
    Records are remembered on the game, so a repeated sweep returns the
    same (frozen) record objects.
    """
    n = _count(grid_n)
    if n < 2:
        raise InputError(f"sweep needs at least two grid points, got {_show(grid_n)}")
    lo, hi = _sweep_range(lo, hi, "sweep range", InputError)
    return [_solve_at(game, beta) for beta in _beta_grid(lo, hi, n)]


def _sweep_range(lo, hi, what: str, error) -> tuple[float, float]:
    """lo and hi as Python floats with 0 <= lo <= hi <= 1, else error naming them as what."""
    flo, fhi = _float(lo), _float(hi)
    if not 0.0 <= flo <= fhi <= 1.0:
        must = "be ordered within [0, 1]" if _real(lo) and _real(hi) else "be two numbers"
        raise error(f"{what} [{_show(lo)}, {_show(hi)}] must {must}")
    return flo, fhi


def _solve_at(game: SignalingGame, beta: float) -> SweepRecord:
    """SweepRecord(beta, *_solve(with_beta(game, beta))), remembered on this game object.

    The memo lives in the object's __dict__, not in a field, so equal but
    distinct games never share it; copy.copy and pickle carry it along,
    which is safe, since every entry depends only on the fields. Keys
    compare as numbers; the grids and golden-section probes never produce
    -0.0, the one float that equals another of different bits. A beta that
    raises is not stored, so it raises again next time.
    """
    memo = game.__dict__.setdefault("_beta_solves", {})
    record = memo.get(beta)
    if record is None:
        record = SweepRecord(beta, *_solve(with_beta(game, beta)))
        if len(memo) < _MEMO_CAP:
            memo[beta] = record
    return record


def _count(n, what: str = "the count of signal qualities", error=InputError) -> int:
    """n as an int; error, not TypeError, for anything but an integer."""
    try:
        return operator.index(n)
    except TypeError:
        raise error(f"{what} must be an integer, got {_show(n)}") from None


def _beta_grid(lo: float, hi: float, n: int) -> list[float]:
    """n evenly spaced signal qualities from lo to hi inclusive."""
    if n > MAX_GRID_POINTS:
        raise InputError(
            f"a grid of {_show(n)} signal qualities is over the limit of {MAX_GRID_POINTS} grid points"
        )
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def optimal_beta_accidents(game: SignalingGame) -> DesignResult:
    """Minimize equilibrium accident probability over beta.

    Single-peakedness reduces the search to the endpoints; ties go to
    beta = 0, the cheaper policy.
    """
    p0 = _solve_at(game, 0.0).P
    p1 = _solve_at(game, 1.0).P
    if p0 <= p1:
        return DesignResult(DesignObjective.ACCIDENT_PROBABILITY, 0.0, p0, (p0, p1))
    return DesignResult(DesignObjective.ACCIDENT_PROBABILITY, 1.0, p1, (p0, p1))


def optimal_beta_social(game: SignalingGame, grid_n: int = 101) -> DesignResult:
    """Minimize equilibrium social cost over beta.

    Fast path: if no sampled quality classifies as NCVR, cost is
    nonincreasing in beta everywhere sampled and beta = 1 is optimal.
    Otherwise take the grid argmin (ties toward smaller beta) and refine
    inside its bracketing cell by golden section; if refinement fails to
    improve, the grid best stands.
    """
    records = sweep_beta(game, grid_n)
    endpoints = (records[0].S, records[-1].S)
    if not any(rec.region is Region.NCVR for rec in records):
        return DesignResult(DesignObjective.SOCIAL_COST, 1.0, records[-1].S, endpoints)

    best_i = 0
    for i, rec in enumerate(records):
        if rec.S < records[best_i].S:
            best_i = i
    best = records[best_i]
    lo = records[max(best_i - 1, 0)].beta
    hi = records[min(best_i + 1, grid_n - 1)].beta
    refined_beta, refined_s = _golden_min(
        lambda b: _solve_at(game, b).S,
        lo,
        hi,
        REFINE_BETA_TOL,
    )
    if refined_s < best.S:
        return DesignResult(DesignObjective.SOCIAL_COST, refined_beta, refined_s, endpoints)
    return DesignResult(DesignObjective.SOCIAL_COST, best.beta, best.S, endpoints)


def _golden_min(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section search on [a, b], which must be wider than tol; returns
    the better of the last two probes, or (nan, inf) if neither is below inf.

    Assumes a single local minimum in the interval. The endpoints are never
    probed: optimal_beta_social passes the grid neighbours of its grid
    argmin, which cost at least as much as the argmin, and keeps a probe only
    when it is strictly cheaper than that.
    """
    best_x, best_f = math.nan, math.inf
    h = b - a
    steps = max(int(math.ceil(math.log(tol / h) / math.log(_INV_PHI))), 1)
    c = a + _INV_PHI_SQ * h
    d = a + _INV_PHI * h
    yc, yd = f(c), f(d)
    for _ in range(steps - 1):
        if yc < yd:
            b, d, yd = d, c, yc
            h *= _INV_PHI
            c = a + _INV_PHI_SQ * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h *= _INV_PHI
            d = a + _INV_PHI * h
            yd = f(d)
    for x, fx in ((c, yc), (d, yd)):
        if fx < best_f:
            best_x, best_f = x, fx
    return best_x, best_f


def single_peaked(values, tol: float = 1e-9) -> bool:
    """True when the sequence rises to its maximum and falls afterwards,
    allowing tol of slack per comparison.

    values and tol may be any finite real numbers; anything else raises
    InputError.
    """
    slack = _float(tol)
    if math.isnan(slack):
        raise InputError(f"tol must be a finite number, got {_show(tol)}")
    try:
        given = list(values)
    except TypeError:
        raise InputError(f"values must be a sequence of numbers, got {_show(values)}") from None
    xs = list(map(_float, given))
    for x, v in zip(xs, given):
        if math.isnan(x):
            raise InputError(f"values must be finite numbers, got {_show(v)}")
    if len(xs) < 2:
        return True
    peak = max(range(len(xs)), key=xs.__getitem__)
    rising = all(xs[i + 1] >= xs[i] - slack for i in range(peak))
    falling = all(xs[i + 1] <= xs[i] + slack for i in range(peak, len(xs) - 1))
    return rising and falling
