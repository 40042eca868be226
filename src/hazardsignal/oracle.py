"""Independent equilibrium verification straight from the cost definitions.

Nothing in this module consults the region classification or the
closed-form solutions: membership is decided purely by the six
equilibrium implications (any action in use must be weakly cost-minimal,
with slack eps) at a profile's own consistent accident probability. That
keeps the brute-force search usable as a cross-check of the analytic
solver, and oracle_verdict holds a claimed equilibrium against it.

A single profile's check solves for that probability. The scan does not:
each implication is a bound c on it, and the probability is at least c
exactly when the clamped curve at P = c reads at least c (_hazard_at), so
one curve call decides the implication for the whole lattice.

Only the eps-equilibrium scan works on arrays, curves included (_hazard_at),
so only its functions import numpy; importing this module does not. Its
arrays are small, so numpy's per-call overhead, not arithmetic, sets its cost.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .model import MAX_GRID_POINTS, BehaviorProfile, InputError, SignalingGame, TableHazard
from .model import _float, _show
from .consistency import solve_profile_P

if TYPE_CHECKING:
    import numpy as np

    from .equilibrium import EquilibriumReport

__all__ = [
    "ConditionStatus",
    "ConditionCheck",
    "EpsilonEquilibriumSet",
    "OracleVerdict",
    "check_equilibrium_conditions",
    "epsilon_equilibria",
    "oracle_verdict",
]

#: oracle agreement tolerances on reckless accident mass and on P, in scan grid steps
MASS_TOL_STEPS = 3.0
P_TOL_STEPS = 2.0


@dataclass(frozen=True)
class ConditionStatus:
    """One equilibrium implication.

    active: the antecedent mass condition holds (some of the group uses
    the action). margin: cost advantage of that action over the
    alternative; the implication is ok when inactive or margin >= -eps.
    """

    name: str
    active: bool
    ok: bool
    margin: float


@dataclass(frozen=True)
class ConditionCheck:
    """Joint verdict over the six implications for one profile."""

    ok: bool
    conditions: tuple[ConditionStatus, ...]
    P: float
    posterior: float
    epsilon: float

    def failures(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.conditions if not c.ok)

    def binding(self) -> tuple[str, ...]:
        """Conditions that hold with no slack to spare (near indifference)."""
        return tuple(
            c.name for c in self.conditions if c.active and abs(c.margin) <= self.epsilon
        )


def check_equilibrium_conditions(
    game: SignalingGame, profile: BehaviorProfile, eps: float
) -> ConditionCheck:
    """Test the six equilibrium implications at the profile's own fixed point.

    A group's cost gap is 1 - (1+r) * belief, the regret of caution minus
    the expected cost of recklessness; an action is active while some of
    the group takes it, and its margin is its cost advantage over the other
    action. The scan applies the same implications as bounds on P
    (_member_mask).
    """
    tol = _float(eps)
    if not tol >= 0:
        raise InputError(f"eps must be finite and nonnegative, got {_show(eps)}")
    eps = tol
    res = solve_profile_P(game, profile)
    y, x_n, x_vu, x_vs = game.y, profile.x_n, profile.x_vu, profile.x_vs
    gap_n = 1.0 - (1.0 + game.r) * res.P
    gap_vu = 1.0 - (1.0 + game.r) * res.posterior_no_signal
    gap_vs = -game.r  # signaled drivers know the accident is real: belief 1
    conditions = tuple(
        ConditionStatus(name, active, (not active) or margin >= -eps, margin)
        for name, active, margin in (
            ("n_careful_in_use", x_n < 1.0 - y, -gap_n),
            ("n_reckless_in_use", x_n > 0.0, gap_n),
            ("vu_careful_in_use", x_vu < y, -gap_vu),
            ("vu_reckless_in_use", x_vu > 0.0, gap_vu),
            ("vs_careful_in_use", x_vs < y, -gap_vs),
            ("vs_reckless_in_use", x_vs > 0.0, gap_vs),
        )
    )
    return ConditionCheck(
        ok=all(c.ok for c in conditions),
        conditions=conditions,
        P=res.P,
        posterior=res.posterior_no_signal,
        epsilon=eps,
    )


@dataclass(frozen=True)
class EpsilonEquilibriumSet:
    """Profiles surviving the eps-equilibrium scan, sorted by (x_n, x_vu)."""

    epsilon: float
    grid_step: float
    members: tuple[BehaviorProfile, ...]


def epsilon_equilibria(
    game: SignalingGame, grid_step: float, eps: float
) -> EpsilonEquilibriumSet:
    """Scan behavior profiles for eps-equilibria.

    Candidates are the uniform lattice over [0, 1-y] x [0, y] (always
    containing the exact corners) plus, along every lattice row and
    column, the point where the moving group's cost gap crosses zero,
    located by bisection on the gap itself. Interior indifference bands
    are generically narrower than any affordable lattice spacing, so a
    pure lattice scan would come back empty for games whose equilibrium
    is interior even though one always exists; the crossing candidates
    close that hole without consulting any closed form.

    Membership is one clamped curve evaluation at each active
    implication's bound on P (see _member_mask), not a per-point solve.
    x_vs > 0 is excluded analytically: signaled drivers strictly prefer
    caution (margin r > eps for any sane eps), so such profiles can never
    pass. Equal-cost ties keep candidates in place, hence corners matter.

    Sorted (x_n, x_vu) float pairs, equal neighbours merged, are np.unique's
    rows: no candidate (a lattice point, or a midpoint of nonnegative ends) is
    NaN, which == keeps apart, or -0.0, which == merges with 0.0.
    """
    import numpy as np

    # an infinite step would put inf * 0 = nan on the lattice; an infinite eps admits everything
    step, tol = _float(grid_step), _float(eps)
    if not tol > 0:
        raise InputError(f"eps must be finite and positive, got {_show(eps)}")
    if not step > 0:
        raise InputError(f"grid_step must be finite and positive, got {_show(grid_step)}")
    grid_step, eps = step, tol
    y = game.y
    if 0.0 < y < 1.0 and grid_step > min(y, 1.0 - y) + 1e-12:
        raise InputError(
            f"grid_step {grid_step!r} exceeds min(y, 1-y) = {min(y, 1.0 - y):.12g}; "
            "the lattice would skip an entire group"
        )
    # at most bound/step + 2 points per axis, counted in floats: a tiny step gives inf,
    # not an OverflowError, and nothing is allocated before the check
    size = math.prod(b / grid_step + 2.0 if b > 0.0 else 1.0 for b in (1.0 - y, y))
    if size > MAX_GRID_POINTS:
        raise InputError(
            f"grid_step {grid_step!r} asks for a lattice of up to {size:.4g} profiles, "
            f"over the limit of {MAX_GRID_POINTS} grid points"
        )

    xn_axis = _axis(1.0 - y, grid_step)
    xvu_axis = _axis(y, grid_step)
    cross_n, cross_vu = _gap_crossings(game, xn_axis, xvu_axis)
    xs = np.concatenate([np.repeat(xn_axis, len(xvu_axis)), cross_n])
    vus = np.concatenate([np.tile(xvu_axis, len(xn_axis)), cross_vu])
    ok = _member_mask(game, xs, vus, eps)
    # the lattice part is one sorted run, so the sort only merges the crossings into it
    points = sorted(zip(xs[ok].tolist(), vus[ok].tolist()))
    members = tuple(BehaviorProfile(a, b, 0.0) for (a, b), _ in itertools.groupby(points))
    return EpsilonEquilibriumSet(epsilon=eps, grid_step=grid_step, members=members)


@dataclass(frozen=True)
class OracleVerdict:
    """The eps-equilibria of a game held against a claimed equilibrium.

    mass_dev and P_dev are the largest distances of any member's reckless
    accident mass x_n + (1-Q)*x_vu and consistent P from the claim's, nan
    when there is no member. verdict is "agree" when they are within
    MASS_TOL_STEPS and P_TOL_STEPS grid steps, "disagree" when not, and
    "empty" when the scan found no member.
    """

    members: tuple[BehaviorProfile, ...]
    mass_dev: float
    P_dev: float
    verdict: str


def oracle_verdict(
    game: SignalingGame, claim: EquilibriumReport, grid_step: float, eps: float
) -> OracleVerdict:
    """Scan the game for eps-equilibria and measure how far they sit from the claim.

    Each member's P and Q come from its own fixed-point solve, not from the
    claim, so the claim is only ever compared against.
    """
    found = epsilon_equilibria(game, grid_step, eps)
    members, grid_step = found.members, found.grid_step
    if not members:
        return OracleVerdict(members, math.nan, math.nan, "empty")
    star_mass = claim.x_ne.x_n + (1.0 - claim.Q) * claim.x_ne.x_vu
    mass_dev = P_dev = 0.0
    for member in members:
        res = solve_profile_P(game, member)
        mass = member.x_n + (1.0 - res.Q) * member.x_vu
        mass_dev = max(mass_dev, abs(mass - star_mass))
        P_dev = max(P_dev, abs(res.P - claim.P))
    agree = mass_dev <= MASS_TOL_STEPS * grid_step and P_dev <= P_TOL_STEPS * grid_step
    return OracleVerdict(members, mass_dev, P_dev, "agree" if agree else "disagree")


def _axis(bound: float, step: float) -> np.ndarray:
    """Lattice 0, step, 2*step, ... with the exact bound as the last point."""
    import numpy as np

    if bound <= 0.0:
        return np.array([0.0])
    n = int(math.floor(bound / step + 1e-9))
    pts = step * np.arange(n + 1, dtype=float)
    if bound - pts[-1] > 1e-12:
        pts = np.append(pts, bound)
    else:
        pts[-1] = bound
    return pts


def _curve_reader(game: SignalingGame):
    """mass -> p(mass) on arrays, unclamped: a table is np.interp on its knots,
    which TableHazard._eval reproduces bit for bit; other _eval take arrays."""
    import numpy as np

    hazard = game.hazard
    if isinstance(hazard, TableHazard):
        return functools.partial(np.interp, xp=np.array(hazard._ds), fp=np.array(hazard._vs))
    return hazard._eval


def _hazard_at(game: SignalingGame):
    """mass -> p(mass) on arrays, each reckless mass clamped to [0, 1].

    At a profile's mass x_n + (1 - c*rate)*x_vu for P = c, p >= c exactly
    when its consistent accident probability P* >= c, and p <= c exactly
    when P* <= c: the gap P - p(...) rises strictly in P with its root at P*.
    """
    import numpy as np

    p = _curve_reader(game)
    # not np.clip, whose dispatch costs about twice as much on the scan's small arrays
    return lambda mass: p(np.minimum(np.maximum(mass, 0.0), 1.0))


def _member_mask(
    game: SignalingGame, xs: np.ndarray, vus: np.ndarray, eps: float
) -> np.ndarray:
    """Which profiles (x_n, x_vu, 0) pass the six implications with slack eps.

    An action in use may cost at most eps more than the other, which bounds
    the group's accident belief to [lo, hi] = [(1-eps)/(1+r), (1+eps)/(1+r)]:
    lo while some of the group is careful, hi while some is reckless. The
    non-V2V belief is P itself. The unsignaled posterior a = P(1-rate)/(1-P*rate)
    rises with P, so its bound maps to P = a/(1 - rate + a*rate). Each active
    bound is then one comparison of _hazard_at with it; the signaled pair
    always holds at x_vs = 0, where caution is in use with margin r.
    """
    y, rate, p = game.y, game.signal_rate, _hazard_at(game)
    lo, hi = (1.0 - eps) / (1.0 + game.r), (1.0 + eps) / (1.0 + game.r)

    def at_least(c: float) -> np.ndarray:
        return p(xs + (1.0 - c * rate) * vus) >= c

    def at_most(c: float) -> np.ndarray:
        return p(xs + (1.0 - c * rate) * vus) <= c

    if rate < 1.0:
        # a belief bound of 0 or less holds at any P, and so does P >= 0
        vu_careful = at_least(max(lo, 0.0) / (1.0 - rate + max(lo, 0.0) * rate))
        vu_reckless = at_most(hi / (1.0 - rate + hi * rate))
    else:
        # every accident is shown, so silence means none: the posterior is 0
        vu_careful, vu_reckless = lo <= 0.0, True
    return (
        ((xs >= 1.0 - y) | at_least(lo))
        & ((xs <= 0.0) | at_most(hi))
        & ((vus >= y) | vu_careful)
        & ((vus <= 0.0) | vu_reckless)
    )


def _gap_crossings(
    game: SignalingGame, xn_axis: np.ndarray, xvu_axis: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Zero crossings of each group's cost gap along its own mass axis.

    Every lattice column (x_n moving, x_vu fixed) and row (x_vu moving,
    x_n fixed) is one line. All lines are bisected together for the moving
    mass where the strictly decreasing gap (1 - (1+r) * belief) vanishes;
    lines whose gap does not change sign contribute nothing (their optimum
    sits at a lattice corner). Returns aligned (x_n, x_vu) candidate arrays.

    The sign test avoids nesting a full fixed-point solve per bisection
    step: with threshold t for the group's belief, P* < t exactly when
    p(x_n + (1 - t*rate)*x_vu) < t (see _hazard_at), one curve evaluation.
    (For the unsignaled group the posterior is increasing in P, which moves
    its 1/(1+r) threshold to t = 1/(1 + r(1 - rate)) in P-space.) On each
    line that mass is affine in the moving mass m, coef*m + const: coef = 1
    and const = (1 - t*rate)*x_vu while x_n moves, coef = 1 - t*rate and
    const = x_n while x_vu moves; 1*m is exact and addition commutes, so
    each step reads the same mass as _member_mask would. Crossings are only
    candidates; membership is still decided by _member_mask.

    The lines' [0, bound] brackets are the columns of one (lo, hi) array,
    halved 60 times in place: one np.copyto puts each midpoint in the lo row
    where the gap is still positive, in the hi row where it is not. As coef
    (1 or 1 - t*rate, with t, rate <= 1), m and const are >= 0, no mass is
    negative, and the curve is read clamped at 1 only, not at 0 as well.
    """
    import numpy as np

    rate, t_n, t_vu = game.signal_rate, game.t_prior, game.t_unsignaled
    n_vu, n_n = len(xvu_axis), len(xn_axis)
    moves_n = np.repeat([True, False], [n_vu, n_n])
    t = np.repeat([t_n, t_vu], [n_vu, n_n])
    fixed = np.concatenate([xvu_axis, xn_axis])
    coef = np.repeat([1.0, 1.0 - t_vu * rate], [n_vu, n_n])
    const = np.concatenate([(1.0 - t_n * rate) * xvu_axis, xn_axis])
    bracket = np.repeat([[0.0, 0.0], [1.0 - game.y, game.y]], [n_vu, n_n], axis=1)
    p = _curve_reader(game)
    # True where the gap is <= 0; a line crosses where it is > 0 at 0 and <= 0 at bound
    reached = p(np.minimum(coef * bracket + const, 1.0)) >= t
    sign_change = reached[1] > reached[0]
    if not np.any(sign_change):
        return np.array([]), np.array([])
    moves_n, t, fixed, coef, const = (a[sign_change] for a in (moves_n, t, fixed, coef, const))
    bracket = bracket[:, sign_change]
    lo, hi = bracket
    row_is_hi = np.array([[False], [True]])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        np.copyto(bracket, mid, where=(p(np.minimum(coef * mid + const, 1.0)) >= t) == row_is_hi)
    m = 0.5 * (lo + hi)
    return np.where(moves_n, m, fixed), np.where(moves_n, fixed, m)
