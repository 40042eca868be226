"""Independent equilibrium verification straight from the cost definitions.

Nothing in this module consults the region classification or the
closed-form solutions: membership is decided purely by the six
equilibrium implications (any action in use must be weakly cost-minimal,
with slack eps) evaluated at a profile's own consistent accident
probability. That keeps the brute-force search and best-response dynamics
usable as cross-checks of the analytic solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    BehaviorProfile,
    InputError,
    SignalingGame,
    validate_profile,
)
from .consistency import solve_profile_P

__all__ = [
    "ConditionStatus",
    "ConditionCheck",
    "EpsilonEquilibriumSet",
    "BestResponsePath",
    "check_equilibrium_conditions",
    "epsilon_equilibria",
    "best_response_dynamics",
]

#: cost-gap band treated as exact indifference by the best-response map
TIE_EPS = 1e-9

#: a profile within this L-inf distance of its best response counts as settled
CONVERGENCE_TOL = 1e-9

#: cost slack of the equilibrium check at the end of a best-response path
CHECK_EPS = 1e-6


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
    """Test the six equilibrium implications at the profile's own fixed point."""
    if not eps >= 0:
        raise InputError(f"eps must be nonnegative, got {eps!r}")
    res = solve_profile_P(game, profile)
    conditions = tuple(
        ConditionStatus(name, active, (not active) or margin >= -eps, margin)
        for name, active, margin in _conditions(
            game, res.P, res.posterior_no_signal, profile.x_n, profile.x_vu, profile.x_vs
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

    x_vs > 0 is excluded analytically: signaled drivers strictly prefer
    caution (margin r > eps for any sane eps), so such profiles can never
    pass. Equal-cost ties keep candidates in place, hence corners matter.
    """
    if not eps > 0:
        raise InputError(f"eps must be positive, got {eps!r}")
    if not grid_step > 0:
        raise InputError(f"grid_step must be positive, got {grid_step!r}")
    y = game.y
    if 0.0 < y < 1.0 and grid_step > min(y, 1.0 - y) + 1e-12:
        raise InputError(
            f"grid_step {grid_step!r} exceeds min(y, 1-y) = {min(y, 1.0 - y):.12g}; "
            "the lattice would skip an entire group"
        )

    xn_axis = _axis(1.0 - y, grid_step)
    xvu_axis = _axis(y, grid_step)
    grid_n, grid_vu = np.meshgrid(xn_axis, xvu_axis, indexing="ij")
    cross_n, cross_vu = _gap_crossings(game, xn_axis, xvu_axis)
    xs = np.concatenate([grid_n.ravel(), cross_n])
    vus = np.concatenate([grid_vu.ravel(), cross_vu])
    P = _consistent_P(game, xs, vus)
    rate = game.signal_rate
    posterior = _no_signal_posterior(P, rate)
    ok = np.ones(len(xs), dtype=bool)
    for _, active, margin in _conditions(game, P, posterior, xs, vus, 0.0):
        # active is a Python bool for the scalar x_vs, and ~True == -2
        ok &= ~np.asarray(active) | (margin >= -eps)
    points = np.column_stack([xs[ok], vus[ok]])
    if len(points):
        points = np.unique(points, axis=0)
    members = tuple(BehaviorProfile(float(a), float(b), 0.0) for a, b in points)
    return EpsilonEquilibriumSet(epsilon=eps, grid_step=grid_step, members=members)


@dataclass(frozen=True)
class BestResponsePath:
    """Damped best-response trajectory and its terminal diagnosis."""

    trajectory: tuple[BehaviorProfile, ...]
    converged: bool
    final_check: ConditionCheck


def best_response_dynamics(
    game: SignalingGame, start: BehaviorProfile, steps: int, rate: float
) -> BestResponsePath:
    """Iterate x <- x + rate * (BR(x) - x), recording every iterate.

    BR sends each group fully toward its strictly cheaper action and holds
    it in place inside the TIE_EPS indifference band. Once an iterate sits
    within CONVERGENCE_TOL of its own best response, the exact limit point
    is recorded as the final iterate (damping alone only approaches
    corners asymptotically). This is a verification aid only; the model
    itself prescribes no adjustment process. Non-convergence within the
    step budget is reported via the converged flag, not an error.
    """
    if not 0.0 < rate <= 1.0:
        raise InputError(f"rate must lie in (0, 1], got {rate!r}")
    if steps < 0:
        raise InputError(f"steps must be nonnegative, got {steps!r}")
    validate_profile(game, start)
    x = start
    trajectory = [start]
    converged = False
    for _ in range(steps):
        target = _best_response(game, x)
        move = _dist(target, x)
        if move <= CONVERGENCE_TOL:
            converged = True
            if move > 0.0:
                x = target
                trajectory.append(x)
            break
        x = BehaviorProfile(
            x.x_n + rate * (target.x_n - x.x_n),
            x.x_vu + rate * (target.x_vu - x.x_vu),
            x.x_vs + rate * (target.x_vs - x.x_vs),
        )
        trajectory.append(x)
    else:
        converged = _dist(_best_response(game, x), x) <= CONVERGENCE_TOL
    return BestResponsePath(
        trajectory=tuple(trajectory),
        converged=converged,
        final_check=check_equilibrium_conditions(game, trajectory[-1], CHECK_EPS),
    )


def _dist(a: BehaviorProfile, b: BehaviorProfile) -> float:
    return max(abs(a.x_n - b.x_n), abs(a.x_vu - b.x_vu), abs(a.x_vs - b.x_vs))


def _best_response(game: SignalingGame, profile: BehaviorProfile) -> BehaviorProfile:
    res = solve_profile_P(game, profile)
    (_, _, n_careful), _, (_, _, vu_careful), *_ = _conditions(
        game, res.P, res.posterior_no_signal, profile.x_n, profile.x_vu, profile.x_vs
    )
    return BehaviorProfile(
        _respond(n_careful, profile.x_n, 1.0 - game.y),
        _respond(vu_careful, profile.x_vu, game.y),
        0.0,  # caution strictly dominates when signaled
    )


def _respond(careful_margin: float, mass: float, size: float) -> float:
    """The whole group to its strictly cheaper action; in place inside the tie band."""
    if careful_margin > TIE_EPS:
        return 0.0
    if careful_margin < -TIE_EPS:
        return size
    return mass


def _conditions(game: SignalingGame, P, posterior, x_n, x_vu, x_vs):
    """The six equilibrium implications as (name, active, margin) triples.

    Scalars or aligned arrays. A group's cost gap is 1 - (1+r) * belief,
    the regret of caution minus the expected cost of recklessness; an
    action is active while some of the group takes it, and its margin is
    its cost advantage over the other action.
    """
    y = game.y
    gap_n = 1.0 - (1.0 + game.r) * P
    gap_vu = 1.0 - (1.0 + game.r) * posterior
    gap_vs = -game.r  # signaled drivers know the accident is real: belief 1
    return (
        ("n_careful_in_use", x_n < 1.0 - y, -gap_n),
        ("n_reckless_in_use", x_n > 0.0, gap_n),
        ("vu_careful_in_use", x_vu < y, -gap_vu),
        ("vu_reckless_in_use", x_vu > 0.0, gap_vu),
        ("vs_careful_in_use", x_vs < y, -gap_vs),
        ("vs_reckless_in_use", x_vs > 0.0, gap_vs),
    )


def _axis(bound: float, step: float) -> np.ndarray:
    """Lattice 0, step, 2*step, ... with the exact bound as the last point."""
    if bound <= 0.0:
        return np.array([0.0])
    n = int(math.floor(bound / step + 1e-9))
    pts = step * np.arange(n + 1, dtype=float)
    if bound - pts[-1] > 1e-12:
        pts = np.append(pts, bound)
    else:
        pts[-1] = bound
    return pts


def _consistent_P(game: SignalingGame, x_n: np.ndarray, x_vu: np.ndarray) -> np.ndarray:
    """Vectorized fixed-point bisection, same equation as solve_profile_P."""
    rate = game.signal_rate
    hazard = game.hazard
    return _bisect_rows(
        lambda P: P - hazard(np.clip(x_n + (1.0 - P * rate) * x_vu, 0.0, 1.0)) > 0.0,
        np.full_like(x_n, hazard.floor, dtype=float),
        np.full_like(x_n, hazard.ceiling, dtype=float),
    )


def _bisect_rows(above, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Row-wise bisection, 60 halvings of every [lo, hi] bracket.

    above(mid) is a boolean array, True in the rows whose root lies below mid.
    """
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        down = above(mid)
        hi = np.where(down, mid, hi)
        lo = np.where(down, lo, mid)
    return 0.5 * (lo + hi)


def _no_signal_posterior(P: np.ndarray, rate: float) -> np.ndarray:
    # Unlike posterior_no_signal, which raises at P * rate = 1, this clamps.
    # The scan reaches P = 1.0 exactly in games with beta*q = 1 and y = 0
    # (at x_n = 1); there both V2V conditions are inactive, so the posterior
    # is never read and the row must not abort the whole scan.
    denom = np.maximum(1.0 - P * rate, 1e-15)
    return P * (1.0 - rate) / denom


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
    step: with threshold t for the group's belief, the consistency map
    F(P) = P - p(x_n + (1 - P*rate)*x_vu) is strictly increasing in P
    with root P*, so P* < t exactly when F(t) > 0, one curve evaluation.
    (For the unsignaled group the posterior is increasing in P, which
    moves its 1/(1+r) threshold to t = 1/(1 + r(1 - rate)) in P-space.)
    At P = t the curve argument is scale * m + offset for moving mass m:
    m + c*x_vu on a column and x_n + c*m on a row, with c = 1 - t*rate.
    Crossings are only candidates; membership is still decided by the
    cost conditions at each candidate's own solved P.
    """
    rate = game.signal_rate
    hazard = game.hazard
    t_n = 1.0 / (1.0 + game.r)
    t_vu = 1.0 / (1.0 + game.r * (1.0 - rate))
    moves_n = np.repeat([True, False], [len(xvu_axis), len(xn_axis)])
    t = np.where(moves_n, t_n, t_vu)
    bound = np.where(moves_n, 1.0 - game.y, game.y)
    scale = np.where(moves_n, 1.0, 1.0 - t_vu * rate)
    offset = np.concatenate([(1.0 - t_n * rate) * xvu_axis, xn_axis])
    fixed = np.concatenate([xvu_axis, xn_axis])

    def gap_positive(m, t, scale, offset) -> np.ndarray:
        return t - hazard(np.clip(scale * m + offset, 0.0, 1.0)) > 0.0

    sign_change = gap_positive(0.0, t, scale, offset) & ~gap_positive(bound, t, scale, offset)
    if not np.any(sign_change):
        return np.array([]), np.array([])
    moves_n, t, bound, scale, offset, fixed = (
        a[sign_change] for a in (moves_n, t, bound, scale, offset, fixed)
    )
    m = _bisect_rows(lambda m: ~gap_positive(m, t, scale, offset), np.zeros_like(bound), bound)
    return np.where(moves_n, m, fixed), np.where(moves_n, fixed, m)
