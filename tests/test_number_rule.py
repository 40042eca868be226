"""One number rule at every public entry that takes a number.

Any finite real number is accepted, whatever its type, and converted once to
a Python float: a call with an int, a bool, a numpy scalar or a Fraction
returns and stores exactly what the call with float(x) does, and every
number it returns or stores is a Python float.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from hazardsignal import (
    AffineHazard,
    BehaviorProfile,
    BetaSweep,
    ConstantReach,
    LinearReach,
    PowerHazard,
    Region,
    SignalingGame,
    TableHazard,
    check_equilibrium_conditions,
    epsilon_equilibria,
    group_costs,
    oracle_verdict,
    posterior_no_signal,
    solve_equilibrium,
    sweep_beta,
)

#: one argument of each type; every entry below accepts each of them
ARGUMENTS = [1, True, np.float64(0.3), np.float32(0.3), np.int64(1), Fraction(3, 10)]
ARGUMENT_IDS = ["int", "bool", "float64", "float32", "int64", "Fraction"]

#: hazards whose ranges hold every argument above, so each one inverts
HAZARDS = (AffineHazard(0.9, 0.1), PowerHazard(3.0), TableHazard(((0, 0), (0.5, 0.3), (1, 1))))
CURVES = HAZARDS + (LinearReach(0.9), ConstantReach(0.4))


def game(y: float = 0.5) -> SignalingGame:
    """A new game object, so no sweep is served from another call's memo; y = 0
    admits any oracle grid step."""
    return SignalingGame(0.5, y, 3.0, AffineHazard(0.3, 0.1), LinearReach(0.9))


def numbers(*values) -> list:
    """The numbers among values, with dataclasses and sequences opened and
    labels (regions, verdicts, names and flags) left out."""
    out = []
    for v in values:
        if dataclasses.is_dataclass(v):
            out += numbers(*(getattr(v, f.name) for f in dataclasses.fields(v)))
        elif isinstance(v, (tuple, list)):
            out += numbers(*v)
        elif not isinstance(v, (bool, str, Region)):
            out.append(v)
    return out


def sweep_spec(sweep: BetaSweep) -> list:
    return [sweep.lo, sweep.hi, sweep.betas()]


#: each public entry that takes a number, as a function of that number
BOUNDARIES = {
    **{f"{type(c).__name__}-call": c for c in CURVES},
    **{f"{type(h).__name__}-inverse": h.inverse for h in HAZARDS},
    "posterior_no_signal": lambda x: posterior_no_signal(game(), x),
    "group_costs-P": lambda x: group_costs(game(), x, 0.25),
    "group_costs-posterior": lambda x: group_costs(game(), 0.25, x),
    "BehaviorProfile": lambda x: BehaviorProfile(x, x, x),
    "sweep_beta-lo": lambda x: sweep_beta(game(), 3, x, 1),
    "sweep_beta-hi": lambda x: sweep_beta(game(), 3, 0, x),
    "BetaSweep-lo": lambda x: sweep_spec(BetaSweep(x, 1, 3)),
    "BetaSweep-hi": lambda x: sweep_spec(BetaSweep(0, x, 3)),
    "epsilon_equilibria-grid_step": lambda x: epsilon_equilibria(game(0.0), x, 1e-3),
    "epsilon_equilibria-eps": lambda x: epsilon_equilibria(game(), 0.1, x),
    "oracle_verdict-grid_step": lambda x: oracle_verdict(
        game(0.0), solve_equilibrium(game(0.0)), x, 1e-3
    ),
    "oracle_verdict-eps": lambda x: oracle_verdict(game(), solve_equilibrium(game()), 0.1, x),
    "check_equilibrium_conditions-eps": lambda x: check_equilibrium_conditions(
        game(), BehaviorProfile(0.0, 0.5), x
    ),
}


@pytest.mark.parametrize("x", ARGUMENTS, ids=ARGUMENT_IDS)
def test_every_entry_works_with_the_float(x):
    for name, call in BOUNDARIES.items():
        # a stored bool would drop out of got, so the lengths must agree too
        got, want = numbers(call(x)), numbers(call(float(x)))
        assert [type(v) for v in got] == [float] * len(want), name
        assert [v.hex() for v in got] == [v.hex() for v in want], name


def test_sweep_memo_keeps_float_betas():
    # a sweep over Fraction bounds stores float records, which a plain sweep then reuses
    g = game()
    first = sweep_beta(g, 3, Fraction(0), Fraction(1))
    second = sweep_beta(g, 3)
    assert all(type(rec.beta) is float for rec in second)
    assert all(a is b for a, b in zip(first, second))
    assert [v.hex() for v in numbers(second)] == [v.hex() for v in numbers(sweep_beta(game(), 3))]
