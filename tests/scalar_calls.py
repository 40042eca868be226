"""Scalar entry points called with Fraction and int arguments.

Each call converts its numbers to Python floats and takes the pure-Python
path, so this file must run where numpy cannot be imported.
tests/test_numpy_import.py runs it in such an interpreter.
"""

from fractions import Fraction

import hazardsignal as hs

game = hs.SignalingGame(
    Fraction(1, 2), 1, 3, hs.AffineHazard(Fraction(3, 10), 0), hs.LinearReach(Fraction(9, 10))
)
for x in (Fraction(1, 4), 1):
    for curve in (game.hazard, hs.PowerHazard(3), hs.TableHazard(((0, 0), (1, 1))), game.signal_reach,
                  hs.ConstantReach(Fraction(2, 5))):
        assert type(curve(x)) is float
    assert type(hs.PowerHazard(3).inverse(x)) is float
    assert type(hs.posterior_no_signal(game, x)) is float
    assert type(hs.solve_profile_P(game, hs.BehaviorProfile(0, x)).P) is float
    assert all(type(rec.beta) is float for rec in hs.sweep_beta(game, 3, 0, x))
print("scalar entry points ran on Fraction and int arguments")
