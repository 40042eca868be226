"""Signaling-equilibrium solver for road-hazard warning games.

Drivers choose caution or recklessness; reckless mass raises the accident
probability; accidents trigger warnings that only V2V-equipped cars can
see. This package computes the resulting signaling equilibria in closed
form, optimizes the warning display quality for accident frequency and
for social cost, and cross-validates everything against a brute-force
eps-equilibrium oracle.
"""

from . import consistency, design, equilibrium, model, oracle, scenario
from .model import *
from .consistency import *
from .equilibrium import *
from .design import *
from .oracle import *
from .scenario import *

__version__ = "0.1.0"

__all__ = sorted(
    model.__all__
    + consistency.__all__
    + equilibrium.__all__
    + design.__all__
    + oracle.__all__
    + scenario.__all__
)
