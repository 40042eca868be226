"""Scenario files: flat key = value text with function-style curve specs.

Grammar (one key per line, '#' starts a comment, keys in any order):

    hazard       = affine(<slope>, <intercept>) | power(<exponent>)
                 | table(<d>:<p>, <d>:<p>, ...)
    signal_reach = linear(<slope>) | constant(<value>)
    y            = <number>
    r            = <number>
    beta         = <number> | sweep(<lo>, <hi>, <count>)

No expressions and no code execution; the analytic families cover the
usual cases and tables cover everything else. Serialization is canonical
(fixed key order, 12 significant digits) so emitted scenarios reparse to
identical games.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .design import _beta_grid
from .model import (
    AffineHazard,
    ConstantReach,
    HazardCurve,
    LinearReach,
    ModelError,
    PowerHazard,
    SignalReachCurve,
    SignalingGame,
    TableHazard,
)

__all__ = [
    "ScenarioError",
    "BetaSweep",
    "Scenario",
    "parse_scenario",
    "load_scenario",
    "format_curve",
]

_KEYS = ("hazard", "signal_reach", "y", "r", "beta")
_CALL = re.compile(r"^([a-z_]+)\s*\((.*)\)$")


class ScenarioError(ModelError):
    """A scenario file failed to parse or describes an inconsistent game."""


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


@dataclass(frozen=True)
class BetaSweep:
    """Evenly spaced signal qualities lo..hi inclusive."""

    lo: float
    hi: float
    count: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.lo <= self.hi <= 1.0:
            raise ScenarioError(
                f"beta sweep range [{self.lo!r}, {self.hi!r}] must be ordered within [0, 1]"
            )
        if self.count < 2:
            raise ScenarioError(f"beta sweep needs at least 2 samples, got {self.count!r}")

    def betas(self) -> list[float]:
        return _beta_grid(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario; beta is either one quality or a sweep spec."""

    hazard: HazardCurve
    signal_reach: SignalReachCurve
    y: float
    r: float
    beta: float | BetaSweep

    def __post_init__(self) -> None:
        # force full validation for every beta in range (endpoints suffice)
        if isinstance(self.beta, BetaSweep):
            self.game_at(self.beta.lo)
            self.game_at(self.beta.hi)
        else:
            self.game_at(self.beta)

    @property
    def is_sweep(self) -> bool:
        return isinstance(self.beta, BetaSweep)

    def betas(self) -> list[float]:
        return self.beta.betas() if isinstance(self.beta, BetaSweep) else [self.beta]

    def sweep_range(self, grid: int | None = None) -> tuple[float, float, int]:
        """(lo, hi, count) of a beta sweep: the scenario's own sweep, else
        101 samples of [0, 1]; a grid other than None replaces the count."""
        if isinstance(self.beta, BetaSweep):
            lo, hi, count = self.beta.lo, self.beta.hi, self.beta.count
        else:
            lo, hi, count = 0.0, 1.0, 101
        return lo, hi, count if grid is None else grid

    def game_at(self, beta: float) -> SignalingGame:
        return SignalingGame(
            beta=float(beta),
            y=self.y,
            r=self.r,
            hazard=self.hazard,
            signal_reach=self.signal_reach,
        )

    def canonical_text(self) -> str:
        if isinstance(self.beta, BetaSweep):
            beta = f"sweep({_fmt(self.beta.lo)}, {_fmt(self.beta.hi)}, {self.beta.count})"
        else:
            beta = _fmt(self.beta)
        lines = [
            f"hazard = {format_curve(self.hazard)}",
            f"signal_reach = {format_curve(self.signal_reach)}",
            f"y = {_fmt(self.y)}",
            f"r = {_fmt(self.r)}",
            f"beta = {beta}",
        ]
        return "\n".join(lines) + "\n"


def format_curve(curve) -> str:
    """Canonical function-style spelling of a curve."""
    if isinstance(curve, AffineHazard):
        return f"affine({_fmt(curve.slope)}, {_fmt(curve.intercept)})"
    if isinstance(curve, PowerHazard):
        return f"power({_fmt(curve.exponent)})"
    if isinstance(curve, TableHazard):
        knots = ", ".join(f"{_fmt(d)}:{_fmt(v)}" for d, v in curve.knots)
        return f"table({knots})"
    if isinstance(curve, LinearReach):
        return f"linear({_fmt(curve.slope)})"
    if isinstance(curve, ConstantReach):
        return f"constant({_fmt(curve.value)})"
    raise ScenarioError(f"cannot serialize curve {curve!r}")


def _number(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ScenarioError(f"{what}: expected a number, got {text!r}") from None


def _call(text: str, what: str) -> tuple[str, list[str]]:
    m = _CALL.match(text)
    if not m:
        raise ScenarioError(f"{what}: expected name(args), got {text!r}")
    body = m.group(2).strip()
    args = [a.strip() for a in body.split(",")] if body else []
    return m.group(1), args


def _arity(name: str, args: list[str], want: int, what: str) -> None:
    if len(args) != want:
        raise ScenarioError(f"{what}: {name} takes {want} argument(s), got {len(args)}")


def _parse_hazard(text: str) -> HazardCurve:
    name, args = _call(text, "hazard")
    if name == "affine":
        _arity(name, args, 2, "hazard")
        return AffineHazard(_number(args[0], "hazard slope"), _number(args[1], "hazard intercept"))
    if name == "power":
        _arity(name, args, 1, "hazard")
        return PowerHazard(_number(args[0], "hazard exponent"))
    if name == "table":
        knots = []
        for item in args:
            d, sep, v = item.partition(":")
            if not sep:
                raise ScenarioError(f"hazard table knot {item!r} must look like d:p")
            knots.append((_number(d, "table mass"), _number(v, "table probability")))
        return TableHazard(tuple(knots))
    raise ScenarioError(f"unknown hazard family {name!r} (expected affine, power, or table)")


def _parse_reach(text: str) -> SignalReachCurve:
    name, args = _call(text, "signal_reach")
    if name == "linear":
        _arity(name, args, 1, "signal_reach")
        return LinearReach(_number(args[0], "signal_reach slope"))
    if name == "constant":
        _arity(name, args, 1, "signal_reach")
        return ConstantReach(_number(args[0], "signal_reach value"))
    raise ScenarioError(f"unknown signal_reach family {name!r} (expected linear or constant)")


def _parse_beta(text: str) -> float | BetaSweep:
    if _CALL.match(text):
        name, args = _call(text, "beta")
        if name != "sweep":
            raise ScenarioError(f"beta: unknown form {name!r} (expected a number or sweep)")
        _arity(name, args, 3, "beta")
        count = _number(args[2], "beta sweep count")
        if not count.is_integer():
            raise ScenarioError(f"beta sweep count must be an integer, got {args[2]!r}")
        return BetaSweep(_number(args[0], "beta sweep lo"), _number(args[1], "beta sweep hi"), int(count))
    return _number(text, "beta")


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; raises ScenarioError naming the offending line."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ScenarioError(f"line {lineno}: empty value for {key!r}")
        entries[key] = value
    missing = [k for k in _KEYS if k not in entries]
    if missing:
        raise ScenarioError(f"missing required key(s): {', '.join(missing)}")
    return Scenario(
        hazard=_parse_hazard(entries["hazard"]),
        signal_reach=_parse_reach(entries["signal_reach"]),
        y=_number(entries["y"], "y"),
        r=_number(entries["r"], "r"),
        beta=_parse_beta(entries["beta"]),
    )


def load_scenario(path) -> Scenario:
    """Read and parse a scenario file."""
    return parse_scenario(Path(path).read_text(encoding="utf-8"))
