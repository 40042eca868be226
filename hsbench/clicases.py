"""The cli_scenarios workload: every subcommand on every scenario, each as
its own `python -m hazardsignal` process, checked against the exit code and
stdout digest recorded when the benchmark was added (``cli_expected.json``).
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from dataclasses import dataclass

from spec import HERE, ROOT, Workload, child_env

CLI_EXPECTED = HERE / "cli_expected.json"
SCENARIOS = (
    "scenarios/partial_adoption_backfire.scn",
    "scenarios/social_cost_reversal.scn",
    "scenarios/zero_signal_optimum.scn",
    "hsbench/table3.scn",
)
SUBCOMMANDS = ("solve", "sweep", "optimize-p", "optimize-s", "oracle-check")


@dataclass(frozen=True)
class Invocation:
    """One `python -m hazardsignal <command> <scenario>` run."""

    command: str
    scenario: str

    @property
    def stratum(self) -> str:
        return self.command

    @property
    def key(self) -> str:
        return f"{self.command} {self.scenario}"


def cli_pool(seed: int, share: int = 0, shares: int = 1) -> list[Invocation]:
    """Every subcommand on every scenario; the seed only orders them."""
    del seed
    return [Invocation(c, s) for s in SCENARIOS for c in SUBCOMMANDS][share::shares]


def cli_op(inv: Invocation) -> tuple[int, bytes]:
    proc = subprocess.run(
        [sys.executable, "-m", "hazardsignal", inv.command, inv.scenario],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        check=False,
    )
    return proc.returncode, proc.stdout


def _expected() -> dict:
    with open(CLI_EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def cli_check(inv: Invocation, out) -> str | None:
    code, stdout = out
    want = _expected()[inv.key]
    if code != want["exit"]:
        return f"exit code {code}, expected {want['exit']}"
    if hashlib.sha256(stdout).hexdigest() != want["sha256"]:
        return "stdout differs from the recorded output"
    return None


WORKLOAD = Workload(
    "cli_scenarios",
    "every subcommand on each scenario as its own process; "
    "interpreter start, import and the scenario/cli code dominate",
    cli_pool, cli_op, cli_check,
    warmup=1, tail_pct=80.0, trace_per_stratum=None,
)
