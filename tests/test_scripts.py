"""Experiment scripts run as their own processes: pinned stdout, exit 2 on bad input."""

import subprocess
import sys

import pytest

from conftest import REPO_ROOT, SCENARIO_DIR

SWEEP = REPO_ROOT / "scripts" / "sweep_signal_quality.py"
TRADEOFF = REPO_ROOT / "scripts" / "tradeoff_scan.py"


def run(script, scenario, *args):
    return subprocess.run(
        [sys.executable, str(script), str(SCENARIO_DIR / scenario), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_sweep_summary():
    proc = run(SWEEP, "partial_adoption_backfire.scn", "--grid", "21")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "21 samples of beta in [0, 1]\n"
        "P(beta=0) = 0.250000   P(beta=1) = 0.303602\n"
        "accidents peak at beta = 0.45 with P = 0.336849 (NCVR)\n"
        "social cost is lowest at beta = 1 with S = 0.225388\n"
    )


def test_tradeoff_scan():
    proc = run(TRADEOFF, "zero_signal_optimum.scn", "--grid", "11")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "2 conflicting interval(s) of 10:\n"
        "  beta 0.800 -> 0.900: P 0.100000 -> 0.103520, S 0.900000 -> 0.896480\n"
        "  beta 0.900 -> 1.000: P 0.103520 -> 0.119048, S 0.896480 -> 0.880952\n"
        "accident-minimizing beta = 0 (P = 0.100000, endpoints P(0) = 0.100000, "
        "P(1) = 0.119048)\n"
        "cost-minimizing beta = 1 (S = 0.880952, endpoints S(0) = 0.900000, "
        "S(1) = 0.880952)\n"
    )


@pytest.mark.parametrize(
    "script, scenario, grid",
    [
        (SWEEP, "partial_adoption_backfire.scn", "0"),
        (TRADEOFF, "social_cost_reversal.scn", "1"),
    ],
    ids=["sweep-grid-0", "tradeoff-grid-1"],
)
def test_too_few_grid_points_exit_2(script, scenario, grid):
    proc = run(script, scenario, "--grid", grid)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: sweep needs at least two grid points, got {grid}\n"


@pytest.mark.parametrize("script", [SWEEP, TRADEOFF], ids=["sweep", "tradeoff"])
def test_missing_scenario_exit_2(script):
    proc = run(script, "no_such_scenario.scn")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "no_such_scenario.scn" in proc.stderr


@pytest.mark.parametrize("script", [SWEEP, TRADEOFF], ids=["sweep", "tradeoff"])
def test_scenario_not_utf8_exit_2(script, tmp_path):
    bad = tmp_path / "latin1.scn"
    bad.write_bytes(b"beta = 1 # caf\xe9\n")
    proc = run(script, bad)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {bad}: not UTF-8: byte 0xe9 at offset 14\n"
