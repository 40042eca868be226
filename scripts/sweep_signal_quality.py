"""Sweep signal quality for a scenario and summarize where accidents peak.

Usage:
    python scripts/sweep_signal_quality.py scenarios/partial_adoption_backfire.scn --grid 101

For the per-beta CSV rows use `hazardsignal sweep <scenario> --out sweep.csv`.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hazardsignal import ModelError, load_scenario, sweep_beta


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("scenario")
    parser.add_argument("--grid", type=int, default=None)
    args = parser.parse_args()

    try:
        scenario = load_scenario(args.scenario)
        lo, hi, count = scenario.sweep_range(args.grid)
        records = sweep_beta(scenario.game_at(lo), count, lo, hi)
    except (ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    peak = max(records, key=lambda rec: rec.P)
    cheapest = min(records, key=lambda rec: rec.S)
    print(f"{count} samples of beta in [{lo:g}, {hi:g}]")
    print(f"P(beta={records[0].beta:g}) = {records[0].P:.6f}   "
          f"P(beta={records[-1].beta:g}) = {records[-1].P:.6f}")
    print(f"accidents peak at beta = {peak.beta:g} with P = {peak.P:.6f} ({peak.region.value})")
    print(f"social cost is lowest at beta = {cheapest.beta:g} with S = {cheapest.S:.6f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
