"""Scan a scenario for signal-quality intervals where the two design
objectives pull in opposite directions (accidents falling while social
cost rises, or vice versa), then print both optima.

Usage:
    python scripts/tradeoff_scan.py scenarios/social_cost_reversal.scn --grid 51
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hazardsignal import (
    ModelError,
    load_scenario,
    optimal_beta_accidents,
    optimal_beta_social,
    sweep_beta,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("scenario")
    parser.add_argument("--grid", type=int, default=51)
    args = parser.parse_args()

    try:
        scenario = load_scenario(args.scenario)
        base = scenario.game_at(scenario.betas()[0])
        records = sweep_beta(base, args.grid)
    except (ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    conflicts = []
    for prev, cur in zip(records, records[1:]):
        p_down, s_up = cur.P < prev.P, cur.S > prev.S
        p_up, s_down = cur.P > prev.P, cur.S < prev.S
        if (p_down and s_up) or (p_up and s_down):
            conflicts.append((prev, cur))

    if conflicts:
        print(f"{len(conflicts)} conflicting interval(s) of {args.grid - 1}:")
        for prev, cur in conflicts[:10]:
            print(
                f"  beta {prev.beta:.3f} -> {cur.beta:.3f}: "
                f"P {prev.P:.6f} -> {cur.P:.6f}, S {prev.S:.6f} -> {cur.S:.6f}"
            )
        if len(conflicts) > 10:
            print(f"  ... and {len(conflicts) - 10} more")
    else:
        print("no conflicting intervals at this grid resolution")

    acc = optimal_beta_accidents(base)
    soc = optimal_beta_social(base, args.grid)
    print(f"accident-minimizing beta = {acc.beta_star:g} (P = {acc.value_at_star:.6f}, "
          f"endpoints P(0) = {acc.endpoint_comparison[0]:.6f}, P(1) = {acc.endpoint_comparison[1]:.6f})")
    print(f"cost-minimizing beta = {soc.beta_star:.6g} (S = {soc.value_at_star:.6f}, "
          f"endpoints S(0) = {soc.endpoint_comparison[0]:.6f}, S(1) = {soc.endpoint_comparison[1]:.6f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
