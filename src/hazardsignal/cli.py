"""Command-line front end producing deterministic CSV.

Subcommands:
    solve         one equilibrium row for the scenario's beta
    sweep         one row per beta sample (scenario sweep spec or [0, 1])
    optimize-p    endpoint rule for the accident-probability objective
    optimize-s    grid + refinement for the social-cost objective
    oracle-check  brute-force eps-equilibria vs the closed-form solution

Exit codes: 0 success, 2 scenario/validation problem, 3 internal solver
inconsistency, 4 oracle disagreement beyond tolerance. Numbers are printed
with 12 significant digits so identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import sys

from .consistency import solve_profile_P
from .design import SweepRecord, optimal_beta_accidents, optimal_beta_social, sweep_beta
from .equilibrium import LogicError, solve_equilibrium
from .model import ModelError
from .oracle import epsilon_equilibria
from .scenario import Scenario, ScenarioError, _fmt, load_scenario

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_LOGIC = 3
EXIT_DISAGREE = 4

SOLVE_HEADER = "beta,region,P,S,x_n,x_vu,Q,posterior"
DESIGN_HEADER = "objective,beta_star,value_at_star,value_at_beta0,value_at_beta1"
ORACLE_HEADER = "beta,members,x_n,x_vu,P,max_mass_dev,max_P_dev,verdict"

#: oracle-check agreement tolerances, scaled from the scan resolution
MASS_TOL_STEPS = 3.0
P_TOL_STEPS = 2.0


def _metadata(scenario: Scenario) -> list[str]:
    return ["# " + line for line in scenario.canonical_text().splitlines()]


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(*values) -> str:
    """One CSV row: strings as they are, numbers through _fmt."""
    return ",".join(v if isinstance(v, str) else _fmt(v) for v in values)


def _row(rec: SweepRecord) -> str:
    return _csv(rec.beta, rec.region.value, rec.P, rec.S, rec.x_n, rec.x_vu, rec.Q, rec.posterior)


def _base_game(scenario: Scenario):
    return scenario.game_at(scenario.beta.lo if scenario.is_sweep else scenario.beta)


def _cmd_solve(scenario: Scenario, args) -> int:
    if scenario.is_sweep:
        raise ScenarioError("solve needs a single beta; use the sweep command for ranges")
    rep = solve_equilibrium(scenario.game_at(scenario.beta))
    rec = SweepRecord.from_report(scenario.beta, rep)
    _emit(_metadata(scenario) + [SOLVE_HEADER, _row(rec)], args.out)
    return EXIT_OK


def _cmd_sweep(scenario: Scenario, args) -> int:
    lo, hi, count = scenario.sweep_range(args.grid)
    rows = [_row(rec) for rec in sweep_beta(_base_game(scenario), count, lo, hi)]
    _emit(_metadata(scenario) + [SOLVE_HEADER] + rows, args.out)
    return EXIT_OK


def _design_lines(scenario: Scenario, result) -> list[str]:
    row = _csv(
        result.objective.value, result.beta_star, result.value_at_star, *result.endpoint_comparison
    )
    return _metadata(scenario) + [DESIGN_HEADER, row]


def _cmd_optimize_p(scenario: Scenario, args) -> int:
    result = optimal_beta_accidents(_base_game(scenario))
    _emit(_design_lines(scenario, result), args.out)
    return EXIT_OK


def _cmd_optimize_s(scenario: Scenario, args) -> int:
    result = optimal_beta_social(_base_game(scenario), args.grid)
    _emit(_design_lines(scenario, result), args.out)
    return EXIT_OK


def _cmd_oracle_check(scenario: Scenario, args) -> int:
    mass_tol = MASS_TOL_STEPS * args.grid_step
    p_tol = P_TOL_STEPS * args.grid_step
    rows = []
    status = EXIT_OK
    for beta in scenario.betas():
        game = scenario.game_at(beta)
        rep = solve_equilibrium(game)
        found = epsilon_equilibria(game, args.grid_step, args.eps)
        star_mass = rep.x_ne.x_n + (1.0 - rep.Q) * rep.x_ne.x_vu
        if not found.members:
            mass_dev, p_dev, verdict = float("nan"), float("nan"), "empty"
        else:
            mass_dev = p_dev = 0.0
            for member in found.members:
                res = solve_profile_P(game, member)
                mass = member.x_n + (1.0 - res.Q) * member.x_vu
                mass_dev = max(mass_dev, abs(mass - star_mass))
                p_dev = max(p_dev, abs(res.P - rep.P))
            verdict = "agree" if mass_dev <= mass_tol and p_dev <= p_tol else "disagree"
        if verdict != "agree":
            status = EXIT_DISAGREE
        members = len(found.members)
        rows.append(_csv(beta, members, rep.x_ne.x_n, rep.x_ne.x_vu, rep.P, mass_dev, p_dev, verdict))
    _emit(_metadata(scenario) + [ORACLE_HEADER] + rows, args.out)
    return status


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hazardsignal",
        description="Signaling-equilibrium solver for road-hazard warning games",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(name: str, help_text: str, handler):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("scenario", help="path to a scenario file")
        sp.add_argument("--out", default=None, help="write CSV here instead of stdout")
        sp.set_defaults(handler=handler)
        return sp

    command("solve", "solve the scenario's game and print its equilibrium row", _cmd_solve)
    sp = command("sweep", "solve a grid of signal qualities, one row each", _cmd_sweep)
    sp.add_argument(
        "--grid",
        type=int,
        default=None,
        help="number of beta samples (default: scenario sweep count, else 101)",
    )
    command(
        "optimize-p",
        "pick the accident-minimizing signal quality (endpoint rule)",
        _cmd_optimize_p,
    )
    sp = command(
        "optimize-s", "pick the social-cost-minimizing signal quality", _cmd_optimize_s
    )
    sp.add_argument("--grid", type=int, default=101, help="beta samples before refinement")
    sp = command(
        "oracle-check",
        "cross-check the closed form against brute-force eps-equilibria",
        _cmd_oracle_check,
    )
    sp.add_argument("--grid-step", type=float, default=0.01, help="profile lattice resolution")
    sp.add_argument("--eps", type=float, default=1e-3, help="equilibrium cost slack")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        return args.handler(scenario, args)
    except LogicError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_LOGIC
    except (ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
