"""hazardsignal benchmark: closed-loop workloads, end-to-end and layer metrics.

    python3 hsbench/run.py --workload design_sweep --seed 1 --seconds 25 --trace 0
    python3 hsbench/run.py --all --seed 1 --out hsbench/baseline.json

Workloads: design_sweep, point_solve, oracle_wellcond, oracle_check and
cli_scenarios (workloads.py, clicases.py); inputs come from the seeded
generator (generator.py). One client, no threads. Each run splits the pool
into SHARES disjoint shares and starts one workload process (worker.py) per
share, one after another, each importing the package from this checkout's
``src`` and generating only its share; set-up is timed from starting a
process to its READY line, and ``setup_s`` is the median over them. Every
input weighs the same in the timings, however many passes its share made.

``--trace 0`` reports the end-to-end metrics of an untraced closed loop;
``--trace 1`` reports the layer metrics of a traced pass (tracing.py). The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
``--all`` runs every workload both ways and writes the whole record. The
benchmark's own tests: ``PYTHONPATH=src python -m pytest hsbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spec import HERE, ROOT, child_env

#: a run is split over this many workload processes, one after another, each
#: with its own share of the pool and seconds / SHARES to measure. Sharing
#: the pool out lets it be four times larger (the seed then moves the
#: timings less) at the set-up cost of one share per process, and set-up is
#: timed once per process.
SHARES = 4
#: a run that outlives this is stopped, keeping it under 180 s
RUN_TIMEOUT_S = 170.0

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def _worker(workload: str, seed: int, seconds: float, mode: str, timeout: float,
            share: int = 0, shares: int = 1) -> tuple[float, dict]:
    """Start one worker; returns its set-up time and its result line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode,
           "--share", str(share), "--shares", str(shares)]
    t0 = perf_counter()
    # its own process group, so a worker stopped early takes its CLI children along
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(timeout - setup, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ran out of time") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    lines = rest.strip().splitlines()
    if ready.strip() != "READY" or proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker failed (exit {proc.returncode})")
    return setup, json.loads(lines[-1])


def _weighted_rank(samples: list[tuple[float, float]], pct: float) -> tuple[float, int]:
    """Value at pct (nearest rank) of weighted samples, and the number of
    samples beyond it."""
    samples = sorted(samples)
    total = sum(w for _, w in samples)
    cum = 0.0
    for rank, (value, weight) in enumerate(samples):
        cum += weight
        if cum >= pct / 100.0 * total * (1.0 - 1e-12):
            return value, len(samples) - 1 - rank
    return samples[-1][0], 0


def _sum_counts(dicts) -> dict[str, int]:
    total: dict[str, int] = {}
    for counts in dicts:
        for key, n in counts.items():
            total[key] = total.get(key, 0) + n
    return dict(sorted(total.items()))


def run_workload(workload: str, seed: int, seconds: float, tail_pct: float) -> dict:
    deadline = perf_counter() + RUN_TIMEOUT_S
    setups, parts = [], []
    for share in range(SHARES):
        setup, part = _worker(workload, seed, seconds / SHARES, "run",
                              deadline - perf_counter(), share, SHARES)
        setups.append(setup)
        parts.append(part)
    # a share's inputs each ran `passes` times: weigh its samples by 1/passes
    # so that every input of the pool counts once
    samples = [(x, 1.0 / p["passes"]) for p in parts for x in p.pop("latencies_ms")]
    p50, _ = _weighted_rank(samples, 50.0)
    tail, beyond = _weighted_rank(samples, tail_pct)
    pass_s = sum(p["elapsed_s"] / p["passes"] for p in parts)
    pool = sum(p["pool"] for p in parts)
    return {
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        # the share of the pool's inputs whose op fails, which a seed fixes
        "failed_ratio": sum(p["failed"] / p["passes"] for p in parts) / pool,
        "failure_reasons": sorted({r for p in parts for r in p["failure_reasons"]}),
        "failed_by_stratum": _sum_counts(p["failed_by_stratum"] for p in parts),
        "verdicts": _sum_counts(p["verdicts"] for p in parts),
        "passes": [p["passes"] for p in parts],
        "pool": pool,
        "strata": _sum_counts(p["strata"] for p in parts),
        # one pass over the whole pool, as the shares timed it
        "ops_per_s": pool / pass_s,
        "op_p50_ms": p50,
        "op_tail_ms": tail,
        "tail_pct": tail_pct,
        "tail_beyond": beyond,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        "per_worker": {key: [p[key] for p in parts]
                       for key in ("ops_per_s", "peak_rss_mb")} | {"setup_s": setups},
    }


def trace_workload(workload: str, seed: int) -> dict:
    return _worker(workload, seed, 0.0, "trace", RUN_TIMEOUT_S)[1]


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _print_run(workload: str, res: dict) -> None:
    print(f"{workload}: {res['attempted']} ops over {res['pool']} inputs in {SHARES} shares "
          f"(passes per share {res['passes']}), {res['failed']} failed, one client, "
          "closed loop")
    for name, unit in END_TO_END.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{res['tail_pct']:g}, {res['tail_beyond']} samples beyond it)"
        print(f"  {name:<12} {res[name]:>12.6g} {unit}{note}")
    print(f"  {'failed_ratio':<12} {res['failed_ratio']:>12.6g} 1")
    if res["verdicts"]:
        print(f"  oracle verdicts per op: {res['verdicts']}")
    for reason in res["failure_reasons"]:
        print(f"  failure: {reason}")


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def _single(args, wl, layer_units: dict) -> int:
    if args.trace:
        res = trace_workload(args.workload, args.seed)
        if res["absent"]:
            print(f"absent layers: {', '.join(res['absent'])}")
        print(f"{args.workload}: traced {res['layers']['trace.ops']} ops, "
              f"overhead {res['layers']['trace.overhead_pct']:.1f}%")
        metrics = {name: _metric(res["layers"][name], unit)
                   for name, unit in layer_units.items()}
        print(_result_line(res["failed"] == 0, res["attempted"], res["failed"], metrics))
        return 0
    res = run_workload(args.workload, args.seed, args.seconds, wl.tail_pct)
    _print_run(args.workload, res)
    metrics = {name: _metric(res[name], unit) for name, unit in END_TO_END.items()}
    print(_result_line(res["failed"] == 0, res["attempted"], res["failed"], metrics))
    return 0


def _all(args, workloads) -> int:
    import generator  # noqa: PLC0415
    import numpy  # noqa: PLC0415 - only the full record names its version

    record = {
        "seed": args.seed,
        "run_seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "shares_per_run": SHARES,
        "end_to_end_units": END_TO_END,
        "generator": generator.POOLS,
        "workloads": {},
    }
    for name, wl in workloads.WORKLOADS.items():
        res = run_workload(name, args.seed, args.seconds, wl.tail_pct)
        _print_run(name, res)
        traced = trace_workload(name, args.seed)
        record["workloads"][name] = {
            "why": wl.why,
            "listed_in_benchmark_json": wl.listed,
            "tail_pct": wl.tail_pct,
            "run": res,
            "layers": traced["layers"],
            "applicable_layers": sorted(k for k, v in traced["layers"].items() if v),
            "absent_layers": traced["absent"],
            "trace_overhead_pct": traced["layers"]["trace.overhead_pct"],
        }
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload both ways")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --all: write the full record here")
    args = parser.parse_args()

    if not (ROOT / "src" / "hazardsignal" / "__init__.py").is_file():
        print(f"error: no hazardsignal package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: PLC0415 - needs the path above
    from tracing import LAYER_METRICS  # noqa: PLC0415

    if not args.all and args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    try:
        if args.all:
            return _all(args, workloads)
        return _single(args, workloads.WORKLOADS[args.workload], LAYER_METRICS)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
