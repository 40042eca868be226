"""One workload process: set up, then time ops, or trace them.

Started by run.py, never by hand. It prints ``READY`` once its inputs are
generated and warmed up (run.py times set-up up to that line), then one
JSON line with its results.

* ``--mode run``: a closed loop with one client over one share of the pool
  (``--share k --shares m``). Whole passes over the share, in one seeded
  order, until ``--seconds`` have elapsed; every output is checked after
  the loop.
* ``--mode trace``: the same ops untraced and then traced over a fixed
  subset, giving layer counts, self times and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
from array import array
from time import perf_counter

import clicases
from spec import HERE, ROOT, child_env, order, strata_counts

SPAN_DIR = HERE / "out"
#: untraced passes over the traced subset; their median is the overhead base
UNTRACED_PASSES = 3
#: child interpreters started per start-up measurement; the median is reported
STARTUP_SAMPLES = 5


def _timed_loop(wl, items, order, seconds: float) -> dict:
    """Whole passes until the deadline; peak memory is read before any
    post-processing allocates, so it covers set-up and the loop only."""
    op = wl.op
    latencies = array("d")
    last = [None] * len(items)
    runs = [0] * len(items)
    start = perf_counter()
    deadline = start + seconds
    while True:
        for i in order:
            t0 = perf_counter()
            try:
                out = op(items[i])
            except Exception as exc:  # a raising op is a failed op, not a crash
                out = exc
            latencies.append(perf_counter() - t0)
            last[i] = out
            runs[i] += 1
        if perf_counter() >= deadline:
            break
    elapsed = perf_counter() - start
    return {"latencies": latencies, "last": last, "runs": runs, "elapsed": elapsed,
            "peak_rss_mb": _peak_rss_mb(wl)}


def _peak_rss_mb(wl) -> float:
    """Peak resident memory of this process, or of its CLI children.

    A new process's ru_maxrss starts from its parent's peak, so this process
    reads its own high-water mark from /proc where it can.
    """
    if wl is clicases.WORKLOAD:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check(wl, items, last, runs) -> tuple[int, dict[str, int], list[str]]:
    """Failed op count, failures per stratum and the first few reasons."""
    failed, per_stratum, reasons = 0, {}, []
    for item, out, n in zip(items, last, runs):
        if n == 0:
            continue
        reason = f"raised {out!r}" if isinstance(out, Exception) else wl.check(item, out)
        if reason is not None:
            failed += n
            per_stratum[item.stratum] = per_stratum.get(item.stratum, 0) + n
            if len(reasons) < 5:
                reasons.append(f"{item.stratum}: {reason}")
    return failed, per_stratum, reasons


def run(wl, items, order, seconds: float) -> dict:
    loop = _timed_loop(wl, items, order, seconds)
    failed, per_stratum, reasons = _check(wl, items, loop["last"], loop["runs"])
    lat = loop["latencies"]
    verdicts: dict[str, int] = {}
    if wl.name.startswith("oracle"):
        for out, n in zip(loop["last"], loop["runs"]):
            key = out[0] if isinstance(out, tuple) else "raised"
            verdicts[key] = verdicts.get(key, 0) + n
    return {
        "attempted": len(lat),
        "failed": failed,
        "failed_by_stratum": per_stratum,
        "failure_reasons": reasons,
        "verdicts": verdicts,
        "passes": len(lat) // len(items),
        "elapsed_s": loop["elapsed"],
        "ops_per_s": len(lat) / loop["elapsed"],
        "peak_rss_mb": loop["peak_rss_mb"],
        "latencies_ms": [round(x * 1e3, 6) for x in lat],
    }


# --- traced run ---------------------------------------------------------------

def _trace_subset(wl, items, pass_order) -> list[int]:
    if wl.trace_per_stratum is None:
        return list(pass_order)
    taken: dict[str, int] = {}
    subset = []
    for i in pass_order:
        s = items[i].stratum
        if taken.get(s, 0) < wl.trace_per_stratum:
            taken[s] = taken.get(s, 0) + 1
            subset.append(i)
    return subset


def _cli_in_process(inv) -> tuple[int, bytes]:
    """The CLI op without the child process, so its layers can be traced."""
    import hazardsignal.cli  # noqa: PLC0415 - the CLI workers never import it

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = hazardsignal.cli.main([inv.command, str(ROOT / inv.scenario)])
    return code, buf.getvalue().encode("utf-8")


def _interpreter_ms() -> float:
    """Median wall time of a bare `python -c pass`."""
    out = []
    for _ in range(STARTUP_SAMPLES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=child_env(), check=True)
        out.append((perf_counter() - t0) * 1e3)
    return statistics.median(out)


def _import_ms() -> float:
    """Median in-child time of a fresh `import hazardsignal`."""
    code = ("import time; t = time.perf_counter(); import hazardsignal; "
            "print((time.perf_counter() - t) * 1e3)")
    samples = []
    for _ in range(STARTUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              check=True, stdout=subprocess.PIPE, text=True)
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def _numpy_import_ms() -> float:
    """Median cumulative `numpy` import time from `python -X importtime`;
    0 if the package no longer imports numpy."""
    samples = []
    for _ in range(STARTUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import hazardsignal"],
            env=child_env(), check=True, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        for line in proc.stderr.splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] == "numpy":
                samples.append(int(fields[1]) / 1e3)
    return statistics.median(samples) if samples else 0.0


def trace(wl, items, pass_order, seed: int) -> dict:
    import hazardsignal.cli  # noqa: F401, PLC0415 - bound before the wrappers go in
    import tracing  # noqa: PLC0415

    subset = _trace_subset(wl, items, pass_order)
    is_cli = wl is clicases.WORKLOAD
    op = _cli_in_process if is_cli else wl.op

    base = []
    sub_ms = {sub: 0.0 for sub in clicases.SUBCOMMANDS}
    stdout_bytes = 0
    for rep in range(UNTRACED_PASSES):
        t0 = perf_counter()
        for i in subset:
            s0 = perf_counter()
            out = op(items[i])
            if is_cli and rep == 0:
                sub_ms[items[i].command] += (perf_counter() - s0) * 1e3
                stdout_bytes += len(out[1])
        base.append(perf_counter() - t0)

    tracer = tracing.Tracer()
    tracer.install()
    outs = []
    try:
        t0 = perf_counter()
        for n, i in enumerate(subset):
            tracer.op = n
            outs.append(op(items[i]))
        traced = perf_counter() - t0
    finally:
        tracer.uninstall()

    failed = sum(wl.check(items[i], out) is not None for i, out in zip(subset, outs))
    metrics = tracer.metrics()
    # oracle rows and CLI output exist only on the workloads that produce
    # them; elsewhere they count 0, like any layer the workload never calls
    verdicts = [out[0] for out in outs] if wl.name.startswith("oracle") else []
    metrics["oracle.agree_rows"] = verdicts.count("agree")
    metrics["oracle.empty_rows"] = verdicts.count("empty")
    metrics["cli.interpreter_ms"] = _interpreter_ms()
    metrics["cli.import_ms"] = _import_ms()
    metrics["cli.numpy_import_ms"] = _numpy_import_ms()
    metrics["cli.stdout_bytes"] = stdout_bytes
    for sub, ms in sub_ms.items():
        metrics[f"cli.main.{sub}.ms"] = ms
    untraced = statistics.median(base)
    metrics["trace.ops"] = len(subset)
    metrics["trace.spans"] = len(tracer.spans)
    metrics["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0

    SPAN_DIR.mkdir(exist_ok=True)
    tracer.write_spans(SPAN_DIR / f"spans_{wl.name}_{seed}.csv")
    return {"layers": metrics, "absent": tracer.absent, "attempted": len(subset),
            "failed": failed, "untraced_s": untraced, "traced_s": traced}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("run", "trace"), required=True)
    parser.add_argument("--share", type=int, default=0)
    parser.add_argument("--shares", type=int, default=1)
    args = parser.parse_args()

    if args.workload == clicases.WORKLOAD.name and args.mode == "run":
        wl = clicases.WORKLOAD  # without numpy: see spec.py
    else:
        import workloads  # noqa: PLC0415

        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}")
        wl = workloads.WORKLOADS[args.workload]
    items = wl.pool(args.seed, args.share, args.shares)
    pass_order = order(args.seed, len(items), args.share)
    for item in items[: wl.warmup]:
        wl.op(item)
    print("READY", flush=True)
    if args.mode == "run":
        result = run(wl, items, pass_order, args.seconds)
    else:
        result = trace(wl, items, pass_order, args.seed)
    result["pool"] = len(items)
    result["strata"] = strata_counts(items)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
