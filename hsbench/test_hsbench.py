"""Structure and correctness tests of the benchmark itself; no timing asserts.

    PYTHONPATH=src python -m pytest -q hsbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hazardsignal as hs  # noqa: E402

import clicases  # noqa: E402
import generator  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _fingerprint(items):
    return [
        (i.stratum, i.beta, i.y, i.r, hs.format_curve(i.hazard), hs.format_curve(i.reach))
        for i in items
    ]


# --- BENCHMARK.json and metric names ------------------------------------------

def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS
    listed = {name for name, w in workloads.WORKLOADS.items() if w.listed}
    assert {w["name"] for w in spec["workloads"]} == listed
    assert spec["command"][1] == "hsbench/run.py" and spec["paths"] == ["hsbench"]


def test_traced_pass_reports_every_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "SPAN_DIR", tmp_path)
    monkeypatch.setattr(worker, "STARTUP_SAMPLES", 1)
    wl = workloads.WORKLOADS["design_sweep"]
    items = generator.design_pool(2)
    res = worker.trace(dataclasses.replace(wl, trace_per_stratum=1), items,
                       spec.order(2, len(items)), 2)
    assert set(res["layers"]) == set(tracing.LAYER_METRICS)
    assert res["absent"] == []
    ops = res["layers"]["trace.ops"]
    assert ops == len(generator.POOLS["design"]["cells"])
    assert res["layers"]["design.sweep_beta.count"] == 2 * ops  # direct and inside social
    assert res["layers"]["model.SignalingGame.count"] >= 103 * ops
    # every metric is a number; layers design_sweep never calls count 0
    assert all(isinstance(v, (int, float)) for v in res["layers"].values())
    for name in ("oracle.agree_rows", "oracle.epsilon_equilibria.count",
                 "cli.main.count", "cli.stdout_bytes", "cli.main.solve.ms"):
        assert res["layers"][name] == 0
    assert res["layers"]["cli.import_ms"] > 0
    spans = (tmp_path / "spans_design_sweep_2.csv").read_text().splitlines()
    assert len(spans) == res["layers"]["trace.spans"] + 1


def test_tracer_restores_the_package_and_counts_per_region():
    game = generator.point_pool(1)[0].game()
    before = hs.design.solve_equilibrium
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert hs.design.solve_equilibrium is not before
        region = hs.solve_equilibrium(game).region.value
    finally:
        tracer.uninstall()
    assert hs.design.solve_equilibrium is before
    metrics = tracer.metrics()
    assert metrics[f"equilibrium.solve_equilibrium.{region}.count"] == 1
    assert metrics["equilibrium.classify_region.count"] == 1


def test_missing_public_name_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "FUNCTIONS", tracing.FUNCTIONS + (
        ("design.gone", "hazardsignal.design", "no_such_function"),))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["design.gone"]
    metrics = tracer.metrics()
    assert metrics["design.gone.count"] == 0 and metrics["design.gone.self_ms"] == 0


# --- generator ------------------------------------------------------------------

@pytest.mark.parametrize("pool", [generator.design_pool, generator.point_pool,
                                  generator.oracle_well_pool, generator.oracle_wellcond_pool,
                                  generator.oracle_extreme_pool])
def test_generator_is_deterministic_per_seed(pool):
    assert _fingerprint(pool(7)) == _fingerprint(pool(7))
    assert _fingerprint(pool(7)) != _fingerprint(pool(8))


@pytest.mark.parametrize("name", ["design_sweep", "oracle_check", "cli_scenarios"])
def test_shares_split_the_pool(name):
    pool = workloads.WORKLOADS[name].pool
    whole = pool(5)
    shares = [pool(5, k, 4) for k in range(4)]
    fingerprint = _fingerprint if name != "cli_scenarios" else (lambda items: items)
    assert sorted(map(repr, fingerprint(whole))) == sorted(
        repr(x) for share in shares for x in fingerprint(share))
    assert {len(share) for share in shares} == {len(whole) // 4}


def test_generator_fills_every_stratum():
    design = spec.strata_counts(generator.design_pool(3))
    assert design == {f"well:{cell}": n for cell, n in generator.POOLS["design"]["cells"].items()}
    point = generator.point_pool(3)
    for item in point:
        assert item.stratum == f"well:{item.family}:{item.region}"
        assert hs.classify_region(item.game()).value == item.region
    counts = spec.strata_counts(point)
    assert len(counts) == 14  # power hazards cannot be NCVC
    for stratum, n in counts.items():
        region = stratum.rsplit(":", 1)[1]
        assert n == generator.POOLS["point"]["per_weight"] * generator.REGION_WEIGHTS[region]
    for item in generator.design_pool(3):
        assert generator._sweep_class(item.hazard, item.reach, item.y, item.r) in item.stratum


# --- output checks ----------------------------------------------------------------

def test_design_check_rejects_wrong_results():
    item = next(i for i in generator.design_pool(1) if ":refine:" in i.stratum)
    records, social, accidents = workloads.design_op(item)
    assert workloads.design_check(item, (records, social, accidents)) is None
    worse = dataclasses.replace(social, value_at_star=social.value_at_star + 1e-6)
    assert workloads.design_check(item, (records, worse, accidents)) is not None
    step = -0.01 if social.beta_star > 0.5 else 0.01
    off = dataclasses.replace(social, beta_star=social.beta_star + step)
    assert workloads.design_check(item, (records, off, accidents)) is not None
    p0, p1 = accidents.endpoint_comparison
    flipped = dataclasses.replace(accidents, beta_star=1.0 - accidents.beta_star,
                                  value_at_star=max(p0, p1))
    if p0 != p1:
        assert workloads.design_check(item, (records, social, flipped)) is not None
    dip = list(records)
    mid = len(dip) // 2
    dip[mid] = dataclasses.replace(dip[mid], P=-1.0)
    assert workloads.design_check(item, (dip, social, accidents)) is not None


def test_point_check_rejects_a_wrong_profile():
    item = next(i for i in generator.point_pool(1) if i.region == "NCVC")
    rep = workloads.point_op(item)
    assert workloads.point_check(item, rep) is None
    wrong = dataclasses.replace(rep, x_ne=hs.BehaviorProfile(1.0 - item.y, item.y, 0.0))
    assert workloads.point_check(item, wrong) is not None


def test_oracle_check_accepts_only_agreement():
    item = generator.oracle_well_pool(1)[0]
    out = workloads.oracle_op(item)
    assert out[0] == "agree" and workloads.oracle_check(item, out) is None
    assert workloads.oracle_check(item, ("empty", 0)) is not None
    assert workloads.oracle_check(item, ("disagree", 2)) is not None


def test_cli_check_rejects_wrong_exit_or_output():
    inv = clicases.Invocation("solve", "scenarios/zero_signal_optimum.scn")
    code, stdout = clicases.cli_op(inv)
    assert clicases.cli_check(inv, (code, stdout)) is None
    assert clicases.cli_check(inv, (3, stdout)) is not None
    assert clicases.cli_check(inv, (code, stdout + b"\n")) is not None
    sweep_solve = clicases.Invocation("solve", "scenarios/partial_adoption_backfire.scn")
    assert clicases.cli_check(sweep_solve, clicases.cli_op(sweep_solve)) is None


def test_known_oracle_failures_stay_in_the_oracle_check_mix():
    items = workloads.WORKLOADS["oracle_check"].pool(1)
    assert any(i.kind == "extreme" and i.family == "power" for i in items)
    slope = generator.MIN_ORACLE_TABLE_SLOPE
    assert any(generator._flattest(i.hazard) < slope for i in items)
    wellcond = workloads.WORKLOADS["oracle_wellcond"].pool(1)
    assert not any(i.kind == "extreme" for i in wellcond)
    assert all(generator._flattest(i.hazard) >= slope for i in wellcond)


# --- the runner ------------------------------------------------------------------

def test_weighted_rank_counts_samples_beyond():
    values = [(float(i), 1.0) for i in range(1, 101)]
    assert run._weighted_rank(values, 90.0) == (90.0, 10)
    assert run._weighted_rank(values, 50.0) == (50.0, 50)
    # a share that ran twice as many passes weighs half per sample
    twice = [(1.0, 0.5), (1.0, 0.5), (2.0, 0.5), (2.0, 0.5), (3.0, 1.0), (4.0, 1.0)]
    assert run._weighted_rank(twice, 50.0) == (2.0, 2)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "hsbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "hsbench/run.py", "--workload", "point_solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
