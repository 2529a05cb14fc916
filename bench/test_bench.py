"""Tests of the benchmark itself; the default pytest run (testpaths = tests) skips them.

    python3 -m pytest -q bench

Covers:
  - every named metric appears for every workload, traced and untraced
  - per-step call counts of the traced simulate workloads
  - a corrupted output is counted as a failure
  - the seed picks the start state, and the same seed reproduces it
  - the stored goldens hold at the presets' own start states
  - tracer self times, the tail percentile and the compare mode
"""
import dataclasses
import hashlib
import json
import math
import os
import sys

import pytest

import run
import tracing
import workloads

sys.path.insert(0, str(run.ROOT / "src"))
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SIMULATE = [n for n, w in workloads.WORKLOADS.items() if w.kind == "simulate"]
SHORT = 0.2  # simulated seconds per operation in the quick tests


@pytest.fixture
def short_horizon(monkeypatch):
    for name in SIMULATE:
        w = workloads.WORKLOADS[name]
        monkeypatch.setitem(workloads.WORKLOADS, name, dataclasses.replace(w, t_end=SHORT))


def bench_result(capsys, workload, trace, seed=1):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_for_every_workload(short_horizon, capsys, workload, trace):
    code, record, result = bench_result(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1 + run.MIN_TIMED_OPS
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"])
        if not trace:
            assert value["value"] > 0
    assert record["error_rate"] == 0.0
    assert {"nproc", "cpu_model", "python", "numpy", "git_sha", "seed", "loadavg"} <= set(record["env"])
    assert not (run.ROOT / ".bench_work" / f"{workload}-1-{os.getpid()}").exists()


@pytest.mark.parametrize("workload", SIMULATE)
def test_traced_call_counts(short_horizon, capsys, workload):
    _, _, result = bench_result(capsys, workload, 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    steps = round(SHORT / 1e-3)
    assert m["controller.control_terms.stage_calls_per_step"] == 4
    assert m["controller.control_terms.record_calls_per_row"] == 1
    assert m["controller.control_terms.calls_per_step"] == pytest.approx(5 + 1 / steps)
    assert m["model.open_loop_rhs_flat.calls_per_step"] == 4
    if workload == "swing_nominal":
        assert m["regressor.term_evals_per_step"] == 0
        assert m["adaptive.DisturbanceSpec.value.calls_per_step"] == 0
    else:
        # 3 terms at each of 4 stages, plus d and d_hat of the recorded row
        assert m["regressor.term_evals_per_step"] == pytest.approx(18 + 6 / steps)
        assert m["adaptive.DisturbanceSpec.value.calls_per_step"] == pytest.approx(1 + 1 / steps)
    assert m["trace.overhead_ratio"] > 0


def test_spans_written(short_horizon, capsys, tmp_path):
    path = tmp_path / "spans.csv"
    assert run.main(["--workload", "swing_nominal", "--seed", "1", "--seconds", "0",
                     "--trace", "1", "--spans", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "name,start_ns,end_ns,parent"
    names = {line.split(",")[0] for line in lines[1:]}
    assert {"simulate.run", "simulate.step_rk4", "simulate.rhs",
            "controller.control_terms", "cli.write_trace_csv"} <= names


def test_raising_operation_is_counted(short_horizon, capsys, monkeypatch):
    operate, calls = workloads.operate, []

    def flaky(*args):
        calls.append(1)
        if len(calls) % 2 == 0:
            raise RuntimeError("injected")
        return operate(*args)

    monkeypatch.setattr(workloads, "operate", flaky)
    code, record, result = bench_result(capsys, "swing_nominal", 0)
    assert code == 1 and result["correct"] is False
    assert result["failed"] == len(calls) // 2 and result["attempted"] == len(calls)
    assert "RuntimeError: injected" in record["problems"]


def one_op(tmp_path, workload, seed=1):
    w = workloads.WORKLOADS[workload]
    _, _, mods, inp = workloads.set_up(str(run.ROOT / "presets" / w.preset), w, seed)
    return w, workloads.operate(mods, w, inp, str(tmp_path))


@pytest.mark.parametrize("workload", SIMULATE)
def test_corrupted_simulation_is_counted(short_horizon, tmp_path, workload):
    w, r = one_op(tmp_path, workload)
    assert workloads.check(w, 1, r, r.digest) == []

    def bad(**changes):
        summary = {**r.summary, **changes.pop("summary", {})}
        return workloads.check(w, 1, dataclasses.replace(r, summary=summary, **changes),
                               r.digest)

    assert bad(summary={"status": "region_exit"})
    assert bad(summary={w.slope_key: 1e-6})
    assert bad(summary={"t_final": SHORT / 2})
    assert bad(spot_max=1e-6)
    assert bad(svg_bytes=r.svg_bytes[:-1] + [-1])
    data = bytearray((tmp_path / "trace.csv").read_bytes())
    data[len(data) // 2] ^= 1
    assert bad(digest=hashlib.sha256(data).hexdigest())

    outcome = run.Outcome(w, 1)
    outcome.check(r)
    outcome.check(dataclasses.replace(r, summary={**r.summary, w.slope_key: 1.0}))
    assert (outcome.attempted, outcome.failed) == (2, 1)
    assert outcome.problems


def test_corrupted_verify_is_counted(tmp_path):
    w, r = one_op(tmp_path, "verify_default")
    assert len(r.checks) == 7
    assert workloads.check(w, 1, r, r.digest) == []
    failed = [(name, name != "region_rho") for name, _ in r.checks]
    assert workloads.check(w, 1, dataclasses.replace(r, checks=failed), r.digest)
    assert workloads.check(w, 1, dataclasses.replace(r, checks=r.checks[:6]), r.digest)
    assert workloads.check(w, 1, r, "0" * 64)


@pytest.mark.parametrize("workload", SIMULATE)
def test_golden_at_preset_start_state(tmp_path, workload):
    w, r = one_op(tmp_path, workload, seed=0)
    assert workloads.check(w, 0, r, None) == []
    off = {**r.summary, "final_q_inf": r.summary["final_q_inf"] + 1e-3}
    assert workloads.check(w, 0, dataclasses.replace(r, summary=off), None)


@pytest.mark.parametrize("workload", SIMULATE)
def test_seed_picks_start_state(workload):
    w = workloads.WORKLOADS[workload]
    preset_q0 = (0.25, 0.5)
    assert workloads.start_state(w, 0, preset_q0) == preset_q0
    states = [workloads.start_state(w, seed, preset_q0) for seed in range(1, 6)]
    assert len(set(states)) == len(states)
    assert states == [workloads.start_state(w, seed, preset_q0) for seed in range(1, 6)]
    (q1_lo, q1_hi), (q2_lo, q2_hi) = w.box
    assert all(q1_lo <= q1 <= q1_hi and q2_lo <= q2 <= q2_hi for q1, q2 in states)


@pytest.mark.parametrize("workload", SIMULATE)
def test_start_box_inside_region(workload):
    w = workloads.WORKLOADS[workload]
    mods = workloads.import_ripsim()
    cfg = mods.config.load_config(str(run.ROOT / "presets" / w.preset))
    rho = mods.controller.region_rho(cfg.params, cfg.gains)
    assert max(abs(q2) for q2 in w.box[1]) < rho
    assert w.box[0][0] <= cfg.q0[0] <= w.box[0][1]
    assert w.box[1][0] <= cfg.q0[1] <= w.box[1][1]


@pytest.mark.xfail(strict=True, reason="closed_loop_equivalence exceeds its 1e-9 "
                   "tolerance near |q2| = 1.06 for most sampler seeds, so "
                   "verify_default keeps the preset's VerifyOptions.seed")
def test_verify_passes_on_other_sampler_seeds():
    mods = workloads.import_ripsim()
    cfg = mods.config.load_config(str(run.ROOT / "presets" / "default.yaml"))
    for seed in range(1, 4):
        assert mods.verify.closed_loop_equivalence(cfg.params, cfg.gains, 1000, seed).passed


def test_tracer_self_time():
    tracer = tracing.Tracer()
    child = tracer.wrap("child", lambda: sum(range(1000)))
    parent = tracer.wrap("parent", lambda: [child() for _ in range(3)])
    parent()
    spans = tracer.reduce()
    assert spans.count == {"parent": 1, "child": 3}
    assert spans.count_under[("child", "parent")] == 3
    assert spans.self_ns["parent"] == spans.total["parent"] - spans.total["child"]
    assert spans.self_ns["child"] == spans.total["child"]


def test_tail_percentile():
    assert run.tail(list(range(19))) is None
    t = run.tail([float(i) for i in range(100)])
    assert t["p"] == 90 and t["samples"] == 100
    assert sum(1 for v in range(100) if v > t["value"]) >= 10


def test_compare(tmp_path, capsys):
    def write(path, walls):
        with open(path, "w") as fh:
            for wall in walls:
                metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                           for m in SPEC["end_to_end"]}
                metrics["wall_s"]["value"] = wall
                fh.write(json.dumps({"workload": "swing_nominal", "trace": 0,
                                     "metrics": metrics}) + "\n")

    write(tmp_path / "a.jsonl", [1.0, 1.01, 0.99, 1.0])
    write(tmp_path / "b.jsonl", [2.0, 2.02, 1.98, 2.0])
    assert run.main(["--compare", str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]) == 0
    rows = {line.split()[1]: line.split()[-1]
            for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows["wall_s"] == "worse"
    assert rows["cpu_s"] == "same"
    assert run.main(["--compare", str(tmp_path / "b.jsonl"), str(tmp_path / "a.jsonl")]) == 0
    rows = {line.split()[1]: line.split()[-1]
            for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows["wall_s"] == "better"
