"""Tests of the benchmark itself: tiny end-to-end rounds and planted faults.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import checks
import layers
import measure
import run
import workloads

PROGRAM = run.load_program()
pytestmark = pytest.mark.skipif(PROGRAM is None, reason="no swarmport source under src/")

TINY = {
    "fleet_crossing": [workloads.Case("crossing-14", workloads.crossing_document(14))],
    "lossy_default": [workloads.Case("radio-3", workloads.lossy_document(), radio_seed=3)],
    "depot_31": [workloads.Case("depot-tiny", workloads.depot_document(0, nodes=11, vehicles=2))],
}


def tiny_round(workload: str, work_dir, table=None) -> run.Round:
    runner = measure.Runner(*PROGRAM, str(work_dir))
    return run.Round(runner, TINY[workload], table)


def run_once(round_: run.Round, check: bool = True) -> measure.RoundStats:
    round_.runner.probe.install()
    try:
        return round_.run(check=check)
    finally:
        round_.runner.probe.uninstall()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_workload_runs_end_to_end_at_tiny_size(workload, tmp_path):
    round_ = tiny_round(workload, tmp_path)
    stats = [run_once(round_), run_once(round_, check=False)]
    assert round_.problems == []
    assert (round_.attempted, round_.failed) == (2, 0)
    metrics = measure.end_to_end(stats, peak_rss_kb=1024)
    assert all(value > 0 for value, _ in metrics.values()), metrics
    assert stats[0].makespan_ticks == stats[1].makespan_ticks


def test_rounds_repeat_their_digests_and_a_mismatch_is_reported(tmp_path):
    round_ = tiny_round("fleet_crossing", tmp_path)
    run_once(round_)
    first = dict(round_.digests)
    run_once(round_, check=False)
    assert round_.digests == first
    wrong = tiny_round("fleet_crossing", tmp_path, table={"crossing-14": "0" * 64})
    run_once(wrong, check=False)
    assert any("digest" in p for p in wrong.problems)


def engine_sim(tmp_path):
    runner = measure.Runner(*PROGRAM, str(tmp_path))
    case = TINY["fleet_crossing"][0]
    runner.probe.install()
    try:
        return case.doc, runner.run(case, runner.prepare(case)).sim
    finally:
        runner.probe.uninstall()


def test_audit_rejects_an_overlapping_occupancy_row(tmp_path):
    doc, sim = engine_sim(tmp_path)
    assert checks.check_engine_run(doc, sim) == []
    occupancy = copy.deepcopy(sim.occupancy_trace)
    tick = len(occupancy) // 2
    occupancy[tick][1] = occupancy[tick][0]
    problems = checks.audit_occupancy(occupancy, sim.pose_trace, doc["terrain"]["spacing_m"])
    assert any(f"tick {tick}" in p for p in problems)


def test_retrace_check_rejects_a_reordered_retrace(tmp_path):
    doc, sim = engine_sim(tmp_path)
    homes = {v["vehicle_id"]: tuple(v["home_node"]) for v in doc["vehicles"]}
    trace = sim.job_traces[0]
    assert len(trace.retraced) >= 3
    swapped = list(trace.retraced)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    bad = SimpleNamespace(**{**vars(trace), "retraced": tuple(swapped)})
    assert checks.check_retrace([trace], homes, 0.25) == []
    assert checks.check_retrace([bad], homes, 0.25) != []


def test_makespan_bound_is_below_every_makespan_and_rejects_a_short_one(tmp_path):
    doc, sim = engine_sim(tmp_path)
    bound = checks.makespan_lower_bound(doc)
    assert 0 < bound <= sim.last_complete_tick
    sim.last_complete_tick = bound - 1
    assert any("kinematic bound" in p for p in checks.check_engine_run(doc, sim))


def test_artifact_checks_reject_a_flipped_capture_byte(tmp_path):
    round_ = tiny_round("lossy_default", tmp_path / "run")
    run_once(round_)
    assert round_.problems == []
    out = tmp_path / "run" / "radio-3"
    capture = bytearray((out / "capture.bin").read_bytes())
    records, problems = checks.parse_capture(bytes(capture))
    assert problems == [] and records
    capture[5 + 5] ^= 0x01  # first payload byte of the first frame
    records, problems = checks.parse_capture(bytes(capture))
    assert any("CRC mismatch" in p for p in problems)


def test_artifact_checks_reject_a_foreign_telemetry_row_and_a_skipped_scan_line(tmp_path):
    round_ = tiny_round("lossy_default", tmp_path / "run")
    run_once(round_)
    out = tmp_path / "run" / "radio-3"
    records, _ = checks.parse_capture((out / "capture.bin").read_bytes())
    rows = (out / "telemetry.csv").read_text().splitlines()
    assert checks.check_telemetry_rows(rows, records) == []
    fields = rows[1].split(",")
    fields[2] = "9.99999"
    assert checks.check_telemetry_rows([rows[0], ",".join(fields)], records) != []
    lines = (out / "scan_stream.txt").read_text().splitlines()
    assert checks.check_scan_stream(lines, len(lines), 1.0) == []
    assert checks.check_scan_stream(lines[:5] + lines[6:] + lines[-1:], len(lines), 1.0) != []


def test_tracer_reports_a_missing_target_and_keeps_tracing(tmp_path):
    targets = layers.TARGETS + (("rfnet.bitwise_crc", "rfnet", "no_such_function"),)
    tracer = layers.Tracer(targets=targets)
    original_tick = PROGRAM[0].Simulation.tick
    tracer.install()
    try:
        run_once(tiny_round("fleet_crossing", tmp_path))
    finally:
        tracer.uninstall()
    assert PROGRAM[0].Simulation.tick is original_tick
    assert tracer.missing == ["rfnet.bitwise_crc (rfnet.no_such_function)"]
    metrics = tracer.metrics()
    assert metrics["sim.validate_scenario.calls"][0] >= 1
    assert metrics["vehicle.step.calls"][0] > 0 and metrics["sim.tick.self_s"][0] > 0


def test_spans_nest_inside_their_parents(tmp_path):
    tracer = layers.Tracer()
    tracer.install()
    try:
        run_once(tiny_round("lossy_default", tmp_path))
    finally:
        tracer.uninstall()
    spans = list(zip(tracer.span_name, tracer.span_start, tracer.span_end, tracer.span_parent))
    assert len(spans) == min(tracer.span_count, layers.SPAN_CAP)
    names = tracer.names
    for name, start, end, parent in spans:
        assert start <= end
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end
    assert {names[n] for n, *_ in spans} >= {"cli.main", "cli.load_scenario", "sim.tick", "rfnet.crc"}
    saved = tmp_path / "spans.npz"
    tracer.save_spans(str(saved))
    assert saved.stat().st_size > 0


def test_traced_run_reports_layers_and_its_own_overhead(tmp_path):
    round_ = tiny_round("lossy_default", tmp_path)
    metrics = run.traced_metrics(round_, seconds=0.0, spans_path=str(tmp_path / "s.npz"))
    assert round_.problems == []
    names = {m for m, *_ in layers.METRICS} | {"trace.wall_s", "trace.overhead_s", "trace.missing_targets"}
    assert set(metrics) == names
    assert metrics["trace.wall_s"][0] > 0 and metrics["trace.missing_targets"][0] == 0
    assert metrics["rfnet.crc.calls"][0] > 0 and metrics["cli.load_scenario_s"][0] > 0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lossy_default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
