"""Byte-identity sweep: one digest per scenario over everything a run produces.

    python3 tools/identity.py --check    # exit 1 if any digest differs
    python3 tools/identity.py --record   # rewrite tools/identity_digests.json

Run it from the root of a checkout; it imports the program from `src/`,
the scenario generators from `perfbench/workloads.py` and the every-phase
reference run from `tests/engine_reference.py`.  Each case
runs in the engine with the pose/occupancy trace and the radio capture
on, and its digest covers the tick count, the job traces, both traces,
the hub's telemetry log, the radar frame lines, the sweep count, the
kept scans (number, direction and samples) and the capture.  A change
that means to alter any of these records the table again and says why.

Each engine case runs a second time with the trace off, and that run's
capture, frame lines, job traces, telemetry log, totals and scans must
equal the traced run's: the trace only watches.  That run also reads its
frame lines and scans at the end of every sweep, so the engine's views,
built when read, are checked read piecewise against the traced run's,
read once; and there the radar index the engine keeps, re-placing a
vehicle as its hop changes, must equal one rebuilt from every agent's
``hop`` through the grid, so a re-place the engine skipped shows.  It runs
a third time, traced, by a tick that runs every phase on every tick
(`every_phase_tick`), and that run's digest must equal the engine's: the
engine's tick runs only the phases that are due, and skipping the others
changes nothing.

The engine cases cover what the golden hashes and the benchmark digests
leave out: 30 crossing fleets, every depot layout, a 41-node depot with 16
vehicles, whose planned waits are long, the default scenario at two
loss rates, two latencies and three radio seeds, a crossing fleet at
dt 0.01 with latency, a depot with a beam half-width, two fleets whose
vehicles differ in their `VehicleParams`, and four radar cases: a depot
whose range ends 1 m from the sensor, a depot whose sensor sits on a
vehicle's home, a crossing fleet whose 7-degree sweep leaves a gap before
360 under a 15-degree beam, and a depot whose vehicles differ in body
radius; and a two-vehicle run at dt 0.001, whose spin-ups run past their
capped table onto the live wheel loop, with stock vehicles and with
vehicles that differ in their `VehicleParams`.  61 engine cases.

Six more cases run `swarmport scan` (`cli.cmd_scan`) and digest its
`scan_stream.txt` and `scan.svg`: the default scenario and the five
sensor variants above (beam, range, origin on a home, 7-degree step,
mixed radii).  67 cases in all.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from array import array
from itertools import chain, islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).resolve().parent / "identity_digests.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

from engine_reference import every_phase_run  # noqa: E402
from swarmport.cli import cmd_scan  # noqa: E402
from swarmport.hub import TelemetryRecord  # noqa: E402
from swarmport.radar import HopIndex  # noqa: E402
from swarmport.sim import (  # noqa: E402
    MediumConfig,
    Simulation,
    default_scenario,
    scenario_from_dict,
)
from workloads import crossing_document, depot_document  # noqa: E402

TRACE_CHUNK = 4096  # trace rows hashed per buffer

# The engine cases whose sensor the scan cases also sweep.
SCAN_VARIANTS = (
    "depot-2-beam3", "depot-4-range1", "depot-1-origin-on-home",
    "crossing-5-step7-beam15", "depot-3-radii",
)
# Per-vehicle overrides for the mixed fleets, assigned in vehicle order.
MIXED_PARAMS = (
    {"cruise_speed_m_s": 0.15},
    {"wheel_radius_m": 0.04},
    {"track_m": 0.3},
    {"motor_time_constant_s": 0.3},
    {"motor_gain": 1.5},
    {"cruise_speed_m_s": 0.08, "wheel_radius_m": 0.06, "track_m": 0.4,
     "motor_time_constant_s": 0.15, "motor_gain": 0.8},
    {},
)
# Body radii for the mixed-radius fleet, assigned in vehicle order.
MIXED_RADII = (0.05, 0.2, 0.12, 0.45, 0.3)
# Two vehicles on a 5 x 5 node course at dt 0.001.
CAPPED_TAIL = {
    "terrain": {"width_m": 1.0, "height_m": 1.0, "spacing_m": 0.25, "blocked": []},
    "sensor": {"origin": [0.5, 0.5], "max_range_m": 2.0},
    "vehicles": [{"vehicle_id": 0, "home_node": [0, 0]}, {"vehicle_id": 1, "home_node": [0, 4]}],
    "jobs": [
        {"job_id": 0, "pickup_node": [4, 0], "destination_node": [4, 3]},
        {"job_id": 1, "pickup_node": [1, 4], "destination_node": [1, 1]},
    ],
    "medium": {"loss_probability": 0.0},
    "sim": {"dt_s": 0.001, "max_ticks": 400_000, "telemetry_interval": 100},
}


def _with(doc: dict, section: str, **values) -> dict:
    doc[section] = {**doc[section], **values}
    return doc


def _mixed(doc: dict) -> dict:
    for i, vehicle in enumerate(doc["vehicles"]):
        vehicle["params"] = dict(MIXED_PARAMS[i % len(MIXED_PARAMS)])
    return doc


def _radii(doc: dict) -> dict:
    for i, vehicle in enumerate(doc["vehicles"]):
        vehicle["params"] = {"body_radius_m": MIXED_RADII[i % len(MIXED_RADII)]}
    return doc


def _default(loss: float, latency: int, seed: int):
    return dataclasses.replace(default_scenario(), medium=MediumConfig(loss, latency, seed))


def cases() -> dict:
    """Case name -> a function building its scenario."""
    out = {}
    for seed in range(30):
        out[f"crossing-{seed}"] = lambda s=seed: scenario_from_dict(crossing_document(s))
    for layout in range(8):
        out[f"depot-{layout}"] = lambda n=layout: scenario_from_dict(depot_document(n))
    out["depot-1-41x16"] = lambda: scenario_from_dict(depot_document(1, 41, 16))
    for loss in (0.0, 0.3):
        for latency in (0, 3):
            for seed in range(3):
                out[f"default-loss{loss}-latency{latency}-seed{seed}"] = (
                    lambda a=loss, b=latency, c=seed: _default(a, b, c))
    out["crossing-7-dt0.01-latency3"] = lambda: scenario_from_dict(_with(
        _with(crossing_document(7), "sim", dt_s=0.01), "medium", latency_ticks=3, loss_probability=0.1))
    out["depot-2-beam3"] = lambda: scenario_from_dict(
        _with(depot_document(2), "sensor", beam_halfwidth_deg=3.0))
    out["crossing-0-mixed"] = lambda: scenario_from_dict(_mixed(crossing_document(0)))
    out["depot-5-mixed"] = lambda: scenario_from_dict(_mixed(depot_document(5)))
    out["depot-4-range1"] = lambda: scenario_from_dict(_with(depot_document(4), "sensor", max_range_m=1.0))
    # Vehicle 0's home is node (1, 0), so its disc covers the sensor there.
    out["depot-1-origin-on-home"] = lambda: scenario_from_dict(
        _with(depot_document(1), "sensor", origin=[0.25, 0.0]))
    out["crossing-5-step7-beam15"] = lambda: scenario_from_dict(
        _with(crossing_document(5), "sensor", step_deg=7.0, beam_halfwidth_deg=15.0))
    out["depot-3-radii"] = lambda: scenario_from_dict(_radii(depot_document(3)))
    # At dt 0.001 a spin-up outruns its capped table, so the drives finish
    # on the live wheel loop, each vehicle from its own last row.
    out["capped-tail-dt0.001"] = lambda: scenario_from_dict(CAPPED_TAIL)
    out["capped-tail-dt0.001-mixed"] = lambda: scenario_from_dict(_mixed(copy.deepcopy(CAPPED_TAIL)))
    return out


def scan_cases() -> dict:
    """Scan case name -> a function building its scenario."""
    engine = cases()
    return {"scan-default": default_scenario, **{f"scan-{name}": engine[name] for name in SCAN_VARIANTS}}


def _hash_rows(h, rows, typecode: str) -> None:
    it = iter(rows)
    while chunk := list(islice(it, TRACE_CHUNK)):
        h.update(array(typecode, chain.from_iterable(chain.from_iterable(chunk))).tobytes())


def _outputs(sim) -> list[bytes]:
    """What a run produced besides its traces, as the digest reads it."""
    capture = b"".join(
        tick.to_bytes(8, "big") + bytes([channel]) + len(frame).to_bytes(2, "big") + frame
        for tick, channel, frame in sim.medium.capture
    )
    jobs = [
        [t.vehicle_id, t.job_id, [list(n) for n in t.outbound], [list(n) for n in t.retraced],
         list(t.final_pose), list(t.home_position), t.complete_tick]
        for t in sim.job_traces
    ]
    log = [[getattr(rec, f) for f in TelemetryRecord._fields] for rec in sim.hub.log]
    totals = [sim.tick_count, sim.completed_jobs, sim.total_jobs, sim.last_complete_tick, sim.sweep_count]
    scans = [[n, scan.direction, scan.samples] for n, scan in sim.renders]
    return [capture, "".join(sim.frame_lines).encode(), json.dumps([jobs, log, totals, scans]).encode()]


def rebuilt_masks(sim) -> list[int]:
    """The masks of a fresh `HopIndex` with each vehicle placed on its
    agent's (node, edge end), at the positions the grid gives those nodes."""
    index = HopIndex(sim.sensor_cfg, [sv.agent.params.body_radius_m for sv in sim.fleet])
    for i, sv in enumerate(sim.fleet):
        index.place(i, *map(sim.grid.node_to_position, sv.agent.hop))
    return index.masks


def run_reading_sweeps(sim) -> bool:
    """`Simulation.run_loop`, reading the frame lines and the scans at the
    end of every sweep; returns whether the engine's radar index equalled
    `rebuilt_masks` at each of them."""
    n = sim.sensor_cfg.sweep_len
    kept = True
    while sim.tick_count < sim.scenario.sim.max_ticks:
        sim.tick()
        if sim.tick_count % n == 0:
            sim.frame_lines, sim.renders
            kept = kept and sim._hop_index.masks == rebuilt_masks(sim)
        if sim.all_done:
            break
    return kept


def _digest(sim) -> str:
    h = hashlib.sha256()
    _hash_rows(h, sim.pose_trace, "d")
    _hash_rows(h, sim.occupancy_trace, "q")
    for part in _outputs(sim):
        h.update(part)
    return h.hexdigest()


def run_digest(scenario) -> tuple[str, bool, bool, bool]:
    """The digest of a traced run of ``scenario``; whether a run with the
    trace off, read at every sweep end, produced the same outputs besides
    the traces; whether a traced run by `every_phase_tick`, stopped one
    tick past the engine's run, has the same digest; and whether the run with the trace off kept its radar index
    equal to a rebuilt one at every sweep end."""
    sim = Simulation(scenario, trace=True, capture=True)
    sim.run_loop()
    digest = _digest(sim)
    untraced = Simulation(scenario, capture=True)
    index_same = run_reading_sweeps(untraced)
    reference = every_phase_run(scenario, sim.tick_count + 1)
    return digest, _outputs(untraced) == _outputs(sim), _digest(reference) == digest, index_same


def scan_digest(scenario) -> str:
    """The digest of the two files `swarmport scan` writes for ``scenario``."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stderr(io.StringIO()):
            cmd_scan(scenario, out)
        for name in ("scan_stream.txt", "scan.svg"):
            data = Path(out, name).read_bytes()
            h.update(len(data).to_bytes(8, "big") + data)
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with the checked-in table")
    mode.add_argument("--record", action="store_true", help="rewrite the checked-in table")
    args = parser.parse_args(argv)

    table, untraced_differs, every_phase_differs, index_differs = {}, [], [], []
    for name, build in cases().items():
        table[name], untraced_same, every_phase_same, index_same = run_digest(build())
        if not untraced_same:
            untraced_differs.append(name)
        if not every_phase_same:
            every_phase_differs.append(name)
        if not index_same:
            index_differs.append(name)
    table.update((name, scan_digest(build())) for name, build in scan_cases().items())
    for name in untraced_differs:
        print(f"identity: {name}: the run with the trace off differs from the traced run", file=sys.stderr)
    for name in every_phase_differs:
        print(f"identity: {name}: the run with every phase on every tick differs", file=sys.stderr)
    for name in index_differs:
        print(f"identity: {name}: the kept radar index differs from one rebuilt at a sweep end", file=sys.stderr)
    if args.record and (untraced_differs or every_phase_differs or index_differs):
        return 1
    if args.record:
        TABLE.write_text(json.dumps(table, indent=1) + "\n", encoding="ascii")
        print(f"identity: wrote {len(table)} digests to {TABLE.relative_to(ROOT)}")
        return 0
    expected = json.loads(TABLE.read_text(encoding="ascii"))
    bad = sorted(set(table) | set(expected))
    bad = [name for name in bad if table.get(name) != expected.get(name)]
    for name in bad:
        print(f"identity: {name}: got {table.get(name)}, expected {expected.get(name)}", file=sys.stderr)
    print(f"identity: {len(table) - len(bad)} of {len(table)} cases match; "
          f"{len(untraced_differs)} differ with the trace off, "
          f"{len(every_phase_differs)} with every phase on every tick, "
          f"{len(index_differs)} in the kept radar index")
    return 1 if bad or untraced_differs or every_phase_differs or index_differs else 0


if __name__ == "__main__":
    sys.exit(main())
