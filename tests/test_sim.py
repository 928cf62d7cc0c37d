"""Scenario schema, tick loop wiring, determinism, artifacts."""

import copy
import functools
import importlib.util
import json
import math
import operator
import sys
from pathlib import Path

import pytest
from echo_reference import reference_echo_distance
from engine_reference import every_phase_run
from hypothesis import given, settings, strategies as st
from table_reference import holds_by_node
from test_acceptance import crossing_scenario, estimate_makespan_ticks

import swarmport.sim
from swarmport.errors import DecodeError, ScenarioInvalid
from swarmport.grid import GridMap, NodeId, Position
from swarmport.hub import Job, metrics
from swarmport.planner import INF_TICK
from swarmport.radar import Disc, SweepConfig, sweep_table
from swarmport.rfnet import MessageKind, Radio, assign_channel, decode
from swarmport.sim import (
    NOPATH_RETRY_TICKS,
    RENDER_EVERY_SWEEPS,
    MediumConfig,
    Scenario,
    SimConfig,
    Simulation,
    TerrainConfig,
    VehicleSpec,
    build_scenario_grid,
    default_scenario,
    hop_window_ticks,
    run,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)
from swarmport.vehicle import (
    AWAITING_ROUTE,
    IDLE,
    LOADED,
    RETRACING,
    TRANSIT,
    UNLOADING,
    Drive,
    VehicleParams,
    spin_table,
)


def _benchmark_workloads():
    """`perfbench/workloads.py`, loaded from its file under a name of its
    own, so that the benchmark's folder stays off `sys.path`.  Its
    dataclasses look their module up in `sys.modules`."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


depot_document = _benchmark_workloads().depot_document


def expected_hop(agent):
    """The (node, edge end) pair ``agent`` is on, by a rule of these tests:
    its current node, and the next node of its route while its motion is a
    `Drive`, else the current node again."""
    node = agent.current_node
    return node, agent._route[agent._leg_pos + 1] if isinstance(agent.motion, Drive) else node


def bounded(scenario):
    """``scenario`` with ``max_ticks`` at 10 times its C7 makespan estimate,
    which every run the tests make fits with room to spare, so a run left
    stuck by a fault stops there instead of at the scenario's own bound."""
    max_ticks = 10 * estimate_makespan_ticks(scenario)
    return replace_scenario(scenario, sim=replace_scenario(scenario.sim, max_ticks=max_ticks))


def replace_scenario(base, **kw):
    import dataclasses

    return dataclasses.replace(base, **kw)


def quick_scenario(**sim_kw):
    """One vehicle, one short job, coarse dt for fast loops."""
    return Scenario(
        terrain=TerrainConfig(),
        vehicles=(VehicleSpec(0, NodeId(0, 0)),),
        jobs=(Job(0, NodeId(2, 0), NodeId(4, 0)),),
        sim=SimConfig(dt_s=0.05, max_ticks=100_000, **sim_kw),
    )


# ------------------------------------------------------------- validation


def test_default_scenario_is_valid():
    validate_scenario(default_scenario())


def test_vehicle_count_cap():
    vehicles = tuple(VehicleSpec(i, NodeId(i % 9, i // 9)) for i in range(129))
    scenario = replace_scenario(default_scenario(), vehicles=vehicles, jobs=())
    with pytest.raises(ScenarioInvalid):
        validate_scenario(scenario)


def test_a_fleet_of_distinct_params_builds_each_spin_table_once():
    """Validation builds one table per distinct VehicleParams and each agent
    reads its table back: 40 misses, then 40 hits."""
    vehicles = tuple(
        VehicleSpec(i, NodeId(i % 9, i // 9), VehicleParams(cruise_speed_m_s=0.05 + 0.001 * i)) for i in range(40)
    )
    scenario = replace_scenario(default_scenario(), vehicles=vehicles, jobs=())
    spin_table.cache_clear()
    Simulation(scenario)
    info = spin_table.cache_info()
    assert (info.misses, info.hits) == (40, 40)


def test_duplicate_vehicle_ids_rejected():
    scenario = replace_scenario(
        default_scenario(),
        vehicles=(VehicleSpec(0, NodeId(0, 0)), VehicleSpec(0, NodeId(8, 0))),
    )
    with pytest.raises(ScenarioInvalid):
        validate_scenario(scenario)


def test_shared_home_rejected():
    scenario = replace_scenario(
        default_scenario(),
        vehicles=(VehicleSpec(0, NodeId(0, 0)), VehicleSpec(1, NodeId(0, 0))),
    )
    with pytest.raises(ScenarioInvalid):
        validate_scenario(scenario)


def test_home_on_blocked_node_rejected():
    scenario = replace_scenario(
        default_scenario(), vehicles=(VehicleSpec(0, NodeId(4, 4)), VehicleSpec(1, NodeId(8, 0)))
    )
    with pytest.raises(ScenarioInvalid):
        validate_scenario(scenario)


def test_job_on_blocked_node_rejected():
    scenario = replace_scenario(default_scenario(), jobs=(Job(0, NodeId(4, 4), NodeId(1, 1)),))
    with pytest.raises(ScenarioInvalid):
        validate_scenario(scenario)


def test_job_node_outside_grid_rejected():
    scenario = replace_scenario(default_scenario(), jobs=(Job(0, NodeId(9, 0), NodeId(1, 1)),))
    with pytest.raises(ScenarioInvalid):
        validate_scenario(scenario)


def test_duplicate_job_ids_rejected():
    scenario = replace_scenario(
        default_scenario(),
        jobs=(Job(0, NodeId(1, 2), NodeId(7, 2)), Job(0, NodeId(7, 6), NodeId(1, 6))),
    )
    with pytest.raises(ScenarioInvalid):
        validate_scenario(scenario)


def test_timestep_stability_guard():
    # default motor time constant 0.2 s caps dt at 0.1 s
    scenario = replace_scenario(default_scenario(), sim=SimConfig(dt_s=0.11))
    with pytest.raises(ScenarioInvalid):
        validate_scenario(scenario)
    with pytest.raises(ScenarioInvalid):
        validate_scenario(replace_scenario(default_scenario(), sim=SimConfig(dt_s=0.0)))
    validate_scenario(replace_scenario(default_scenario(), sim=SimConfig(dt_s=0.1)))


@pytest.mark.parametrize("label", ["width_m", "height_m"])
def test_terrain_beyond_telemetry_reach_rejected(label):
    # 70 m does not fit the u16 millimetre position fields
    extents = {"width_m": 2.0, "height_m": 2.0, label: 70.0}
    scenario = replace_scenario(
        default_scenario(),
        terrain=TerrainConfig(spacing_m=2.0, **extents),
        vehicles=(VehicleSpec(0, NodeId(0, 0)),),
        jobs=(),
    )
    with pytest.raises(ScenarioInvalid, match=f"terrain.{label}"):
        validate_scenario(scenario)


@pytest.mark.parametrize("label", ["width_m", "height_m"])
def test_node_index_beyond_destination_reach_rejected(label):
    """ASSIGN_DESTINATION carries each node index in 16 bits: at 2^-10 m
    spacing, 64 m makes index 65536, one past what fits, while 64 m less one
    spacing still fits."""
    spacing = 2.0 ** -10
    for extent, fits in ((64.0 - spacing, True), (64.0, False)):
        extents = {"width_m": spacing, "height_m": spacing, label: extent}
        scenario = replace_scenario(
            default_scenario(),
            terrain=TerrainConfig(spacing_m=spacing, **extents),
            vehicles=(VehicleSpec(0, NodeId(0, 0)),),
            jobs=(),
        )
        if fits:
            grid = validate_scenario(scenario)
            assert max(grid.nx, grid.ny) - 1 == 0xFFFF
        else:
            with pytest.raises(ScenarioInvalid, match=r"^terrain\.spacing_m: "):
                validate_scenario(scenario)


def test_grid_beyond_a_million_nodes_rejected():
    """1001 x 1001 nodes is refused before anything builds the grid's
    adjacency; 1000 x 1000 still validates."""
    for spacing, fits in ((2.0 / 999, True), (0.002, False)):
        data = scenario_to_dict(default_scenario())
        data["terrain"]["spacing_m"] = spacing
        data["jobs"] = []
        if fits:
            grid = validate_scenario(scenario_from_dict(data))
            assert grid.node_count == 1_000_000
            assert "adjacency" not in vars(grid)
        else:
            with pytest.raises(ScenarioInvalid, match=r"^terrain\.spacing_m: 0\.002 m makes a 1001x1001 grid"):
                scenario_from_dict(data)


def fast_vehicle_document(**params):
    """The default scenario on a 60 m terrain at 7.5 m spacing, both
    vehicles on ``params``, with telemetry every tick."""
    data = scenario_to_dict(default_scenario())
    data["terrain"].update(width_m=60.0, height_m=60.0, spacing_m=7.5)
    for v in data["vehicles"]:
        v["params"] = dict(params)
    data["sim"]["telemetry_interval"] = 1
    return data


def test_vehicle_faster_than_telemetry_can_encode_rejected():
    """The spin-up settles at 100 m/s, beyond the 65.535 m/s of the 16-bit
    speed field, which the run would first overflow at tick 21."""
    data = fast_vehicle_document(wheel_radius_m=1.0, motor_gain=20.0, cruise_speed_m_s=100.0)
    with pytest.raises(ScenarioInvalid, match=r"^vehicles\[0\]: peak drive speed "):
        scenario_from_dict(data)


def test_vehicle_just_under_the_telemetry_speed_limit_validates():
    params = VehicleParams(wheel_radius_m=1.0, motor_gain=13.1, cruise_speed_m_s=65.5)
    assert 65.4 < spin_table(params, 0.01).peak_speed_m_s <= 65.535
    data = fast_vehicle_document(wheel_radius_m=1.0, motor_gain=13.1, cruise_speed_m_s=65.5)
    validate_scenario(scenario_from_dict(data))


def test_max_ticks_beyond_the_capture_tick_field_rejected():
    """The capture stamps a frame with its tick as a u32: 2**32 ticks end at
    the last tick that fits, one more would not."""
    for max_ticks, fits in ((2**32, True), (2**32 + 1, False)):
        scenario = replace_scenario(default_scenario(), sim=SimConfig(max_ticks=max_ticks))
        if fits:
            validate_scenario(scenario)
        else:
            with pytest.raises(ScenarioInvalid, match=r"^sim\.max_ticks: 4294967297 exceeds .* u32 tick field"):
                validate_scenario(scenario)


def test_loss_probability_must_leave_headroom():
    scenario = replace_scenario(default_scenario(), medium=MediumConfig(loss_probability=1.0))
    with pytest.raises(ScenarioInvalid):
        validate_scenario(scenario)
    validate_scenario(
        replace_scenario(default_scenario(), medium=MediumConfig(loss_probability=0.99))
    )


def test_blocked_node_outside_grid_rejected():
    scenario = replace_scenario(default_scenario(), terrain=TerrainConfig(blocked=(NodeId(20, 0),)))
    with pytest.raises(ScenarioInvalid, match=r"^terrain\.blocked: node \(20, 0\) outside 9x9 grid$"):
        validate_scenario(scenario)


# ------------------------------------------------------------- dict schema


def test_scenario_round_trips_through_dict():
    scenario = default_scenario()
    assert scenario_from_dict(scenario_to_dict(scenario)) == scenario


def test_scenario_round_trips_through_json():
    scenario = quick_scenario()
    data = json.loads(json.dumps(scenario_to_dict(scenario)))
    assert scenario_from_dict(data) == scenario


def test_custom_params_round_trip():
    scenario = Scenario(
        vehicles=(VehicleSpec(0, NodeId(0, 0), params=VehicleParams(cruise_speed_m_s=0.2)),),
    )
    again = scenario_from_dict(scenario_to_dict(scenario))
    assert again.vehicles[0].params.cruise_speed_m_s == 0.2


def test_unknown_top_level_key_rejected():
    data = scenario_to_dict(default_scenario())
    data["extra"] = 1
    with pytest.raises(ScenarioInvalid):
        scenario_from_dict(data)


def test_unknown_nested_key_rejected():
    data = scenario_to_dict(default_scenario())
    data["terrain"]["warp"] = True
    with pytest.raises(ScenarioInvalid):
        scenario_from_dict(data)


def test_malformed_node_rejected():
    data = scenario_to_dict(default_scenario())
    data["vehicles"][0]["home_node"] = [1]
    with pytest.raises(ScenarioInvalid):
        scenario_from_dict(data)


def edited_default(path, value=None):
    """The default scenario document with the value at ``path`` replaced, or deleted if None."""
    data = scenario_to_dict(default_scenario())
    *parents, last = path
    target = data
    for key in parents:
        target = target[key]
    if value is None:
        del target[last]
    else:
        target[last] = value
    return data


@pytest.mark.parametrize(
    "data, field",
    [
        ({"terrain": 5}, "terrain"),
        ({"vehicles": 3}, "vehicles"),
        ({"vehicles": [5]}, "vehicles[0]"),
        (edited_default(("vehicles", 0, "params"), 5), "vehicles[0].params"),
        (edited_default(("terrain", "width_m"), "abc"), "terrain.width_m"),
        (edited_default(("sensor", "step_deg"), "x"), "sensor.step_deg"),
        (edited_default(("sensor", "origin"), ["a", 1]), "sensor.origin"),
        (edited_default(("sim", "dt_s"), "x"), "sim.dt_s"),
        (edited_default(("medium", "seed"), "x"), "medium.seed"),
        ({"medium": {"loss_probability": None}}, "medium.loss_probability"),
        (edited_default(("jobs", 0, "release_tick"), "x"), "jobs[0].release_tick"),
        (edited_default(("vehicles", 0, "vehicle_id")), "vehicles[0].vehicle_id"),
        (edited_default(("sensor", "step_deg"), 20), "sensor.step_deg"),
        (
            {"terrain": {"blocked": [[4, 4]]}, "vehicles": [{"vehicle_id": 5, "home_node": [4, 4]}]},
            "vehicles[0]: home_node (4, 4) is blocked",
        ),
        (
            {
                "terrain": {"blocked": [[4, 4]]},
                "jobs": [{"job_id": 7, "pickup_node": [4, 4], "destination_node": [1, 1]}],
            },
            "jobs[0].pickup_node: node (4, 4) is blocked",
        ),
        # json.load reads NaN and Infinity.
        (edited_default(("terrain", "width_m"), math.inf), "terrain.width_m: expected a finite number, got inf"),
        (edited_default(("terrain", "spacing_m"), math.nan), "terrain.spacing_m: expected a finite number, got nan"),
        (edited_default(("sim", "dt_s"), math.nan), "sim.dt_s: expected a finite number, got nan"),
        (edited_default(("sensor", "max_range_m"), math.nan), "sensor.max_range_m: expected a finite number, got nan"),
        (edited_default(("sensor", "origin"), [math.nan, 1.0]), "sensor.origin: expected a finite number, got nan"),
        (
            edited_default(("vehicles", 0, "params"), {"cruise_speed_m_s": math.nan}),
            "vehicles[0].params.cruise_speed_m_s: expected a finite number, got nan",
        ),
        (
            edited_default(("vehicles", 0, "params"), {"wheelbase_m": 0.36}),
            "vehicles[0].params: unknown field(s) wheelbase_m",
        ),
        # A millionth of a degree would need 360,000,000 sweep indices.
        (edited_default(("sensor", "step_deg"), 1e-6), "sensor.step_deg"),
    ],
)
def test_malformed_document_names_the_field(data, field):
    with pytest.raises(ScenarioInvalid) as info:
        scenario_from_dict(data)
    assert str(info.value).startswith(field)


def test_build_scenario_grid_applies_blocks():
    grid = build_scenario_grid(default_scenario())
    assert grid.is_blocked(NodeId(4, 4))
    assert (grid.nx, grid.ny) == (9, 9)


# ------------------------------------------------------------ hop windows


def test_hop_window_covers_turn_hop_and_margin():
    # quarter-turn arc + hop cruise + 1 s margin, at dt = 0.01
    assert hop_window_ticks(default_scenario()) == 900


def test_hop_window_scales_with_dt():
    scenario = replace_scenario(default_scenario(), sim=SimConfig(dt_s=0.05))
    assert hop_window_ticks(scenario) == 180


# -------------------------------------------------------------- tick loop


def test_empty_scenario_is_immediately_done():
    sim = Simulation(Scenario())
    assert sim.all_done
    sim.tick()
    assert sim.tick_count == 1


def test_radar_advances_one_step_per_tick():
    sim = Simulation(Scenario())
    for _ in range(360):
        sim.tick()
    assert sim.sweep_count == 1
    assert len(sim.frame_lines) == 360
    for _ in range(360):
        sim.tick()
    assert sim.sweep_count == 2


@pytest.mark.parametrize("step_deg, sweep_len", [(1.0, 360), (7.0, 51), (13.0, 27)])
def test_sweep_direction_alternates_with_boundary_repeat(step_deg, sweep_len):
    """The engine works the sweep out from the tick; it must point where a
    servo that keeps an index and a direction, and turns back at each end
    index after reading it, points."""
    sim = Simulation(Scenario(sensor=SweepConfig(step_deg=step_deg)))
    assert sim.sensor_cfg.sweep_len == sweep_len
    idx, direction, sweeps, samples = 0, 1, 0, 0
    kept = []
    for _ in range(21 * sweep_len + sweep_len // 2):
        sim.tick()
        assert sim.frame_lines[-1].split(",")[0] == str(round(idx * step_deg))
        samples += 1
        idx += direction
        if not 0 <= idx < sweep_len:
            sweeps += 1
            if sweeps == 1 or sweeps % RENDER_EVERY_SWEEPS == 0:
                kept.append((sweeps, direction, samples))
            samples = 0
            direction = -direction
            idx = 0 if direction > 0 else sweep_len - 1
        assert sim.sweep_count == sweeps
    assert sweeps == 21
    assert [(n, scan.direction, len(scan.samples)) for n, scan in sim.renders] == kept


def read_every_tick(scenario):
    """A run of ``scenario`` that reads `frame_lines` and `renders` after
    every tick, as the views they are: the same list objects each read."""
    sim = Simulation(scenario)
    while sim.tick_count < scenario.sim.max_ticks:
        sim.tick()
        lines, renders = sim.frame_lines, sim.renders
        assert lines is sim.frame_lines and renders is sim.renders
        assert len(lines) == sim.tick_count
        if sim.all_done:
            break
    return sim


@pytest.mark.parametrize(
    "sensor, sweep_len", [(SweepConfig(), 360), (SweepConfig(step_deg=7.0, beam_halfwidth_deg=15.0), 51)]
)
def test_radar_views_read_every_tick_equal_one_read_at_the_end(sensor, sweep_len):
    """The scan stream and the scans are built from the kept hits when read:
    reading them after every tick must give exactly what one read after
    the run gives.  A 7 degree step makes a 51-index sweep that stops
    short of 360 degrees."""
    assert sensor.sweep_len == sweep_len
    scenario = replace_scenario(crossing_scenario(3), sensor=sensor)
    stepped = read_every_tick(scenario)
    once = Simulation(scenario)
    once.run_loop()
    assert stepped.tick_count == once.tick_count
    assert stepped.frame_lines == once.frame_lines
    assert repr(stepped.renders) == repr(once.renders)
    assert len(once.renders) > 1 and any(not line.endswith(",0.\n") for line in once.frame_lines)


def test_radar_views_of_a_run_cut_mid_sweep():
    """A run that ``max_ticks`` stops mid-sweep streams one line per tick
    run and renders only the completed sweeps; reading again adds nothing."""
    scenario = replace_scenario(crossing_scenario(3), sim=SimConfig(dt_s=0.01, max_ticks=10 * 360 + 170))
    sim = Simulation(scenario)
    sim.run_loop()
    assert not sim.all_done and sim.tick_count == 10 * 360 + 170
    lines, renders = sim.frame_lines, sim.renders
    assert len(lines) == sim.tick_count
    assert [(n, scan.direction, len(scan.samples)) for n, scan in renders] == [(1, 1, 360), (10, -1, 360)]
    assert sim.frame_lines is lines and len(lines) == sim.tick_count
    assert sim.renders is renders and len(renders) == 2
    stepped = read_every_tick(scenario)
    assert stepped.frame_lines == lines and repr(stepped.renders) == repr(renders)


def test_telemetry_sampled_on_interval():
    scenario = replace_scenario(
        quick_scenario(), sim=SimConfig(dt_s=0.05, max_ticks=1000, telemetry_interval=7)
    )
    sim = Simulation(scenario)
    for _ in range(100):
        sim.tick()
    # frames go out every 7th tick and land in the hub log one tick later
    ticks = sorted({r.tick for r in sim.hub.log})
    assert ticks == [t + 1 for t in range(0, 99, 7)]


def test_quick_job_completes_and_returns_home():
    sim = Simulation(quick_scenario())
    sim.run_loop()
    assert sim.completed_jobs == 1
    assert sim.tick_count < sim.scenario.sim.max_ticks
    trace = sim.job_traces[0]
    assert trace.retraced == trace.outbound[::-1]
    home_x, home_y = trace.home_position
    fx, fy = trace.final_pose
    assert math.hypot(fx - home_x, fy - home_y) <= 0.025  # spacing / 10
    agent = sim.vehicles[0].agent
    assert agent.state == "IDLE"
    assert agent.current_node == NodeId(0, 0)


def test_outbound_trail_starts_at_home_and_ends_at_destination():
    sim = Simulation(quick_scenario())
    sim.run_loop()
    trace = sim.job_traces[0]
    assert trace.outbound[0] == NodeId(0, 0)
    assert NodeId(2, 0) in trace.outbound  # via pickup
    assert trace.outbound[-1] == NodeId(4, 0)


def test_second_job_trail_starts_at_home_and_drops_the_first_trip():
    sim = Simulation(one_vehicle_scenario())
    sim.run_loop()
    first, second = sim.job_traces
    assert (first.vehicle_id, first.job_id, second.vehicle_id, second.job_id) == (0, 0, 0, 1)
    trail = second.outbound
    # One walk from home to job 1's drop-off, one hop per step ...
    assert trail[0] == NodeId(0, 0) and trail.count(NodeId(0, 0)) == 1
    assert trail[-1] == NodeId(1, 6)
    assert all(abs(a.ix - b.ix) + abs(a.iy - b.iy) == 1 for a, b in zip(trail, trail[1:]))
    # ... that never passes job 0's pickup or drop-off, so no node of the first trip leaked in.
    assert not {NodeId(1, 2), NodeId(7, 2)} & set(trail)
    assert first.outbound[-1] == NodeId(7, 2)
    assert second.retraced == trail[::-1]


def test_same_seed_runs_identically():
    def signature():
        sim = Simulation(default_scenario(), capture=True)
        sim.run_loop()
        return (
            sim.tick_count,
            tuple(sim.frame_lines),
            tuple((r.tick, r.vehicle_id, r.x_m, r.y_m) for r in sim.hub.log),
            tuple(sim.medium.capture),
        )

    assert signature() == signature()


def test_default_scenario_completes_both_jobs():
    sim = Simulation(default_scenario(), trace=True)
    sim.run_loop()
    assert sim.completed_jobs == 2
    assert sim.last_complete_tick > 0
    # occupancy audit: no node shared by two vehicles on any tick
    for snapshot in sim.occupancy_trace:
        pairs = set()
        for frm, to in snapshot:
            assert frm not in pairs and to not in pairs
            pairs.add(frm)
            if to != frm:
                pairs.add(to)
    # metric audit: never closer than half a node pitch
    for poses in sim.pose_trace:
        for i in range(len(poses)):
            for j in range(i + 1, len(poses)):
                d = math.hypot(poses[i][0] - poses[j][0], poses[i][1] - poses[j][1])
                assert d >= 0.125


def test_fast_vehicles_complete_the_default_jobs():
    """Both vehicles step 75 mm a tick at cruise, more than the 50 mm
    arrival window: every hop still ends on its node and no pose leaves
    the terrain."""
    doc = scenario_to_dict(default_scenario())
    for vehicle in doc["vehicles"]:
        vehicle["params"] = {"wheel_radius_m": 0.3, "cruise_speed_m_s": 1.5}
    doc["sim"]["dt_s"] = 0.05
    sim = Simulation(scenario_from_dict(doc))
    sim.run_loop()
    assert sim.completed_jobs == sim.total_jobs == 2


def checked_ticks(sim, agents):
    """Tick ``sim`` until it is done, checking after each tick its trace rows
    against the agents' poses read at that tick and its echo, read from the
    hit the radar phase kept for the tick or, with none kept, None, against
    the reference echo over discs rebuilt from those poses.  Yields the
    agents' positions after each tick."""
    ny = sim.grid.ny
    table = sweep_table(sim.sensor_cfg)
    while not sim.all_done:
        assert sim.tick_count < sim.scenario.sim.max_ticks
        now = sim.tick_count
        hits = len(sim._hits)
        sim.tick()
        kept = sim._hits[hits:]
        assert [t for t, _ in kept] in ([], [now])
        dist = kept[0][1] if kept else None
        angle = table.angles[table.order[now % len(table.order)]]
        poses = [a.motion.at(now) for a in agents]
        # repr tells -0.0 from 0.0, which == does not
        assert repr(sim.pose_trace[-1]) == repr(poses)
        occupancy = []
        for a in agents:
            src, dst = expected_hop(a)
            occupancy.append((src.ix * ny + src.iy, dst.ix * ny + dst.iy))
        assert sim.occupancy_trace[-1] == occupancy
        discs = [Disc(Position(x, y), a.params.body_radius_m) for (x, y), a in zip(poses, agents)]
        assert repr(dist) == repr(reference_echo_distance(discs, sim.sensor_cfg, angle))
        yield poses


def test_radar_and_trace_see_every_move():
    """The engine re-places a vehicle in its radar index only when its hop
    changes, and re-reads a trace entry only when the vehicle stepped:
    after every tick the trace and the tick's echo must still match the
    positions and an echo over a world rebuilt from `motion`."""
    sim = Simulation(crossing_scenario(3), trace=True)
    agents = [sim.vehicles[vid].agent for vid in sorted(sim.vehicles)]
    echoed = moved = still = parked = 0
    previous = [a.motion.at(0) for a in agents]
    was_busy = [a.busy for a in agents]
    for poses in checked_ticks(sim, agents):
        echoed += sim.frame_lines[-1].split(",")[1] != "0.\n"
        changed = sum(p != q for p, q in zip(poses, previous))
        moved += changed
        still += len(agents) - changed
        if len(sim.pose_trace) > 1:
            # each tick has its own row, sharing a parked vehicle's pose
            assert sim.pose_trace[-1] is not sim.pose_trace[-2]
            for i, a in enumerate(agents):
                if not was_busy[i] and not a.busy:
                    assert sim.pose_trace[-1][i] is sim.pose_trace[-2][i]
                    parked += 1
        previous = poses
        was_busy = [a.busy for a in agents]
    assert len(sim.frame_lines) == sim.tick_count
    assert moved and still and parked  # both the refresh and the reuse were exercised
    assert echoed  # some rays hit a vehicle


def test_trace_views_read_as_the_rows_of_a_trace_built_every_tick():
    """`pose_trace` and `occupancy_trace` keep a change log per vehicle and
    build rows on demand.  Read every way a list of rows is read, they must
    equal a trace built here with one row per tick from the agents."""
    sim = Simulation(crossing_scenario(3), trace=True)
    agents = [sim.vehicles[vid].agent for vid in sorted(sim.vehicles)]
    ny = sim.grid.ny
    poses, occupancy, parked = [], [], []
    was_busy = [True] * len(agents)
    while not sim.all_done:
        now = sim.tick_count
        sim.tick()
        poses.append([a.motion.at(now) for a in agents])
        row = []
        for a in agents:
            src, dst = expected_hop(a)
            row.append((src.ix * ny + src.iy, dst.ix * ny + dst.iy))
        occupancy.append(row)
        parked.append([not (a.busy or busy) for a, busy in zip(agents, was_busy)])
        was_busy = [a.busy for a in agents]
    for view, eager in ((sim.pose_trace, poses), (sim.occupancy_trace, occupancy)):
        n = len(eager)
        assert len(view) == n == sim.tick_count
        # repr tells -0.0 from 0.0, which == does not
        assert repr(view) == repr(eager)
        assert [repr(view[t]) for t in range(n)] == [repr(row) for row in eager]
        assert [repr(view[t - n]) for t in range(n)] == [repr(row) for row in eager]
        assert [repr(row) for row in view] == [repr(row) for row in eager]
        assert view == eager and eager == view and not view != eager
        assert view != eager[:-1] and view != eager[:-1] + [[None] * len(agents)]
        for t in (n, -n - 1):
            with pytest.raises(IndexError):
                view[t]
        copied = copy.deepcopy(view)
        assert type(copied) is list and all(type(row) is list for row in copied)
        assert repr(copied) == repr(eager)
        copied[n // 2][0] = copied[n // 2][1]
        assert view[n // 2] == eager[n // 2]
    # A vehicle parked over two ticks keeps one pose tuple, read by index or by iteration.
    rows = list(sim.pose_trace)
    shared = 0
    for t in range(1, len(rows)):
        for i, still in enumerate(parked[t]):
            if still:
                assert rows[t][i] is rows[t - 1][i] and sim.pose_trace[t][i] is sim.pose_trace[t - 1][i]
                shared += 1
    assert shared


def test_trace_views_slice_as_their_lists_of_rows():
    """A slice of `pose_trace` or `occupancy_trace` is the same slice of its
    list of rows: positive, negative, stepped, reversed and empty."""
    sim = Simulation(crossing_scenario(3), trace=True)
    sim.run_loop()
    n = sim.tick_count
    slices = [
        slice(2, 4), slice(None), slice(0, n), slice(n // 3, n // 2), slice(n - 5, n + 5),
        slice(-7, -2), slice(-3, None), slice(None, -n // 2), slice(-n - 5, 3),
        slice(1, n, 97), slice(None, None, 4096), slice(-300, -1, 7),
        slice(None, None, -1), slice(-1, 0, -13), slice(n - 3, 4, -2), slice(5, None, -1),
        slice(4, 4), slice(9, 2), slice(-2, -5), slice(n, n + 5), slice(2, 5, -1),
    ]
    for view in (sim.pose_trace, sim.occupancy_trace):
        rows = list(view)
        for s in slices:
            # repr tells -0.0 from 0.0, which == does not
            assert repr(view[s]) == repr(rows[s]), s


def test_a_spin_up_that_reverses_the_wheels_is_rejected_by_name():
    """With the motor plant at or near its stability limit (dt = tau / 2)
    and a high gain, the spin-up overshoots until the wheels turn backwards.
    Such a drive would leave the edge it reserved and send a negative speed
    that telemetry cannot encode, so validation names the first vehicle
    with those parameters."""
    reversing = [
        ({"motor_gain": 3.0, "motor_time_constant_s": 0.1, "cruise_speed_m_s": 0.3}, 0.05),
        ({"motor_gain": 5.0, "motor_time_constant_s": 0.4, "cruise_speed_m_s": 0.05, "wheel_radius_m": 0.2}, 0.2),
    ]
    for params, dt_s in reversing:
        doc = scenario_to_dict(crossing_scenario(0))
        doc["sim"]["dt_s"] = dt_s
        for vehicle in doc["vehicles"]:
            vehicle["params"] = dict(params)
        with pytest.raises(ScenarioInvalid, match=rf"^vehicles\[0\]: dt {dt_s} reverses the wheels"):
            scenario_from_dict(doc)
        doc["vehicles"][0]["params"] = {"motor_time_constant_s": params["motor_time_constant_s"]}
        with pytest.raises(ScenarioInvalid, match=r"^vehicles\[1\]: "):
            scenario_from_dict(doc)
def pickup_at_home_scenario(medium):
    """The default scenario with job 0 picked up at vehicle 0's home: the
    order is served by pressing the load switch as it arrives."""
    base = default_scenario()
    jobs = (Job(0, NodeId(0, 0), NodeId(7, 2)), base.jobs[1])
    return replace_scenario(base, jobs=jobs, medium=medium)


def one_vehicle_scenario():
    """The default scenario with vehicle 0 alone: it serves job 0, returns
    home, then serves job 1."""
    base = default_scenario()
    return replace_scenario(base, vehicles=base.vehicles[:1])


def shared_dropoff_scenario():
    """The default scenario with both jobs dropped off at (7, 2): the second
    cargo leg finds the node held by the first and retries after NoPath."""
    base = default_scenario()
    return replace_scenario(base, jobs=(base.jobs[0], Job(1, NodeId(7, 6), NodeId(7, 2))))


def counted_run(scenario, every_tick):
    """Run ``scenario`` with the trace and capture on and count vehicle steps
    and early departure grants that only a release can explain: a gate
    refused while another vehicle's hold on the node lasted past now
    (computed here from the table's holds), then granted for the same
    node and slot before that hold's end.

    With ``every_tick`` the engine's vehicle phase is replaced by a loop
    that steps every vehicle on every tick through the engine's own
    per-vehicle code and ignores the wake tick that sets, as the engine
    did before vehicles slept; its gate asks the reservation table on
    every call, as the engine's does.  Either runs under `bounded` and
    must complete every job."""
    sim = Simulation(bounded(scenario), trace=True, capture=True)
    table = sim.table
    refused: dict[int, tuple] = {}
    steps = early = 0

    def gate(vid, node, now, scheduled):
        nonlocal early
        until = table.reserve(vid, node, now, scheduled)
        if until is None:
            last = refused.pop(vid, None)
            if last is not None and last[:2] == (node, scheduled) and now < last[2]:
                early += 1
            return None
        holds = holds_by_node(table)[node]
        assert until == max(
            end for start, end, holder in holds if holder != vid and now < end and start < scheduled
        )
        refused[vid] = (node, scheduled, until)
        return until

    def counting(step):
        def counted(now):
            nonlocal steps
            steps += 1
            return step(now)

        return counted

    def step_every_vehicle(now):
        for i, sv in enumerate(sim.fleet):
            sim._step_vehicle(i, sv, now)

    for sv in sim.fleet:
        sv.agent.departure_gate = gate
        sv.agent.step = counting(sv.agent.step)
    if every_tick:
        sim._vehicle_phase = step_every_vehicle
    sim.run_loop()
    assert sim.completed_jobs == sim.total_jobs
    return sim, steps, early


def test_sleeping_gate_matches_asking_every_tick():
    """The engine steps a vehicle only when it is due; every trace, job,
    radar frame and captured byte must equal those of a loop that steps every
    vehicle on every tick, including runs where a release opens a waiting
    vehicle's gate early, an order reaches a sleeping vehicle and a leg is
    retried after NoPath."""
    early_total = 0
    for scenario in [crossing_scenario(seed) for seed in range(1, 11)] + [
        replace_scenario(default_scenario(), medium=MediumConfig(0.3, 3, 7)),
        pickup_at_home_scenario(MediumConfig(0.3, 0, 7)),
        shared_dropoff_scenario(),
    ]:
        engine, engine_steps, engine_early = counted_run(scenario, every_tick=False)
        reference, reference_steps, reference_early = counted_run(scenario, every_tick=True)
        assert engine.tick_count == reference.tick_count
        assert_same_rows(
            engine, reference, "pose_trace", "occupancy_trace", "job_traces", "frame_lines", "medium.capture"
        )
        assert engine_steps < reference_steps
        assert engine_early == reference_early
        early_total += engine_early
    assert early_total > 0


@pytest.mark.parametrize(
    "scenario",
    [crossing_scenario(3), replace_scenario(default_scenario(), medium=MediumConfig(loss_probability=0.3))],
    ids=["crossing_3", "default_lossy"],
)
def test_a_vehicle_is_re_placed_once_per_hop_change(scenario):
    """The radar index re-places a vehicle when its step changes its
    (node, edge end) pair, and at no other step: once per entry of the
    occupancy trace's change log, each a new pair."""
    sim = Simulation(scenario, trace=True)
    place = sim._hop_index.place
    places = steps = 0

    def counted_place(i, a, b):
        nonlocal places
        places += 1
        place(i, a, b)

    def counting(step):
        def counted(now):
            nonlocal steps
            steps += 1
            return step(now)

        return counted

    sim._hop_index.place = counted_place
    for sv in sim.fleet:
        sv.agent.step = counting(sv.agent.step)
    sim.run_loop()
    assert sim.completed_jobs == sim.total_jobs
    logs = sim.occupancy_trace._entries
    assert places == sum(len(log) for log in logs)
    for log in logs:
        assert all(a.value != b.value for a, b in zip(log, log[1:]))
    assert places < steps


def test_next_wake_is_the_least_wake_of_the_fleet_after_every_tick():
    """`_vehicle_phase` takes the least wake in a pass after its stepping
    loop, since a `_plan_leg` late in that loop wakes every vehicle, those
    it has already stepped too.  After every tick of a depot run and a
    lossy default run, `_next_wake` must be that least wake, and the runs
    must hold such late plans."""
    late = 0
    lossy = replace_scenario(default_scenario(), medium=MediumConfig(loss_probability=0.3))
    for scenario in (bounded(scenario_from_dict(depot_document(1))), bounded(lossy)):
        sim = Simulation(scenario)
        step_vehicle, plan_leg = sim._step_vehicle, sim._plan_leg
        stepped = []  # the fleet positions stepped so far this tick

        def listed_step(i, sv, now):
            stepped.append(i)
            step_vehicle(i, sv, now)

        def counted_plan(sv, now):
            nonlocal late
            late += len(stepped) > 1  # planned in the loop, after another vehicle's step
            plan_leg(sv, now)

        sim._step_vehicle, sim._plan_leg = listed_step, counted_plan
        while not sim.all_done:
            assert sim.tick_count < scenario.sim.max_ticks
            stepped.clear()
            sim.tick()
            assert sim._next_wake == min(sv.wake for sv in sim.fleet)
        assert sim.completed_jobs == sim.total_jobs
    assert late


@pytest.mark.parametrize(
    "scenario", [crossing_scenario(3), scenario_from_dict(depot_document(2))], ids=["crossing_3", "depot_2"]
)
def test_the_agents_hop_is_a_new_tuple_on_exactly_the_steps_that_change_its_pair(scenario):
    """The engine re-places a vehicle when its agent's ``hop`` is not the
    tuple it last placed.  After every step ``hop`` must equal
    `expected_hop`, and be a new object on exactly the steps where that
    pair changed; between steps it must stay the same object."""
    sim = Simulation(scenario)
    step_vehicle = sim._step_vehicle
    last = [sv.agent.hop for sv in sim.fleet]
    steps = changes = 0

    def checked_step(i, sv, now):
        nonlocal steps, changes
        agent = sv.agent
        assert agent.hop is last[i]
        before = expected_hop(agent)
        step_vehicle(i, sv, now)
        after = expected_hop(agent)
        assert agent.hop == after
        assert (agent.hop is not last[i]) == (after != before)
        last[i] = agent.hop
        steps += 1
        changes += after != before

    sim._step_vehicle = checked_step
    sim.run_loop()
    assert sim.completed_jobs == sim.total_jobs
    assert 0 < changes < steps


@pytest.mark.parametrize(
    "scenario", [crossing_scenario(3), scenario_from_dict(depot_document(2))], ids=["crossing_3", "depot_2"]
)
def test_place_is_handed_the_positions_of_the_vehicles_hop(scenario):
    """The engine re-places a vehicle from the positions its agent holds,
    ``xy`` and ``target``, with no grid lookup: after every step they, and
    the ends handed to `place`, must be bit for bit `node_to_position` of
    the vehicle's (node, edge end)."""
    sim = Simulation(scenario, trace=True)
    grid = sim.grid
    place, step_vehicle = sim._hop_index.place, sim._step_vehicle
    places = steps = 0

    def hop_ends(sv):
        return repr([tuple(grid.node_to_position(node)) for node in sv.hop])

    def checked_place(i, a, b):
        nonlocal places
        places += 1
        assert repr([tuple(a), tuple(b)]) == hop_ends(sim.fleet[i])
        place(i, a, b)

    def checked_step(i, sv, now):
        nonlocal steps
        steps += 1
        step_vehicle(i, sv, now)
        assert repr([tuple(sv.agent.xy), tuple(sv.agent.target)]) == hop_ends(sv)

    sim._hop_index.place, sim._step_vehicle = checked_place, checked_step
    sim.run_loop()
    assert sim.completed_jobs == sim.total_jobs
    assert 0 < places < steps


def assert_same_rows(engine, reference, *outputs):
    """Each named output of the two runs holds the same rows by `repr`,
    which tells -0.0 from 0.0.  A failure names the output and its first
    row that differs: asked to explain two whole runs that differ, pytest
    diffs their reprs for minutes."""
    for name in outputs:
        a, b = (list(operator.attrgetter(name)(sim)) for sim in (engine, reference))
        for i, (x, y) in enumerate(zip(a, b)):
            assert repr(x) == repr(y), f"{name}: row {i} differs"
        assert len(a) == len(b), f"{name}: {len(a)} rows against {len(b)}"


def assert_matches_every_phase_run(engine, scenario):
    """Every output of ``engine``'s finished run equals that of a traced,
    captured run of ``scenario`` by `every_phase_tick`, which stops one
    tick past the engine's run if it has not ended by then."""
    reference = every_phase_run(scenario, engine.tick_count + 1)
    assert engine.tick_count == reference.tick_count
    assert_same_rows(
        engine, reference,
        "frame_lines", "renders", "pose_trace", "occupancy_trace", "job_traces", "hub.log", "medium.capture",
    )


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 19),
    loss=st.sampled_from([0.0, 0.3]),
    latency=st.sampled_from([0, 1, 7]),
    interval=st.sampled_from([1, 3, 10, 100]),
)
def test_quiet_ticks_change_nothing(seed, loss, latency, interval):
    """A tick runs only its due phases, and a quiet tick only the radar.
    Every output of `run_loop` must equal that of a loop whose tick runs
    every phase; the radio phase must run only when a frame is due or the
    hub wakes, the vehicle phase only when a vehicle is due, and unless
    every tick sends telemetry, some ticks of the run must skip the radio."""
    base = crossing_scenario(seed)
    scenario = bounded(
        replace_scenario(
            base,
            medium=MediumConfig(loss, latency, seed),
            sim=replace_scenario(base.sim, telemetry_interval=interval),
        )
    )
    engine = Simulation(scenario, trace=True, capture=True)
    radio_phase = engine._radio_phase
    vehicle_phase = engine._vehicle_phase
    delivered = []
    stepped = []

    def counted(now):
        delivered.append(now >= engine.medium.next_due or now >= engine.hub.wake_tick)
        radio_phase(now)

    def counted_steps(now):
        stepped.append(now >= engine._next_wake)
        vehicle_phase(now)

    engine._radio_phase = counted
    engine._vehicle_phase = counted_steps
    engine.run_loop()
    assert engine.completed_jobs == engine.total_jobs
    assert_matches_every_phase_run(engine, scenario)
    assert all(delivered) and all(stepped) and stepped
    if interval > 1:
        assert len(delivered) < engine.tick_count


def test_a_resting_vehicles_repeated_frame_is_decoded_once(monkeypatch):
    """A resting vehicle sends one bytes object until its next event, and
    the hub reuses the message of the vehicle's last telemetry frame when
    that bytes object arrives.  At latency 0 each frame arrives before the
    next is sent, so no telemetry frame is decoded.  At latency 13 and
    interval 10 a moving vehicle's frame arrives after a newer one was
    sent and is decoded, yet no frame is decoded twice, and the outputs
    equal those of a loop whose tick runs every phase."""
    decoded = []

    def counting(frame):
        decoded.append(frame)  # held, so no id is reused
        return decode(frame)

    monkeypatch.setattr(swarmport.sim, "decode", counting)
    sim = Simulation(crossing_scenario(2))
    sim.run_loop()
    assert sim.hub.log and not [frame for frame in decoded if frame[2] == MessageKind.TELEMETRY]

    base = crossing_scenario(2)
    scenario = replace_scenario(
        base, medium=MediumConfig(0.0, 13, 2), sim=replace_scenario(base.sim, telemetry_interval=10)
    )
    decoded.clear()
    engine = Simulation(scenario, trace=True, capture=True)
    engine.run_loop()
    telemetry = [frame for frame in decoded if frame[2] == MessageKind.TELEMETRY]
    assert telemetry
    assert len({id(frame) for frame in telemetry}) == len(telemetry)
    assert len(telemetry) < len(engine.hub.log) / 2
    assert_matches_every_phase_run(engine, scenario)


def test_every_frame_is_its_channels_vehicles():
    """The radio phase hands a frame to the receiver on its channel without
    reading the vehicle id it carries, which holds because a channel
    carries only its vehicle's frames.  At latency 13 and interval 10
    frames that a newer frame overtakes are decoded at the hub, and at 30%
    loss some never arrive; every record the hub logs must still be the
    telemetry its vehicle's channel carried 13 ticks before."""
    base = crossing_scenario(2)
    scenario = bounded(
        replace_scenario(
            base, medium=MediumConfig(0.3, 13, 2), sim=replace_scenario(base.sim, telemetry_interval=10)
        )
    )
    sim = Simulation(scenario, capture=True)
    sim.run_loop()
    assert sim.completed_jobs == sim.total_jobs
    sent = {}
    for tick, channel, frame in sim.medium.capture:
        msg = decode(frame)
        assert msg.vehicle_id == channel
        if msg.kind is MessageKind.TELEMETRY:
            sent[tick, channel] = msg
    assert sim.hub.log
    for rec in sim.hub.log:
        msg = sent[rec.tick - 13, rec.vehicle_id]
        assert (rec.x_m, rec.y_m, rec.speed_m_s, rec.heading_deg) == (
            msg.x_mm / 1000.0, msg.y_mm / 1000.0, msg.speed_mm_s / 1000.0, msg.heading_cdeg / 100.0
        )


def test_an_undecodable_frame_is_dropped_where_it_is_polled(monkeypatch):
    """A frame that does not decode is dropped by each radio that polls it.
    One sent on channel 0 at tick 500 reaches the vehicle's radio and the
    hub's; the run must end as one without it, with that frame alone
    added to the capture."""
    garbage = b"\x7e\x01\x02"
    failed = []

    def recording(frame):
        try:
            return decode(frame)
        except DecodeError:
            failed.append(frame)
            raise

    monkeypatch.setattr(swarmport.sim, "decode", recording)
    runs = []
    for inject in (False, True):
        sim = Simulation(bounded(default_scenario()), capture=True)
        rogue = Radio(assign_channel(0))
        while sim.tick_count < sim.scenario.sim.max_ticks:
            if inject and sim.tick_count == 500:
                sim.medium.send(rogue, garbage, 500)
            sim.tick()
            if sim.all_done:
                break
        assert sim.completed_jobs == sim.total_jobs
        runs.append(sim)
    plain, injected = runs
    assert failed == [garbage, garbage]
    assert injected.tick_count == plain.tick_count
    assert injected.frame_lines == plain.frame_lines
    assert injected.hub.log == plain.hub.log
    assert injected.job_traces == plain.job_traces
    injected.medium.capture.remove((500, 0, garbage))
    assert injected.medium.capture == plain.medium.capture


@pytest.mark.parametrize(
    "leg, start_state, started, leg_state",
    [
        ("reposition", IDLE, 201, IDLE),
        ("cargo", LOADED, 1_174, TRANSIT),
        ("retrace", UNLOADING, 2_923, RETRACING),
    ],
    ids=["reposition", "cargo", "retrace"],
)
def test_refused_leg_is_retried_on_the_one_timer(leg, start_state, started, leg_state):
    """A leg refused after NoPath is planned again every NOPATH_RETRY_TICKS
    on the one timer, ``retry_at``, while the cargo state holds, and starts
    at the first retry after the foreign hold is released: a reposition
    refused at its pickup, a cargo leg refused at its drop-off (each
    refused try ACKs the order) and a retrace refused at home after the
    unload dwell."""
    sim = Simulation(default_scenario(), capture=True)
    sv = sim.vehicles[0]
    while sv.agent.state != start_state:
        sim.tick()
    job = sim.scenario.jobs[0]
    held = {"reposition": job.pickup_node, "cargo": job.destination_node, "retrace": sv.agent.home_node}[leg]
    sim.table.reserve(99, held, sim.tick_count, INF_TICK)
    tries = []
    plan_leg = sim._plan_leg

    def recorded(v, now):
        if v is sv:
            tries.append((now, v.agent.state))
        plan_leg(v, now)

    sim._plan_leg = recorded
    while not tries:
        sim.tick()
    first, state = tries[0]
    while sim.tick_count < first + 3 * NOPATH_RETRY_TICKS + 7:
        sim.tick()
        assert sv.agent.state == state and not sv.agent.busy
    sim.table.release_vehicle(99)
    while not sv.agent.busy:
        sim.tick()
    assert tries == [(first + k * NOPATH_RETRY_TICKS, state) for k in range(5)]
    assert sim.tick_count - 1 == first + 4 * NOPATH_RETRY_TICKS == started
    assert sv.agent.state == leg_state
    if leg == "cargo":
        capture = sim.medium.capture
        acks = {tick for tick, channel, frame in capture if channel == 0 and decode(frame).kind == MessageKind.ACK}
        assert {tick for tick, _ in tries[:4]} <= acks
    sim.run_loop()
    assert sim.completed_jobs == sim.total_jobs == 2


@pytest.mark.parametrize("blocked", [False, True], ids=["planned", "nopath"])
@pytest.mark.parametrize(
    "state, leg_state, acks",
    [(IDLE, IDLE, 0), (LOADED, TRANSIT, 1), (AWAITING_ROUTE, TRANSIT, 1), (UNLOADING, RETRACING, 0)],
)
def test_plan_leg_acks_a_cargo_order_once(state, leg_state, acks, blocked):
    """One `_plan_leg` on a LOADED or AWAITING_ROUTE vehicle queues exactly
    one ACK, whether it starts the transit or meets NoPath; a reposition
    or a retrace queues none."""
    sim = Simulation(default_scenario())
    sv = sim.vehicles[0]
    agent = sv.agent
    while agent.state != state:
        sim.tick()
    job = sim.scenario.jobs[0]
    sv.dest = job.pickup_node if state == IDLE else job.destination_node
    now = sim.tick_count
    if blocked:
        sim.table.reserve(99, agent.home_node if state == UNLOADING else sv.dest, now, INF_TICK)
    assert agent.outbox == []
    sim._plan_leg(sv, now)
    assert [m.kind for m in agent.outbox] == [MessageKind.ACK] * acks
    assert agent.state == (state if blocked else leg_state)
    assert agent.busy is not blocked
    assert sv.retry_at == (now + NOPATH_RETRY_TICKS if blocked else INF_TICK)


@pytest.mark.parametrize(
    "scenario",
    [crossing_scenario(seed) for seed in range(1, 11)]
    + [replace_scenario(default_scenario(), medium=MediumConfig(0.3, 3, 7))],
    ids=[f"crossing_{seed}" for seed in range(1, 11)] + ["default_loss30_latency3_seed7"],
)
def test_table_keeps_no_dead_weight_without_gc(monkeypatch, scenario):
    """The reservation table never drops a hold that has ended.  That is
    safe because no reserve or free_runs query starts before the current
    tick, and cheap because a vehicle's holds are released before each of
    its legs: after every tick a vehicle holds at most two holds per step
    of its last committed plan (the plan's own holds, plus at most one
    early departure per hop)."""
    sim = Simulation(scenario)
    table = sim.table
    steps = {vid: 1 for vid in sim.vehicles}  # the home hold parks like a one-step plan
    reserves = reads = 0
    changed = False
    reserve, free_runs, commit = table.reserve, table.free_runs, swarmport.sim.commit

    def checked_reserve(vehicle_id, node, tick_start, tick_end):
        nonlocal reserves, changed
        assert tick_start >= sim.tick_count
        reserves += 1
        changed = True
        return reserve(vehicle_id, node, tick_start, tick_end)

    def checked_free_runs(node, t0, h):
        nonlocal reads
        assert t0 >= sim.tick_count
        reads += 1
        return free_runs(node, t0, h)

    def recording_commit(table, vehicle_id, plan):
        commit(table, vehicle_id, plan)
        steps[vehicle_id] = len(plan.steps)

    monkeypatch.setattr(table, "reserve", checked_reserve)
    monkeypatch.setattr(table, "free_runs", checked_free_runs)
    monkeypatch.setattr(swarmport.sim, "commit", recording_commit)
    worst = 0.0
    while sim.tick_count < sim.scenario.sim.max_ticks and not sim.all_done:
        sim.tick()
        if not changed:
            continue  # only a reserve adds holds or commits a plan
        changed = False
        held = {vid: 0 for vid in sim.vehicles}
        for holds in holds_by_node(table).values():
            for _, _, vid in holds:
                held[vid] += 1
        for vid, count in held.items():
            assert count <= 2 * steps[vid], (sim.tick_count, vid, count, steps[vid])
            worst = max(worst, count / (2 * steps[vid]))
    assert sim.completed_jobs == sim.total_jobs
    assert reserves > 0 and reads > 0
    assert worst > 0.5  # early departures did add holds past the plan's own


def test_walled_in_job_released_late_fails_at_its_release_tick():
    """A job nobody can serve is vetted when it is released, even while the
    only vehicle is busy and dispatch has no one to give it to."""
    release = 200
    scenario = replace_scenario(
        quick_scenario(),
        terrain=TerrainConfig(blocked=(NodeId(3, 4), NodeId(5, 4), NodeId(4, 3), NodeId(4, 5))),
        jobs=(Job(0, NodeId(2, 0), NodeId(4, 0)), Job(1, NodeId(4, 4), NodeId(7, 7), release_tick=release)),
    )
    sim = Simulation(scenario)
    while sim.tick_count < release:
        sim.tick()
    assert sim.hub.assignments == {0: 0} and sim.completed_jobs == 0  # the only vehicle is busy
    with pytest.raises(ScenarioInvalid, match=r"^jobs: job 1 \(pickup \(4, 4\), destination \(7, 7\)\)"):
        sim.tick()
    assert sim.tick_count == release


def test_lossy_medium_still_completes():
    scenario = replace_scenario(quick_scenario(), medium=MediumConfig(loss_probability=0.3, seed=7))
    sim = Simulation(scenario)
    sim.run_loop()
    assert sim.completed_jobs == 1


def test_grid_beyond_all_pairs_guard_runs_to_completion():
    # 41 x 41 = 1,681 nodes, above floyd_warshall's 1,000-node guard
    scenario = Scenario(
        terrain=TerrainConfig(width_m=10.0, height_m=10.0, spacing_m=0.25),
        vehicles=(VehicleSpec(0, NodeId(0, 0)),),
        jobs=(Job(0, NodeId(3, 2), NodeId(6, 5)),),
        sim=SimConfig(dt_s=0.05, max_ticks=100_000),
    )
    sim = Simulation(scenario)
    sim.run_loop()
    assert sim.completed_jobs == 1
    assert sim.tick_count < scenario.sim.max_ticks


def test_one_adjacency_table_is_built_in_the_run_and_serves_all_of_it(monkeypatch):
    builds = []
    build = GridMap.adjacency.func

    def counted(grid):
        builds.append(grid)
        return build(grid)

    table = functools.cached_property(counted)
    table.__set_name__(GridMap, "adjacency")
    monkeypatch.setattr(GridMap, "adjacency", table)
    # A depot-sized lattice: 31 x 31 nodes, eight homes on the south edge.
    homes = [NodeId(1 + 4 * i, 0) for i in range(8)]
    scenario = Scenario(
        terrain=TerrainConfig(width_m=7.5, height_m=7.5, spacing_m=0.25, blocked=(NodeId(15, 15),)),
        vehicles=tuple(VehicleSpec(i, home) for i, home in enumerate(homes)),
        jobs=tuple(Job(i, NodeId(home.ix, 2), NodeId(home.ix + 1, 3)) for i, home in enumerate(homes)),
        sim=SimConfig(dt_s=0.05, max_ticks=100_000),
    )
    sim = Simulation(scenario)
    # Set-up builds no table; the hub's first dispatch does.
    assert builds == [] and "adjacency" not in vars(sim.grid)
    sim.run_loop()
    assert sim.completed_jobs == sim.total_jobs == 8
    assert len(builds) == 1 and builds[0] is sim.grid


def test_the_grid_keeps_each_hop_table_the_run_needs_and_no_other():
    """Dispatch vets each pickup and ranks the free homes, and each leg is
    bounded by its destination's table: the grid holds those tables, keyed
    by (root, stops), and the hub none."""
    scenario = default_scenario()
    sim = Simulation(scenario)
    sim.run_loop()
    assert sim.completed_jobs == sim.total_jobs == 2
    spots = sim.park_spots
    expected = {(node, spots) for job in scenario.jobs for node in (job.pickup_node, job.destination_node)}
    # At the first release both vehicles are free and reach the pickup.
    expected |= {(v.home_node, frozenset()) for v in scenario.vehicles}
    assert set(sim.grid.hop_tables) == expected
    assert not [name for name in vars(sim.hub) if "table" in name]


def test_job_queue_drains_released_jobs():
    scenario = replace_scenario(
        quick_scenario(),
        jobs=(Job(0, NodeId(2, 0), NodeId(4, 0)), Job(1, NodeId(3, 1), NodeId(6, 1), release_tick=500)),
    )
    sim = Simulation(scenario)
    sim.run_loop()
    assert sim.completed_jobs == 2
    assert sim.hub.assignments == {0: 0, 1: 0}


# -------------------------------------------------------------- artifacts


def test_run_writes_artifact_set(tmp_path):
    report = run(quick_scenario(), tmp_path)
    assert report.completed_jobs == report.total_jobs == 1
    assert set(report.artifacts) >= {"telemetry_csv", "scan_stream", "summary_json", "summary_txt", "capture"}
    for path in report.artifacts.values():
        if isinstance(path, str):
            assert (tmp_path / path).exists()
    csv_path = tmp_path / "telemetry.csv"
    assert csv_path.exists()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["completed_jobs"] == 1
    assert summary["makespan_ticks"] == report.makespan_ticks
    assert (tmp_path / "frames").is_dir()


def test_report_metrics_match_log(tmp_path):
    report = run(quick_scenario(), tmp_path)
    sim = Simulation(quick_scenario())
    sim.run_loop()
    want = metrics(sim.hub.log)
    assert report.per_vehicle.keys() == want.keys()
    got = report.per_vehicle[0]
    assert got.total_distance_m == pytest.approx(want[0].total_distance_m)
    assert got.job_completion_ticks == want[0].job_completion_ticks

