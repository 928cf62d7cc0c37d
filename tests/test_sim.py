"""Scenario schema, tick loop wiring, determinism, artifacts, analytics."""

import json
import math

import pytest
from test_acceptance import crossing_scenario

import swarmport.sim
from swarmport.errors import ScenarioInvalid
from swarmport.grid import NodeId, Position
from swarmport.hub import Job, metrics
from swarmport.radar import Disc, WorldModel, echo_distance
from swarmport.rfnet import encode
from swarmport.sim import (
    MediumConfig,
    Scenario,
    SimConfig,
    Simulation,
    TerrainConfig,
    VehicleSpec,
    analytic_makespan_ticks,
    build_scenario_grid,
    default_scenario,
    hop_window_ticks,
    run,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)
from swarmport.vehicle import UNLOADING, VehicleParams


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


def test_loss_probability_must_leave_headroom():
    scenario = replace_scenario(default_scenario(), medium=MediumConfig(loss_probability=1.0))
    with pytest.raises(ScenarioInvalid):
        validate_scenario(scenario)
    validate_scenario(
        replace_scenario(default_scenario(), medium=MediumConfig(loss_probability=0.99))
    )


def test_blocked_node_outside_grid_rejected():
    scenario = replace_scenario(default_scenario(), terrain=TerrainConfig(blocked=(NodeId(20, 0),)))
    with pytest.raises(ScenarioInvalid):
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


def test_sweep_direction_alternates_with_boundary_repeat():
    sim = Simulation(Scenario())
    for _ in range(720):
        sim.tick()
    angles = [line.split(",")[0] for line in sim.frame_lines]
    # ascending 0..359, then descending 359..0
    assert angles[:3] == ["0", "1", "2"]
    assert angles[358:362] == ["358", "359", "359", "358"]


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


def test_radar_and_trace_see_every_move(monkeypatch):
    """The engine replaces a vehicle's radar disc only when it has moved:
    after every tick the trace and the newest echo must still match the
    positions and an echo over a world rebuilt from `pose`."""
    echoes = []

    def recording_echo(world, cfg, angle_deg):
        echoes.append((angle_deg, echo_distance(world, cfg, angle_deg)))
        return echoes[-1][1]

    monkeypatch.setattr(swarmport.sim, "echo_distance", recording_echo)
    sim = Simulation(crossing_scenario(3), trace=True)
    agents = [sim.vehicles[vid].agent for vid in sorted(sim.vehicles)]
    ny = sim.grid.ny
    moved = still = parked = 0
    previous = [(a.pose.x, a.pose.y) for a in agents]
    was_busy = [a.busy for a in agents]
    while sim.tick_count < sim.scenario.sim.max_ticks and not sim.all_done:
        sim.tick()
        poses = [(a.pose.x, a.pose.y) for a in agents]
        # repr tells -0.0 from 0.0, which == does not
        assert repr(sim.pose_trace[-1]) == repr(poses)
        occupancy = []
        for a in agents:
            edge = a.edge_in_progress()
            dst = edge[1] if edge is not None else a.current_node
            occupancy.append((a.current_node.ix * ny + a.current_node.iy, dst.ix * ny + dst.iy))
        assert sim.occupancy_trace[-1] == occupancy
        world = WorldModel([Disc(Position(x, y), a.params.body_radius_m) for (x, y), a in zip(poses, agents)])
        angle, dist = echoes[-1]
        assert repr(dist) == repr(echo_distance(world, sim.sensor_cfg, angle))
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
    assert sim.all_done
    assert len(echoes) == sim.tick_count
    assert moved and still and parked  # both the refresh and the reuse were exercised


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
    (computed here from the table's snapshot), then granted for the same
    node and slot before that hold's end.

    With ``every_tick`` the engine's vehicle phase is replaced by a loop
    that steps every vehicle on every tick and ignores the tick that
    ``step`` returns, as the engine did before vehicles slept; its gate
    asks the reservation table on every call, as the engine's does."""
    sim = Simulation(scenario, trace=True, capture=True)
    table = sim.table
    refused: dict[int, tuple] = {}
    steps = early = 0

    def gate(agent, node, now, scheduled):
        nonlocal early
        if sim._departure_gate(agent, node, now, scheduled):
            last = refused.pop(agent.vehicle_id, None)
            if last is not None and last[:2] == (node, scheduled) and now < last[2]:
                early += 1
            return True
        holds = table.snapshot()[node]
        until = max(end for start, end, vid in holds if vid != agent.vehicle_id and now < end and start < scheduled)
        refused[agent.vehicle_id] = (node, scheduled, until)
        return False

    def counting(step):
        def counted(grid, dt_s, now):
            nonlocal steps
            steps += 1
            return step(grid, dt_s, now)

        return counted

    def step_every_vehicle(now):
        sim._stepped = list(range(len(sim.fleet)))
        for sv in sim.fleet:
            sv.telemetry_frame = None
            agent = sv.agent
            if sv.pending is not None and now >= sv.retry_at:
                sim._attempt_pending(sv, now)
            if agent.state == UNLOADING and sv.unload_at is not None and now >= sv.unload_at and sv.pending is None:
                sim._start_retrace(sv, now)
            agent.step(sim.grid, sim.dt, now)
            if agent.route_finished:
                sim._post_step(sv, now)
            for msg in agent.outbox:
                sim.medium.send(sv.radio, encode(msg), now)
            agent.outbox.clear()

    for sv in sim.fleet:
        sv.agent.departure_gate = gate
        sv.agent.step = counting(sv.agent.step)
    if every_tick:
        sim._vehicle_phase = step_every_vehicle
    sim.run_loop()
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
        assert repr(engine.pose_trace) == repr(reference.pose_trace)
        assert engine.occupancy_trace == reference.occupancy_trace
        assert engine.job_traces == reference.job_traces
        assert engine.frame_lines == reference.frame_lines
        assert engine.medium.capture == reference.medium.capture
        assert engine.completed_jobs == engine.total_jobs
        assert engine_steps < reference_steps
        assert engine_early == reference_early
        early_total += engine_early
    assert early_total > 0


@pytest.mark.parametrize(
    "scenario",
    [crossing_scenario(seed) for seed in range(1, 11)]
    + [replace_scenario(default_scenario(), medium=MediumConfig(0.3, 3, 7))],
    ids=[f"crossing_{seed}" for seed in range(1, 11)] + ["default_loss30_latency3_seed7"],
)
def test_table_keeps_no_dead_weight_without_gc(monkeypatch, scenario):
    """The reservation table never drops a hold that has ended.  That is
    safe because no reserve or is_free query starts before the current
    tick, and cheap because a vehicle's holds are released before each of
    its legs: after every tick a vehicle holds at most two holds per step
    of its last committed plan (the plan's own holds, plus at most one
    early departure per hop)."""
    sim = Simulation(scenario)
    table = sim.table
    steps = {vid: 1 for vid in sim.vehicles}  # the home hold parks like a one-step plan
    queries = 0
    changed = False
    reserve, is_free, commit = table.reserve, table.is_free, swarmport.sim.commit

    def checked_reserve(vehicle_id, node, tick_start, tick_end):
        nonlocal queries, changed
        assert tick_start >= sim.tick_count
        queries += 1
        changed = True
        return reserve(vehicle_id, node, tick_start, tick_end)

    def checked_is_free(node, tick_start, tick_end):
        nonlocal queries
        assert tick_start >= sim.tick_count
        queries += 1
        return is_free(node, tick_start, tick_end)

    def recording_commit(table, vehicle_id, plan):
        commit(table, vehicle_id, plan)
        steps[vehicle_id] = len(plan.steps)

    monkeypatch.setattr(table, "reserve", checked_reserve)
    monkeypatch.setattr(table, "is_free", checked_is_free)
    monkeypatch.setattr(swarmport.sim, "commit", recording_commit)
    worst = 0.0
    while sim.tick_count < sim.scenario.sim.max_ticks and not sim.all_done:
        sim.tick()
        if not changed:
            continue  # only a reserve adds holds or commits a plan
        changed = False
        held = {vid: 0 for vid in sim.vehicles}
        for holds in table.snapshot().values():
            for _, _, vid in holds:
                held[vid] += 1
        for vid, count in held.items():
            assert count <= 2 * steps[vid], (sim.tick_count, vid, count, steps[vid])
            worst = max(worst, count / (2 * steps[vid]))
    assert sim.completed_jobs == sim.total_jobs
    assert queries > 0
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
    assert report.per_vehicle.keys() == want.per_vehicle.keys()
    got = report.per_vehicle[0]
    assert got.total_distance_m == pytest.approx(want.per_vehicle[0].total_distance_m)
    assert got.job_completion_ticks == want.per_vehicle[0].job_completion_ticks


# -------------------------------------------------------------- analytics


def test_analytic_makespan_zero_without_jobs():
    assert analytic_makespan_ticks(replace_scenario(default_scenario(), jobs=())) == 0


def test_analytic_makespan_tracks_simulation():
    scenario = default_scenario()
    sim = Simulation(scenario)
    sim.run_loop()
    estimate = analytic_makespan_ticks(scenario)
    assert abs(sim.last_complete_tick - estimate) / estimate <= 0.20
