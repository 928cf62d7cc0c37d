"""Coordinator: dispatch, telemetry ingestion, CSV, metrics."""

import math
import random
from collections import deque
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from swarmport.errors import IoFailure, ScenarioInvalid, UnknownVehicle
from swarmport.grid import NodeId, build_grid
from swarmport.hub import (
    CSV_HEADER,
    Hub,
    Job,
    TelemetryRecord,
    ingest_telemetry,
    metrics,
    write_csv,
)
from swarmport.planner import hop_distances
from swarmport.rfnet import Message, MessageKind


def make_hub(vehicles=((0, NodeId(0, 0)),)):
    hub = Hub(build_grid(2.0, 2.0, 0.25), frozenset())
    for vid, home in vehicles:
        hub.register_vehicle(vid, home)
    return hub


def telemetry_msg(vid, x_m, y_m, speed=0.0, heading=0.0):
    return Message(
        MessageKind.TELEMETRY,
        vid,
        x_mm=int(round(x_m * 1000)),
        y_mm=int(round(y_m * 1000)),
        speed_mm_s=int(round(speed * 1000)),
        heading_cdeg=int(round(heading * 100)),
    )


def record(tick, vid, x, y, speed=0.0, state="IDLE"):
    dist = math.hypot(x, y)
    angle = 0.0 if dist == 0 else math.degrees(math.atan2(y, x)) % 360.0
    return TelemetryRecord(tick, vid, x, y, 0.0, speed, dist, angle, state)


# --------------------------------------------------------------- telemetry


def test_ingest_derives_polar_pose():
    hub = make_hub()
    rec = ingest_telemetry(hub, telemetry_msg(0, 1.0, 1.0), tick=5, state="IDLE")
    assert rec.dist_from_origin_m == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert rec.angle_from_origin_deg == pytest.approx(45.0, abs=1e-9)
    assert rec.tick == 5


def test_ingest_origin_pose_is_zero_zero():
    hub = make_hub()
    rec = ingest_telemetry(hub, telemetry_msg(0, 0.0, 0.0), tick=0, state="IDLE")
    assert rec.dist_from_origin_m == 0.0
    assert rec.angle_from_origin_deg == 0.0


def test_ingest_matches_independent_recomputation():
    hub = make_hub()
    rng = random.Random(5)
    for tick in range(50):
        x, y = rng.uniform(0, 2), rng.uniform(0, 2)
        rec = ingest_telemetry(hub, telemetry_msg(0, x, y), tick, state="IDLE")
        assert abs(rec.dist_from_origin_m - math.hypot(rec.x_m, rec.y_m)) <= 1e-9
        want_angle = math.degrees(math.atan2(rec.y_m, rec.x_m)) % 360.0
        assert abs(rec.angle_from_origin_deg - want_angle) <= 1e-9


def test_ingest_unknown_vehicle():
    hub = make_hub()
    with pytest.raises(UnknownVehicle):
        ingest_telemetry(hub, telemetry_msg(7, 0.0, 0.0), tick=0, state="IDLE")


def test_ingest_rejects_non_telemetry():
    hub = make_hub()
    with pytest.raises(ValueError):
        ingest_telemetry(hub, Message(MessageKind.ACK, 0), tick=0, state="IDLE")


def test_ingest_appends_to_log():
    hub = make_hub()
    ingest_telemetry(hub, telemetry_msg(0, 0.5, 0.0), 1, state="IDLE")
    rec = ingest_telemetry(hub, telemetry_msg(0, 0.75, 0.0), 2, state="IDLE")
    assert [r.tick for r in hub.log] == [1, 2]
    assert rec is hub.log[-1]


def test_ingest_records_the_state_it_is_given():
    hub = make_hub()
    ingest_telemetry(hub, telemetry_msg(0, 0.5, 0.0), 1, state="TRANSIT")
    ingest_telemetry(hub, telemetry_msg(0, 0.75, 0.0), 2, state="UNLOADING")
    assert [r.state for r in hub.log] == ["TRANSIT", "UNLOADING"]


# ---------------------------------------------------------------- dispatch


def test_single_idle_vehicle_gets_the_job():
    hub = make_hub()
    hub.add_job(Job(0, NodeId(1, 0), NodeId(5, 0)))
    hub.dispatch(0)
    assert hub.assignments == {0: 0}
    # order went out on the vehicle's channel
    assert len(hub.outbox) == 1
    msg = hub.outbox[0]
    assert msg.vehicle_id == 0
    assert msg.kind == MessageKind.ASSIGN_DESTINATION
    assert msg.dest == NodeId(1, 0)  # reposition to pickup first


def test_walled_in_vehicle_is_never_dispatched():
    # vehicle 0 is two hops from the pickup by Manhattan distance but sealed
    # into the corner; vehicle 1 is far but reachable
    blocked = {NodeId(1, 0), NodeId(0, 1)}
    hub = Hub(build_grid(2.0, 2.0, 0.25, blocked), frozenset())
    hub.register_vehicle(0, NodeId(0, 0))
    hub.register_vehicle(1, NodeId(8, 8))
    hub.add_job(Job(0, NodeId(2, 0), NodeId(5, 0)))
    hub.dispatch(0)
    assert hub.assignments == {0: 1}


def test_detour_counts_hops_not_straight_line_distance():
    # a wall at x = 3 (open only at y = 8) puts vehicle 0 eighteen hops from
    # the pickup; vehicle 1 is four hops away on the far side
    blocked = {NodeId(3, y) for y in range(8)}
    hub = Hub(build_grid(2.0, 2.0, 0.25, blocked), frozenset())
    hub.register_vehicle(0, NodeId(2, 0))
    hub.register_vehicle(1, NodeId(8, 0))
    hub.add_job(Job(0, NodeId(4, 0), NodeId(6, 6)))
    hub.dispatch(0)
    assert hub.assignments == {0: 1}


def test_nearest_idle_vehicle_wins():
    hub = make_hub(vehicles=((0, NodeId(6, 0)), (1, NodeId(2, 0))))
    hub.add_job(Job(0, NodeId(0, 0), NodeId(8, 8)))
    hub.dispatch(0)
    assert hub.assignments == {0: 1}


def test_dispatch_tie_breaks_to_lower_id():
    hub = make_hub(vehicles=((3, NodeId(0, 2)), (1, NodeId(2, 0))))
    hub.add_job(Job(0, NodeId(0, 0), NodeId(8, 8)))
    hub.dispatch(0)
    assert hub.assignments == {0: 1}


def test_no_idle_vehicles_leaves_job_queued():
    hub = make_hub()
    hub.add_job(Job(0, NodeId(1, 0), NodeId(5, 0)))
    hub.dispatch(0)
    hub.add_job(Job(1, NodeId(2, 0), NodeId(5, 5)))
    hub.dispatch(1)
    assert hub.assignments == {0: 0}
    # only the retransmit-eligible first order may be on the wire
    assert all(m.dest != NodeId(2, 0) for m in hub.outbox)


def test_job_not_dispatched_before_release_tick():
    hub = make_hub()
    hub.add_job(Job(0, NodeId(1, 0), NodeId(5, 0), release_tick=100))
    hub.dispatch(99)
    assert hub.assignments == {}
    hub.dispatch(100)
    assert hub.assignments == {0: 0}


def test_nearer_vehicle_loses_when_its_leg_crosses_a_park_spot():
    # vehicle 0 is two hops from job 0's pickup, but its corner's only exit
    # is job 1's pickup; vehicle 1 is six hops away along open nodes
    grid = build_grid(2.0, 2.0, 0.25, {NodeId(0, 1)})
    homes = {0: NodeId(0, 0), 1: NodeId(8, 0)}
    jobs = (Job(0, NodeId(2, 0), NodeId(2, 5)), Job(1, NodeId(1, 0), NodeId(6, 6), release_tick=999))
    spots = frozenset(homes.values()) | {n for j in jobs for n in (j.pickup_node, j.destination_node)}
    winners = []
    for park_spots in (spots, frozenset()):
        hub = Hub(grid, park_spots)
        for vid, home in homes.items():
            hub.register_vehicle(vid, home)
        for job in jobs:
            hub.add_job(job)
        hub.dispatch(0)
        winners.append(hub.assignments)
    assert winners == [{0: 1}, {0: 0}]


def test_job_nobody_can_serve_raises_when_first_considered():
    # the pickup's only neighbour is another job's drop-off
    grid = build_grid(2.0, 2.0, 0.25, {NodeId(0, 1)})
    jobs = (Job(0, NodeId(0, 0), NodeId(5, 5), release_tick=10), Job(1, NodeId(3, 3), NodeId(1, 0)))
    spots = frozenset({NodeId(8, 8)}) | {n for j in jobs for n in (j.pickup_node, j.destination_node)}
    hub = Hub(grid, spots)
    hub.register_vehicle(0, NodeId(8, 8))
    for job in jobs:
        hub.add_job(job)
    hub.dispatch(9)
    assert hub.assignments == {1: 0}
    with pytest.raises(ScenarioInvalid, match=r"^jobs: job 0 \(pickup \(0, 0\), destination \(5, 5\)\)"):
        hub.dispatch(10)


def test_job_no_home_reaches_raises():
    # the only vehicle's corner opens only onto the park spot (1, 0); the
    # pickup reaches the drop-off, but no home reaches the pickup
    grid = build_grid(2.0, 2.0, 0.25, {NodeId(0, 1)})
    job = Job(0, NodeId(4, 4), NodeId(6, 6))
    hub = Hub(grid, frozenset({NodeId(0, 0), NodeId(1, 0), NodeId(4, 4), NodeId(6, 6)}))
    hub.register_vehicle(0, NodeId(0, 0))
    hub.add_job(job)
    with pytest.raises(ScenarioInvalid, match=r"^jobs: job 0 .*no vehicle home"):
        hub.dispatch(0)


def reference_job_feasible(grid, park_spots, home, job):
    """Both legs exist on routing grids that block every other park spot:
    one BFS per leg and per vehicle, the oracle for the hub's per-pickup
    stop-at-park-spots table."""

    def routing_grid(src, dst):
        extra = park_spots - {src, dst}
        if not extra:
            return grid
        return replace(grid, blocked=grid.blocked | extra)

    g = routing_grid(home, job.pickup_node)
    ok = job.pickup_node in hop_distances(g, home)
    if ok:
        g = routing_grid(job.pickup_node, job.destination_node)
        ok = job.destination_node in hop_distances(g, job.pickup_node)
    return ok


def draw_depot(draw):
    """A grid of 2-12 nodes a side with 3-12 park spots and up to 35% of
    its nodes blocked, none of them a spot."""
    nx, ny = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    nodes = draw(st.permutations([NodeId(ix, iy) for ix in range(nx) for iy in range(ny)]))
    n_spots = draw(st.integers(3, min(12, len(nodes))))
    spots, rest = nodes[:n_spots], nodes[n_spots:]
    n_blocked = draw(st.integers(0, min(len(rest), int(0.35 * len(nodes)))))
    return build_grid(nx - 1.0, ny - 1.0, 1.0, rest[:n_blocked]), spots


@st.composite
def feasibility_cases(draw):
    grid, spots = draw_depot(draw)
    homes = draw(st.lists(st.sampled_from(spots), min_size=1, max_size=4, unique=True))
    pickup = draw(st.sampled_from(spots))
    dest = draw(st.sampled_from([s for s in spots if s != pickup]))
    return grid, frozenset(spots), homes, Job(0, pickup, dest)


@settings(max_examples=200, deadline=None)
@given(feasibility_cases())
def test_dispatch_feasibility_matches_reference(case):
    grid, spots, homes, job = case
    for home in homes:
        hub = Hub(grid, spots)
        hub.register_vehicle(0, home)
        hub.add_job(job)
        if reference_job_feasible(grid, spots, home, job):
            hub.dispatch(0)
            assert hub.assignments == {0: 0}
        else:
            with pytest.raises(ScenarioInvalid, match=r"^jobs: job 0 "):
                hub.dispatch(0)


def local_hops(grid, root, walls=frozenset()):
    """Breadth-first hop counts from ``root`` over the unblocked nodes
    outside ``walls``, worked out from offsets and bounds."""
    dist = {root: 0}
    queue = deque([root])
    while queue:
        cur = queue.popleft()
        for dx, dy in ((1, 0), (0, 1), (-1, 0), (0, -1)):
            nb = NodeId(cur.ix + dx, cur.iy + dy)
            if (
                0 <= nb.ix < grid.nx
                and 0 <= nb.iy < grid.ny
                and nb not in grid.blocked
                and nb not in walls
                and nb not in dist
            ):
                dist[nb] = dist[cur] + 1
                queue.append(nb)
    return dist


@st.composite
def depots(draw):
    """A depot with up to six vehicles on distinct homes and up to six
    jobs, all released at tick 0, that some home can serve."""
    grid, spots = draw_depot(draw)
    homes = draw(st.lists(st.sampled_from(spots), min_size=1, max_size=6, unique=True))
    park_spots = frozenset(spots)
    jobs = []
    for job_id in range(draw(st.integers(1, 6))):
        pickup = draw(st.sampled_from(spots))
        dest = draw(st.sampled_from([s for s in spots if s != pickup]))
        servable = dest in local_hops(grid, pickup, park_spots - {pickup, dest}) and any(
            pickup in local_hops(grid, home, park_spots - {home, pickup}) for home in homes
        )
        if servable:
            jobs.append(Job(job_id, pickup, dest))
    assume(jobs)
    return grid, park_spots, homes, jobs


@settings(max_examples=200, deadline=None)
@given(depots())
def test_dispatch_picks_the_nearest_free_home_by_hops_from_the_pickup(case):
    """Each job, in order, goes to the free vehicle whose home is nearest
    its pickup by a breadth-first search from the pickup, lowest id on
    ties, among the homes that reach the pickup without crossing another
    park spot; a job no free vehicle may serve stays queued."""
    grid, park_spots, homes, jobs = case
    hub = Hub(grid, park_spots)
    for vid, home in enumerate(homes):
        hub.register_vehicle(vid, home)
    for job in jobs:
        hub.add_job(job)
    free = set(range(len(homes)))
    expected = {}
    for job in jobs:
        from_pickup = local_hops(grid, job.pickup_node)
        eligible = [
            (from_pickup[homes[vid]], vid)
            for vid in free
            if job.pickup_node in local_hops(grid, homes[vid], park_spots - {homes[vid], job.pickup_node})
        ]
        if eligible:
            vid = min(eligible)[1]
            free.discard(vid)
            expected[job.job_id] = vid
    hub.dispatch(0)
    assert hub.assignments == expected


def test_unacked_order_retransmits_every_20_ticks():
    hub = make_hub()
    hub.add_job(Job(0, NodeId(1, 0), NodeId(5, 0)))
    hub.dispatch(0)
    hub.dispatch(10)
    assert len(hub.outbox) == 1
    hub.dispatch(20)
    assert len(hub.outbox) == 2
    hub.on_ack(0)
    hub.dispatch(40)
    assert len(hub.outbox) == 2


def test_wake_tick_is_the_next_release_retry_or_freed_vehicle():
    hub = make_hub()
    assert hub.wake_tick == math.inf  # no jobs, nothing to do
    hub.add_job(Job(0, NodeId(1, 0), NodeId(5, 0), release_tick=30))
    hub.add_job(Job(1, NodeId(2, 0), NodeId(6, 0), release_tick=70))
    assert hub.wake_tick == 30
    hub.dispatch(0)
    assert hub.wake_tick == 30
    hub.dispatch(30)  # job 0 goes out; its order is unacked
    assert hub.wake_tick == 50
    hub.dispatch(50)  # retransmits
    assert hub.wake_tick == 70
    hub.on_ack(0)
    hub.dispatch(70)  # job 1 waits: the only vehicle is busy
    assert hub.wake_tick == math.inf
    hub.on_activate(0, 80)
    assert hub.wake_tick == 100
    hub.on_ack(0)
    hub.on_job_complete(0)
    assert hub.wake_tick < 0
    hub.dispatch(90)
    assert hub.assignments == {0: 0, 1: 0}
    assert hub.wake_tick == 110


def hub_state(hub):
    orders = {vid: (o.dest, o.last_send, o.acked) for vid, o in hub.orders.items()}
    jobs = {vid: info.job for vid, info in hub.vehicles.items()}
    return list(hub.outbox), orders, dict(hub.assignments), jobs, hub.wake_tick


@st.composite
def hub_histories(draw):
    """1-4 vehicles and 1-5 jobs on the 9 x 9 grid, and a history of steps:
    ticks forward, an ACK, ACTIVATE or job completion from a vehicle, or nothing."""
    nodes = [NodeId(ix, iy) for ix in range(9) for iy in range(9)]
    homes = draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=4, unique=True))
    jobs = []
    for job_id in range(draw(st.integers(1, 5))):
        pickup, dest = draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique=True))
        jobs.append(Job(job_id, pickup, dest, draw(st.integers(0, 60))))
    event = st.sampled_from(["ack", "activate", "complete", "none"])
    steps = draw(st.lists(st.tuples(st.integers(0, 30), event, st.integers(0, len(homes) - 1)), max_size=25))
    probes = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=3))
    return homes, jobs, steps, probes


@settings(max_examples=200, deadline=None)
@given(hub_histories())
def test_only_telemetry_before_wake_tick_leaves_dispatch_nothing_to_do(history):
    """After dispatch(t), a dispatch at any t' with t < t' < wake_tick, with
    only telemetry ingested in between, assigns nothing and changes neither
    the outbox, the orders, the assignments nor the wake tick.  The engine
    skips such a dispatch."""
    homes, jobs, steps, probes = history
    hub = make_hub(tuple(enumerate(homes)))
    for job in jobs:
        hub.add_job(job)
    t = 0
    for dt, event, vid in steps:
        t += dt
        if event == "ack":
            hub.on_ack(vid)
        elif event == "activate":
            hub.on_activate(vid, t)
        elif event == "complete" and hub.vehicles[vid].job is not None:
            hub.on_job_complete(vid)
        hub.dispatch(t)
        hub.outbox.clear()
        span = min(hub.wake_tick, t + 200) - t - 1
        for share in probes:
            later = t + 1 + int(share * span)
            if later >= hub.wake_tick:
                continue
            before = hub_state(hub)
            ingest_telemetry(hub, telemetry_msg(vid, 0.5, 0.25), later - 1, "IDLE")
            ingest_telemetry(hub, telemetry_msg(vid, 0.75, 0.25), later, "IDLE")
            hub.dispatch(later)
            assert hub_state(hub) == before


def test_activate_issues_cargo_destination():
    hub = make_hub()
    hub.add_job(Job(0, NodeId(1, 0), NodeId(5, 0)))
    hub.dispatch(0)
    hub.on_ack(0)
    hub.on_activate(0, 50)
    dests = [m.dest for m in hub.outbox]
    assert dests == [NodeId(1, 0), NodeId(5, 0)]


def test_duplicate_activate_rearms_cargo_order():
    hub = make_hub()
    hub.add_job(Job(0, NodeId(1, 0), NodeId(5, 0)))
    hub.dispatch(0)
    hub.on_activate(0, 50)
    hub.on_ack(0)
    hub.on_activate(0, 80)  # ACTIVATE retry after a lost ASSIGN
    assert [m.dest for m in hub.outbox].count(NodeId(5, 0)) == 2


def test_activate_from_unknown_vehicle():
    hub = make_hub()
    with pytest.raises(UnknownVehicle):
        hub.on_activate(9, 0)


def test_job_complete_frees_the_vehicle():
    hub = make_hub()
    hub.add_job(Job(0, NodeId(1, 0), NodeId(5, 0)))
    hub.dispatch(0)
    hub.on_activate(0, 10)
    hub.on_job_complete(0)
    hub.add_job(Job(1, NodeId(2, 0), NodeId(6, 0)))
    hub.dispatch(501)
    assert hub.assignments == {0: 0, 1: 0}


def test_one_active_job_per_vehicle():
    hub = make_hub()
    hub.add_job(Job(0, NodeId(1, 0), NodeId(5, 0)))
    hub.add_job(Job(1, NodeId(2, 0), NodeId(6, 0)))
    hub.dispatch(0)
    assert hub.assignments == {0: 0}


# --------------------------------------------------------------------- csv


def test_empty_log_writes_header_only(tmp_path):
    path = tmp_path / "t.csv"
    write_csv([], path)
    assert path.read_text() == CSV_HEADER + "\n"


def test_csv_rows_sorted_and_fixed_precision(tmp_path):
    log = [
        record(2, 0, 0.5, 0.0),
        record(1, 1, 0.25, 0.0, speed=0.1),
        record(1, 0, 0.0, 0.0),
    ]
    path = tmp_path / "t.csv"
    write_csv(log, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "1,0,0.00000,0.00000,0.00000,0.00000,0.00000,0.00000,IDLE"
    assert lines[2].startswith("1,1,0.25000,0.00000,0.00000,0.10000,0.25000,")
    assert lines[3].startswith("2,0,0.50000,")


def test_csv_is_byte_deterministic(tmp_path):
    log = [record(t, v, t * 0.01, v * 0.1) for t in range(20) for v in range(2)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(log, a)
    write_csv(log, b)
    assert a.read_bytes() == b.read_bytes()


def test_csv_io_failure(tmp_path):
    with pytest.raises(IoFailure):
        write_csv([], tmp_path / "no" / "such" / "dir.csv")


# ----------------------------------------------------------------- metrics


def test_four_hop_trip_distance():
    log = [record(t, 0, t * 0.25, 0.0, speed=0.1 if t else 0.0) for t in range(5)]
    assert metrics(log)[0].total_distance_m == pytest.approx(1.0)


def test_stationary_vehicle_zero_distance():
    log = [record(t, 0, 0.5, 0.5) for t in range(10)]
    m = metrics(log)[0]
    assert m.total_distance_m == 0.0
    assert m.mean_transit_speed_m_s == 0.0
    assert m.job_completion_ticks == ()


def test_mean_speed_ignores_stopped_samples():
    log = [
        record(0, 0, 0.0, 0.0, speed=0.0),
        record(1, 0, 0.1, 0.0, speed=0.099),
        record(2, 0, 0.2, 0.0, speed=0.101),
        record(3, 0, 0.2, 0.0, speed=0.0),
    ]
    assert metrics(log)[0].mean_transit_speed_m_s == pytest.approx(0.1)


def test_completion_is_retracing_to_idle_flip():
    log = [
        record(0, 0, 0.0, 0.0, state="IDLE"),
        record(1, 0, 0.5, 0.0, state="TRANSIT"),
        record(2, 0, 0.5, 0.0, state="UNLOADING"),
        record(3, 0, 0.25, 0.0, state="RETRACING"),
        record(4, 0, 0.0, 0.0, state="IDLE"),
    ]
    assert metrics(log)[0].job_completion_ticks == (4,)


def test_empty_log_has_no_metrics():
    assert metrics([]) == {}


# -------------------------------------------------------------------- jobs


def test_dispatch_assigns_released_jobs_and_queues_the_rest():
    hub = make_hub()
    hub.add_job(Job(0, NodeId(1, 0), NodeId(5, 0)))
    hub.add_job(Job(1, NodeId(2, 0), NodeId(6, 0), release_tick=999))
    hub.dispatch(0)
    assert hub.assignments == {0: 0}
    assert [j.job_id for j in hub.jobs if j.job_id not in hub.assignments] == [1]


def test_job_rejects_equal_endpoints():
    with pytest.raises(ValueError):
        Job(0, NodeId(1, 1), NodeId(1, 1))
