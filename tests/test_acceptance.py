"""End-to-end acceptance suite.

Eight shipping criteria, one test per criterion, each ending in a single
PASS line.  Tolerances sit inline next to the assertions they guard.
"""

import dataclasses
import math
import random
import time
from collections import deque

import numpy as np
import pytest

from swarmport.errors import NoPath, VehicleLimitExceeded
from swarmport.grid import NodeId, Position, build_grid
from swarmport.hub import Job
from swarmport.planner import (
    TimedPath,
    TimedStep,
    astar,
    bellman_ford,
    dijkstra,
    floyd_warshall,
    hop_distances,
)
from swarmport.radar import (
    Disc,
    SweepConfig,
    WorldModel,
    detect_targets,
    sweep,
    time_of_flight,
)
from swarmport.rfnet import (
    Channel,
    Medium,
    Message,
    MessageKind,
    Radio,
    assign_channel,
    crc16_ccitt_false,
    decode,
    encode,
)
from swarmport.sim import (
    MediumConfig,
    Scenario,
    SimConfig,
    Simulation,
    TerrainConfig,
    VehicleSpec,
    analytic_makespan_ticks,
    default_scenario,
    run,
)
from swarmport.vehicle import PidState, VehicleAgent, VehicleParams, motor_step, pid_update

SPACING = 0.25


# =====================================================================
# Criterion 1: four shortest-path algorithms vs a plain BFS oracle
# =====================================================================


def bfs_oracle(grid, src, dst):
    if src == dst:
        return 0
    seen = {src}
    queue = deque([(src, 0)])
    while queue:
        node, d = queue.popleft()
        for nxt in grid.neighbors(node):
            if nxt in seen:
                continue
            if nxt == dst:
                return d + 1
            seen.add(nxt)
            queue.append((nxt, d + 1))
    return None


def test_c1_all_planners_match_bfs_on_200_seeded_grids():
    t0 = time.monotonic()
    nodes = [NodeId(x, y) for x in range(9) for y in range(9)]
    for seed in range(200):
        rng = random.Random(seed)
        blocked = rng.sample(nodes, rng.randint(0, int(0.30 * 81)))
        grid = build_grid(2.0, 2.0, SPACING, blocked=blocked)
        free = [n for n in nodes if not grid.is_blocked(n)]
        src, dst = rng.sample(free, 2)

        want = bfs_oracle(grid, src, dst)
        dist_map = bellman_ford(grid, src)
        table = floyd_warshall(grid)
        if want is None:
            with pytest.raises(NoPath):
                dijkstra(grid, src, dst)
            with pytest.raises(NoPath):
                astar(grid, src, dst)
            assert dst not in dist_map
            assert math.isinf(table.cost(src, dst))
        else:
            assert dijkstra(grid, src, dst).cost == want
            assert astar(grid, src, dst).cost == want
            assert dist_map[dst] == want
            assert table.cost(src, dst) == want
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"[C1] 200 seeded grids, 4 algorithms == BFS oracle ({elapsed:.2f} s): PASS")


# =====================================================================
# Criteria 2 + 3: fleet safety audit and retrace closure on 50 scenarios
# =====================================================================


def crossing_scenario(seed):
    """2-8 vehicles with terminals scattered so routes must cross."""
    rng = random.Random(seed)
    n_vehicles = rng.randint(2, 8)
    while True:
        blocked = set()
        for _ in range(rng.randint(0, 6)):
            blocked.add(NodeId(rng.randrange(9), rng.randrange(9)))
        free = [NodeId(x, y) for x in range(9) for y in range(9) if NodeId(x, y) not in blocked]
        if len(free) < n_vehicles * 3 + 2:
            continue
        homes = rng.sample(free, n_vehicles)
        rest = [n for n in free if n not in homes]
        if len(rest) < 2 * n_vehicles:
            continue
        terminals = rng.sample(rest, 2 * n_vehicles)
        pickups = terminals[:n_vehicles]
        dests = terminals[n_vehicles:]
        spots = set(homes) | set(pickups) | set(dests)

        def leg_ok(a, b):
            # parked vehicles may sit open-ended on any terminal spot,
            # so a leg must survive with every other spot sealed off
            g = build_grid(2.0, 2.0, SPACING, blocked | (spots - {a, b}))
            return b in hop_distances(g, a)

        if all(leg_ok(h, p) and leg_ok(p, d) for h, p, d in zip(homes, pickups, dests)):
            return Scenario(
                terrain=TerrainConfig(blocked=tuple(sorted(blocked))),
                vehicles=tuple(VehicleSpec(i, h) for i, h in enumerate(homes)),
                jobs=tuple(Job(i, p, d) for i, (p, d) in enumerate(zip(pickups, dests))),
                medium=MediumConfig(seed=seed),
                sim=SimConfig(dt_s=0.05, max_ticks=200_000),
            )


def audit_occupancy(sim):
    """Pairwise (node, tick) overlaps and minimum metric separation."""
    occ = np.array(sim.occupancy_trace)
    poses = np.array(sim.pose_trace)
    n = occ.shape[1]
    conflicts = 0
    min_dist = math.inf
    for i in range(n):
        for j in range(i + 1, n):
            a, b = occ[:, i, :], occ[:, j, :]
            hit = ((a[:, 0:1] == b) | (a[:, 1:2] == b)).any(axis=1)
            conflicts += int(hit.sum())
            d = np.hypot(*(poses[:, i, :] - poses[:, j, :]).T)
            min_dist = min(min_dist, float(d.min()))
    return conflicts, min_dist


@pytest.fixture(scope="module")
def fleet_runs():
    t0 = time.monotonic()
    sims = []
    for seed in range(50):
        sim = Simulation(crossing_scenario(seed), trace=True, capture=False)
        sim.run_loop()
        assert sim.completed_jobs == sim.total_jobs, f"seed {seed} stalled"
        sims.append(sim)
    return sims, time.monotonic() - t0


def test_c2_occupancy_audit_on_50_seeded_fleets(fleet_runs):
    sims, elapsed = fleet_runs
    for sim in sims:
        conflicts, min_dist = audit_occupancy(sim)
        assert conflicts == 0
        assert min_dist >= 0.5 * SPACING  # no approach under half a node pitch
    assert elapsed < 60.0
    print(f"[C2] 50 fleets: 0 node/tick conflicts, min separation >= 0.125 m ({elapsed:.1f} s): PASS")


def test_c3_every_job_cycle_retraces_exactly_and_closes(fleet_runs):
    sims, _ = fleet_runs
    cycles = 0
    for sim in sims:
        assert len(sim.job_traces) == sim.total_jobs
        for trace in sim.job_traces:
            assert trace.retraced == trace.outbound[::-1]
            fx, fy = trace.final_pose
            hx, hy = trace.home_position
            assert math.hypot(fx - hx, fy - hy) <= SPACING / 10.0
            cycles += 1
    print(f"[C3] {cycles} job cycles: exact reverse retrace, closure <= spacing/10: PASS")


# =====================================================================
# Criterion 4: wheel-speed regulation and cruise accuracy
# =====================================================================


def test_c4_pid_settles_fast_and_cruise_speed_holds():
    pid = PidState()
    params = VehicleParams()
    omega = 0.0
    history = []
    for _ in range(400):  # 4 s at 10 ms
        u = pid_update(pid, 2.0, omega, 0.01)
        omega = motor_step(omega, u, params, 0.01)
        history.append(omega)
    overshoot = max(history) - 2.0
    assert overshoot <= 2.0 * 0.10
    outside = [i for i, w in enumerate(history) if abs(w - 2.0) > 2.0 * 0.02]
    settle_s = (outside[-1] + 1) * 0.01 if outside else 0.0
    assert settle_s <= 2.0

    # straight segment: drive four hops east and watch the settled speed
    grid = build_grid(2.0, 2.0, SPACING)
    agent = VehicleAgent(0, NodeId(0, 0), Position(0.0, 0.0))
    agent.press_load_switch(-1)
    agent.step(grid, 0.01, 0)
    nodes = [NodeId(i, 0) for i in range(5)]
    steps = [TimedStep(nodes[0], 0, 0)] + [TimedStep(n, 0, 0) for n in nodes[1:]]
    agent.on_destination(TimedPath(steps, 1))
    speeds = []
    for tick in range(2000):
        agent.step(grid, 0.01, tick + 1)
        if tick * 0.01 >= settle_s and agent.busy:
            speeds.append(agent.speed_m_s)
        if agent.route_finished:
            break
    assert speeds
    assert all(abs(s - 0.1) <= 0.1 * 0.02 for s in speeds)
    print(f"[C4] settle {settle_s:.2f} s <= 2 s, overshoot {overshoot:.3f} <= 0.2, cruise 0.1 m/s +-2%: PASS")


# =====================================================================
# Criterion 5: radar counting, centroids, time-of-flight inversion
# =====================================================================


def disc_world(seed):
    """1-3 discs, angularly clear of each other and of the scan seam."""
    rng = random.Random(seed)
    origin = Position(1.0, 1.0)
    count = rng.randint(1, 3)
    discs = []
    bearings = []
    while len(discs) < count:
        bearing = rng.uniform(25.0, 335.0)
        dist = rng.uniform(0.6, 3.0)
        radius = rng.uniform(0.05, 0.15)
        half_angle = math.degrees(math.asin(min(1.0, radius / dist)))
        if any(abs(bearing - b) < half_angle + other + 12.0 for b, other in bearings):
            continue
        a = math.radians(bearing)
        discs.append(Disc(Position(origin.x + dist * math.cos(a), origin.y + dist * math.sin(a)), radius))
        bearings.append((bearing, half_angle))
    return origin, discs


def test_c5_radar_counts_and_centroids_on_20_seeded_worlds():
    for seed in range(20):
        origin, discs = disc_world(seed)
        cfg = SweepConfig(origin=origin)
        scan = sweep(WorldModel(discs), cfg, 0.0, 359.0)
        targets = detect_targets(scan, cfg)
        assert len(targets) == len(discs), f"seed {seed}"

        for disc in discs:
            dx, dy = disc.center.x - origin.x, disc.center.y - origin.y
            d = math.hypot(dx, dy)
            near_face = Position(
                origin.x + (d - disc.radius_m) * dx / d,
                origin.y + (d - disc.radius_m) * dy / d,
            )
            err = min(
                math.hypot(t.centroid.x - near_face.x, t.centroid.y - near_face.y)
                for t in targets
            )
            assert err <= 0.05, f"seed {seed}: centroid off by {err:.4f}"

        for _, dist in scan.samples:
            if dist is None:
                continue
            assert dist <= 4.0
            t = time_of_flight(dist, 343.0)
            assert abs(343.0 * t / 2.0 - dist) <= 1e-9 * dist
    print("[C5] 20 worlds: exact counts, centroid <= 0.05 m, ToF inverts @1e-9, range <= 4 m: PASS")


# =====================================================================
# Criterion 6: codec identity, CRC vector, channel isolation
# =====================================================================


def random_message(rng):
    kind = rng.choice(list(MessageKind))
    vid = rng.randrange(256)
    if kind == MessageKind.ASSIGN_DESTINATION:
        return Message(kind, vid, dest=NodeId(rng.randrange(65536), rng.randrange(65536)))
    if kind == MessageKind.TELEMETRY:
        return Message(
            kind,
            vid,
            x_mm=rng.randrange(65536),
            y_mm=rng.randrange(65536),
            speed_mm_s=rng.randrange(65536),
            heading_cdeg=rng.randrange(36000),
        )
    return Message(kind, vid)


def test_c6_codec_identity_crc_vector_and_channel_isolation():
    assert crc16_ccitt_false(b"123456789") == 0x29B1

    rng = random.Random(2024)
    for _ in range(10_000):
        msg = random_message(rng)
        assert decode(encode(msg)) == msg

    medium = Medium(seed=3)
    radios = [medium.attach(Radio(Channel(i))) for i in range(8)]
    senders = [Radio(Channel(i)) for i in range(8)]
    sent: dict[int, list[bytes]] = {i: [] for i in range(8)}
    for tick in range(2_000):
        ch = rng.randrange(8)
        frame = encode(random_message(rng))
        medium.send(senders[ch], frame, tick)
        sent[ch].append(frame)
    for i, radio in enumerate(radios):
        assert medium.poll(radio, 2_000) == sent[i]

    for vid in (128, 129, 1_000):
        with pytest.raises(VehicleLimitExceeded):
            assign_channel(vid)
    assign_channel(127)
    print("[C6] 10^4 round-trips, CRC 0x29B1, isolated channels, id >= 128 rejected: PASS")


# =====================================================================
# Criterion 7: byte determinism and analytic makespan
# =====================================================================


def test_c7_default_scenario_reruns_byte_identical_and_near_estimate(tmp_path):
    t0 = time.monotonic()
    scenario = default_scenario()
    dirs = (tmp_path / "a", tmp_path / "b")
    reports = [run(scenario, d) for d in dirs]
    elapsed = time.monotonic() - t0

    names = ["telemetry.csv", "scan_stream.txt", "summary.json", "summary.txt", "capture.bin"]
    for name in names:
        a = (dirs[0] / name).read_bytes()
        b = (dirs[1] / name).read_bytes()
        assert a == b, f"{name} differs between runs"
    frame_names = sorted(p.name for p in (dirs[0] / "frames").iterdir())
    assert frame_names == sorted(p.name for p in (dirs[1] / "frames").iterdir())
    for name in frame_names:
        assert (dirs[0] / "frames" / name).read_bytes() == (dirs[1] / "frames" / name).read_bytes()

    makespan = reports[0].makespan_ticks
    assert makespan == reports[1].makespan_ticks
    estimate = analytic_makespan_ticks(scenario)
    rel_err = abs(makespan - estimate) / estimate
    assert rel_err <= 0.20
    assert elapsed < 10.0
    print(
        f"[C7] byte-identical artifacts; makespan {makespan} vs estimate {estimate} "
        f"({rel_err:.1%}); {elapsed:.2f} s: PASS"
    )


# =====================================================================
# Criterion 8: liveness through a lossy medium
# =====================================================================


def test_c8_default_scenario_completes_under_30pct_loss_20_seeds():
    for seed in range(20):
        scenario = dataclasses.replace(
            default_scenario(), medium=MediumConfig(loss_probability=0.3, seed=seed)
        )
        sim = Simulation(scenario, capture=False)
        sim.run_loop()
        assert sim.completed_jobs == sim.total_jobs, f"seed {seed} incomplete"
        assert sim.tick_count < scenario.sim.max_ticks
    print("[C8] loss 0.3: all jobs complete in 20/20 seeded runs: PASS")
