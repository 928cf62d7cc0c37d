"""Scenario generation for the three benchmark workloads.

Every generator here is the benchmark's own code: it builds scenario
documents (the JSON layout `swarmport defaults` writes) from plain
integers and its own breadth-first search, so no edit to the program or
to its tests can change what a workload feeds the program.

A workload run repeats whole rounds.  A round is a fixed list of cases
chosen from the workload's pool by the benchmark seed, so every case a
seed can select has a checked-in output digest (see `digest.py`).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

SPACING_M = 0.25
CRUISE_SPEED_M_S = 0.1  # VehicleParams default; every generated vehicle uses it
OFFSETS = ((1, 0), (0, 1), (-1, 0), (0, -1))

# fleet_crossing: the first C2 fleet of each size 2..8 (crossing seeds
# 14, 1, 7, 9, 5, 19, 0).  One fleet's run length swings up to 2x under
# any change of layout (the eight mirror images of crossing seed 0 run
# 6,551 to 12,014 ticks), so a seed-drawn slice of a few fleets cannot
# hold a steady figure; the slice is fixed and the seed sets its order.
CROSSING_SIZES = range(2, 9)

# lossy_default: radio seeds drawn from this pool, this many per round.
RADIO_POOL = 64
RADIO_PER_ROUND = 8
LOSS_PROBABILITY = 0.3

# depot_31: one seeded layout per round, layout = seed % DEPOT_POOL.
DEPOT_POOL = 8
DEPOT_NODES = 31
DEPOT_VEHICLES = 8
DEPOT_BLOCKED_SHARE = 0.08
DEPOT_WAVE_GAP_TICKS = 3000
DEPOT_TELEMETRY_INTERVAL = 100


@dataclass(frozen=True)
class Case:
    """One scenario of a round.

    ``key`` names the case in the digest table.  A case with a
    ``radio_seed`` is run through `swarmport run --seed`; the others are
    driven through the engine with the pose/occupancy trace on.
    """

    key: str
    doc: dict
    radio_seed: int | None = None


def bfs_hops(nx: int, ny: int, blocked: set, root: tuple) -> dict:
    """Hop count from ``root`` to every reachable unblocked node."""
    if root in blocked:
        return {}
    dist = {root: 0}
    queue = deque([root])
    while queue:
        x, y = queue.popleft()
        for dx, dy in OFFSETS:
            nb = (x + dx, y + dy)
            if 0 <= nb[0] < nx and 0 <= nb[1] < ny and nb not in blocked and nb not in dist:
                dist[nb] = dist[(x, y)] + 1
                queue.append(nb)
    return dist


def _document(nodes: int, blocked, homes, jobs, *, radio_seed: int, loss: float,
              dt_s: float, max_ticks: int, telemetry_interval: int, max_range_m: float) -> dict:
    side = (nodes - 1) * SPACING_M
    return {
        "terrain": {
            "width_m": side,
            "height_m": side,
            "spacing_m": SPACING_M,
            "blocked": [list(b) for b in sorted(blocked)],
        },
        "sensor": {
            "origin": [side / 2, side / 2],
            "step_deg": 1.0,
            "beam_halfwidth_deg": 0.0,
            "max_range_m": max_range_m,
        },
        "vehicles": [{"vehicle_id": i, "home_node": list(h)} for i, h in enumerate(homes)],
        "jobs": [
            {"job_id": i, "pickup_node": list(p), "destination_node": list(d), "release_tick": r}
            for i, (p, d, r) in enumerate(jobs)
        ],
        "medium": {"loss_probability": loss, "latency_ticks": 0, "seed": radio_seed},
        "sim": {"dt_s": dt_s, "max_ticks": max_ticks, "telemetry_interval": telemetry_interval},
    }


def crossing_document(seed: int) -> dict:
    """The C2/C3 crossing fleet for ``seed``: 2-8 vehicles on the 9x9 course.

    Draws the same random sequence as the acceptance suite's fixture, so
    crossing seed n here is fleet n of that fixture.
    """
    rng = random.Random(seed)
    n_vehicles = rng.randint(2, 8)
    while True:
        blocked = set()
        for _ in range(rng.randint(0, 6)):
            blocked.add((rng.randrange(9), rng.randrange(9)))
        free = [(x, y) for x in range(9) for y in range(9) if (x, y) not in blocked]
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
            return b in bfs_hops(9, 9, blocked | (spots - {a, b}), a)

        if all(leg_ok(h, p) and leg_ok(p, d) for h, p, d in zip(homes, pickups, dests)):
            return _document(
                9, blocked, homes, [(p, d, 0) for p, d in zip(pickups, dests)],
                radio_seed=seed, loss=0.0, dt_s=0.05, max_ticks=200_000,
                telemetry_interval=10, max_range_m=4.0,
            )


def crossing_seeds() -> list[int]:
    """First crossing seed of each fleet size, in size order."""
    found: dict[int, int] = {}
    seed = 0
    while len(found) < len(CROSSING_SIZES):
        size = len(crossing_document(seed)["vehicles"])
        found.setdefault(size, seed)
        seed += 1
    return [found[size] for size in CROSSING_SIZES]


def lossy_document() -> dict:
    """The built-in two-vehicle scenario (`swarmport defaults`) at 30% loss."""
    return _document(
        9, {(4, 4)}, [(0, 0), (8, 0)], [((1, 2), (7, 2), 0), ((7, 6), (1, 6), 0)],
        radio_seed=42, loss=LOSS_PROBABILITY, dt_s=0.01, max_ticks=1_000_000,
        telemetry_interval=10, max_range_m=4.0,
    )


def depot_document(layout: int, nodes: int = DEPOT_NODES, vehicles: int = DEPOT_VEHICLES) -> dict:
    """A square depot with homes on the south edge and two crossing waves.

    Wave 0 runs from a low row to a high row, wave 1 the other way; each
    job's destination is its pickup mirrored across the vertical centre
    line, so routes cross the middle of the lattice and the cooperative
    planner has to thread them through each other.  The seed only places
    the scattered obstacles, and a layout is redrawn until every
    home-pickup and pickup-destination leg exists with all other parking
    spots sealed off, as the engine routes them.
    """
    rng = random.Random(layout)
    last = nodes - 1
    pitch = (nodes - 3) // (vehicles - 1)
    homes = [(1 + pitch * i, 0) for i in range(vehicles)]
    rows = ((nodes // 3, nodes - 5), (nodes - 3, nodes // 3 + 2))
    jobs = []
    for wave, (pickup_row, dest_row) in enumerate(rows):
        for x, _ in homes:
            column = x + wave
            jobs.append(((column, pickup_row), (last - column, dest_row), wave * DEPOT_WAVE_GAP_TICKS))
    spots = set(homes) | {p for p, _, _ in jobs} | {d for _, d, _ in jobs}
    cells = [(x, y) for x in range(nodes) for y in range(2, nodes) if (x, y) not in spots]
    while True:
        blocked = set(rng.sample(cells, int(DEPOT_BLOCKED_SHARE * nodes * nodes)))
        if all(
            p in bfs_hops(nodes, nodes, blocked | (spots - {h, p}), h)
            and d in bfs_hops(nodes, nodes, blocked | (spots - {p, d}), p)
            for h in homes
            for p, d, _ in jobs
        ):
            break
    return _document(
        nodes, blocked, homes, jobs, radio_seed=layout, loss=0.0, dt_s=0.05,
        max_ticks=400_000, telemetry_interval=DEPOT_TELEMETRY_INTERVAL,
        max_range_m=last * SPACING_M,
    )


def pool(workload: str) -> list[Case]:
    """Every case the workload can run; the digest table covers all of them."""
    if workload == "fleet_crossing":
        return [Case(f"crossing-{s}", crossing_document(s)) for s in crossing_seeds()]
    if workload == "lossy_default":
        doc = lossy_document()
        return [Case(f"radio-{r}", doc, radio_seed=r) for r in range(RADIO_POOL)]
    if workload == "depot_31":
        return [Case(f"depot-{n}", depot_document(n)) for n in range(DEPOT_POOL)]
    raise KeyError(workload)


def round_cases(workload: str, seed: int) -> list[Case]:
    """The cases one round of ``workload`` runs for benchmark seed ``seed``."""
    if workload == "depot_31":
        layout = seed % DEPOT_POOL
        return [Case(f"depot-{layout}", depot_document(layout))]
    rng = random.Random(seed)
    cases = pool(workload)
    if workload == "fleet_crossing":
        rng.shuffle(cases)
        return cases
    return rng.sample(cases, RADIO_PER_ROUND)


WORKLOADS = ("fleet_crossing", "lossy_default", "depot_31")
