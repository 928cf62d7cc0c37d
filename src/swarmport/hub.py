"""Central coordinator: job dispatch, fleet telemetry and its metrics.

The hub is co-located with the sim loop.  Mission bookkeeping (who is free)
comes from the engine's job-complete callback, and a free vehicle is always
parked at its home; the RF telemetry stream is the logged data product and
feeds the CSV/metrics pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import IoFailure, ScenarioInvalid, UnknownVehicle
from .grid import GridMap, NodeId
from .planner import hop_distances
from .rfnet import Message, MessageKind

ORDER_RETRY_TICKS = 20


@dataclass(frozen=True)
class Job:
    job_id: int
    pickup_node: NodeId
    destination_node: NodeId
    release_tick: int = 0

    def __post_init__(self) -> None:
        if self.pickup_node == self.destination_node:
            raise ValueError(f"job {self.job_id}: pickup equals destination")


class TelemetryRecord(NamedTuple):
    tick: int
    vehicle_id: int
    x_m: float
    y_m: float
    heading_deg: float
    speed_m_s: float
    dist_from_origin_m: float
    angle_from_origin_deg: float
    state: str


@dataclass
class _Order:
    dest: NodeId
    last_send: int
    acked: bool = False


@dataclass
class _VehicleInfo:
    home: NodeId
    job: Job | None = None  # None exactly while the vehicle is free, parked at home


class Hub:
    """Dispatches jobs to the nearest free vehicle and logs the fleet.

    ``park_spots`` are the nodes where a vehicle may park open-ended (homes,
    pickups, drop-offs).  No leg passes through one, so a vehicle may serve
    a job only if both its legs exist without crossing another park spot.
    """

    def __init__(self, grid: GridMap, park_spots: frozenset[NodeId]) -> None:
        self.grid = grid
        self.park_spots = park_spots
        self.vehicles: dict[int, _VehicleInfo] = {}
        self.jobs: list[Job] = []
        self.assignments: dict[int, int] = {}
        self.orders: dict[int, _Order] = {}
        self.log: list[TelemetryRecord] = []
        self.outbox: list[Message] = []
        # Without an inbound ACTIVATE or ACK, dispatch has nothing new to do
        # before this tick: the next job release, the earliest order retry,
        # or at once after a vehicle is freed.  Telemetry changes nothing
        # dispatch reads.
        self.wake_tick: float = math.inf

    def register_vehicle(self, vehicle_id: int, home_node: NodeId) -> None:
        self.vehicles[vehicle_id] = _VehicleInfo(home=home_node)

    def add_job(self, job: Job) -> None:
        self.jobs.append(job)
        self.jobs.sort(key=lambda j: (j.release_tick, j.job_id))
        self.wake_tick = min(self.wake_tick, job.release_tick)

    # -- dispatch ----------------------------------------------------

    def _send_order(self, vehicle_id: int, order: _Order, tick: int) -> None:
        self.outbox.append(Message(MessageKind.ASSIGN_DESTINATION, vehicle_id, dest=order.dest))
        order.last_send = tick
        self.wake_tick = min(self.wake_tick, tick + ORDER_RETRY_TICKS)

    def _reach(self, job: Job) -> dict[NodeId, int]:
        """The pickup's `hop_distances` with park spots as stops; raises for a job nobody can ever serve.

        On an undirected grid the leg home -> pickup (or pickup -> drop-off)
        exists without crossing another park spot exactly when home (or the
        drop-off) is in this table, from which `plan_space_time` bounds the
        leg.  The checks read only fixed tables and homes: they raise the
        first time dispatch meets the job, or never.
        """
        pickup = job.pickup_node
        reach = hop_distances(self.grid, pickup, self.park_spots)
        if job.destination_node in reach and any(info.home in reach for info in self.vehicles.values()):
            return reach
        where = f"jobs: job {job.job_id} (pickup {tuple(pickup)}, destination {tuple(job.destination_node)})"
        if job.destination_node not in reach:
            raise ScenarioInvalid(f"{where}: no route to the destination avoids the other parking spots")
        raise ScenarioInvalid(f"{where}: no vehicle home reaches the pickup without crossing a parking spot")

    def dispatch(self, current_tick: int) -> None:
        """Assign released jobs to free vehicles; retransmit stale orders.

        A job goes to the free vehicle nearest its pickup by hops, lowest id
        on ties, among those whose home reaches the pickup without crossing
        another park spot.  A free vehicle is parked at its home, so the
        distance is the home's, read from the home's table over the whole
        grid: on an undirected grid it is the pickup's distance to the home.

        Between calls, the result can change only when a job is released,
        a vehicle is freed, an order's retry falls due or an ACTIVATE or ACK
        comes in; ``wake_tick`` is the first tick at which one of the first
        three is due.  Before it, a call after only `ingest_telemetry`
        changes nothing.
        """
        wake = math.inf
        for job in self.jobs:
            if job.job_id in self.assignments:
                continue
            if job.release_tick > current_tick:
                wake = job.release_tick  # the jobs are in release order
                break
            reach = self._reach(job)
            best: tuple[int, int] | None = None
            for vid, info in self.vehicles.items():
                if info.job is None and info.home in reach:
                    d = hop_distances(self.grid, info.home)[job.pickup_node]
                    if best is None or (d, vid) < best:
                        best = (d, vid)
            if best is None:
                continue
            vid = best[1]
            info = self.vehicles[vid]
            info.job = job
            self.assignments[job.job_id] = vid
            order = _Order(job.pickup_node, current_tick)
            self.orders[vid] = order
            self._send_order(vid, order, current_tick)
        for vid, order in self.orders.items():
            if order.acked:
                continue
            if current_tick - order.last_send >= ORDER_RETRY_TICKS:
                self._send_order(vid, order, current_tick)
            wake = min(wake, order.last_send + ORDER_RETRY_TICKS)
        self.wake_tick = wake

    def on_activate(self, vehicle_id: int, current_tick: int) -> None:
        """Loaded vehicle announced itself; issue the cargo destination.
        The cargo order is the one to the drop-off, never the pickup."""
        info = self.vehicles.get(vehicle_id)
        if info is None:
            raise UnknownVehicle(f"ACTIVATE from unregistered vehicle {vehicle_id}")
        if info.job is None:
            return
        dest = info.job.destination_node
        order = self.orders.get(vehicle_id)
        if order is None or order.dest != dest:
            order = _Order(dest, current_tick)
            self.orders[vehicle_id] = order
            self._send_order(vehicle_id, order, current_tick)
        else:
            # Duplicate ACTIVATE: the cargo order was lost; re-arm it.
            order.acked = False
            self._send_order(vehicle_id, order, current_tick)

    def on_ack(self, vehicle_id: int) -> None:
        order = self.orders.get(vehicle_id)
        if order is not None:
            order.acked = True

    def on_job_complete(self, vehicle_id: int) -> None:
        self.vehicles[vehicle_id].job = None
        self.orders.pop(vehicle_id, None)
        self.wake_tick = -math.inf


def ingest_telemetry(hub: Hub, message: Message, tick: int, state: str) -> TelemetryRecord:
    """Decode a TELEMETRY message into the fleet log with derived polar pose.

    ``state`` is the sender's cargo state, which the co-located engine knows.
    """
    if message.kind != MessageKind.TELEMETRY:
        raise ValueError(f"expected TELEMETRY, got {message.kind!r}")
    if message.vehicle_id not in hub.vehicles:
        raise UnknownVehicle(f"telemetry from unregistered vehicle {message.vehicle_id}")
    x = message.x_mm / 1000.0
    y = message.y_mm / 1000.0
    dist = math.hypot(x, y)
    angle = 0.0 if dist == 0.0 else math.degrees(math.atan2(y, x)) % 360.0
    rec = TelemetryRecord(
        tick, message.vehicle_id, x, y, message.heading_cdeg / 100.0, message.speed_mm_s / 1000.0, dist, angle, state
    )
    hub.log.append(rec)
    return rec


CSV_HEADER = (
    "tick,vehicle_id,x_m,y_m,heading_deg,speed_m_s,"
    "dist_from_origin_m,angle_from_origin_deg,state"
)


def write_csv(log: list[TelemetryRecord], out_path: str) -> None:
    """Emit the telemetry log as a byte-deterministic CSV file."""
    rows = sorted(log, key=lambda r: (r.tick, r.vehicle_id))
    try:
        with open(out_path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            for r in rows:
                fh.write(
                    f"{r.tick},{r.vehicle_id},{r.x_m:.5f},{r.y_m:.5f},"
                    f"{r.heading_deg:.5f},{r.speed_m_s:.5f},"
                    f"{r.dist_from_origin_m:.5f},{r.angle_from_origin_deg:.5f},"
                    f"{r.state}\n"
                )
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


@dataclass(frozen=True)
class VehicleMetrics:
    total_distance_m: float
    mean_transit_speed_m_s: float
    job_completion_ticks: tuple[int, ...]


def metrics(log: list[TelemetryRecord]) -> dict[int, VehicleMetrics]:
    """Per-vehicle odometry and completion summary computed from the log:
    one entry per vehicle that appears in it, so none for an empty log."""
    by_vehicle: dict[int, list[TelemetryRecord]] = {}
    for rec in sorted(log, key=lambda r: (r.tick, r.vehicle_id)):
        by_vehicle.setdefault(rec.vehicle_id, []).append(rec)
    per_vehicle: dict[int, VehicleMetrics] = {}
    for vid, recs in sorted(by_vehicle.items()):
        dist = 0.0
        speeds: list[float] = []
        completions: list[int] = []
        for prev, cur in zip(recs, recs[1:]):
            dist += math.hypot(cur.x_m - prev.x_m, cur.y_m - prev.y_m)
            if cur.state == "IDLE" and prev.state == "RETRACING":
                completions.append(cur.tick)
        for rec in recs:
            if rec.speed_m_s > 0.0:
                speeds.append(rec.speed_m_s)
        mean_speed = sum(speeds) / len(speeds) if speeds else 0.0
        per_vehicle[vid] = VehicleMetrics(
            total_distance_m=dist,
            mean_transit_speed_m_s=mean_speed,
            job_completion_ticks=tuple(completions),
        )
    return per_vehicle
