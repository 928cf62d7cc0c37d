"""Fixed-timestep simulation engine, scenario config, and run artifacts.

One tick advances the world in a fixed phase order: RF delivery, hub
work, vehicle steps in ascending id, one radar step, telemetry emission,
the optional trace.  Everything downstream of the scenario (plus its
seed) is deterministic, so two runs produce byte-identical outputs.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import cache
from typing import Any, Callable, get_args, get_origin, get_type_hints

from .errors import (
    DecodeError,
    IoFailure,
    NoPath,
    NodeOutOfRange,
    NonPositiveDimension,
    ScenarioInvalid,
    SpacingTooLarge,
)
from .grid import GridMap, NodeId, Position, build_grid
from .hub import (
    Hub,
    Job,
    VehicleMetrics,
    associate_radar,
    ingest_telemetry,
    metrics,
    write_csv,
)
from .planner import (
    INF_TICK,
    ReservationTable,
    TimedPath,
    astar,
    commit,
    plan_space_time,
    schedule_along,
)
from .radar import Disc, Scan, SweepConfig, WorldModel, detect_targets, echo_distance, encode_frame, render_frame
from .rfnet import (
    CHANNEL_COUNT,
    Channel,
    Medium,
    Message,
    MessageKind,
    Radio,
    decode,
    encode,
    write_capture,
)
from .vehicle import (
    AWAITING_ROUTE,
    IDLE,
    LOADED,
    UNLOADING,
    VehicleAgent,
    VehicleParams,
)

UNLOAD_DWELL_S = 1.0
NOPATH_RETRY_TICKS = 50
RENDER_EVERY_SWEEPS = 10
HOP_MARGIN_S = 1.0
START_DEFICIT_S = 0.4
# Telemetry carries positions as unsigned 16-bit millimetres.
MAX_TERRAIN_M = 0xFFFF / 1000.0


# ----------------------------------------------------------------- scenario


@dataclass(frozen=True)
class TerrainConfig:
    width_m: float = 2.0
    height_m: float = 2.0
    spacing_m: float = 0.25
    blocked: tuple[NodeId, ...] = ()


@dataclass(frozen=True)
class VehicleSpec:
    vehicle_id: int
    home_node: NodeId
    params: VehicleParams = field(default_factory=VehicleParams)


@dataclass(frozen=True)
class MediumConfig:
    loss_probability: float = 0.0
    latency_ticks: int = 0
    seed: int = 42


@dataclass(frozen=True)
class SimConfig:
    dt_s: float = 0.01
    max_ticks: int = 1_000_000
    telemetry_interval: int = 10


@dataclass(frozen=True)
class Scenario:
    terrain: TerrainConfig = field(default_factory=TerrainConfig)
    sensor: SweepConfig = field(default_factory=SweepConfig)
    vehicles: tuple[VehicleSpec, ...] = ()
    jobs: tuple[Job, ...] = ()
    medium: MediumConfig = field(default_factory=MediumConfig)
    sim: SimConfig = field(default_factory=SimConfig)


def default_scenario() -> Scenario:
    """Desk-scale prototype: 2x2 m, two corner vehicles, center sensor mast."""
    return Scenario(
        terrain=TerrainConfig(blocked=(NodeId(4, 4),)),
        vehicles=(
            VehicleSpec(0, NodeId(0, 0)),
            VehicleSpec(1, NodeId(8, 0)),
        ),
        jobs=(
            Job(0, NodeId(1, 2), NodeId(7, 2)),
            Job(1, NodeId(7, 6), NodeId(1, 6)),
        ),
    )


def _check_keys(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ScenarioInvalid(f"{where}: unknown field(s) {', '.join(unknown)}")


def _node(value: Any, where: str) -> NodeId:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in value)
    ):
        raise ScenarioInvalid(f"{where}: expected [ix, iy] integer pair, got {value!r}")
    return NodeId(value[0], value[1])


@cache
def _schema(cls: type) -> tuple[tuple[str, Any, bool], ...]:
    """(name, type, required) for each field of a config dataclass."""
    hints = get_type_hints(cls)
    return tuple(
        (f.name, hints[f.name], f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
    )


def _value(tp: Any, value: Any, where: str) -> Any:
    """Check one document value against its field type and convert it."""
    if tp is float or tp is int:
        if isinstance(value, bool) or not isinstance(value, int if tp is int else (int, float)):
            raise ScenarioInvalid(f"{where}: expected {tp.__name__}, got {value!r}")
        return value
    if tp is NodeId:
        return _node(value, where)
    if tp is Position:
        if (
            not isinstance(value, (list, tuple))
            or len(value) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
        ):
            raise ScenarioInvalid(f"{where}: expected [x, y] number pair, got {value!r}")
        return Position(float(value[0]), float(value[1]))
    if get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ScenarioInvalid(f"{where}: expected a list, got {value!r}")
        item = get_args(tp)[0]
        return tuple(_value(item, v, f"{where}[{i}]") for i, v in enumerate(value))
    return _parse(tp, value, where)  # a nested config dataclass


def _parse(cls: type, data: Any, where: str) -> Any:
    """Build config dataclass ``cls`` from a document object.

    The dataclass fields are the schema: unknown keys are rejected, a field
    without a default is required, and an absent field takes its default.
    A ``ValueError`` from the dataclass's own checks names ``where``, joined
    with a dot when the message starts with one of its field names.
    """
    label = where or "top level"
    if not isinstance(data, dict):
        raise ScenarioInvalid(f"{label}: expected an object, got {data!r}")
    schema = _schema(cls)
    _check_keys(data, {name for name, _, _ in schema}, label)
    kwargs = {}
    for name, tp, required in schema:
        path = f"{where}.{name}" if where else name
        if name in data:
            kwargs[name] = _value(tp, data[name], path)
        elif required:
            raise ScenarioInvalid(f"{path}: required field missing")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        joint = "." if str(exc).split(" ", 1)[0] in kwargs else ": "
        raise ScenarioInvalid(f"{label}{joint}{exc}") from exc


def scenario_from_dict(data: Any) -> Scenario:
    """Parse and validate a scenario document; every rejection names its field."""
    scenario = _parse(Scenario, data, "")
    validate_scenario(scenario)
    return scenario


def _to_doc(value: Any) -> Any:
    if isinstance(value, VehicleParams):
        # Only the overrides, so a document shows what differs from stock.
        stock = VehicleParams()
        return {
            f.name: getattr(value, f.name)
            for f in fields(value)
            if getattr(value, f.name) != getattr(stock, f.name)
        }
    if is_dataclass(value):
        return {f.name: _to_doc(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_to_doc(v) for v in value]
    return value


def scenario_to_dict(scenario: Scenario) -> dict:
    """The scenario as a JSON-ready document that `scenario_from_dict` reads back."""
    return _to_doc(scenario)


def build_scenario_grid(scenario: Scenario) -> GridMap:
    t = scenario.terrain
    try:
        return build_grid(t.width_m, t.height_m, t.spacing_m, t.blocked)
    except (NonPositiveDimension, SpacingTooLarge, NodeOutOfRange) as exc:
        raise ScenarioInvalid(f"terrain: {exc}") from exc


def validate_scenario(scenario: Scenario) -> GridMap:
    """Field-level checks; raises ScenarioInvalid naming the bad field.

    Returns the scenario's grid, which the checks build anyway.
    """
    grid = build_scenario_grid(scenario)
    for label in ("width_m", "height_m"):
        extent = getattr(scenario.terrain, label)
        if extent > MAX_TERRAIN_M:
            raise ScenarioInvalid(
                f"terrain.{label}: {extent} m exceeds the {MAX_TERRAIN_M} m that telemetry can encode"
            )
    for b in scenario.terrain.blocked:
        if not grid.contains(b):
            raise ScenarioInvalid(f"terrain.blocked: node {tuple(b)} outside grid")

    if len(scenario.vehicles) > CHANNEL_COUNT:
        raise ScenarioInvalid(
            f"vehicles: count {len(scenario.vehicles)} exceeds the {CHANNEL_COUNT}-channel limit"
        )
    seen_ids: set[int] = set()
    seen_homes: set[NodeId] = set()
    for i, v in enumerate(scenario.vehicles):
        where = f"vehicles[{i}]"
        if not 0 <= v.vehicle_id < CHANNEL_COUNT:
            raise ScenarioInvalid(f"{where}: vehicle_id outside 0..{CHANNEL_COUNT - 1}")
        if v.vehicle_id in seen_ids:
            raise ScenarioInvalid(f"{where}: duplicate vehicle_id")
        seen_ids.add(v.vehicle_id)
        if not grid.contains(v.home_node):
            raise ScenarioInvalid(f"{where}: home_node {tuple(v.home_node)} outside grid")
        if grid.is_blocked(v.home_node):
            raise ScenarioInvalid(f"{where}: home_node {tuple(v.home_node)} is blocked")
        if v.home_node in seen_homes:
            raise ScenarioInvalid(f"{where}: home_node {tuple(v.home_node)} already taken")
        seen_homes.add(v.home_node)

    seen_jobs: set[int] = set()
    for i, j in enumerate(scenario.jobs):
        where = f"jobs[{i}]"
        if j.job_id in seen_jobs:
            raise ScenarioInvalid(f"{where}: duplicate job_id")
        seen_jobs.add(j.job_id)
        for label, node in (("pickup_node", j.pickup_node), ("destination_node", j.destination_node)):
            if not grid.contains(node):
                raise ScenarioInvalid(f"{where}.{label}: node {tuple(node)} outside grid")
            if grid.is_blocked(node):
                raise ScenarioInvalid(f"{where}.{label}: node {tuple(node)} is blocked")
        if j.release_tick < 0:
            raise ScenarioInvalid(f"{where}: release_tick must be >= 0")

    m = scenario.medium
    if not 0.0 <= m.loss_probability < 1.0:
        raise ScenarioInvalid("medium.loss_probability: must be in [0, 1)")
    if m.latency_ticks < 0:
        raise ScenarioInvalid("medium.latency_ticks: must be >= 0")

    c = scenario.sim
    if c.dt_s <= 0:
        raise ScenarioInvalid("sim.dt_s: must be positive")
    taus = [v.params.motor_time_constant_s for v in scenario.vehicles] or [
        VehicleParams().motor_time_constant_s
    ]
    if c.dt_s > min(taus) / 2:
        raise ScenarioInvalid(
            f"sim.dt_s: {c.dt_s} exceeds stability guard tau/2 = {min(taus) / 2}"
        )
    if c.max_ticks < 1:
        raise ScenarioInvalid("sim.max_ticks: must be >= 1")
    if c.telemetry_interval < 1:
        raise ScenarioInvalid("sim.telemetry_interval: must be >= 1")
    return grid


def hop_window_ticks(scenario: Scenario) -> int:
    """Worst-case single hop (180 deg turn + drive + margin) in ticks."""
    spacing = scenario.terrain.spacing_m
    worst = 0.0
    specs = scenario.vehicles or (VehicleSpec(0, NodeId(0, 0)),)
    for v in specs:
        p = v.params
        turn = math.pi * p.track_m / (2.0 * p.cruise_speed_m_s)
        drive = spacing / p.cruise_speed_m_s
        worst = max(worst, turn + drive + HOP_MARGIN_S)
    return max(1, math.ceil(worst / scenario.sim.dt_s))


# ----------------------------------------------------------------- engine


@dataclass
class JobTrace:
    vehicle_id: int
    job_id: int
    outbound: tuple[NodeId, ...]
    retraced: tuple[NodeId, ...]
    final_pose: tuple[float, float]
    home_position: tuple[float, float]
    complete_tick: int


@dataclass
class _SimVehicle:
    agent: VehicleAgent
    radio: Radio
    pending: tuple[str, NodeId | None] | None = None
    retry_at: int = 0
    unload_at: int | None = None
    # The first tick at which stepping the vehicle can change anything.
    wake: float = 0
    # The end of the holds behind the last refused departure gate.
    refused_until: float = INF_TICK
    # The last telemetry frame, until the vehicle steps again.
    telemetry_frame: bytes | None = None


@dataclass(frozen=True)
class SimReport:
    completed_jobs: int
    total_jobs: int
    makespan_ticks: int
    ticks_run: int
    per_vehicle: dict[int, VehicleMetrics]
    artifacts: dict[str, Any]


class Simulation:
    """Mutable world state; ``tick()`` advances it one fixed timestep."""

    def __init__(self, scenario: Scenario, *, trace: bool = False, capture: bool = False) -> None:
        self.grid = validate_scenario(scenario)
        self.scenario = scenario
        self.dt = scenario.sim.dt_s
        self.table = ReservationTable()
        self.medium = Medium(
            scenario.medium.loss_probability,
            scenario.medium.latency_ticks,
            scenario.medium.seed,
            capture=capture,
        )
        self.ticks_per_hop = hop_window_ticks(scenario)
        self.unload_ticks = max(1, round(UNLOAD_DWELL_S / self.dt))
        # Nodes where some vehicle may park open-ended (homes, pickups,
        # drop-offs).  Legs never route through them, so no trail can be
        # blocked forever by a parked vehicle.
        self.park_spots: frozenset[NodeId] = frozenset(
            [v.home_node for v in scenario.vehicles]
            + [j.pickup_node for j in scenario.jobs]
            + [j.destination_node for j in scenario.jobs]
        )
        self.hub = Hub(self.grid, self.park_spots)

        self.vehicles: dict[int, _SimVehicle] = {}
        # The hub's radio per vehicle id, on that vehicle's channel.
        self.hub_radios: dict[int, Radio] = {}
        for vcfg in sorted(scenario.vehicles, key=lambda v: v.vehicle_id):
            agent = VehicleAgent(
                vcfg.vehicle_id,
                vcfg.home_node,
                self.grid.node_to_position(vcfg.home_node),
                params=vcfg.params,
            )
            agent.departure_gate = self._departure_gate
            radio = self.medium.attach(Radio(Channel(vcfg.vehicle_id)))
            self.hub_radios[vcfg.vehicle_id] = self.medium.attach(Radio(Channel(vcfg.vehicle_id)))
            self.hub.register_vehicle(vcfg.vehicle_id, vcfg.home_node)
            self.table.reserve(vcfg.vehicle_id, vcfg.home_node, 0, INF_TICK)
            self.vehicles[vcfg.vehicle_id] = _SimVehicle(agent=agent, radio=radio)
        # The vehicles in ascending id: the order of every per-vehicle phase.
        self.fleet: list[_SimVehicle] = list(self.vehicles.values())
        # The fleet positions of the vehicles stepped this tick.
        self._stepped: list[int] = []
        for job in scenario.jobs:
            self.hub.add_job(job)

        self.sensor_cfg = scenario.sensor
        # One disc per vehicle, in fleet order, replaced only when the
        # vehicle moves, so echo_distance keeps the geometry of the others.
        self.world = WorldModel(
            [Disc(Position(sv.agent.x, sv.agent.y), sv.agent.params.body_radius_m) for sv in self.fleet]
        )
        self._sweep_len = self.sensor_cfg.sweep_len
        self._radar_idx = 0
        self._radar_dir = 1
        self._sweep_samples: list[tuple[float, float | None]] = []
        self.sweep_count = 0
        self.frame_lines: list[str] = []
        self.renders: list[tuple[int, Scan]] = []
        self.last_targets = []
        self.last_association: dict[int, int | str] = {}

        self.tick_count = 0
        self.completed_jobs = 0
        self.total_jobs = len(scenario.jobs)
        self.last_complete_tick = 0
        self.job_traces: list[JobTrace] = []

        self.trace = trace
        self.pose_trace: list[list[tuple[float, float]]] = []
        self.occupancy_trace: list[list[tuple[int, int]]] = []
        # The last trace rows, and per vehicle the (node, edge end) behind
        # its occupancy entry: unchanged entries are shared with the next row.
        self._pose_row: list[tuple[float, float]] = [(math.nan, math.nan)] * len(self.fleet)
        self._occupancy_row: list[tuple[int, int]] = [(-1, -1)] * len(self.fleet)
        self._occupancy_keys: list[tuple[NodeId | None, NodeId | None]] = [(None, None)] * len(self.fleet)

    # -- callbacks ----------------------------------------------------

    def _departure_gate(self, agent: VehicleAgent, next_node: NodeId, now: int, scheduled: int) -> bool:
        """Grant an early departure when ``[now, scheduled)`` on ``next_node`` is free.

        A refusal stands until the blocking holds end or some vehicle's
        holds are released, so the vehicle sleeps until the first of those.
        """
        until = self.table.reserve(agent.vehicle_id, next_node, now, scheduled)
        if until is None:
            return True
        self.vehicles[agent.vehicle_id].refused_until = until
        return False

    # -- planning helpers ---------------------------------------------

    def _routing_grid(self, src: NodeId, dst: NodeId) -> GridMap:
        extra = self.park_spots - {src, dst}
        if not extra:
            return self.grid
        return replace(self.grid, blocked=self.grid.blocked | extra)

    def _plan_leg(
        self, sv: _SimVehicle, now: int, pending: tuple[str, NodeId | None], plan: Callable[[], TimedPath]
    ) -> TimedPath | None:
        """Release, plan and commit one leg.

        The release may open any vehicle's departure gate, so every vehicle
        is woken.  On NoPath nothing was committed: the vehicle reparks
        where it stands and ``pending`` is retried after NOPATH_RETRY_TICKS;
        the caller gets None.
        """
        vid = sv.agent.vehicle_id
        self.table.release_vehicle(vid)
        for other in self.fleet:
            other.wake = now
        try:
            tp = plan()
            commit(self.table, vid, tp)
        except NoPath:
            self.table.reserve(vid, sv.agent.current_node, now, INF_TICK)
            sv.pending = pending
            sv.retry_at = now + NOPATH_RETRY_TICKS
            return None
        sv.pending = None
        return tp

    def _plan_to(self, sv: _SimVehicle, dest: NodeId, now: int) -> TimedPath:
        src = sv.agent.current_node
        return plan_space_time(self._routing_grid(src, dest), self.table, src, dest, now, self.ticks_per_hop)

    def _plan_reposition(self, sv: _SimVehicle, dest: NodeId, now: int) -> None:
        tp = self._plan_leg(sv, now, ("reposition", dest), lambda: self._plan_to(sv, dest, now))
        if tp is not None:
            sv.agent.begin_reposition(tp)

    def _plan_cargo(self, sv: _SimVehicle, dest: NodeId, now: int) -> None:
        tp = self._plan_leg(sv, now, ("cargo", dest), lambda: self._plan_to(sv, dest, now))
        if tp is None:
            sv.agent.queue_ack()
        else:
            sv.agent.on_destination(tp)

    def _start_retrace(self, sv: _SimVehicle, now: int) -> None:
        agent = sv.agent
        sequence = agent.trail[::-1]
        horizon = 10 * (self.grid.nx - 1 + self.grid.ny - 1) + len(sequence)
        tp = self._plan_leg(
            sv,
            now,
            ("retrace", None),
            lambda: schedule_along(self.table, sequence, now, self.ticks_per_hop, horizon),
        )
        if tp is None:
            return
        agent.unload(tp)
        sv.unload_at = None

    def _attempt_pending(self, sv: _SimVehicle, now: int) -> None:
        assert sv.pending is not None
        kind, goal = sv.pending
        if kind == "reposition":
            self._plan_reposition(sv, goal, now)
        elif kind == "cargo":
            self._plan_cargo(sv, goal, now)
        else:
            self._start_retrace(sv, now)

    def _handle_assign(self, sv: _SimVehicle, dest: NodeId, now: int) -> None:
        """Act on an order.  Every branch queues an ACK, which the vehicle
        sends when it steps, so it is woken; it has not stepped this tick,
        so a load switch pressed here is stamped ``now - 1``."""
        agent = sv.agent
        sv.wake = now
        if agent.state == IDLE:
            if agent.busy:
                agent.queue_ack()
                return
            if sv.pending is not None:
                agent.queue_ack()
                return
            agent.queue_ack()
            if dest == agent.current_node:
                agent.press_load_switch(now - 1)
            else:
                self._plan_reposition(sv, dest, now)
        elif agent.state in (LOADED, AWAITING_ROUTE):
            if dest == agent.current_node or sv.pending is not None:
                agent.queue_ack()
                return
            self._plan_cargo(sv, dest, now)
        else:
            agent.queue_ack()

    # -- tick phases ----------------------------------------------------

    def _deliver(self, now: int) -> list[Message]:
        if now < self.medium.next_due:
            return []
        for sv in self.fleet:
            for frame in self.medium.poll(sv.radio, now):
                try:
                    msg = decode(frame)
                except DecodeError:
                    continue
                if msg.kind == MessageKind.ASSIGN_DESTINATION and msg.vehicle_id == sv.agent.vehicle_id:
                    self._handle_assign(sv, NodeId(msg.dest[0], msg.dest[1]), now)
        inbound: list[Message] = []
        for radio in self.hub_radios.values():
            for frame in self.medium.poll(radio, now):
                try:
                    msg = decode(frame)
                except DecodeError:
                    continue
                if msg.kind in (MessageKind.ACTIVATE, MessageKind.TELEMETRY, MessageKind.ACK):
                    inbound.append(msg)
        return inbound

    def _hub_phase(self, inbound: list[Message], now: int) -> None:
        hub = self.hub
        if not inbound and now < hub.wake_tick:
            return
        for msg in inbound:
            if msg.kind == MessageKind.ACTIVATE:
                hub.on_activate(msg.vehicle_id, now)
            elif msg.kind == MessageKind.ACK:
                hub.on_ack(msg.vehicle_id)
            else:
                ingest_telemetry(hub, msg, now, self.vehicles[msg.vehicle_id].agent.state)
        hub.dispatch(now)
        for _, msg in hub.outbox:
            self.medium.send(self.hub_radios[msg.vehicle_id], encode(msg), now)
        hub.outbox.clear()

    def _vehicle_phase(self, now: int) -> None:
        """Step the vehicles that are due, in fleet order.

        ``wake`` is read as the loop reaches each vehicle, so one that a
        release earlier in the loop woke is stepped on this tick.  A quiet
        vehicle's wake tick from ``step`` is lowered to the engine's own
        timers: its refused gate's ``until``, its pending retry or its
        unload timer.
        """
        stepped = self._stepped = []
        for i, sv in enumerate(self.fleet):
            if now < sv.wake:
                continue
            stepped.append(i)
            sv.telemetry_frame = None
            agent = sv.agent
            if sv.pending is not None and now >= sv.retry_at:
                self._attempt_pending(sv, now)
            if (
                agent.state == UNLOADING
                and sv.unload_at is not None
                and now >= sv.unload_at
                and sv.pending is None
            ):
                self._start_retrace(sv, now)
            wake = agent.step(self.grid, self.dt, now)
            if agent.route_finished:
                # Closing the leg may press the load switch, which the next step acts on.
                self._post_step(sv, now)
                wake = now + 1
            elif wake > now + 1:
                wake = min(wake, sv.refused_until)
                sv.refused_until = INF_TICK
                if sv.pending is not None:
                    wake = min(wake, sv.retry_at)
                elif sv.unload_at is not None:
                    wake = min(wake, sv.unload_at)
            sv.wake = wake
            if agent.outbox:
                for msg in agent.outbox:
                    self.medium.send(sv.radio, encode(msg), now)
                agent.outbox.clear()

    def _post_step(self, sv: _SimVehicle, now: int) -> None:
        """Close the leg that the vehicle finished on this tick's step."""
        agent = sv.agent
        kind = agent.route_kind
        if kind == "reposition" and agent.state == IDLE:
            agent.clear_route()
            agent.press_load_switch(now)
        elif kind == "transit" and agent.state == UNLOADING:
            agent.clear_route()
            if sv.unload_at is None:
                sv.unload_at = now + self.unload_ticks
        elif kind == "retrace" and agent.state == IDLE:
            agent.clear_route()
            job = self.hub.vehicles[agent.vehicle_id].job
            job_id = job.job_id if job is not None else -1
            home_xy = self.grid.node_to_position(agent.home_node)
            self.job_traces.append(
                JobTrace(
                    vehicle_id=agent.vehicle_id,
                    job_id=job_id,
                    outbound=tuple(agent.trail),
                    retraced=tuple(agent.retraced),
                    final_pose=(agent.x, agent.y),
                    home_position=(home_xy.x, home_xy.y),
                    complete_tick=now,
                )
            )
            self.hub.on_job_complete(agent.vehicle_id)
            agent.trail.clear()
            self.completed_jobs += 1
            self.last_complete_tick = now

    def _radar_phase(self, now: int) -> None:
        angle = self._radar_idx * self.sensor_cfg.step_deg
        discs = self.world.obstacles
        fleet = self.fleet
        for i in self._stepped:
            agent = fleet[i].agent
            center = discs[i].center
            if agent.x != center.x or agent.y != center.y:
                discs[i] = Disc(Position(agent.x, agent.y), agent.params.body_radius_m)
        dist = echo_distance(self.world, self.sensor_cfg, angle)
        self._sweep_samples.append((angle, dist))
        self.frame_lines.append(encode_frame(angle, dist))
        self._radar_idx += self._radar_dir
        if self._radar_idx >= self._sweep_len or self._radar_idx < 0:
            scan = Scan(self.sensor_cfg.origin, list(self._sweep_samples), self._radar_dir)
            self.sweep_count += 1
            self.last_targets = detect_targets(scan, self.sensor_cfg)
            self.last_association = associate_radar(self.last_targets, self.hub.latest)
            if self.sweep_count == 1 or self.sweep_count % RENDER_EVERY_SWEEPS == 0:
                self.renders.append((self.sweep_count, scan))
            self._sweep_samples = []
            self._radar_dir = -self._radar_dir
            self._radar_idx = 0 if self._radar_dir > 0 else self._sweep_len - 1

    def _telemetry_phase(self, now: int) -> None:
        if now % self.scenario.sim.telemetry_interval != 0:
            return
        for sv in self.fleet:
            frame = sv.telemetry_frame
            if frame is None:
                frame = sv.telemetry_frame = encode(sv.agent.telemetry())
            self.medium.send(sv.radio, frame, now)

    def _trace_phase(self) -> None:
        """Append this tick's rows; a vehicle that did not move keeps its tuples.

        Only a stepped vehicle can have moved.  A pose is kept only while its
        floats are the very objects of the last row (``is``, so even the sign
        of a zero cannot differ).
        """
        poses = self._pose_row.copy()
        occupancy = self._occupancy_row.copy()
        keys = self._occupancy_keys
        ny = self.grid.ny
        fleet = self.fleet
        for i in self._stepped:
            agent = fleet[i].agent
            x, y = agent.x, agent.y
            pose = poses[i]
            if pose[0] is not x or pose[1] is not y:
                poses[i] = (x, y)
            edge = agent.edge_in_progress()
            src = agent.current_node
            dst = edge[1] if edge is not None else src
            key = keys[i]
            if key[0] is not src or key[1] is not dst:
                keys[i] = (src, dst)
                occupancy[i] = (src.ix * ny + src.iy, dst.ix * ny + dst.iy)
        self.pose_trace.append(poses)
        self.occupancy_trace.append(occupancy)
        self._pose_row = poses
        self._occupancy_row = occupancy

    def tick(self) -> None:
        now = self.tick_count
        inbound = self._deliver(now)
        self._hub_phase(inbound, now)
        self._vehicle_phase(now)
        self._radar_phase(now)
        self._telemetry_phase(now)
        if self.trace:
            self._trace_phase()
        self.tick_count += 1

    @property
    def all_done(self) -> bool:
        if self.completed_jobs < self.total_jobs:
            return False
        return all(
            sv.agent.state == IDLE and not sv.agent.busy and sv.pending is None
            for sv in self.fleet
        )

    def run_loop(self) -> None:
        while self.tick_count < self.scenario.sim.max_ticks:
            self.tick()
            if self.all_done:
                break


# ----------------------------------------------------------------- artifacts


def run(scenario: Scenario, out_dir) -> SimReport:
    """Run to completion (or max_ticks) and write all artifacts."""
    sim = Simulation(scenario, capture=True)
    sim.run_loop()

    artifacts: dict[str, Any] = {}
    try:
        os.makedirs(out_dir, exist_ok=True)
        frames_dir = os.path.join(out_dir, "frames")
        os.makedirs(frames_dir, exist_ok=True)

        write_csv(sim.hub.log, os.path.join(out_dir, "telemetry.csv"))
        artifacts["telemetry_csv"] = "telemetry.csv"

        with open(os.path.join(out_dir, "scan_stream.txt"), "w", encoding="ascii", newline="\n") as fh:
            fh.write("".join(sim.frame_lines))
        artifacts["scan_stream"] = "scan_stream.txt"

        frame_paths = []
        for sweep_idx, scan in sim.renders:
            rel = os.path.join("frames", f"sweep_{sweep_idx:04d}.svg")
            render_frame(scan, (scenario.terrain.width_m, scenario.terrain.height_m), os.path.join(out_dir, rel))
            frame_paths.append(rel)
        artifacts["frames"] = frame_paths

        write_capture(sim.medium.capture, os.path.join(out_dir, "capture.bin"))
        artifacts["capture"] = "capture.bin"
    except OSError as exc:
        raise IoFailure(str(exc)) from exc

    per_vehicle: dict[int, VehicleMetrics] = {}
    if sim.hub.log:
        per_vehicle = metrics(sim.hub.log).per_vehicle
    makespan = sim.last_complete_tick if sim.completed_jobs else 0
    report = SimReport(
        completed_jobs=sim.completed_jobs,
        total_jobs=sim.total_jobs,
        makespan_ticks=makespan,
        ticks_run=sim.tick_count,
        per_vehicle=per_vehicle,
        artifacts=artifacts,
    )

    summary = {
        "completed_jobs": report.completed_jobs,
        "total_jobs": report.total_jobs,
        "makespan_ticks": report.makespan_ticks,
        "ticks_run": report.ticks_run,
        "per_vehicle": {
            str(vid): {
                "total_distance_m": round(m.total_distance_m, 5),
                "mean_transit_speed_m_s": round(m.mean_transit_speed_m_s, 5),
                "job_completion_ticks": list(m.job_completion_ticks),
            }
            for vid, m in sorted(per_vehicle.items())
        },
        "artifacts": artifacts,
    }
    try:
        with open(os.path.join(out_dir, "summary.json"), "w", encoding="ascii", newline="\n") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        lines = [
            f"jobs completed: {report.completed_jobs}/{report.total_jobs}",
            f"makespan ticks: {report.makespan_ticks}",
            f"ticks run: {report.ticks_run}",
        ]
        for vid, m in sorted(per_vehicle.items()):
            lines.append(
                f"vehicle {vid}: distance {m.total_distance_m:.5f} m, "
                f"mean speed {m.mean_transit_speed_m_s:.5f} m/s, "
                f"completions {list(m.job_completion_ticks)}"
            )
        with open(os.path.join(out_dir, "summary.txt"), "w", encoding="ascii", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    artifacts["summary_json"] = "summary.json"
    artifacts["summary_txt"] = "summary.txt"
    return report


# ----------------------------------------------------------------- estimate


def _turn_time_s(angle_deg: float, params: VehicleParams) -> float:
    return math.radians(angle_deg) * params.track_m / (2.0 * params.cruise_speed_m_s)


def _leg_time_s(leg: list[NodeId], heading: float, params: VehicleParams, spacing: float) -> tuple[float, float]:
    t = START_DEFICIT_S
    for cur, nxt in zip(leg, leg[1:]):
        target = math.degrees(math.atan2(nxt[1] - cur[1], nxt[0] - cur[0])) % 360.0
        diff = abs(target - heading) % 360.0
        diff = min(diff, 360.0 - diff)
        if diff:
            t += _turn_time_s(diff, params)
            heading = target
        t += spacing / params.cruise_speed_m_s
    return t, heading


def analytic_makespan_ticks(scenario: Scenario) -> int:
    """Kinematic hand estimate: drive time + turn time + start/stop slack.

    Assumes uncongested canonical routes with one full job cycle per
    assignment (out to pickup, transit to destination, retrace home).
    """
    if not scenario.vehicles or not scenario.jobs:
        return 0
    grid = build_scenario_grid(scenario)
    finish: dict[int, float] = {v.vehicle_id: 0.0 for v in scenario.vehicles}
    homes = {v.vehicle_id: v.home_node for v in scenario.vehicles}
    params = {v.vehicle_id: v.params for v in scenario.vehicles}
    spacing = scenario.terrain.spacing_m
    for job in sorted(scenario.jobs, key=lambda j: (j.release_tick, j.job_id)):
        vid = min(
            finish,
            key=lambda v: (
                finish[v],
                len(astar(grid, homes[v], job.pickup_node).nodes),
                v,
            ),
        )
        p = params[vid]
        to_pickup = astar(grid, homes[vid], job.pickup_node).nodes
        to_dest = astar(grid, job.pickup_node, job.destination_node).nodes
        outbound = to_pickup + to_dest[1:]
        heading = 0.0
        total = max(finish[vid], job.release_tick * scenario.sim.dt_s)
        t, heading = _leg_time_s(to_pickup, heading, p, spacing)
        total += t
        t, heading = _leg_time_s(to_dest, heading, p, spacing)
        total += t + UNLOAD_DWELL_S
        t, heading = _leg_time_s(list(reversed(outbound)), heading, p, spacing)
        total += t
        finish[vid] = total
    latest = max(finish.values(), default=0.0)
    return math.ceil(latest / scenario.sim.dt_s)
