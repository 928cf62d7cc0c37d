"""Fixed-timestep simulation engine, scenario config, and run artifacts.

One tick advances the world in a fixed phase order: RF delivery and hub
work, the vehicles in ascending id, one radar step, telemetry emission.
A vehicle's step alone changes its motion and its hop, so the vehicle
phase acts on both as it steps each one: it re-places a vehicle whose hop
changed in the radar index and, with the trace on, logs the change.
Everything downstream of the scenario (plus its seed) is deterministic,
so two runs produce byte-identical outputs.

A vehicle is stepped only when it is due, which while it moves is at its
hop events.  Between them, the radar, the telemetry and the trace read
its position from its `motion` at the tick.  A tick runs only the phases
that are due, and one before `_quiet_until` is quiet: only the radar
runs, which keeps only its hits, so a tick whose sweep index names no
vehicle makes one mask test; the scan stream and the scans are built
when read.  That bound is the least of the ticks at which a frame is due,
the hub wakes, a vehicle is due and telemetry is sent.  Only a tick changes
them, and a quiet tick none, so the bound is recomputed after each tick
that is not quiet.  The trace is a change log per vehicle, read as one
row per tick (`TraceView`), so a quiet tick adds nothing to it.  The hub
reuses the message of any telemetry frame the engine encoded when that
bytes object arrives, so a frame costs one encode and no decode.
"""

from __future__ import annotations

import json
import math
import os
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterator, Sequence
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache
from itertools import repeat
from typing import Any, NamedTuple, get_args, get_origin, get_type_hints

from .errors import (
    DecodeError,
    IoFailure,
    NoPath,
    NodeOutOfRange,
    NonPositiveDimension,
    ScenarioInvalid,
    SpacingTooLarge,
    TimestepTooLarge,
)
from .grid import GridMap, NodeId, Position, build_grid
from .hub import (
    Hub,
    Job,
    VehicleMetrics,
    ingest_telemetry,
    metrics,
    write_csv,
)
from .planner import (
    INF_TICK,
    ReservationTable,
    commit,
    plan_horizon,
    plan_space_time,
    schedule_along,
)
from .radar import HopIndex, Scan, SweepConfig, encode_frame, render_frame, sweep_table
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
    RETRACING,
    UNLOADING,
    Rest,
    VehicleAgent,
    VehicleParams,
    spin_table,
)

UNLOAD_DWELL_S = 1.0
NOPATH_RETRY_TICKS = 50
RENDER_EVERY_SWEEPS = 10
HOP_MARGIN_S = 1.0
# Telemetry carries positions as unsigned 16-bit millimetres.
MAX_TERRAIN_M = 0xFFFF / 1000.0
# Ticks of a trace expanded at a time when it is iterated.
TRACE_CHUNK = 4096


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


def _finite(value: Any, where: str) -> None:
    """Reject NaN and the infinities, which ``json.load`` reads from a document."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ScenarioInvalid(f"{where}: expected a finite number, got {value!r}")


def _value(tp: Any, value: Any, where: str) -> Any:
    """Check one document value against its field type and convert it."""
    if tp is float or tp is int:
        if isinstance(value, bool) or not isinstance(value, int if tp is int else (int, float)):
            raise ScenarioInvalid(f"{where}: expected {tp.__name__}, got {value!r}")
        _finite(value, where)
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
        for v in value:
            _finite(v, where)
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


def parse_scenario(data: Any) -> Scenario:
    """Read a scenario document, checking each field's type; a rejection
    names its field.  `validate_scenario` checks the rest."""
    return _parse(Scenario, data, "")


def scenario_from_dict(data: Any) -> Scenario:
    """Parse and validate a scenario document; every rejection names its field."""
    scenario = parse_scenario(data)
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
    except NodeOutOfRange as exc:
        raise ScenarioInvalid(f"terrain.blocked: {exc}") from exc
    except (NonPositiveDimension, SpacingTooLarge) as exc:
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
    # ASSIGN_DESTINATION carries a node's indices as unsigned 16-bit fields.
    if max(grid.nx, grid.ny) - 1 > 0xFFFF:
        raise ScenarioInvalid(
            f"terrain.spacing_m: {scenario.terrain.spacing_m} m makes a {grid.nx}x{grid.ny} grid, "
            f"whose node indices exceed the {0xFFFF} that ASSIGN_DESTINATION can encode"
        )
    # The engine's first dispatch builds the grid's adjacency, some 400 B a
    # node: a million nodes is about 400 MB.
    if grid.node_count > 1_000_000:
        raise ScenarioInvalid(
            f"terrain.spacing_m: {scenario.terrain.spacing_m} m makes a {grid.nx}x{grid.ny} grid, "
            f"whose {grid.node_count} nodes exceed the 1000000 the engine plans over"
        )

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
    # The capture stamps each frame with its tick as an unsigned 32-bit field.
    if c.max_ticks > 2**32:
        raise ScenarioInvalid(
            f"sim.max_ticks: {c.max_ticks} exceeds the {2**32} ticks that the capture's u32 tick field can encode"
        )
    if c.telemetry_interval < 1:
        raise ScenarioInvalid("sim.telemetry_interval: must be >= 1")
    # Each distinct parameter set spins up once at dt_s, as its vehicles
    # will; telemetry carries the drive speed as unsigned 16-bit mm/s.
    spun: set[VehicleParams] = set()
    for i, v in enumerate(scenario.vehicles):
        if v.params not in spun:
            spun.add(v.params)
            try:
                peak = spin_table(v.params, c.dt_s).peak_speed_m_s
            except TimestepTooLarge as exc:
                raise ScenarioInvalid(f"vehicles[{i}]: {exc}") from exc
            if round(peak * 1000.0) > 0xFFFF:
                raise ScenarioInvalid(
                    f"vehicles[{i}]: peak drive speed {peak} m/s exceeds the {0xFFFF / 1000.0} m/s "
                    "that telemetry can encode"
                )
    return grid


def hop_window_ticks(scenario: Scenario) -> int:
    """Worst-case single hop (180 deg turn + drive + margin) in ticks."""
    spacing = scenario.terrain.spacing_m
    worst = 0.0
    specs = scenario.vehicles or (VehicleSpec(0, NodeId(0, 0)),)
    for v in specs:
        p = v.params
        drive = spacing / p.cruise_speed_m_s
        turn = math.radians(180.0) * p.track_m / (2.0 * p.cruise_speed_m_s)
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


class _Held(NamedTuple):
    """A trace entry whose value stays the same on every tick."""

    value: tuple[int, int]

    def at(self, t: int) -> tuple[int, int]:
        return self.value

    def span(self, a: int, b: int) -> list[tuple[int, int]]:
        return [self.value] * (b - a)


class TraceView(Sequence):
    """A per-tick trace kept as a change log per vehicle: row t lists each
    vehicle's value at tick t.

    Vehicle i's log holds an entry from each tick at which its value
    changed; ``entry.at(t)`` is its value at tick t and ``entry.span(a, b)``
    the values of ticks a to b - 1.  The trace covers the ticks 0 to
    ``ticks() - 1``, so a tick that changes nothing needs no call.  Rows
    are built on demand: an index builds one, a slice the columns over its
    range, iteration TRACE_CHUNK at a time.  ``==``, ``repr`` and
    ``copy.deepcopy`` see the list of rows.
    """

    def __init__(self, vehicles: int, ticks: Callable[[], int]) -> None:
        self._ticks: list[list[int]] = [[] for _ in range(vehicles)]
        self._entries: list[list[Any]] = [[] for _ in range(vehicles)]
        self._covered = ticks

    def log(self, i: int, tick: int, entry: Any) -> None:
        """Vehicle i holds ``entry`` from ``tick`` on, unless it already does."""
        entries = self._entries[i]
        if not entries or entries[-1] is not entry:
            entries.append(entry)
            self._ticks[i].append(tick)

    def __len__(self) -> int:
        return self._covered()

    def __getitem__(self, index: int | slice) -> list:
        n = len(self)
        if isinstance(index, slice):
            span = range(*index.indices(n))
            if not span:
                return []
            a, b = sorted((span[0], span[-1]))
            columns = [self._column(i, a, b + 1) for i in range(len(self._entries))]
            return [[column[t - a] for column in columns] for t in span]
        t = index + n if index < 0 else index
        if not 0 <= t < n:
            raise IndexError("trace index out of range")
        return [entries[bisect_right(ticks, t) - 1].at(t) for ticks, entries in zip(self._ticks, self._entries)]

    def _column(self, i: int, a: int, b: int) -> list:
        ticks, entries = self._ticks[i], self._entries[i]
        j = bisect_right(ticks, a) - 1
        out: list = []
        while a < b:
            j += 1
            end = min(ticks[j], b) if j < len(ticks) else b
            out += entries[j - 1].span(a, end)
            a = end
        return out

    def __iter__(self) -> Iterator[list]:
        n = len(self)
        for a in range(0, n, TRACE_CHUNK):
            b = min(a + TRACE_CHUNK, n)
            columns = [self._column(i, a, b) for i in range(len(self._entries))]
            yield from map(list, zip(*columns) if columns else repeat((), b - a))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (TraceView, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))

    def __deepcopy__(self, memo: dict) -> list:
        return list(self)


@dataclass(slots=True)
class _SimVehicle:
    agent: VehicleAgent
    radio: Radio
    # The hub's radio on this vehicle's channel.
    hub_radio: Radio
    # The node of the order being served: a retry plans to it again.
    dest: NodeId | None = None
    # The tick at which to plan the leg the cargo state names (a retry
    # after NoPath, or the retrace once the unload dwell is over);
    # INF_TICK when no leg is pending.
    retry_at: float = INF_TICK
    # The first tick at which stepping the vehicle can change anything.
    wake: float = 0
    # The (node, edge end) of the hop it is on, where the radar index
    # placed it; none before its first step.
    hop: tuple[NodeId | None, NodeId | None] = (None, None)
    # The vehicle's last telemetry: the `Rest` it was sent in (None if it
    # was moving), whose frame is sent again while that `Rest` lasts, the
    # frame, and the message it encodes, which the hub reuses when that
    # bytes object arrives.
    last_telemetry: tuple[Rest | None, bytes, Message] | None = None


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
        # blocked forever by a parked vehicle: `plan_space_time` takes them
        # as stops, and the hub vets every job by the same rule, both from
        # the `hop_distances` tables that ``grid`` keeps.
        self.park_spots: frozenset[NodeId] = frozenset(
            [v.home_node for v in scenario.vehicles]
            + [j.pickup_node for j in scenario.jobs]
            + [j.destination_node for j in scenario.jobs]
        )
        self.hub = Hub(self.grid, self.park_spots)

        self.vehicles: dict[int, _SimVehicle] = {}
        for vcfg in sorted(scenario.vehicles, key=lambda v: v.vehicle_id):
            agent = VehicleAgent(vcfg.vehicle_id, vcfg.home_node, self.grid, self.dt, vcfg.params)
            agent.departure_gate = self._departure_gate
            radio = self.medium.attach(Radio(Channel(vcfg.vehicle_id)))
            hub_radio = self.medium.attach(Radio(Channel(vcfg.vehicle_id)))
            self.hub.register_vehicle(vcfg.vehicle_id, vcfg.home_node)
            self.table.reserve(vcfg.vehicle_id, vcfg.home_node, 0, INF_TICK)
            self.vehicles[vcfg.vehicle_id] = _SimVehicle(agent=agent, radio=radio, hub_radio=hub_radio)
        # The vehicles in ascending id: the order of every per-vehicle phase.
        self.fleet: list[_SimVehicle] = list(self.vehicles.values())
        # The earliest ``wake`` in the fleet: before it no vehicle is due.
        self._next_wake: float = 0
        for job in scenario.jobs:
            self.hub.add_job(job)

        self.sensor_cfg = scenario.sensor
        # Which vehicles each sweep index can echo from, by the hop each is
        # on.  Tick 0 places every vehicle: all step then, as ``wake`` starts
        # at 0, and none has a ``hop`` yet.
        self._hop_index = HopIndex(self.sensor_cfg, [sv.agent.params.body_radius_m for sv in self.fleet])
        self._sweep_len = self.sensor_cfg.sweep_len
        self._sweep_table = sweep_table(self.sensor_cfg)
        # The radar's hits in tick order, as (tick, echo distance); every
        # other tick streams its quiet line (see `frame_lines`).
        self._hits: list[tuple[int, float]] = []
        self._frame_lines: list[str] = []
        self._renders: list[tuple[int, Scan]] = []

        self.tick_count = 0
        self.completed_jobs = 0
        self.total_jobs = len(scenario.jobs)
        self.last_complete_tick = 0
        self.job_traces: list[JobTrace] = []

        self._telemetry_interval = scenario.sim.telemetry_interval
        # The next tick on the telemetry interval.
        self._next_telemetry = 0
        # Before this tick only the radar has work to do (see `tick`).
        self._quiet_until: float = 0
        self.trace = trace
        # Per tick, each vehicle's (x, y) and its (node, edge end) as node
        # indices ``ix * ny + iy``.
        self.pose_trace = TraceView(len(self.fleet), self._traced_ticks)
        self.occupancy_trace = TraceView(len(self.fleet), self._traced_ticks)

    @property
    def sweep_count(self) -> int:
        """The sweeps completed: the radar reads one index a tick."""
        return self.tick_count // self._sweep_len

    @property
    def frame_lines(self) -> list[str]:
        """The scan stream: one serial line per tick run, built when read."""
        lines = self._frame_lines
        angles = self._sweep_table.angles
        lines += self._radar_view(
            len(lines), self.tick_count, self._sweep_table.quiet_lines, lambda k, d: encode_frame(angles[k], d)
        )
        return lines

    @property
    def renders(self) -> list[tuple[int, Scan]]:
        """The completed sweeps that are rendered, the first and every
        RENDER_EVERY_SWEEPS-th, by their count from 1, built when read."""
        renders = self._renders
        n = self._sweep_len
        angles = self._sweep_table.angles
        for count in range(renders[-1][0] + 1 if renders else 1, self.sweep_count + 1):
            if count == 1 or count % RENDER_EVERY_SWEEPS == 0:
                samples = self._radar_view(
                    (count - 1) * n, count * n, self._sweep_table.quiet_samples, lambda k, d: (angles[k], d)
                )
                renders.append((count, Scan(self.sensor_cfg.origin, samples, 1 if count % 2 else -1)))
        return renders

    def _radar_view(self, start: int, stop: int, quiet: Sequence[Any], hit: Callable[[int, float], Any]) -> list:
        """Per tick in ``[start, stop)``: ``hit(index, distance)`` where the
        radar's echo hit, else the tick's entry of ``quiet``, a sweep-table
        column in tick order."""
        period = len(quiet)
        out = list(quiet[start % period : start % period + stop - start])
        while len(out) < stop - start:
            out += quiet[: stop - start - len(out)]
        order = self._sweep_table.order
        hits = self._hits
        for j in range(bisect_left(hits, (start,)), bisect_left(hits, (stop,))):
            t, dist = hits[j]
            out[t - start] = hit(order[t % period], dist)
        return out

    def _traced_ticks(self) -> int:
        """The ticks the trace covers: every tick run, when it is on."""
        return self.tick_count if self.trace else 0

    # -- callbacks ----------------------------------------------------

    def _departure_gate(self, agent: VehicleAgent, next_node: NodeId, now: int, scheduled: int) -> float | None:
        """Grant an early departure (None) when ``[now, scheduled)`` on ``next_node`` is free.

        A refusal returns the end of the blocking holds: it stands until
        then or until some vehicle's holds are released, which wakes every
        vehicle, so the vehicle sleeps until the first of those.
        """
        return self.table.reserve(agent.vehicle_id, next_node, now, scheduled)

    # -- planning helpers ---------------------------------------------

    def _plan_leg(self, sv: _SimVehicle, now: int) -> None:
        """Release, plan and commit the leg the cargo state names, then start it.

        UNLOADING retraces the trail home; LOADED or AWAITING_ROUTE drives
        the cargo to ``sv.dest``; IDLE repositions empty to ``sv.dest``.
        The release may open any vehicle's departure gate, so every vehicle
        is woken.  On NoPath nothing was committed: the vehicle reparks
        where it stands and the leg is planned again NOPATH_RETRY_TICKS
        later.  A cargo leg ACKs its order either way.
        """
        agent = sv.agent
        vid = agent.vehicle_id
        state = agent.state
        self.table.release_vehicle(vid)
        for other in self.fleet:
            other.wake = now
        self._next_wake = now
        try:
            if state == UNLOADING:
                sequence = agent.trail[::-1]
                horizon = plan_horizon(self.grid) + len(sequence)
                tp = schedule_along(self.table, sequence, now, self.ticks_per_hop, horizon)
            else:
                tp = plan_space_time(
                    self.grid, self.table, agent.current_node, sv.dest, now, self.ticks_per_hop, self.park_spots
                )
            commit(self.table, vid, tp)
        except NoPath:
            self.table.reserve(vid, agent.current_node, now, INF_TICK)
            sv.retry_at = now + NOPATH_RETRY_TICKS
        else:
            sv.retry_at = INF_TICK
            agent.start_leg(tp)
        if state in (LOADED, AWAITING_ROUTE):
            agent.queue_ack()

    def _handle_assign(self, sv: _SimVehicle, dest: NodeId, now: int) -> None:
        """Act on an order.  Every branch queues an ACK, which the vehicle
        sends when it steps, so it is woken; it has not stepped this tick,
        so a load switch pressed here is stamped ``now - 1``.  A vehicle
        that is busy or has a leg pending keeps the order it serves."""
        agent = sv.agent
        sv.wake = now
        self._next_wake = min(self._next_wake, now)
        if agent.busy or sv.retry_at != INF_TICK:
            agent.queue_ack()
            return
        sv.dest = dest
        if agent.state in (LOADED, AWAITING_ROUTE) and dest != agent.current_node:
            self._plan_leg(sv, now)
        else:
            agent.queue_ack()
            if agent.state == IDLE:
                if dest == agent.current_node:
                    agent.press_load_switch(now - 1)
                else:
                    self._plan_leg(sv, now)

    # -- tick phases ----------------------------------------------------

    def _deliver(self, now: int) -> list[Message]:
        """Act on the orders due at the vehicles; return the frames due at
        the hub, decoded.  A frame that is its vehicle's last telemetry
        frame reuses the message that frame encodes; any other, such as
        an older frame overtaken by a newer send, is decoded."""
        medium = self.medium
        for sv in self.fleet:
            if not sv.radio.inbox:
                continue
            for frame in medium.poll(sv.radio, now):
                try:
                    msg = decode(frame)
                except DecodeError:
                    continue
                if msg.kind == MessageKind.ASSIGN_DESTINATION and msg.vehicle_id == sv.agent.vehicle_id:
                    self._handle_assign(sv, NodeId(msg.dest[0], msg.dest[1]), now)
        inbound: list[Message] = []
        for sv in self.fleet:
            if not sv.hub_radio.inbox:
                continue
            for frame in medium.poll(sv.hub_radio, now):
                kept = sv.last_telemetry
                if kept is not None and kept[1] is frame:
                    msg = kept[2]
                else:
                    try:
                        msg = decode(frame)
                    except DecodeError:
                        continue
                if msg.kind is not MessageKind.ASSIGN_DESTINATION:
                    inbound.append(msg)
        return inbound

    def _hub_phase(self, inbound: list[Message], now: int) -> None:
        """Hand the inbound frames to the hub, then dispatch, unless only
        telemetry (or nothing) came in before ``hub.wake_tick``: telemetry
        changes nothing dispatch reads, so dispatch would change nothing
        and send nothing."""
        hub = self.hub
        telemetry_only = True
        for msg in inbound:
            kind = msg.kind
            if kind is MessageKind.TELEMETRY:
                ingest_telemetry(hub, msg, now, self.vehicles[msg.vehicle_id].agent.state)
            elif kind is MessageKind.ACTIVATE:
                hub.on_activate(msg.vehicle_id, now)
                telemetry_only = False
            else:
                hub.on_ack(msg.vehicle_id)
                telemetry_only = False
        if telemetry_only and now < hub.wake_tick:
            return
        hub.dispatch(now)
        for msg in hub.outbox:
            self.medium.send(self.vehicles[msg.vehicle_id].hub_radio, encode(msg), now)
        hub.outbox.clear()

    def _vehicle_phase(self, now: int) -> None:
        """Step the vehicles that are due, in fleet order.

        ``wake`` is read as the loop reaches each vehicle, so one that a
        release earlier in the loop woke is stepped on this tick.
        ``_next_wake`` is the least ``wake`` of the fleet: before it no
        vehicle is due, and the tick does not call this.
        """
        for i, sv in enumerate(self.fleet):
            if now >= sv.wake:
                self._step_vehicle(i, sv, now)
        # A separate pass: a release late in the loop lowers the wakes of
        # vehicles it has already passed.
        self._next_wake = min((sv.wake for sv in self.fleet), default=math.inf)

    def _step_vehicle(self, i: int, sv: _SimVehicle, now: int) -> None:
        """Plan fleet vehicle i's leg if one is due, step it and act on
        what the step changed.  The wake tick from ``step`` (a moving
        vehicle's next hop event) is lowered to ``retry_at``.

        A vehicle stays on the segment from its node to its edge end while
        that pair, its ``hop``, holds, since a spin-up never reverses the
        wheels.  Only its own step changes its motion and its hop, so here
        a changed hop is re-placed in the radar index, from the positions
        the agent holds for both ends, and, with the trace on, both are
        logged.
        """
        agent = sv.agent
        if now >= sv.retry_at:
            self._plan_leg(sv, now)
        state = agent.state
        wake = agent.step(now)
        if agent.state != state:
            self._post_step(sv, state, now)
        sv.wake = min(wake, sv.retry_at)
        if agent.outbox:
            for msg in agent.outbox:
                self.medium.send(sv.radio, encode(msg), now)
            agent.outbox.clear()
        edge = agent.edge_in_progress()
        src = agent.current_node
        dst = edge[1] if edge is not None else src
        hop = sv.hop
        rehop = hop[0] is not src or hop[1] is not dst
        if rehop:
            sv.hop = (src, dst)
            self._hop_index.place(i, agent.xy, agent.target)
        if self.trace:
            self.pose_trace.log(i, now, agent.motion)
            if rehop:
                ny = self.grid.ny
                self.occupancy_trace.log(i, now, _Held((src.ix * ny + src.iy, dst.ix * ny + dst.iy)))

    def _post_step(self, sv: _SimVehicle, before: str, now: int) -> None:
        """Act on a cargo state change of this tick's step, from ``before``:
        an arrival with cargo starts the unload dwell, the end of a retrace
        completes the job."""
        agent = sv.agent
        if agent.state == UNLOADING:
            sv.retry_at = now + self.unload_ticks
        elif before == RETRACING:
            job = self.hub.vehicles[agent.vehicle_id].job
            job_id = job.job_id if job is not None else -1
            home_xy = self.grid.node_to_position(agent.home_node)
            self.job_traces.append(
                JobTrace(
                    vehicle_id=agent.vehicle_id,
                    job_id=job_id,
                    outbound=tuple(agent.trail),
                    retraced=tuple(agent.retraced),
                    final_pose=agent.motion.at(now),
                    home_position=(home_xy.x, home_xy.y),
                    complete_tick=now,
                )
            )
            self.hub.on_job_complete(agent.vehicle_id)
            agent.trail.clear()
            self.completed_jobs += 1
            self.last_complete_tick = now

    def _radar_phase(self, now: int) -> None:
        """Echo at the tick's sweep index, read from the sweep table's
        ``order``: up from 0 on even sweeps, back down on odd ones.

        The echo runs only when the index's mask names a vehicle, over the
        positions at ``now`` of those it names, and only a hit is kept,
        with its tick: a tick with none streams its index's quiet line.
        """
        order = self._sweep_table.order
        idx = order[now % len(order)]
        if self._hop_index.masks[idx]:
            fleet = self.fleet
            dist = self._hop_index.echo(idx, lambda i: fleet[i].agent.motion.at(now))
            if dist is not None:
                self._hits.append((now, dist))

    def _telemetry_phase(self, now: int) -> None:
        """Send each vehicle's telemetry on the interval.  A resting
        vehicle's frame stays the same until its next event, so its bytes
        are kept and sent again; every frame is kept with its message for
        the hub."""
        if now < self._next_telemetry:
            return
        self._next_telemetry = now + self._telemetry_interval
        for sv in self.fleet:
            agent = sv.agent
            motion = agent.motion
            kept = sv.last_telemetry
            if kept is not None and kept[0] is motion:
                frame = kept[1]
            else:
                msg = agent.telemetry(now)
                frame = encode(msg)
                sv.last_telemetry = (motion if isinstance(motion, Rest) else None, frame, msg)
            self.medium.send(sv.radio, frame, now)

    def tick(self) -> None:
        """Advance one timestep, running only the phases that are due.

        A tick before ``_quiet_until`` runs only the radar: one mask test,
        storing nothing, when the tick's sweep index names no vehicle.  Any
        other runs delivery and the hub when a frame is due or the hub
        wakes; the vehicles when one is due, tested after delivery, which
        may wake one; the radar; and the telemetry phase, which sends on
        its interval.  Only a tick changes
        what ``_quiet_until`` reads, and a quiet tick none of it, so it is
        recomputed at the end of each tick that is not quiet.  The scan
        stream and the scans are built when read (`frame_lines`,
        `renders`).
        """
        now = self.tick_count
        if now < self._quiet_until:
            self._radar_phase(now)
            self.tick_count = now + 1
            return
        medium = self.medium
        hub = self.hub
        if now >= medium.next_due or now >= hub.wake_tick:
            self._hub_phase(self._deliver(now), now)
        if now >= self._next_wake:
            self._vehicle_phase(now)
        self._radar_phase(now)
        self._telemetry_phase(now)
        self.tick_count = now + 1
        self._quiet_until = min(medium.next_due, hub.wake_tick, self._next_wake, self._next_telemetry)

    @property
    def all_done(self) -> bool:
        if self.completed_jobs < self.total_jobs:
            return False
        return all(
            sv.agent.state == IDLE and not sv.agent.busy and sv.retry_at == INF_TICK
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
        per_vehicle = metrics(sim.hub.log)
    report = SimReport(
        completed_jobs=sim.completed_jobs,
        total_jobs=sim.total_jobs,
        makespan_ticks=sim.last_complete_tick,
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

