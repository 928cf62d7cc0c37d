"""Single vehicle agent: cargo state machine, drive dynamics, waypoints.

The chassis is a differential drive that either turns in place or drives
straight between lattice nodes.  One PID loop (stock `PidState` gains)
regulates the wheel speed magnitude against a first-order motor plant;
during turns the wheels counter-rotate at that magnitude, during
straights they co-rotate, and at rest they are braked.  A spin-up never
reverses the wheels (see `_spin_row`), so a drive keeps to its edge.

Every spin-up starts from rest toward the one cruise setpoint, so the
wheel speed after n ticks of motion depends only on the vehicle's
parameters and the timestep.  An agent is built for one grid and one
timestep.  Its wheel state is the last `_spin_row`, read from a spin-up
table built once per parameters and timestep; a spin-up that outruns a
capped table goes on by the same step from the agent's last row.

A vehicle is stepped only at its hop events: a hop's start, its turn's
end (where the departure gate is asked) and its arrival.  At each, the
turn or drive ahead is worked out whole, tick by tick as the wheel loop
runs it (a `HopRun`, kept in a bounded cache per settled table), and the
agent's `motion` (a `Rest`, `Turn` or `Drive`) gives its position,
heading and speed at any tick until the next event.  The agent alone
states its (node, edge end) pair, as ``hop``: a tuple built only when a
drive is set up or arrives, so a new object means a new pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice, repeat
from typing import Callable, Iterator, NamedTuple

from .errors import IllegalTransition, TimestepTooLarge
from .grid import GridMap, NodeId
from .planner import INF_TICK, TimedPath
from .rfnet import CHANNEL_COUNT, Message, MessageKind

IDLE = "IDLE"
LOADED = "LOADED"
AWAITING_ROUTE = "AWAITING_ROUTE"
TRANSIT = "TRANSIT"
UNLOADING = "UNLOADING"
RETRACING = "RETRACING"

# The state a leg is driven in, by the cargo state that starts it.
_LEG_STATE = {IDLE: IDLE, LOADED: TRANSIT, AWAITING_ROUTE: TRANSIT, UNLOADING: RETRACING}

ACTIVATE_RETRY_TICKS = 20

# A hop's heading in degrees and unit direction, by its (dx, dy) in nodes.
_HOPS = {
    (1, 0): (0.0, 1.0, 0.0),
    (0, 1): (90.0, 0.0, 1.0),
    (-1, 0): (180.0, -1.0, 0.0),
    (0, -1): (270.0, 0.0, -1.0),
}

# Rows kept per spin-up table; a spin-up that has not settled by then
# continues on the live loop.
SPIN_TABLE_CAP = 10_000
# Turn and drive runs kept from settled tables, shared by every agent.
HOP_CACHE_SIZE = 4096
# The `_spin_row` of wheels at rest, from which every spin-up starts.
_AT_REST = (0.0, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class VehicleParams:
    track_m: float = 0.35
    wheel_radius_m: float = 0.05
    cruise_speed_m_s: float = 0.1
    motor_gain: float = 1.0
    motor_time_constant_s: float = 0.2
    body_radius_m: float = 0.2

    def __post_init__(self) -> None:
        for name in (
            "track_m", "wheel_radius_m", "cruise_speed_m_s",
            "motor_gain", "motor_time_constant_s", "body_radius_m",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def cruise_omega(self) -> float:
        return self.cruise_speed_m_s / self.wheel_radius_m


@dataclass
class PidState:
    kp: float = 2.0
    ki: float = 5.0
    kd: float = 0.0
    output_limit: float = 5.0
    integral: float = 0.0
    prev_error: float = 0.0


def pid_update(pid: PidState, setpoint: float, measured: float, dt_s: float) -> float:
    """One controller update; output and integral are both clamped."""
    error = setpoint - measured
    pid.integral += error * dt_s
    if pid.ki > 0:
        bound = pid.output_limit / pid.ki
        pid.integral = max(-bound, min(bound, pid.integral))
    u = pid.kp * error + pid.ki * pid.integral + pid.kd * (error - pid.prev_error) / dt_s
    pid.prev_error = error
    return max(-pid.output_limit, min(pid.output_limit, u))


def motor_step(omega: float, u: float, params: VehicleParams, dt_s: float) -> float:
    """Explicit-Euler step of the first-order motor plant."""
    tau = params.motor_time_constant_s
    if dt_s <= 0:
        raise TimestepTooLarge(f"dt must be positive, got {dt_s}")
    if dt_s > tau / 2:
        raise TimestepTooLarge(f"dt {dt_s} exceeds stability guard tau/2 = {tau / 2}")
    return omega + dt_s * (params.motor_gain * u - omega) / tau


def _spin_row(params: VehicleParams, dt_s: float, row: tuple[float, ...]) -> tuple[float, ...]:
    """One tick of the wheel loop from ``row``, the (omega, yaw_deg,
    step_len, integral, prev_error) after the tick before: the row after
    it, where a turn yaws yaw_deg and a drive travels step_len in the tick.

    A spin-up toward cruise never reverses the wheels: a tick whose
    ``omega`` falls below 0 raises TimestepTooLarge, as a high motor gain
    does at a timestep near the motor's stability guard.
    """
    pid = PidState(integral=row[3], prev_error=row[4])
    u = pid_update(pid, params.cruise_omega, row[0], dt_s)
    omega = motor_step(row[0], u, params, dt_s)
    if omega < 0:
        raise TimestepTooLarge(f"dt {dt_s} reverses the wheels on a spin-up to cruise (omega {omega})")
    r = params.wheel_radius_m
    yaw_deg = math.degrees(2.0 * r * omega / params.track_m) * dt_s
    return omega, yaw_deg, r * omega * dt_s, pid.integral, pid.prev_error


@dataclass(frozen=True, eq=False)
class SpinTable:
    """The rows of one spin-up from rest: ``rows[n]`` is `_spin_row` after
    n + 1 ticks.  If ``settled``, every later tick repeats the last row.
    No drive on the table, in the rows or past them, is faster than
    ``peak_speed_m_s``.

    Compared and hashed by identity, so it keys the hop cache cheaply.
    """

    rows: tuple[tuple[float, ...], ...]
    settled: bool
    peak_speed_m_s: float


# Sized to the vehicle cap, so agents read back every table validation built.
@lru_cache(maxsize=CHANNEL_COUNT)
def spin_table(params: VehicleParams, dt_s: float) -> SpinTable:
    """The spin-up of ``params`` at ``dt_s``, up to SPIN_TABLE_CAP rows.

    It settles when a tick leaves unchanged all the state that feeds the
    next output: ``omega`` and the integral, as the stock loop has no
    derivative gain.  Raises TimestepTooLarge if a row reverses.
    """
    row = _spin_row(params, dt_s, _AT_REST)
    rows = [row]
    settled = False
    while len(rows) < SPIN_TABLE_CAP:
        nxt = _spin_row(params, dt_s, row)
        if nxt[0] == row[0] and nxt[3] == row[3]:
            settled = True
            break
        rows.append(nxt)
        row = nxt
    peak = max(omega for omega, *_ in rows)
    if not settled:
        # With dt <= tau / 2 each tick's omega lies between the last one
        # and gain * u, so past the rows it never exceeds both the rows'
        # peak and gain * output_limit.
        peak = max(peak, params.motor_gain * PidState.output_limit)
    return SpinTable(tuple(rows), settled, _speed(params.wheel_radius_m, peak))


class HopRun(NamedTuple):
    """A turn or a drive as its ticks run it, from its first tick.

    ``values[k]`` is the heading (turn) or the coordinate along the drive
    axis (drive) after tick k, for every tick before the one that ends the
    turn or arrives, which is tick ``len(values)``.  ``rows[k]`` is the
    `_spin_row` of tick k, the ending tick's included.
    """

    values: tuple[float, ...]
    rows: tuple[tuple[float, ...], ...]


def _turn_run(rows: Iterator[tuple[float, ...]], heading: float, sign: int, remaining: float) -> HopRun:
    """Turn ``remaining`` degrees from ``heading`` in direction ``sign``: each
    tick yaws its row's yaw_deg, taken modulo 360, and the tick whose yaw
    reaches what is left ends the turn."""
    values, used = [], []
    while True:
        row = next(rows)
        used.append(row)
        yaw_deg = row[1]
        if yaw_deg >= remaining:
            return HopRun(tuple(values), tuple(used))
        remaining -= yaw_deg
        heading = (heading + sign * yaw_deg) % 360.0
        values.append(heading)


def _drive_run(rows: Iterator[tuple[float, ...]], c: float, u: float, target: float, window: float) -> HopRun:
    """Drive from ``c`` along unit ``u`` toward ``target``: each tick adds
    ``u`` times its row's step_len, in sequence, and the first tick that
    leaves at most ``window`` to go arrives.  The distance left is measured
    along the drive axis, so a step that overshoots the node still arrives."""
    values, used = [], []
    while True:
        row = next(rows)
        used.append(row)
        c += u * row[2]
        if (target - c) * u <= window:
            return HopRun(tuple(values), tuple(used))
        values.append(c)


@lru_cache(maxsize=HOP_CACHE_SIZE)
def _cached_run(run: Callable[..., HopRun], table: SpinTable, n: int, *hop: float) -> HopRun:
    """``run`` of one hop from spin count ``n`` of a settled table, which
    repeats its last row after its end."""
    rows = table.rows
    return run(chain(islice(rows, n, None), repeat(rows[-1])), *hop)


def _speed(radius_m: float, omega: float) -> float:
    """Forward speed while driving: the mean of the two wheels' rim speeds."""
    return radius_m * (omega + omega) / 2.0


class Motion:
    """What a vehicle does from one of its events to the next, read by
    tick.  This base stands at ``xy`` facing ``heading``."""

    __slots__ = ("xy", "heading")

    def __init__(self, xy: tuple[float, float], heading: float) -> None:
        self.xy = xy
        self.heading = heading

    def at(self, t: int) -> tuple[float, float]:
        """The position after the step at tick ``t``."""
        return self.xy

    def span(self, a: int, b: int) -> list[tuple[float, float]]:
        """The positions of ticks ``a`` to ``b - 1``."""
        return [self.xy] * (b - a)

    def heading_at(self, t: int) -> float:
        return self.heading

    def speed_at(self, t: int) -> float:
        return 0.0


class Rest(Motion):
    """At rest at ``xy`` facing ``heading``, with the wheels braked."""

    __slots__ = ()


class _Hop(Motion):
    """A turn or drive that runs ``run`` from tick ``t0`` and ends at its
    event, tick ``end``; at ``xy`` facing ``heading`` before ``t0``."""

    __slots__ = ("t0", "run", "end")

    def __init__(self, xy: tuple[float, float], heading: float, t0: int, run: HopRun) -> None:
        super().__init__(xy, heading)
        self.t0 = t0
        self.run = run
        self.end = t0 + len(run.values)


class Turn(_Hop):
    """Turning in place at ``xy``, facing ``run.values[t - t0]`` from ``t0``.
    The wheels counter-rotate, so the speed is 0."""

    __slots__ = ()

    def heading_at(self, t: int) -> float:
        k = t - self.t0
        return self.heading if k < 0 else self.run.values[k]


class Drive(_Hop):
    """Driving along ``axis`` (0 for x, 1 for y): from ``t0`` at
    ``run.values[t - t0]`` on that axis and ``cross`` on the other, with
    the speed of ``run.rows[t - t0]`` (``speed0`` before ``t0``)."""

    __slots__ = ("axis", "cross", "radius_m", "speed0")

    def __init__(self, xy: tuple[float, float], heading: float, t0: int, run: HopRun, axis: int,
                 radius_m: float, speed0: float) -> None:
        super().__init__(xy, heading, t0, run)
        self.axis = axis
        # The other axis adds 0.0 * step_len each tick, which turns a -0.0
        # into 0.0 on the first tick and changes nothing after it.
        self.cross = xy[1 - axis] + 0.0
        self.radius_m = radius_m
        self.speed0 = speed0

    def at(self, t: int) -> tuple[float, float]:
        k = t - self.t0
        if k < 0:
            return self.xy
        c = self.run.values[k]
        return (c, self.cross) if self.axis == 0 else (self.cross, c)

    def span(self, a: int, b: int) -> list[tuple[float, float]]:
        t0 = self.t0
        out = [self.xy] * max(0, min(b, t0) - a)
        coords = self.run.values[max(a, t0) - t0 : b - t0]
        cross = self.cross
        if self.axis == 0:
            out += [(c, cross) for c in coords]
        else:
            out += [(cross, c) for c in coords]
        return out

    def speed_at(self, t: int) -> float:
        k = t - self.t0
        return self.speed0 if k < 0 else _speed(self.radius_m, self.run.rows[k][0])


class VehicleAgent:
    """Waypoint-following cargo vehicle on ``grid`` at timestep ``dt_s``.

    Motion obeys the timed route windows: each hop has a scheduled
    departure tick and the agent never leaves a node early unless the
    ``departure_gate`` callback grants an earlier slot by returning None;
    a refusal returns the tick until which it stands.

    ``motion`` holds what the vehicle does from its last event to its next
    (a `Rest`, `Turn` or `Drive`), so its pose and speed at any tick in
    between are reads, not steps.

    Raises TimestepTooLarge if the spin-up of ``params`` at ``dt_s`` is
    unstable or reverses the wheels (see `spin_table`).
    """

    def __init__(
        self,
        vehicle_id: int,
        home_node: NodeId,
        grid: GridMap,
        dt_s: float,
        params: VehicleParams | None = None,
    ) -> None:
        self.vehicle_id = vehicle_id
        self.params = params or VehicleParams()
        self._grid = grid
        self._dt_s = dt_s
        self._table = spin_table(self.params, dt_s)
        self.state = IDLE
        self.home_node = home_node
        self.current_node = home_node
        # The nodes driven from home to the drop-off, which the retrace
        # drives in reverse; the engine clears it when the job ends.
        self.trail: list[NodeId] = []
        # The nodes driven by the last retrace, from the drop-off on.
        self.retraced: list[NodeId] = []
        # Position and heading at the last event: ``xy`` is where the
        # vehicle stands on its current node, the floats of
        # `GridMap.node_to_position`.
        x, y = grid.node_to_position(home_node)
        self.xy = (x, y)
        self._heading = 0.0
        # Ticks of motion since the last halt, which index the spin-up
        # table, and the wheel loop's row on the last of them.
        self._spins = 0
        self._row = _AT_REST
        self.motion: Motion = Rest(self.xy, self._heading)
        # The (node, edge end) pair the vehicle is on: its current node and
        # the next one while it drives, else that node twice.  A new tuple
        # is built only when the pair changes.
        self.hop: tuple[NodeId, NodeId] = (home_node, home_node)
        # The (x, y) the drive snaps onto when it arrives, the edge end's
        # `GridMap.node_to_position`; ``xy`` itself while the vehicle is
        # not driving.
        self.target = self.xy
        self._route: list[NodeId] | None = None
        self._departures: list[int] = []
        # The index of ``current_node`` in the route.
        self._leg_pos = 0
        self._last_activate = -ACTIVATE_RETRY_TICKS
        self.outbox: list[Message] = []
        # Asked as ``gate(vehicle_id, next_node, now, scheduled)`` before an
        # early departure: None grants ``[now, scheduled)`` on ``next_node``;
        # a refusal returns the end of the blocking holds, and stands until
        # then or until some vehicle's holds are released, which wakes every
        # vehicle, so the vehicle sleeps until the first of those.
        self.departure_gate: Callable[[int, NodeId, int, int], float | None] | None = None

    # -- state machine ----------------------------------------------

    def press_load_switch(self, tick: int) -> None:
        """Load placed on the platform; announce readiness to the hub.

        ``tick`` stamps the announcement: while no route arrives, ACTIVATE
        is repeated ACTIVATE_RETRY_TICKS after it.
        """
        if self.state != IDLE:
            raise IllegalTransition(f"load switch pressed while {self.state}")
        self.state = LOADED
        self.outbox.append(Message(MessageKind.ACTIVATE, self.vehicle_id))
        self._last_activate = tick

    def queue_ack(self) -> None:
        self.outbox.append(Message(MessageKind.ACK, self.vehicle_id))

    def start_leg(self, timed_path: TimedPath) -> None:
        """Start driving the leg the cargo state names: a reposition while
        IDLE, the transit while LOADED or AWAITING_ROUTE, the retrace while
        UNLOADING.

        Raises IllegalTransition while a leg is being driven.  A refused
        route raises ValueError and leaves the vehicle as it was.
        """
        if self._route is not None:
            raise IllegalTransition(f"vehicle {self.vehicle_id}: leg started while driving one ({self.state})")
        route = timed_path.route
        if route[0] != self.current_node:
            raise ValueError(f"route starts at {route[0]}, vehicle at {self.current_node}")
        if len(route) == 1:
            raise ValueError(f"route {route[0]} has no hop to drive")
        for a, b in zip(route, route[1:]):
            if (b[0] - a[0], b[1] - a[1]) not in _HOPS:
                raise ValueError(f"hop {tuple(a)} -> {tuple(b)} is not to a 4-neighbour node")
        self.state = _LEG_STATE[self.state]
        if self.state == RETRACING:
            self.retraced = [self.current_node]
        elif not self.trail:
            self.trail.append(self.current_node)
        self._route = route
        self._departures = [s.exit_tick for s in timed_path.steps[:-1]]
        self._leg_pos = 0
        self._halt()

    # -- route bookkeeping ------------------------------------------

    @property
    def busy(self) -> bool:
        """A leg is being driven; the step that reaches its last node ends it."""
        return self._route is not None

    # -- dynamics ----------------------------------------------------

    def telemetry(self, now: int) -> Message:
        motion = self.motion
        x, y = motion.at(now)
        return Message(
            MessageKind.TELEMETRY,
            self.vehicle_id,
            x_mm=int(round(x * 1000.0)),
            y_mm=int(round(y * 1000.0)),
            speed_mm_s=int(round(motion.speed_at(now) * 1000.0)),
            heading_cdeg=int(round(motion.heading_at(now) * 100.0)) % 36000,
        )

    def _halt(self) -> None:
        self._row = _AT_REST
        self._spins = 0
        if not isinstance(self.motion, Rest):
            self.motion = Rest(self.xy, self._heading)

    def _live(self, row: tuple[float, ...]) -> Iterator[tuple[float, ...]]:
        """The wheel loop run on from ``row``, one `_spin_row` a tick."""
        while True:
            row = _spin_row(self.params, self._dt_s, row)
            yield row

    def _hop_run(self, run: Callable[..., HopRun], *hop: float) -> HopRun:
        """``run`` of the hop ahead, from the agent's spin state.

        The n-th tick after a halt reads row n - 1 of the spin-up table.  A
        settled table repeats its last row after that, so its runs are kept
        in a cache of HOP_CACHE_SIZE keyed by the spin count, clamped to
        the table's length.  Past a table that ends short of a fixed point,
        the same step runs on from its last row, and obeys the same rule: a
        tick that would reverse the wheels raises TimestepTooLarge naming
        the timestep, here when the hop is set up, before it moves.
        """
        table = self._table
        rows = table.rows
        n = self._spins
        if table.settled:
            return _cached_run(run, table, min(n, len(rows)), *hop)
        last = rows[-1] if n < len(rows) else self._row
        return run(chain(islice(rows, n, None), self._live(last)), *hop)

    def _start_hop(self, now: int, t0: int) -> float | None:
        """Face the next waypoint: a turn or a drive from tick ``t0``.

        A hop that needs no turn may have to wait first: returns `_hold`'s
        answer for it, and None when the turn or drive is set up.  A turn
        takes the hop's heading as it is set up, since nothing reads
        ``_heading`` before it ends; there this is called again, finds no
        turn left and waits or drives.
        """
        assert self._route is not None
        node = self.current_node
        nxt = self._route[self._leg_pos + 1]
        heading, ux, uy = _HOPS[nxt[0] - node[0], nxt[1] - node[1]]
        diff = (heading - self._heading) % 360.0
        if diff == 0.0:
            wait = self._hold(now)
            if wait is None:
                self._drive(t0, nxt, ux, uy)
            return wait
        sign, remaining = (1, diff) if diff <= 180.0 else (-1, 360.0 - diff)
        run = self._hop_run(_turn_run, self._heading, sign, remaining)
        self.motion = Turn(self.xy, self._heading, t0, run)
        self._heading = heading
        return None

    def _drive(self, t0: int, nxt: NodeId, ux: float, uy: float) -> None:
        """Drive the hop to ``nxt`` along unit (``ux``, ``uy``) from tick ``t0``."""
        axis = 0 if ux else 1
        grid = self._grid
        x, y = grid.node_to_position(nxt)
        self.target = (x, y)
        self.hop = (self.current_node, nxt)
        run = self._hop_run(_drive_run, self.xy[axis], ux or uy, self.target[axis], grid.spacing_m / 10.0)
        r = self.params.wheel_radius_m
        self.motion = Drive(self.xy, self._heading, t0, run, axis, r, _speed(r, self._row[0]))

    def _hold(self, now: int) -> float | None:
        """None if the vehicle may leave for the next node at ``now``.

        Otherwise halt it and return the tick it is next due: its scheduled
        departure, or earlier the tick until which the departure gate's
        refusal stands.
        """
        assert self._route is not None
        scheduled = self._departures[self._leg_pos]
        if now >= scheduled:
            return None
        gate = self.departure_gate
        until = INF_TICK if gate is None else gate(self.vehicle_id, self._route[self._leg_pos + 1], now, scheduled)
        if until is None:
            return None
        self._halt()
        return min(scheduled, until)

    def step(self, now: int) -> float:
        """Advance to tick ``now``: housekeeping, then the hop event due.

        The vehicle's motion changes only at hop events: a hop's start, its
        turn's end (where the departure gate is asked) and its arrival.
        A step between two events changes nothing.  The step that reaches a
        leg's last node ends the leg: a reposition presses the load switch,
        a transit starts UNLOADING and a retrace ends in IDLE.

        Returns the next tick at which a step can change anything: the end
        of the turn or the arrival while the vehicle turns or drives;
        ``now + 1`` on the step that ends a leg; while it rests, the
        scheduled departure, or earlier the tick until which the departure
        gate's refusal stands; the next ACTIVATE retry while it awaits a
        route and INF_TICK while it is parked with no route.  A release of
        holds, ``start_leg`` and ``press_load_switch`` can make it due
        earlier; their caller tracks that.
        """
        if self.state == LOADED:
            self.state = AWAITING_ROUTE
        if self.state == AWAITING_ROUTE and now - self._last_activate >= ACTIVATE_RETRY_TICKS:
            self.outbox.append(Message(MessageKind.ACTIVATE, self.vehicle_id))
            self._last_activate = now

        if self._route is None:
            if self.state == AWAITING_ROUTE:
                return self._last_activate + ACTIVATE_RETRY_TICKS
            return INF_TICK

        if isinstance(self.motion, Rest):
            # At a node: face the next one, or wait there for the departure window.
            wait = self._start_hop(now, now)
            if wait is not None:
                return wait
        motion = self.motion
        assert isinstance(motion, _Hop)
        if now < motion.end:
            return motion.end
        # The turn or drive ends this tick: spend its spin rows, then wait
        # or go on from the next tick unless an arrival ends the leg.
        rows = motion.run.rows
        self._spins += len(rows)
        self._row = rows[-1]
        if isinstance(motion, Drive) and self._arrive(now):
            return now + 1
        wait = self._start_hop(now, now + 1)
        return self.motion.end if wait is None else wait

    def _arrive(self, now: int) -> bool:
        """Snap onto the hop's edge end and record it in the trail (the
        retrace's while RETRACING).  Returns whether the leg ends there,
        and if so ends it."""
        assert self._route is not None
        node = self.hop[1]
        self.xy = self.target
        self.current_node = node
        self.hop = (node, node)
        self._leg_pos += 1
        if self.state == RETRACING:
            self.retraced.append(node)
        else:
            self.trail.append(node)
        if self._leg_pos < len(self._route) - 1:
            return False
        self._route = None
        self._halt()
        if self.state == IDLE:
            self.press_load_switch(now)  # a reposition reached its pickup
        elif self.state == TRANSIT:
            self.state = UNLOADING
        else:
            self.state = IDLE
        return True
