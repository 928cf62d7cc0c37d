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
capped table goes on by the same step from the agent's last row.  Each
hop's heading, direction and target are worked out once when the hop
starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

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

_LEGAL = {
    IDLE: {LOADED},
    LOADED: {AWAITING_ROUTE, TRANSIT},
    AWAITING_ROUTE: {TRANSIT},
    TRANSIT: {UNLOADING},
    UNLOADING: {RETRACING},
    RETRACING: {IDLE},
}

ACTIVATE_RETRY_TICKS = 20

_REST = "rest"
_TURN = "turn"
_DRIVE = "drive"

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


class SpinTable(NamedTuple):
    """The rows of one spin-up from rest: ``rows[n]`` is `_spin_row` after
    n + 1 ticks.  If ``settled``, every later tick repeats the last row."""

    rows: tuple[tuple[float, ...], ...]
    settled: bool


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
    while len(rows) < SPIN_TABLE_CAP:
        nxt = _spin_row(params, dt_s, row)
        if nxt[0] == row[0] and nxt[3] == row[3]:
            return SpinTable(tuple(rows), True)
        rows.append(nxt)
        row = nxt
    return SpinTable(tuple(rows), False)


class Pose(NamedTuple):
    x: float
    y: float
    heading_deg: float


class VehicleAgent:
    """Waypoint-following cargo vehicle on ``grid``, stepped by the sim
    loop every ``dt_s``.

    Motion obeys the timed route windows: each hop has a scheduled
    departure tick and the agent never leaves a node early unless the
    ``departure_gate`` callback grants an earlier slot by returning None;
    a refusal returns the tick until which it stands.

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
        self._rows, self._settled = spin_table(self.params, dt_s)
        self.state = IDLE
        self.home_node = home_node
        self.current_node = home_node
        # The nodes driven from home to the drop-off, which the retrace
        # drives in reverse; the engine clears it when the job ends.
        self.trail: list[NodeId] = []
        # The nodes driven by the last retrace, from the drop-off on.
        self.retraced: list[NodeId] = []
        # Position in metres as plain floats: the engine's per-tick phases
        # read these instead of building a `pose`.
        self.x, self.y = grid.node_to_position(home_node)
        self._heading = 0.0
        # Ticks of motion since the last halt, which index `_rows`, and the
        # wheel loop's row on the last of them (see `_spin`).
        self._spins = 0
        self._row = _AT_REST
        self._phase = _REST
        self._turn_sign = 0
        self._turn_remaining = 0.0
        # The hop being faced or driven: its heading, then its unit
        # direction, target (x, y) and arrival window, set by `_start_hop`.
        self._hop_heading = 0.0
        self._hop_drive = (0.0, 0.0, 0.0, 0.0, 0.0)
        self._route: list[NodeId] | None = None
        self._departures: list[int] = []
        self._hop = 0
        self._last_activate = -ACTIVATE_RETRY_TICKS
        self.outbox: list[Message] = []
        self.departure_gate: Callable[["VehicleAgent", NodeId, int, int], float | None] | None = None

    # -- state machine ----------------------------------------------

    def _transition(self, new_state: str) -> None:
        if new_state not in _LEGAL[self.state]:
            raise IllegalTransition(f"vehicle {self.vehicle_id}: {self.state} -> {new_state}")
        self.state = new_state

    def press_load_switch(self, tick: int) -> None:
        """Load placed on the platform; announce readiness to the hub.

        ``tick`` stamps the announcement: while no route arrives, ACTIVATE
        is repeated ACTIVATE_RETRY_TICKS after it.
        """
        if self.state != IDLE:
            raise IllegalTransition(f"load switch pressed while {self.state}")
        self._transition(LOADED)
        self.outbox.append(Message(MessageKind.ACTIVATE, self.vehicle_id))
        self._last_activate = tick

    def on_destination(self, timed_path: TimedPath) -> None:
        """Cargo destination received; start the transit leg and ACK."""
        if self.state not in (LOADED, AWAITING_ROUTE):
            raise IllegalTransition(f"destination received while {self.state}")
        self._begin_route(timed_path, TRANSIT)
        self.queue_ack()

    def unload(self, timed_path: TimedPath) -> None:
        """Cargo dropped; retrace the recorded trail back to the terminal."""
        if self.state != UNLOADING:
            raise IllegalTransition(f"unload while {self.state}")
        self._begin_route(timed_path, RETRACING)

    def begin_reposition(self, timed_path: TimedPath) -> None:
        """Drive empty to a pickup terminal; cargo state stays IDLE."""
        if self.state != IDLE:
            raise IllegalTransition(f"reposition while {self.state}")
        self._begin_route(timed_path, IDLE)

    def queue_ack(self) -> None:
        self.outbox.append(Message(MessageKind.ACK, self.vehicle_id))

    # -- route bookkeeping ------------------------------------------

    def _begin_route(self, timed_path: TimedPath, state: str) -> None:
        """Check the route, then enter ``state`` and start driving it.

        A refused route raises ValueError and leaves the vehicle as it was.
        """
        route = timed_path.route
        if route[0] != self.current_node:
            raise ValueError(f"route starts at {route[0]}, vehicle at {self.current_node}")
        if len(route) == 1:
            raise ValueError(f"route {route[0]} has no hop to drive")
        for a, b in zip(route, route[1:]):
            if (b[0] - a[0], b[1] - a[1]) not in _HOPS:
                raise ValueError(f"hop {tuple(a)} -> {tuple(b)} is not to a 4-neighbour node")
        if state != self.state:
            self._transition(state)
        if self.state == RETRACING:
            self.retraced = [self.current_node]
        elif not self.trail:
            self.trail.append(self.current_node)
        self._route = route
        self._departures = [s.exit_tick for s in timed_path.steps[:-1]]
        self._hop = 0
        self._halt()

    @property
    def busy(self) -> bool:
        """A leg is being driven; the step that reaches its last node ends it."""
        return self._route is not None

    def edge_in_progress(self) -> tuple[NodeId, NodeId] | None:
        """The (from, to) edge currently being driven, if mid-hop."""
        if self._route is None or self._phase != _DRIVE:
            return None
        return self._route[self._hop], self._route[self._hop + 1]

    # -- dynamics ----------------------------------------------------

    @property
    def pose(self) -> Pose:
        return Pose(self.x, self.y, self._heading)

    @property
    def speed_m_s(self) -> float:
        """Forward speed: the mean of the two wheels' rim speeds, which
        cancel while the vehicle turns in place and are 0 at rest."""
        if self._phase != _DRIVE:
            return 0.0
        omega = self._row[0]
        return self.params.wheel_radius_m * (omega + omega) / 2.0

    def telemetry(self) -> Message:
        return Message(
            MessageKind.TELEMETRY,
            self.vehicle_id,
            x_mm=int(round(self.x * 1000.0)),
            y_mm=int(round(self.y * 1000.0)),
            speed_mm_s=int(round(self.speed_m_s * 1000.0)),
            heading_cdeg=int(round(self._heading * 100.0)) % 36000,
        )

    def _halt(self) -> None:
        self._row = _AT_REST
        self._spins = 0
        self._phase = _REST

    def _spin(self) -> tuple[float, ...]:
        """One tick of the wheel loop toward cruise; returns its `_spin_row`.

        The n-th tick after a halt reads row n - 1 of the spin-up table.
        Past a table that ends short of a fixed point, the same step runs
        on from the last row, and obeys the same rule: a tick that would
        reverse the wheels raises TimestepTooLarge naming the timestep,
        and the vehicle does not move on that tick.
        """
        n = self._spins
        if n < len(self._rows):
            self._spins = n + 1
            self._row = self._rows[n]
        elif not self._settled:
            self._row = _spin_row(self.params, self._dt_s, self._row)
        return self._row

    def _start_hop(self, now: int) -> float | None:
        """Face the next waypoint, setting phase to turn or drive.

        Sets the hop's heading, direction, target and arrival window, which
        the turn and drive branches of `step` read.  A hop that needs no
        turn may have to wait first: returns `_hold`'s answer for it, and
        None for a turn.
        """
        assert self._route is not None
        node = self.current_node
        nxt = self._route[self._hop + 1]
        heading, ux, uy = _HOPS[nxt[0] - node[0], nxt[1] - node[1]]
        grid = self._grid
        tx, ty = grid.node_to_position(nxt)
        self._hop_heading = heading
        self._hop_drive = (ux, uy, tx, ty, grid.spacing_m / 10.0)
        diff = (heading - self._heading) % 360.0
        if diff == 0.0:
            self._phase = _DRIVE
            return self._hold(now)
        self._phase = _TURN
        if diff <= 180.0:
            self._turn_sign = 1
            self._turn_remaining = diff
        else:
            self._turn_sign = -1
            self._turn_remaining = 360.0 - diff
        return None

    def _hold(self, now: int) -> float | None:
        """None if the vehicle may leave for the next node at ``now``.

        Otherwise halt it and return the tick it is next due: its scheduled
        departure, or earlier the tick until which the departure gate's
        refusal stands.
        """
        assert self._route is not None
        scheduled = self._departures[self._hop]
        if now >= scheduled:
            return None
        gate = self.departure_gate
        until = INF_TICK if gate is None else gate(self, self._route[self._hop + 1], now, scheduled)
        if until is None:
            return None
        self._halt()
        return min(scheduled, until)

    def step(self, now: int) -> float:
        """Advance tick ``now``: housekeeping, then turn / wait / drive.

        The step that reaches a leg's last node ends the leg: a reposition
        presses the load switch, a transit starts UNLOADING and a retrace
        ends in IDLE.

        Returns the next tick at which a step can change anything: ``now + 1``
        while the vehicle turns or drives and on the step that ends a leg;
        while it rests, the scheduled departure, or earlier the tick until
        which the departure gate's refusal stands; the next ACTIVATE retry
        while it awaits a route and INF_TICK while it is parked with no
        route.  A release of holds and the cargo calls (``on_destination``,
        ``unload``, ``begin_reposition``, ``press_load_switch``) can make it
        due earlier; their caller tracks that.
        """
        if self.state == LOADED:
            self._transition(AWAITING_ROUTE)
        if self.state == AWAITING_ROUTE and now - self._last_activate >= ACTIVATE_RETRY_TICKS:
            self.outbox.append(Message(MessageKind.ACTIVATE, self.vehicle_id))
            self._last_activate = now

        if self._route is None:
            if self.state == AWAITING_ROUTE:
                return self._last_activate + ACTIVATE_RETRY_TICKS
            return INF_TICK

        if self._phase == _REST:
            # At a node: face the next one, or wait there for the departure window.
            wait = self._start_hop(now)
            if wait is not None:
                return wait

        if self._phase == _TURN:
            yaw_deg = self._spin()[1]
            if yaw_deg >= self._turn_remaining:
                self._heading = self._hop_heading
                wait = self._hold(now)
                if wait is not None:
                    return wait
                self._phase = _DRIVE
            else:
                self._turn_remaining -= yaw_deg
                self._heading = (self._heading + self._turn_sign * yaw_deg) % 360.0
            return now + 1

        # Drive straight toward the next waypoint.
        step_len = self._spin()[2]
        ux, uy, tx, ty, window = self._hop_drive
        self.x += ux * step_len
        self.y += uy * step_len
        # Measured along the drive axis, so a step that overshoots the node
        # still arrives.
        if (tx - self.x) * ux + (ty - self.y) * uy <= window:
            return self._arrive(now)
        return now + 1

    def _arrive(self, now: int) -> float:
        """Snap onto the hop's target node; end the leg there or start the next hop.

        Returns the tick the vehicle is next due, as ``step`` does.
        """
        assert self._route is not None
        node = self._route[self._hop + 1]
        self.x, self.y = self._hop_drive[2:4]
        self.current_node = node
        self._hop += 1
        if self.state == RETRACING:
            self.retraced.append(node)
        else:
            self.trail.append(node)
        if self._hop == len(self._route) - 1:
            self._route = None
            self._halt()
            if self.state == IDLE:
                self.press_load_switch(now)  # a reposition reached its pickup
            elif self.state == TRANSIT:
                self._transition(UNLOADING)
            else:
                self._transition(IDLE)
            return now + 1
        wait = self._start_hop(now)
        return now + 1 if wait is None else wait
