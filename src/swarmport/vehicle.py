"""Single vehicle agent: cargo state machine, drive dynamics, waypoints.

The chassis is a differential drive that either turns in place or drives
straight between lattice nodes.  One PID loop regulates the wheel speed
magnitude against a first-order motor plant; during turns the wheels
counter-rotate at that magnitude, during straights they co-rotate, and at
rest they are braked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .errors import IllegalTransition, TimestepTooLarge
from .grid import GridMap, NodeId, Position
from .planner import INF_TICK, TimedPath
from .rfnet import Message, MessageKind

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

_HEADING_TO_DIR = {0: (1.0, 0.0), 90: (0.0, 1.0), 180: (-1.0, 0.0), 270: (0.0, -1.0)}


@dataclass(frozen=True)
class VehicleParams:
    wheelbase_m: float = 0.36
    track_m: float = 0.35
    wheel_radius_m: float = 0.05
    cruise_speed_m_s: float = 0.1
    motor_gain: float = 1.0
    motor_time_constant_s: float = 0.2
    body_radius_m: float = 0.2

    def __post_init__(self) -> None:
        for name in (
            "wheelbase_m", "track_m", "wheel_radius_m", "cruise_speed_m_s",
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

    def reset(self) -> None:
        self.integral = 0.0
        self.prev_error = 0.0


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


class Pose(NamedTuple):
    x: float
    y: float
    heading_deg: float


class WheelDynamics(NamedTuple):
    omega_left: float
    omega_right: float


class VehicleAgent:
    """Waypoint-following cargo vehicle stepped by the sim loop.

    Motion obeys the timed route windows: each hop has a scheduled
    departure tick and the agent never leaves a node early unless the
    ``departure_gate`` callback grants an earlier slot.
    """

    def __init__(
        self,
        vehicle_id: int,
        home_node: NodeId,
        home_position: Position,
        params: VehicleParams | None = None,
        pid: PidState | None = None,
    ) -> None:
        self.vehicle_id = vehicle_id
        self.params = params or VehicleParams()
        self.pid = pid or PidState()
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
        self.x, self.y = home_position
        self._heading = 0.0
        self._omega = 0.0
        self._phase = _REST
        self._turn_sign = 0
        self._turn_remaining = 0.0
        self._route: list[NodeId] | None = None
        self._departures: list[int] = []
        self._hop = 0
        self._done = True
        self.route_kind: str | None = None
        self._last_activate = -ACTIVATE_RETRY_TICKS
        self.outbox: list[Message] = []
        self.departure_gate: Callable[["VehicleAgent", NodeId, int, int], bool] | None = None

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
        self._transition(TRANSIT)
        self._begin_route("transit", timed_path)
        self.queue_ack()

    def unload(self, timed_path: TimedPath) -> None:
        """Cargo dropped; retrace the recorded trail back to the terminal."""
        if self.state != UNLOADING:
            raise IllegalTransition(f"unload while {self.state}")
        self._transition(RETRACING)
        self._begin_route("retrace", timed_path)

    def begin_reposition(self, timed_path: TimedPath) -> None:
        """Drive empty to a pickup terminal; cargo state stays IDLE."""
        if self.state != IDLE:
            raise IllegalTransition(f"reposition while {self.state}")
        self._begin_route("reposition", timed_path)

    def queue_ack(self) -> None:
        self.outbox.append(Message(MessageKind.ACK, self.vehicle_id))

    # -- route bookkeeping ------------------------------------------

    def _begin_route(self, kind: str, timed_path: TimedPath) -> None:
        route = timed_path.route
        if route[0] != self.current_node:
            raise ValueError(f"route starts at {route[0]}, vehicle at {self.current_node}")
        if kind == "retrace":
            self.retraced = [self.current_node]
        elif not self.trail:
            self.trail.append(self.current_node)
        self.route_kind = kind
        self._route = route
        self._departures = [s.exit_tick for s in timed_path.steps[:-1]]
        self._hop = 0
        self._done = len(route) == 1
        if not self._done:
            self._halt()

    @property
    def route_finished(self) -> bool:
        return self._route is not None and self._done

    @property
    def busy(self) -> bool:
        return self._route is not None and not self._done

    def clear_route(self) -> None:
        self._route = None
        self.route_kind = None
        self._done = True

    def edge_in_progress(self) -> tuple[NodeId, NodeId] | None:
        """The (from, to) edge currently being driven, if mid-hop."""
        if self._route is None or self._done or self._phase != _DRIVE:
            return None
        return self._route[self._hop], self._route[self._hop + 1]

    # -- dynamics ----------------------------------------------------

    @property
    def pose(self) -> Pose:
        return Pose(self.x, self.y, self._heading)

    @property
    def wheels(self) -> WheelDynamics:
        if self._phase == _DRIVE:
            return WheelDynamics(self._omega, self._omega)
        if self._phase == _TURN:
            return WheelDynamics(-self._turn_sign * self._omega, self._turn_sign * self._omega)
        return WheelDynamics(0.0, 0.0)

    @property
    def speed_m_s(self) -> float:
        left, right = self.wheels
        return self.params.wheel_radius_m * (left + right) / 2.0

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
        self._omega = 0.0
        self._phase = _REST
        self.pid.reset()

    def _spin(self, dt_s: float) -> None:
        u = pid_update(self.pid, self.params.cruise_omega, self._omega, dt_s)
        self._omega = motor_step(self._omega, u, self.params, dt_s)

    def _start_hop(self) -> None:
        """Face the next waypoint; returns with phase set to turn or drive."""
        diff = (self._target_heading() - self._heading) % 360.0
        if diff == 0.0:
            self._phase = _DRIVE
        else:
            self._phase = _TURN
            if diff <= 180.0:
                self._turn_sign = 1
                self._turn_remaining = diff
            else:
                self._turn_sign = -1
                self._turn_remaining = 360.0 - diff

    def _may_depart(self, now: int) -> bool:
        assert self._route is not None
        scheduled = self._departures[self._hop]
        if now >= scheduled:
            return True
        if self.departure_gate is None:
            return False
        return self.departure_gate(self, self._route[self._hop + 1], now, scheduled)

    def step(self, grid: GridMap, dt_s: float, now: int) -> float:
        """Advance tick ``now``: housekeeping, then turn / wait / drive.

        Returns the next tick at which a step can change anything: ``now + 1``
        while the vehicle turns or drives, the scheduled departure while it
        rests, the next ACTIVATE retry while it awaits a route and INF_TICK
        while it is parked with no route.  The departure gate and the cargo
        calls (``on_destination``, ``unload``, ``begin_reposition``,
        ``press_load_switch``) can make it due earlier; their caller tracks
        that.
        """
        if self.state == LOADED:
            self._transition(AWAITING_ROUTE)
        if self.state == AWAITING_ROUTE and now - self._last_activate >= ACTIVATE_RETRY_TICKS:
            self.outbox.append(Message(MessageKind.ACTIVATE, self.vehicle_id))
            self._last_activate = now

        if self._route is None or self._done:
            if self.state == TRANSIT:
                self._transition(UNLOADING)
            elif self.state == RETRACING:
                self._transition(IDLE)
            elif self.state == AWAITING_ROUTE:
                return self._last_activate + ACTIVATE_RETRY_TICKS
            return INF_TICK

        if self._phase == _REST and self._aligned_for_hop():
            # Waiting at a node for the departure window.
            if self._may_depart(now):
                self._phase = _DRIVE
            else:
                return self._departures[self._hop]

        if self._phase == _REST:
            self._start_hop()
            if self._phase == _DRIVE and not self._may_depart(now):
                self._halt()
                return self._departures[self._hop]

        if self._phase == _TURN:
            self._spin(dt_s)
            yaw_deg = math.degrees(2.0 * self.params.wheel_radius_m * self._omega / self.params.track_m) * dt_s
            if yaw_deg >= self._turn_remaining:
                self._heading = self._target_heading()
                self._turn_remaining = 0.0
                if self._may_depart(now):
                    self._phase = _DRIVE
                else:
                    self._halt()
                    return self._departures[self._hop]
            else:
                self._turn_remaining -= yaw_deg
                self._heading = (self._heading + self._turn_sign * yaw_deg) % 360.0
            return now + 1

        # Drive straight toward the next waypoint.
        self._spin(dt_s)
        direction = _HEADING_TO_DIR[int(round(self._heading)) % 360]
        step_len = self.params.wheel_radius_m * self._omega * dt_s
        self.x += direction[0] * step_len
        self.y += direction[1] * step_len
        nxt = self._route[self._hop + 1]
        tx, ty = grid.node_to_position(nxt)
        if math.hypot(tx - self.x, ty - self.y) <= grid.spacing_m / 10.0:
            self._arrive(grid, nxt, now)
            if self._phase == _REST and not self._done:
                return self._departures[self._hop]
        return now + 1

    def _aligned_for_hop(self) -> bool:
        if self._route is None or self._done:
            return False
        return self._heading == self._target_heading()

    def _target_heading(self) -> float:
        assert self._route is not None
        nxt = self._route[self._hop + 1]
        dx = nxt[0] - self.current_node[0]
        dy = nxt[1] - self.current_node[1]
        return math.degrees(math.atan2(dy, dx)) % 360.0

    def _arrive(self, grid: GridMap, node: NodeId, now: int) -> None:
        self.x, self.y = grid.node_to_position(node)
        self.current_node = node
        self._hop += 1
        if self.route_kind == "retrace":
            self.retraced.append(node)
        else:
            self.trail.append(node)
        assert self._route is not None
        if self._hop == len(self._route) - 1:
            self._done = True
            self._halt()
            if self.state == TRANSIT:
                self._transition(UNLOADING)
            elif self.state == RETRACING:
                self._transition(IDLE)
            return
        self._start_hop()
        if self._phase == _DRIVE and not self._may_depart(now):
            self._halt()
