"""Vehicle agent: PID wheel control, motor plant, state machine, waypoint driving,
and the spin-up tables against an agent that runs the loop on every tick."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

import swarmport.vehicle
from swarmport.errors import IllegalTransition, TimestepTooLarge
from swarmport.grid import NodeId, Position, build_grid
from swarmport.planner import INF_TICK, TimedPath, TimedStep
from swarmport.rfnet import MessageKind
from swarmport.vehicle import (
    ACTIVATE_RETRY_TICKS,
    AWAITING_ROUTE,
    IDLE,
    LOADED,
    RETRACING,
    TRANSIT,
    UNLOADING,
    SPIN_TABLE_CAP,
    PidState,
    VehicleAgent,
    VehicleParams,
    motor_step,
    pid_update,
    spin_table,
)

DT = 0.01


def make_path(nodes, depart_at=0, hop=1):
    """Uniform timed route; every hop may start at depart_at + i*hop."""
    steps = [TimedStep(nodes[0], depart_at, depart_at)]
    for i, node in enumerate(nodes[1:], start=1):
        steps.append(TimedStep(node, depart_at + (i - 1) * hop, depart_at + i * hop))
    return TimedPath(steps, hop)


def make_agent(home=NodeId(0, 0), pos=Position(0.0, 0.0)):
    return VehicleAgent(0, home, pos)


def loaded_and_awaiting(agent, grid):
    """Press the load switch at tick 0 and step tick 1: LOADED -> AWAITING_ROUTE."""
    agent.press_load_switch(0)
    agent.step(grid, DT, 1)


def drive_until(agent, grid, predicate, start=2, limit=5000):
    """Step from tick ``start`` on; return the tick after which ``predicate`` holds."""
    for now in range(start, start + limit):
        agent.step(grid, DT, now)
        if predicate(agent):
            return now
    raise AssertionError("condition never reached")


# ----------------------------------------------------------------- params


def test_default_params():
    p = VehicleParams()
    assert p.cruise_omega == pytest.approx(2.0)
    assert p.track_m == 0.35
    assert p.wheel_radius_m == 0.05


@pytest.mark.parametrize("field", ["track_m", "wheel_radius_m", "cruise_speed_m_s", "motor_time_constant_s"])
def test_params_must_be_positive(field):
    with pytest.raises(ValueError):
        VehicleParams(**{field: 0.0})


# -------------------------------------------------------------- controller


def test_pid_first_update_value():
    pid = PidState()
    # error 2.0: P = 4.0, I = 5 * 2.0 * 0.01 = 0.1
    assert pid_update(pid, 2.0, 0.0, DT) == pytest.approx(4.1)
    assert pid.integral == pytest.approx(0.02)


def test_pid_output_clamped():
    pid = PidState()
    assert pid_update(pid, 100.0, 0.0, DT) == 5.0
    assert pid_update(pid, -100.0, 0.0, DT) == -5.0


def test_pid_integral_anti_windup():
    pid = PidState()
    for _ in range(10_000):
        pid_update(pid, 10.0, 0.0, DT)
    assert pid.integral == pytest.approx(pid.output_limit / pid.ki)


def test_pid_derivative_term():
    pid = PidState(kp=0.0, ki=0.0, kd=1.0)
    pid_update(pid, 1.0, 0.0, DT)
    # error unchanged on second call -> derivative contribution zero
    assert pid_update(pid, 1.0, 0.0, DT) == pytest.approx(0.0)


def test_motor_step_euler_update():
    p = VehicleParams()
    assert motor_step(0.0, 1.0, p, DT) == pytest.approx(0.05)
    assert motor_step(2.0, 2.0, p, DT) == pytest.approx(2.0)  # equilibrium


def test_motor_step_timestep_guard():
    p = VehicleParams()
    with pytest.raises(TimestepTooLarge):
        motor_step(0.0, 1.0, p, 0.11)
    with pytest.raises(TimestepTooLarge):
        motor_step(0.0, 1.0, p, 0.0)
    assert motor_step(0.0, 1.0, p, 0.1) == 0.5  # exactly tau/2 is allowed


def test_closed_loop_settles_within_two_seconds():
    pid = PidState()
    p = VehicleParams()
    omega = 0.0
    history = []
    for _ in range(300):  # 3 s
        u = pid_update(pid, p.cruise_omega, omega, DT)
        omega = motor_step(omega, u, p, DT)
        history.append(omega)
    assert max(history) <= 2.0 * 1.10
    tail_start = int(2.0 / DT)
    assert all(abs(w - 2.0) <= 0.04 for w in history[tail_start:])
    # settle instant = one past the last sample outside the 2% band
    outside = [i for i, w in enumerate(history) if abs(w - 2.0) > 0.04]
    assert (outside[-1] + 1) * DT <= 2.0


# ------------------------------------------------------------ state machine


def test_load_switch_announces_activation():
    agent = make_agent()
    agent.press_load_switch(0)
    assert agent.state == LOADED
    assert [m.kind for m in agent.outbox] == [MessageKind.ACTIVATE]


def test_load_switch_twice_is_illegal():
    agent = make_agent()
    agent.press_load_switch(0)
    with pytest.raises(IllegalTransition):
        agent.press_load_switch(1)


def test_destination_while_idle_is_illegal():
    agent = make_agent()
    with pytest.raises(IllegalTransition):
        agent.on_destination(make_path([NodeId(0, 0), NodeId(1, 0)]))


def test_unload_outside_unloading_is_illegal():
    agent = make_agent()
    with pytest.raises(IllegalTransition):
        agent.unload(make_path([NodeId(0, 0)]))


def test_reposition_requires_idle():
    agent = make_agent()
    agent.press_load_switch(0)
    with pytest.raises(IllegalTransition):
        agent.begin_reposition(make_path([NodeId(0, 0), NodeId(1, 0)]))


def test_route_must_start_at_current_node():
    agent = make_agent()
    loaded_and_awaiting(agent, build_grid(2.0, 2.0, 0.25))
    with pytest.raises(ValueError):
        agent.on_destination(make_path([NodeId(1, 0), NodeId(2, 0)]))


def test_route_must_have_a_hop():
    agent = make_agent()
    with pytest.raises(ValueError):
        agent.begin_reposition(make_path([NodeId(0, 0)]))


@pytest.mark.parametrize("route", [
    [NodeId(1, 0), NodeId(2, 0)],
    [NodeId(0, 0)],
    [NodeId(0, 0), NodeId(1, 1)],
    [NodeId(0, 0), NodeId(2, 0)],
    [NodeId(0, 0), NodeId(1, 0), NodeId(1, 0)],
])
def test_refused_destination_leaves_the_vehicle_awaiting_its_route(route):
    grid = build_grid(2.0, 2.0, 0.25)
    agent = make_agent()
    loaded_and_awaiting(agent, grid)
    outbox = list(agent.outbox)
    with pytest.raises(ValueError):
        agent.on_destination(make_path(route))
    assert agent.state == AWAITING_ROUTE
    assert not agent.busy and agent.trail == [] and agent.outbox == outbox
    agent.on_destination(make_path([NodeId(0, 0), NodeId(1, 0)]))
    drive_until(agent, grid, lambda a: a.state == UNLOADING)
    assert agent.trail == [NodeId(0, 0), NodeId(1, 0)]


@pytest.mark.parametrize("route", [
    [NodeId(0, 0), NodeId(1, 0)],
    [NodeId(1, 0)],
    [NodeId(1, 0), NodeId(0, 1)],
])
def test_refused_retrace_leaves_the_vehicle_unloading(route):
    grid = build_grid(2.0, 2.0, 0.25)
    agent = make_agent()
    loaded_and_awaiting(agent, grid)
    agent.on_destination(make_path([NodeId(0, 0), NodeId(1, 0)]))
    unloading = drive_until(agent, grid, lambda a: a.state == UNLOADING)
    with pytest.raises(ValueError):
        agent.unload(make_path(route, depart_at=unloading + 1))
    assert agent.state == UNLOADING
    assert not agent.busy and agent.retraced == []
    agent.unload(make_path([NodeId(1, 0), NodeId(0, 0)], depart_at=unloading + 1))
    drive_until(agent, grid, lambda a: a.state == IDLE, start=unloading + 1)
    assert agent.retraced == [NodeId(1, 0), NodeId(0, 0)]


@pytest.mark.parametrize("route, hop", [
    ([NodeId(0, 0), NodeId(1, 1)], r"\(0, 0\) -> \(1, 1\)"),
    ([NodeId(0, 0), NodeId(2, 0)], r"\(0, 0\) -> \(2, 0\)"),
    ([NodeId(0, 0), NodeId(1, 0), NodeId(3, 0), NodeId(4, 0)], r"\(1, 0\) -> \(3, 0\)"),
])
def test_route_with_a_hop_that_is_not_one_node_is_refused_by_name(route, hop):
    """A diagonal hop would turn to 45 degrees, a two-node hop would drive
    through an unreserved node: both are refused before the vehicle moves."""
    agent = make_agent()
    with pytest.raises(ValueError, match=hop):
        agent.begin_reposition(make_path(route))
    assert agent.state == IDLE and not agent.busy and agent.trail == []


def test_reposition_presses_the_load_switch_on_its_arriving_step():
    grid = build_grid(2.0, 2.0, 0.25)
    agent = make_agent()
    agent.begin_reposition(make_path([NodeId(0, 0), NodeId(1, 0)]))
    for now in range(2, 502):
        wake = agent.step(grid, DT, now)
        if not agent.busy:
            break
    assert agent.current_node == NodeId(1, 0)
    assert agent.state == LOADED
    assert agent.outbox[-1].kind == MessageKind.ACTIVATE
    assert wake == now + 1
    assert agent.step(grid, DT, now + 1) == now + ACTIVATE_RETRY_TICKS
    assert agent.state == AWAITING_ROUTE


def test_activate_retries_while_awaiting_route():
    grid = build_grid(2.0, 2.0, 0.25)
    agent = make_agent()
    agent.press_load_switch(0)
    for now in range(1, 46):
        agent.step(grid, DT, now)
    kinds = [m.kind for m in agent.outbox]
    assert kinds.count(MessageKind.ACTIVATE) == 3  # press + ticks 20 and 40
    assert agent.state == AWAITING_ROUTE


# ----------------------------------------------------------------- driving


def test_straight_hop_lands_exactly_on_node():
    grid = build_grid(2.0, 2.0, 0.25)
    agent = make_agent()
    loaded_and_awaiting(agent, grid)
    agent.on_destination(make_path([NodeId(0, 0), NodeId(1, 0)]))
    ticks = drive_until(agent, grid, lambda a: not a.busy)
    assert agent.pose == (0.25, 0.0, 0.0)
    assert agent.current_node == NodeId(1, 0)
    assert agent.state == UNLOADING
    # one hop from rest: spin-up plus 0.25 m at 0.1 m/s
    assert 2.0 <= ticks * DT <= 3.0


def test_fast_hop_that_steps_over_the_arrival_window_lands_on_node():
    """A step longer than the +-spacing/10 arrival window still arrives:
    the distance left is measured along the drive axis."""
    grid = build_grid(2.0, 2.0, 0.25)
    agent = VehicleAgent(
        0, NodeId(0, 0), Position(0.0, 0.0), VehicleParams(wheel_radius_m=0.3, cruise_speed_m_s=1.5)
    )
    loaded_and_awaiting(agent, grid)
    agent.on_destination(make_path([NodeId(i, 0) for i in range(5)]))
    longest = 0.0
    for now in range(2, 202):
        agent.step(grid, 0.05, now)
        longest = max(longest, agent.speed_m_s * 0.05)
        if not agent.busy:
            break
    assert longest > grid.spacing_m / 5
    assert agent.pose == (1.0, 0.0, 0.0)
    assert agent.state == UNLOADING


def test_cruise_speed_during_drive():
    grid = build_grid(2.0, 2.0, 0.25)
    agent = make_agent()
    loaded_and_awaiting(agent, grid)
    agent.on_destination(make_path([NodeId(i, 0) for i in range(5)]))
    speeds = []
    for now in range(2, 2502):
        agent.step(grid, DT, now)
        if now >= 200:  # past spin-up
            speeds.append(agent.speed_m_s)
        if not agent.busy:
            break
    cruising = [s for s in speeds if s > 0.0]
    assert cruising
    assert max(abs(s - 0.1) for s in cruising) <= 0.002


def test_turn_in_place_snaps_heading():
    grid = build_grid(2.0, 2.0, 0.25)
    agent = make_agent()
    loaded_and_awaiting(agent, grid)
    agent.on_destination(make_path([NodeId(0, 0), NodeId(0, 1)]))
    ticks_turning = drive_until(agent, grid, lambda a: a.pose.heading_deg == 90.0)
    # quarter turn: accelerate, then yaw rate = 2*r*omega/track
    assert 2.0 <= ticks_turning * DT <= 3.5
    assert agent.pose.x == 0.0 and agent.pose.y == 0.0  # turned in place
    drive_until(agent, grid, lambda a: not a.busy, start=ticks_turning + 1)
    assert agent.pose == (0.0, 0.25, 90.0)


def test_turn_prefers_counter_clockwise_on_180():
    grid = build_grid(2.0, 2.0, 0.25, blocked=[])
    agent = VehicleAgent(0, NodeId(1, 0), Position(0.25, 0.0))
    loaded_and_awaiting(agent, grid)
    agent.on_destination(make_path([NodeId(1, 0), NodeId(0, 0)]))
    seen = set()
    for now in range(2, 5002):
        agent.step(grid, DT, now)
        seen.add(round(agent.pose.heading_deg // 90))
        if not agent.busy:
            break
    assert agent.pose.heading_deg == 180.0
    assert 1 in seen  # passed through the 90-180 quadrant, not 270


def test_turn_clockwise_when_shorter():
    grid = build_grid(2.0, 2.0, 0.25)
    agent = VehicleAgent(0, NodeId(0, 1), Position(0.0, 0.25))
    loaded_and_awaiting(agent, grid)
    agent.on_destination(make_path([NodeId(0, 1), NodeId(0, 0)]))
    headings = []
    for now in range(2, 5002):
        agent.step(grid, DT, now)
        headings.append(agent.pose.heading_deg)
        if not agent.busy:
            break
    assert headings[-1] == 270.0
    assert all(h == 0.0 or h >= 270.0 for h in headings)  # went 0 -> 350 -> 270


def test_scheduled_departure_holds_vehicle():
    grid = build_grid(2.0, 2.0, 0.25)
    agent = make_agent()
    loaded_and_awaiting(agent, grid)
    agent.on_destination(make_path([NodeId(0, 0), NodeId(1, 0)], depart_at=100))
    for now in range(2, 100):
        agent.step(grid, DT, now)
        assert agent.pose.x == 0.0
        assert agent.speed_m_s == 0.0
    assert drive_until(agent, grid, lambda a: a.pose.x > 0.0, start=100, limit=50) == 100


def test_departure_gate_grants_early_start():
    grid = build_grid(2.0, 2.0, 0.25)
    agent = make_agent()
    calls = []

    def gate(a, nxt, now, scheduled):
        calls.append((nxt, now, scheduled))
        return None

    agent.departure_gate = gate
    loaded_and_awaiting(agent, grid)
    agent.on_destination(make_path([NodeId(0, 0), NodeId(1, 0)], depart_at=10_000))
    assert drive_until(agent, grid, lambda a: a.pose.x > 0.0, limit=50) == 2
    assert calls[0] == (NodeId(1, 0), 2, 10_000)


def test_transit_unload_retrace_cycle():
    grid = build_grid(2.0, 2.0, 0.25)
    agent = make_agent()

    loaded_and_awaiting(agent, grid)
    assert agent.state == AWAITING_ROUTE

    agent.on_destination(make_path([NodeId(0, 0), NodeId(1, 0), NodeId(2, 0)]))
    assert agent.state == TRANSIT
    assert [m.kind for m in agent.outbox][-1] == MessageKind.ACK

    unloading = drive_until(agent, grid, lambda a: a.state == UNLOADING)
    assert agent.current_node == NodeId(2, 0)

    back = agent.trail[::-1]
    assert back == [NodeId(2, 0), NodeId(1, 0), NodeId(0, 0)]
    agent.unload(make_path(back))
    assert agent.state == RETRACING
    drive_until(agent, grid, lambda a: a.state == IDLE, start=unloading + 1)
    assert agent.current_node == NodeId(0, 0)
    assert agent.pose == (0.0, 0.0, 180.0)


# ------------------------------------------------------------------- trail


def test_trail_records_pickup_once_across_reposition_and_transit():
    grid = build_grid(2.0, 2.0, 0.25)
    agent = make_agent()
    agent.begin_reposition(make_path([NodeId(0, 0), NodeId(1, 0)]))
    tick = drive_until(agent, grid, lambda a: not a.busy)
    agent.step(grid, DT, tick + 1)
    agent.on_destination(make_path([NodeId(1, 0), NodeId(1, 1), NodeId(2, 1)], depart_at=tick + 2))
    drive_until(agent, grid, lambda a: a.state == UNLOADING, start=tick + 2)
    assert agent.trail == [NodeId(0, 0), NodeId(1, 0), NodeId(1, 1), NodeId(2, 1)]


def test_trail_from_a_pickup_at_home_starts_with_home_once():
    grid = build_grid(2.0, 2.0, 0.25)
    agent = make_agent()
    loaded_and_awaiting(agent, grid)
    agent.on_destination(make_path([NodeId(0, 0), NodeId(0, 1), NodeId(0, 2)]))
    drive_until(agent, grid, lambda a: a.state == UNLOADING)
    assert agent.trail == [NodeId(0, 0), NodeId(0, 1), NodeId(0, 2)]


def test_retrace_records_retraced_and_leaves_trail():
    grid = build_grid(2.0, 2.0, 0.25)
    agent = make_agent()
    loaded_and_awaiting(agent, grid)
    agent.on_destination(make_path([NodeId(0, 0), NodeId(1, 0), NodeId(1, 1)]))
    unloading = drive_until(agent, grid, lambda a: a.state == UNLOADING)
    outbound = list(agent.trail)
    agent.unload(make_path(outbound[::-1], depart_at=unloading + 1))
    assert agent.retraced == [NodeId(1, 1)]
    drive_until(agent, grid, lambda a: a.state == IDLE, start=unloading + 1)
    assert agent.retraced == [NodeId(1, 1), NodeId(1, 0), NodeId(0, 0)]
    assert agent.trail == outbound


def test_edge_in_progress_only_while_driving():
    grid = build_grid(2.0, 2.0, 0.25)
    agent = make_agent()
    assert agent.edge_in_progress() is None
    loaded_and_awaiting(agent, grid)
    agent.on_destination(make_path([NodeId(0, 0), NodeId(1, 0)]))
    agent.step(grid, DT, 2)
    assert agent.edge_in_progress() == (NodeId(0, 0), NodeId(1, 0))


# -------------------------------------------------------------- wake ticks


def test_step_returns_next_tick_while_moving():
    grid = build_grid(2.0, 2.0, 0.25)
    agent = make_agent()
    loaded_and_awaiting(agent, grid)
    agent.on_destination(make_path([NodeId(0, 0), NodeId(0, 1), NodeId(1, 1)]))
    phases = set()
    for now in range(2, 5002):
        wake = agent.step(grid, DT, now)
        assert wake == now + 1
        if not agent.busy:
            break
        phases.add(agent._phase)
    assert phases == {"turn", "drive"}  # two turns and two hops, none of them waiting
    assert agent.state == UNLOADING


def test_step_returns_scheduled_departure_while_resting():
    grid = build_grid(2.0, 2.0, 0.25)
    agent = make_agent()
    refusals = []

    def gate(a, nxt, now, scheduled):
        refusals.append(now)
        return math.inf

    agent.departure_gate = gate
    loaded_and_awaiting(agent, grid)
    agent.on_destination(make_path([NodeId(0, 0), NodeId(1, 0)], depart_at=100))
    assert agent.step(grid, DT, 2) == 100
    assert agent.step(grid, DT, 57) == 100  # a refused gate does not move the scheduled tick
    assert refusals == [2, 57]
    assert agent.step(grid, DT, 100) == 101
    assert agent.pose.x > 0.0


@pytest.mark.parametrize("until, wake", [(57, 57), (150, 100)])
def test_refused_gate_wakes_at_its_until_or_the_departure(until, wake):
    grid = build_grid(2.0, 2.0, 0.25)
    agent = make_agent()
    agent.departure_gate = lambda a, nxt, now, scheduled: until
    loaded_and_awaiting(agent, grid)
    agent.on_destination(make_path([NodeId(0, 0), NodeId(1, 0)], depart_at=100))
    assert agent.step(grid, DT, 2) == wake
    assert agent.pose.x == 0.0
    assert agent.speed_m_s == 0.0


def test_step_that_comes_to_rest_returns_scheduled_departure():
    """The step that ends a turn, or a hop, short of the next departure
    already returns that departure."""
    grid = build_grid(2.0, 2.0, 0.25)
    agent = make_agent()
    agent.departure_gate = lambda a, nxt, now, scheduled: math.inf
    loaded_and_awaiting(agent, grid)
    north = [NodeId(0, 0), NodeId(0, 1), NodeId(0, 2)]
    agent.on_destination(TimedPath([TimedStep(north[0], 0, 500), TimedStep(north[1], 490, 900),
                                               TimedStep(north[2], 890, 900)], 10))

    def until_quiet(now):
        """Step from ``now`` until a step returns more than the next tick."""
        while True:
            before = (agent.pose.heading_deg, agent.current_node)
            wake = agent.step(grid, DT, now)
            if wake != now + 1:
                return now, wake, before
            now += 1

    now, wake, before = until_quiet(2)
    assert wake == 500
    assert before[0] < agent.pose.heading_deg == 90.0  # this step ended the turn
    now, wake, before = until_quiet(500)
    assert wake == 900 and now < 900
    assert (before[1], agent.current_node) == (north[0], north[1])  # this step arrived


def test_step_returns_next_activate_retry_while_awaiting_route():
    grid = build_grid(2.0, 2.0, 0.25)
    agent = make_agent()
    agent.press_load_switch(3)
    assert agent.step(grid, DT, 4) == 3 + ACTIVATE_RETRY_TICKS
    assert agent.state == AWAITING_ROUTE
    assert agent.step(grid, DT, 23) == 23 + ACTIVATE_RETRY_TICKS
    assert [m.kind for m in agent.outbox] == [MessageKind.ACTIVATE] * 2


def test_step_returns_inf_while_parked_without_route():
    grid = build_grid(2.0, 2.0, 0.25)
    agent = make_agent()
    assert agent.step(grid, DT, 0) == math.inf
    assert agent.step(grid, DT, 1) == math.inf
    assert agent.state == IDLE
    assert agent.outbox == []


def test_telemetry_snapshot():
    agent = VehicleAgent(3, NodeId(1, 2), Position(0.25, 0.5))
    msg = agent.telemetry()
    assert msg.kind == MessageKind.TELEMETRY
    assert msg.vehicle_id == 3
    assert (msg.x_mm, msg.y_mm) == (250, 500)
    assert msg.speed_mm_s == 0
    assert msg.heading_cdeg == 0


# ------------------------------------------------------ reference motion


class ReferenceAgent:
    """The motion of a vehicle that runs `pid_update` and `motor_step` on
    every tick of a turn or drive and looks its direction and target up on
    every drive tick: the oracle for the agent's spin-up tables."""

    DIRECTIONS = {0: (1.0, 0.0), 90: (0.0, 1.0), 180: (-1.0, 0.0), 270: (0.0, -1.0)}

    def __init__(self, node, position, params, gate=None):
        self.node = node
        self.x, self.y = position
        self.params = params
        self.gate = gate
        self.heading = 0.0
        self.omega = 0.0
        self.phase = "rest"
        self.turn_sign = 0
        self.turn_remaining = 0.0
        self.route = None

    def begin(self, timed_path):
        self.route = timed_path.route
        self.departures = [s.exit_tick for s in timed_path.steps[:-1]]
        self.hop = 0
        self.halt()

    @property
    def wheels(self):
        if self.phase == "drive":
            return (self.omega, self.omega)
        if self.phase == "turn":
            return (-self.turn_sign * self.omega, self.turn_sign * self.omega)
        return (0.0, 0.0)

    @property
    def speed_m_s(self):
        left, right = self.wheels
        return self.params.wheel_radius_m * (left + right) / 2.0

    def halt(self):
        self.omega = 0.0
        self.phase = "rest"
        self.pid = PidState()

    def spin(self, dt_s):
        u = pid_update(self.pid, self.params.cruise_omega, self.omega, dt_s)
        self.omega = motor_step(self.omega, u, self.params, dt_s)

    def target_heading(self):
        nxt = self.route[self.hop + 1]
        return math.degrees(math.atan2(nxt[1] - self.node[1], nxt[0] - self.node[0])) % 360.0

    def start_hop(self):
        diff = (self.target_heading() - self.heading) % 360.0
        if diff == 0.0:
            self.phase = "drive"
        elif diff <= 180.0:
            self.phase, self.turn_sign, self.turn_remaining = "turn", 1, diff
        else:
            self.phase, self.turn_sign, self.turn_remaining = "turn", -1, 360.0 - diff

    def hold(self, now):
        scheduled = self.departures[self.hop]
        if now >= scheduled:
            return None
        until = INF_TICK if self.gate is None else self.gate(self, self.route[self.hop + 1], now, scheduled)
        if until is None:
            return None
        self.halt()
        return min(scheduled, until)

    def step(self, grid, dt_s, now):
        if self.route is None:
            return INF_TICK
        if self.phase == "rest":
            self.start_hop()
            if self.phase == "drive":
                wait = self.hold(now)
                if wait is not None:
                    return wait
        r = self.params.wheel_radius_m
        if self.phase == "turn":
            self.spin(dt_s)
            yaw_deg = math.degrees(2.0 * r * self.omega / self.params.track_m) * dt_s
            if yaw_deg >= self.turn_remaining:
                self.heading = self.target_heading()
                self.turn_remaining = 0.0
                wait = self.hold(now)
                if wait is not None:
                    return wait
                self.phase = "drive"
            else:
                self.turn_remaining -= yaw_deg
                self.heading = (self.heading + self.turn_sign * yaw_deg) % 360.0
            return now + 1
        self.spin(dt_s)
        ux, uy = self.DIRECTIONS[int(round(self.heading)) % 360]
        step_len = r * self.omega * dt_s
        self.x += ux * step_len
        self.y += uy * step_len
        nxt = self.route[self.hop + 1]
        tx, ty = grid.node_to_position(nxt)
        if (tx - self.x) * ux + (ty - self.y) * uy > grid.spacing_m / 10.0:
            return now + 1
        self.x, self.y = grid.node_to_position(nxt)
        self.node = nxt
        self.hop += 1
        if self.hop == len(self.route) - 1:
            self.route = None
            self.halt()
            return now + 1
        self.start_hop()
        if self.phase == "drive":
            wait = self.hold(now)
            if wait is not None:
                return wait
        return now + 1


def pair(home, params, gate=None):
    """An agent and its reference at ``home`` on the 2 x 2 m grid."""
    grid = build_grid(2.0, 2.0, 0.25)
    position = grid.node_to_position(home)
    agent = VehicleAgent(0, home, position, params)
    agent.departure_gate = gate
    return grid, agent, ReferenceAgent(home, position, params, gate)


def spin_up_reverses(params, dt_s, ticks):
    """Whether the wheel speed of a spin-up from rest, run by `pid_update`
    and `motor_step` for up to ``ticks`` ticks or to a fixed point, ever
    falls below 0."""
    pid, omega = PidState(), 0.0
    for _ in range(ticks):
        before = (omega, pid.integral)
        omega = motor_step(omega, pid_update(pid, params.cruise_omega, omega, dt_s), params, dt_s)
        if omega < 0:
            return True
        if (omega, pid.integral) == before:
            return False
    return False


def drive_both(grid, agent, ref, dt_of, now, limit):
    """Step both at the agent's wake ticks until the leg ends or ``limit``
    steps; every step must leave both in the same motion state."""
    for _ in range(limit):
        dt_s = dt_of(now)
        wake = agent.step(grid, dt_s, now)
        assert wake == ref.step(grid, dt_s, now)
        assert (agent.x, agent.y, agent.pose.heading_deg) == (ref.x, ref.y, ref.heading)
        assert tuple(agent.wheels) == ref.wheels
        assert agent.speed_m_s == ref.speed_m_s
        if not agent.busy:
            assert ref.route is None
            return wake
        now = wake
    return now


@st.composite
def routes(draw, max_hops=8):
    """Unit-hop walks on the 9 x 9 node grid; a step back makes a 180 degree
    turn, and a step off the grid is taken the other way."""
    node = NodeId(draw(st.integers(0, 8)), draw(st.integers(0, 8)))
    route = [node]
    for dx, dy in draw(st.lists(st.sampled_from([(1, 0), (0, 1), (-1, 0), (0, -1)]), min_size=1, max_size=max_hops)):
        if not (0 <= node.ix + dx <= 8 and 0 <= node.iy + dy <= 8):
            dx, dy = -dx, -dy
        node = NodeId(node.ix + dx, node.iy + dy)
        route.append(node)
    return route


GATES = {
    "refuse": None,
    "grant": lambda a, nxt, now, scheduled: None,
    "flaky": lambda a, nxt, now, scheduled: None if now % 7 == 0 else now + 3,
}


@settings(max_examples=80, deadline=None)
@given(
    route=routes(),
    departures=st.lists(st.integers(0, 600), min_size=8, max_size=8),
    params=st.builds(
        VehicleParams,
        track_m=st.floats(0.2, 0.5),
        wheel_radius_m=st.floats(0.02, 0.1),
        cruise_speed_m_s=st.floats(0.05, 0.3),
        motor_gain=st.floats(0.5, 2.0),
        motor_time_constant_s=st.one_of(st.just(0.1), st.floats(0.1, 0.5)),
    ),
    dt_s=st.one_of(st.sampled_from([0.01, 0.05]), st.floats(0.005, 0.05)),
    gate=st.sampled_from(sorted(GATES)),
)
@example(
    route=[NodeId(0, 0), NodeId(1, 0)], departures=[0] * 8,
    params=VehicleParams(motor_gain=2.0, motor_time_constant_s=0.1), dt_s=0.05, gate="grant",
)
def test_agent_moves_exactly_like_the_reference(route, departures, params, dt_s, gate):
    """Where the spin-up of ``params`` at ``dt_s`` reverses the wheels (at
    dt = tau / 2 with a motor gain of 1.5 or more, say), the agent raises on
    its first spin, before it moves."""
    grid, agent, ref = pair(route[0], params, GATES[gate])
    departures = sorted(departures)[: len(route) - 1]
    steps = [TimedStep(node, 0, t) for node, t in zip(route, departures)] + [TimedStep(route[-1], 0, 0)]
    path = TimedPath(steps, 1)
    agent.begin_reposition(path)
    ref.begin(path)
    if not spin_up_reverses(params, dt_s, SPIN_TABLE_CAP):
        drive_both(grid, agent, ref, lambda now: dt_s, 0, 3000)
        return
    with pytest.raises(TimestepTooLarge, match=f"dt {dt_s} reverses the wheels"):
        drive_both(grid, agent, ref, lambda now: dt_s, 0, 3000)
    start = (*grid.node_to_position(route[0]), 0.0)
    assert (agent.x, agent.y, agent.pose.heading_deg) == (ref.x, ref.y, ref.heading) == start


def test_spin_table_settles_for_stock_gains():
    """The stock loop reaches its fixed point in a few hundred ticks at
    dt 0.05 and in under two thousand at dt 0.01."""
    stock = spin_table(VehicleParams(), 0.05)
    assert stock.settled and len(stock.rows) < 400
    assert spin_table(VehicleParams(), 0.01).settled


def test_spin_table_refuses_a_spin_up_that_reverses_the_wheels():
    """At dt = tau / 2 a motor gain of 3 overshoots until the wheels turn
    backwards (at the 16th tick); the table is not built."""
    params = VehicleParams(motor_gain=3.0, motor_time_constant_s=0.1, cruise_speed_m_s=0.3)
    assert spin_up_reverses(params, 0.05, 16) and not spin_up_reverses(params, 0.05, 15)
    with pytest.raises(TimestepTooLarge, match="dt 0.05 reverses the wheels"):
        spin_table(params, 0.05)


def test_spin_up_without_a_fixed_point_continues_like_the_reference():
    """At dt 0.001 the stock spin-up needs about 16,000 rows to settle, so
    its table caps at SPIN_TABLE_CAP: past it the agent runs on the live
    loop from the exact state reached."""
    table = spin_table(VehicleParams(), 0.001)
    assert not table.settled and len(table.rows) == SPIN_TABLE_CAP
    home = NodeId(0, 0)
    grid, agent, ref = pair(home, VehicleParams())
    route = [home, NodeId(1, 0), home, NodeId(1, 0)]  # a 180 degree turn at each inner node
    path = make_path(route)
    agent.begin_reposition(path)
    ref.begin(path)
    end = drive_both(grid, agent, ref, lambda now: 0.001, 0, 3 * SPIN_TABLE_CAP)
    assert not agent.busy and agent.current_node == route[-1]
    assert end > SPIN_TABLE_CAP and agent._table is None  # one spin a tick, never halted


def test_a_live_loop_that_reverses_the_wheels_raises_before_it_moves(monkeypatch):
    """A table that caps before its first reversing row hands over to the
    live loop, which raises naming the timestep at the tick the reference
    reverses, with the agent still where the reference was."""
    params = VehicleParams(motor_gain=3.0, motor_time_constant_s=0.1, cruise_speed_m_s=0.3)
    monkeypatch.setattr(swarmport.vehicle, "SPIN_TABLE_CAP", 8)
    spin_table.cache_clear()
    try:
        home = NodeId(0, 0)
        grid, agent, ref = pair(home, params)
        path = make_path([home, NodeId(1, 0), NodeId(2, 0), NodeId(3, 0)])
        agent.begin_reposition(path)
        ref.begin(path)
        now = 0
        for now in range(9):
            assert agent.step(grid, 0.05, now) == ref.step(grid, 0.05, now)
            assert (agent.x, agent.y) == (ref.x, ref.y)
        assert agent._table is None  # the capped table handed over at the ninth spin
        with pytest.raises(TimestepTooLarge, match="dt 0.05 reverses the wheels"):
            for now in range(9, 100):
                where = (ref.x, ref.y, ref.heading)
                agent.step(grid, 0.05, now)
                ref.step(grid, 0.05, now)
                assert (agent.x, agent.y, agent.pose.heading_deg) == (ref.x, ref.y, ref.heading)
        ref.step(grid, 0.05, now)
        assert ref.omega < 0 and (agent.x, agent.y, agent.pose.heading_deg) == where
    finally:
        spin_table.cache_clear()


def test_timestep_above_the_stability_guard_raises_on_the_first_spin():
    grid = build_grid(2.0, 2.0, 0.25)
    agent = make_agent()
    agent.begin_reposition(make_path([NodeId(0, 0), NodeId(1, 0)], depart_at=5))
    assert agent.step(grid, 0.11, 0) == 5  # at rest: nothing spins yet
    with pytest.raises(TimestepTooLarge):
        agent.step(grid, 0.11, 5)


def test_one_agent_at_two_timesteps_reads_the_table_of_each():
    """One leg at dt 0.05, the next at 0.01, and a third that changes dt
    mid spin-up, where the agent goes on from the state it reached."""
    home = NodeId(0, 0)
    grid, agent, ref = pair(home, VehicleParams())
    legs = [
        ([home, NodeId(1, 0), NodeId(1, 1)], lambda now: 0.05),
        ([NodeId(1, 1), NodeId(0, 1), NodeId(0, 0)], lambda now: 0.01),
        ([home, NodeId(0, 1), NodeId(0, 2)], lambda now: 0.05 if now % 50 < 25 else 0.01),
    ]
    now = 0
    for begin, (route, dt_of) in zip((agent.begin_reposition, agent.on_destination, agent.unload), legs):
        path = make_path(route, depart_at=now)
        begin(path)
        ref.begin(path)
        now = drive_both(grid, agent, ref, dt_of, now, 5000)
        assert ref.node == agent.current_node == route[-1]
    assert agent.state == IDLE and agent._table is None  # the last leg ran live
