"""Vehicle agent: PID wheel control, motor plant, state machine, waypoint driving."""

import math

import pytest

from swarmport.errors import IllegalTransition, TimestepTooLarge
from swarmport.grid import NodeId, Position, build_grid
from swarmport.planner import TimedPath, TimedStep
from swarmport.rfnet import MessageKind
from swarmport.vehicle import (
    ACTIVATE_RETRY_TICKS,
    AWAITING_ROUTE,
    IDLE,
    LOADED,
    RETRACING,
    TRANSIT,
    UNLOADING,
    PidState,
    VehicleAgent,
    VehicleParams,
    motor_step,
    pid_update,
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
    ticks = drive_until(agent, grid, lambda a: a.route_finished)
    assert agent.pose == (0.25, 0.0, 0.0)
    assert agent.current_node == NodeId(1, 0)
    assert agent.state == UNLOADING
    # one hop from rest: spin-up plus 0.25 m at 0.1 m/s
    assert 2.0 <= ticks * DT <= 3.0


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
        if agent.route_finished:
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
    drive_until(agent, grid, lambda a: a.route_finished, start=ticks_turning + 1)
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
        if agent.route_finished:
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
        if agent.route_finished:
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
        return True

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
    tick = drive_until(agent, grid, lambda a: a.route_finished)
    agent.clear_route()
    agent.press_load_switch(tick)
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
        if agent.route_finished:
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
        return False

    agent.departure_gate = gate
    loaded_and_awaiting(agent, grid)
    agent.on_destination(make_path([NodeId(0, 0), NodeId(1, 0)], depart_at=100))
    assert agent.step(grid, DT, 2) == 100
    assert agent.step(grid, DT, 57) == 100  # a refused gate does not move the scheduled tick
    assert refusals == [2, 57]
    assert agent.step(grid, DT, 100) == 101
    assert agent.pose.x > 0.0


def test_step_that_comes_to_rest_returns_scheduled_departure():
    """The step that ends a turn, or a hop, short of the next departure
    already returns that departure."""
    grid = build_grid(2.0, 2.0, 0.25)
    agent = make_agent()
    agent.departure_gate = lambda a, nxt, now, scheduled: False
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
