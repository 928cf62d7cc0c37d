"""Vehicle agent: PID wheel control, motor plant, state machine, waypoint driving,
and the spin-up tables against an agent that runs the loop on every tick."""

import math
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings, strategies as st

import swarmport.vehicle
from swarmport.errors import IllegalTransition, TimestepTooLarge
from swarmport.grid import NodeId, build_grid
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
    Drive,
    PidState,
    Rest,
    Turn,
    VehicleAgent,
    VehicleParams,
    motor_step,
    pid_update,
    _spin_row,
    spin_table,
)

DT = 0.01
GRID = build_grid(2.0, 2.0, 0.25)


class Pose(NamedTuple):
    x: float
    y: float
    heading_deg: float


def pose(agent, now):
    """Where ``agent`` is and faces after its step at tick ``now``, read
    from its motion."""
    motion = agent.motion
    return Pose(*motion.at(now), motion.heading_at(now))


def make_path(nodes, depart_at=0, hop=1):
    """Uniform timed route; every hop may start at depart_at + i*hop."""
    steps = [TimedStep(nodes[0], depart_at, depart_at)]
    for i, node in enumerate(nodes[1:], start=1):
        steps.append(TimedStep(node, depart_at + (i - 1) * hop, depart_at + i * hop))
    return TimedPath(steps, hop)


def make_agent(home=NodeId(0, 0), params=None, dt_s=DT):
    """An agent at ``home`` on the 2 x 2 m grid."""
    return VehicleAgent(0, home, GRID, dt_s, params)


def loaded_and_awaiting(agent):
    """Press the load switch at tick 0 and step tick 1: LOADED -> AWAITING_ROUTE."""
    agent.press_load_switch(0)
    agent.step(1)


def drive_until(agent, predicate, start=2, limit=5000):
    """Step every tick from ``start`` on; return the tick ``now`` after
    whose step ``predicate(agent, now)`` holds."""
    for now in range(start, start + limit):
        agent.step(now)
        if predicate(agent, now):
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


def bring_to(agent, state):
    """Bring a fresh agent at (0, 0) to the cargo ``state``, an UNLOADING
    one by a transit to (1, 0); return the first tick it may depart."""
    if state == IDLE:
        return 0
    agent.press_load_switch(0)
    if state == LOADED:
        return 0
    agent.step(1)
    if state == AWAITING_ROUTE:
        return 2
    agent.start_leg(make_path([NodeId(0, 0), NodeId(1, 0)]))
    return drive_until(agent, lambda a, now: a.state == UNLOADING) + 1


@pytest.mark.parametrize("state, leg_state", [
    (IDLE, IDLE),
    (LOADED, TRANSIT),
    (AWAITING_ROUTE, TRANSIT),
    (UNLOADING, RETRACING),
])
def test_start_leg_enters_the_state_its_cargo_state_names(state, leg_state):
    """A reposition stays IDLE, a loaded vehicle starts its transit and an
    unloading one its retrace; starting the leg queues no frame."""
    agent = make_agent()
    depart_at = bring_to(agent, state)
    assert agent.state == state and not agent.busy
    outbox = list(agent.outbox)
    here = agent.current_node
    agent.start_leg(make_path([here, NodeId(here.ix, 1)], depart_at=depart_at))
    assert agent.state == leg_state and agent.busy
    assert agent.outbox == outbox


@pytest.mark.parametrize("state", [IDLE, TRANSIT, RETRACING], ids=["reposition", "transit", "retrace"])
def test_starting_a_leg_while_one_is_driven_is_illegal(state):
    """Mid-leg, any new leg is refused and the vehicle keeps its state,
    route, trail and outbox."""
    agent = make_agent()
    cargo = {IDLE: IDLE, TRANSIT: AWAITING_ROUTE, RETRACING: UNLOADING}[state]
    depart_at = bring_to(agent, cargo)
    here = agent.current_node
    agent.start_leg(make_path([here, NodeId(here.ix, 1), NodeId(here.ix, 2)], depart_at=depart_at))
    drive_until(agent, lambda a, now: isinstance(a.motion, Drive), start=depart_at)
    before = (agent.state, agent._route, list(agent.trail), list(agent.retraced), list(agent.outbox))
    assert before[0] == state
    node = agent.current_node
    with pytest.raises(IllegalTransition):
        agent.start_leg(make_path([node, NodeId(node.ix + 1, node.iy)]))
    assert (agent.state, agent._route, agent.trail, agent.retraced, agent.outbox) == before


def test_route_must_start_at_current_node():
    agent = make_agent()
    loaded_and_awaiting(agent)
    with pytest.raises(ValueError):
        agent.start_leg(make_path([NodeId(1, 0), NodeId(2, 0)]))


def test_route_must_have_a_hop():
    agent = make_agent()
    with pytest.raises(ValueError):
        agent.start_leg(make_path([NodeId(0, 0)]))


@pytest.mark.parametrize("route", [
    [NodeId(1, 0), NodeId(2, 0)],
    [NodeId(0, 0)],
    [NodeId(0, 0), NodeId(1, 1)],
    [NodeId(0, 0), NodeId(2, 0)],
    [NodeId(0, 0), NodeId(1, 0), NodeId(1, 0)],
])
def test_refused_destination_leaves_the_vehicle_awaiting_its_route(route):
    agent = make_agent()
    loaded_and_awaiting(agent)
    outbox = list(agent.outbox)
    with pytest.raises(ValueError):
        agent.start_leg(make_path(route))
    assert agent.state == AWAITING_ROUTE
    assert not agent.busy and agent.trail == [] and agent.outbox == outbox
    agent.start_leg(make_path([NodeId(0, 0), NodeId(1, 0)]))
    drive_until(agent, lambda a, now: a.state == UNLOADING)
    assert agent.trail == [NodeId(0, 0), NodeId(1, 0)]


@pytest.mark.parametrize("route", [
    [NodeId(0, 0), NodeId(1, 0)],
    [NodeId(1, 0)],
    [NodeId(1, 0), NodeId(0, 1)],
])
def test_refused_retrace_leaves_the_vehicle_unloading(route):
    agent = make_agent()
    loaded_and_awaiting(agent)
    agent.start_leg(make_path([NodeId(0, 0), NodeId(1, 0)]))
    unloading = drive_until(agent, lambda a, now: a.state == UNLOADING)
    with pytest.raises(ValueError):
        agent.start_leg(make_path(route, depart_at=unloading + 1))
    assert agent.state == UNLOADING
    assert not agent.busy and agent.retraced == []
    agent.start_leg(make_path([NodeId(1, 0), NodeId(0, 0)], depart_at=unloading + 1))
    drive_until(agent, lambda a, now: a.state == IDLE, start=unloading + 1)
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
        agent.start_leg(make_path(route))
    assert agent.state == IDLE and not agent.busy and agent.trail == []


def test_reposition_presses_the_load_switch_on_its_arriving_step():
    agent = make_agent()
    agent.start_leg(make_path([NodeId(0, 0), NodeId(1, 0)]))
    for now in range(2, 502):
        wake = agent.step(now)
        if not agent.busy:
            break
    assert agent.current_node == NodeId(1, 0)
    assert agent.state == LOADED
    assert agent.outbox[-1].kind == MessageKind.ACTIVATE
    assert wake == now + 1
    assert agent.step(now + 1) == now + ACTIVATE_RETRY_TICKS
    assert agent.state == AWAITING_ROUTE


def test_activate_retries_while_awaiting_route():
    agent = make_agent()
    agent.press_load_switch(0)
    for now in range(1, 46):
        agent.step(now)
    kinds = [m.kind for m in agent.outbox]
    assert kinds.count(MessageKind.ACTIVATE) == 3  # press + ticks 20 and 40
    assert agent.state == AWAITING_ROUTE


# ----------------------------------------------------------------- driving


def test_straight_hop_lands_exactly_on_node():
    agent = make_agent()
    loaded_and_awaiting(agent)
    agent.start_leg(make_path([NodeId(0, 0), NodeId(1, 0)]))
    ticks = drive_until(agent, lambda a, now: not a.busy)
    assert pose(agent, ticks) == (0.25, 0.0, 0.0)
    assert agent.current_node == NodeId(1, 0)
    assert agent.state == UNLOADING
    # one hop from rest: spin-up plus 0.25 m at 0.1 m/s
    assert 2.0 <= ticks * DT <= 3.0


def test_fast_hop_that_steps_over_the_arrival_window_lands_on_node():
    """A step longer than the +-spacing/10 arrival window still arrives:
    the distance left is measured along the drive axis."""
    agent = make_agent(params=VehicleParams(wheel_radius_m=0.3, cruise_speed_m_s=1.5), dt_s=0.05)
    loaded_and_awaiting(agent)
    agent.start_leg(make_path([NodeId(i, 0) for i in range(5)]))
    longest = 0.0
    for now in range(2, 202):
        agent.step(now)
        longest = max(longest, agent.motion.speed_at(now) * 0.05)
        if not agent.busy:
            break
    assert longest > GRID.spacing_m / 5
    assert pose(agent, now) == (1.0, 0.0, 0.0)
    assert agent.state == UNLOADING


def test_cruise_speed_during_drive():
    agent = make_agent()
    loaded_and_awaiting(agent)
    agent.start_leg(make_path([NodeId(i, 0) for i in range(5)]))
    speeds = []
    for now in range(2, 2502):
        agent.step(now)
        if now >= 200:  # past spin-up
            speeds.append(agent.motion.speed_at(now))
        if not agent.busy:
            break
    cruising = [s for s in speeds if s > 0.0]
    assert cruising
    assert max(abs(s - 0.1) for s in cruising) <= 0.002


def test_turn_in_place_snaps_heading():
    agent = make_agent()
    loaded_and_awaiting(agent)
    agent.start_leg(make_path([NodeId(0, 0), NodeId(0, 1)]))
    ticks_turning = drive_until(agent, lambda a, now: pose(a, now).heading_deg == 90.0)
    # quarter turn: accelerate, then yaw rate = 2*r*omega/track
    assert 2.0 <= ticks_turning * DT <= 3.5
    assert pose(agent, ticks_turning)[:2] == (0.0, 0.0)  # turned in place
    end = drive_until(agent, lambda a, now: not a.busy, start=ticks_turning + 1)
    assert pose(agent, end) == (0.0, 0.25, 90.0)


def test_turn_prefers_counter_clockwise_on_180():
    agent = make_agent(NodeId(1, 0))
    loaded_and_awaiting(agent)
    agent.start_leg(make_path([NodeId(1, 0), NodeId(0, 0)]))
    seen = set()
    for now in range(2, 5002):
        agent.step(now)
        seen.add(round(pose(agent, now).heading_deg // 90))
        if not agent.busy:
            break
    assert pose(agent, now).heading_deg == 180.0
    assert 1 in seen  # passed through the 90-180 quadrant, not 270


def test_turn_clockwise_when_shorter():
    agent = make_agent(NodeId(0, 1))
    loaded_and_awaiting(agent)
    agent.start_leg(make_path([NodeId(0, 1), NodeId(0, 0)]))
    headings = []
    for now in range(2, 5002):
        agent.step(now)
        headings.append(pose(agent, now).heading_deg)
        if not agent.busy:
            break
    assert headings[-1] == 270.0
    assert all(h == 0.0 or h >= 270.0 for h in headings)  # went 0 -> 350 -> 270


def test_scheduled_departure_holds_vehicle():
    agent = make_agent()
    loaded_and_awaiting(agent)
    agent.start_leg(make_path([NodeId(0, 0), NodeId(1, 0)], depart_at=100))
    for now in range(2, 100):
        agent.step(now)
        assert pose(agent, now).x == 0.0
        assert agent.motion.speed_at(now) == 0.0
    assert drive_until(agent, lambda a, now: pose(a, now).x > 0.0, start=100, limit=50) == 100


def test_departure_gate_grants_early_start():
    agent = make_agent()
    calls = []

    def gate(a, nxt, now, scheduled):
        calls.append((nxt, now, scheduled))
        return None

    agent.departure_gate = gate
    loaded_and_awaiting(agent)
    agent.start_leg(make_path([NodeId(0, 0), NodeId(1, 0)], depart_at=10_000))
    assert drive_until(agent, lambda a, now: pose(a, now).x > 0.0, limit=50) == 2
    assert calls[0] == (NodeId(1, 0), 2, 10_000)


def test_transit_unload_retrace_cycle():
    agent = make_agent()

    loaded_and_awaiting(agent)
    assert agent.state == AWAITING_ROUTE

    agent.start_leg(make_path([NodeId(0, 0), NodeId(1, 0), NodeId(2, 0)]))
    assert agent.state == TRANSIT

    unloading = drive_until(agent, lambda a, now: a.state == UNLOADING)
    assert agent.current_node == NodeId(2, 0)

    back = agent.trail[::-1]
    assert back == [NodeId(2, 0), NodeId(1, 0), NodeId(0, 0)]
    agent.start_leg(make_path(back))
    assert agent.state == RETRACING
    idle = drive_until(agent, lambda a, now: a.state == IDLE, start=unloading + 1)
    assert agent.current_node == NodeId(0, 0)
    assert pose(agent, idle) == (0.0, 0.0, 180.0)


# ------------------------------------------------------------------- trail


def test_trail_records_pickup_once_across_reposition_and_transit():
    agent = make_agent()
    agent.start_leg(make_path([NodeId(0, 0), NodeId(1, 0)]))
    tick = drive_until(agent, lambda a, now: not a.busy)
    agent.step(tick + 1)
    agent.start_leg(make_path([NodeId(1, 0), NodeId(1, 1), NodeId(2, 1)], depart_at=tick + 2))
    drive_until(agent, lambda a, now: a.state == UNLOADING, start=tick + 2)
    assert agent.trail == [NodeId(0, 0), NodeId(1, 0), NodeId(1, 1), NodeId(2, 1)]


def test_trail_from_a_pickup_at_home_starts_with_home_once():
    agent = make_agent()
    loaded_and_awaiting(agent)
    agent.start_leg(make_path([NodeId(0, 0), NodeId(0, 1), NodeId(0, 2)]))
    drive_until(agent, lambda a, now: a.state == UNLOADING)
    assert agent.trail == [NodeId(0, 0), NodeId(0, 1), NodeId(0, 2)]


def test_retrace_records_retraced_and_leaves_trail():
    agent = make_agent()
    loaded_and_awaiting(agent)
    agent.start_leg(make_path([NodeId(0, 0), NodeId(1, 0), NodeId(1, 1)]))
    unloading = drive_until(agent, lambda a, now: a.state == UNLOADING)
    outbound = list(agent.trail)
    agent.start_leg(make_path(outbound[::-1], depart_at=unloading + 1))
    assert agent.retraced == [NodeId(1, 1)]
    drive_until(agent, lambda a, now: a.state == IDLE, start=unloading + 1)
    assert agent.retraced == [NodeId(1, 1), NodeId(1, 0), NodeId(0, 0)]
    assert agent.trail == outbound


def test_hop_is_the_edge_while_driving_and_the_node_otherwise():
    """``hop`` is (node, next node) while the motion is a `Drive` and
    (node, node) at rest and while turning.  A new tuple is built only
    when a drive is set up and when it arrives."""
    a, b, c = NodeId(0, 0), NodeId(1, 0), NodeId(1, 1)
    agent = make_agent()
    assert agent.hop == (a, a)
    loaded_and_awaiting(agent)
    agent.start_leg(make_path([a, b, c]))
    hops, turned = [agent.hop], False

    def seen(agent, now):
        nonlocal turned
        turned = turned or isinstance(agent.motion, Turn)
        hops.append(agent.hop)
        assert (agent.hop[0] != agent.hop[1]) == isinstance(agent.motion, Drive)
        return not agent.busy

    drive_until(agent, seen)
    assert turned
    assert [h for h, before in zip(hops[1:], hops) if h is not before] == [(a, b), (b, b), (b, c), (c, c)]


# -------------------------------------------------------------- wake ticks


def test_step_returns_the_next_hop_event_while_moving():
    """While the vehicle turns or drives, a step returns the tick at which
    the turn ends or the hop arrives, and a step on any tick before it
    changes nothing and returns the same tick."""
    agent = make_agent()
    loaded_and_awaiting(agent)
    agent.start_leg(make_path([NodeId(0, 0), NodeId(0, 1), NodeId(1, 1)]))
    events = []
    now = 2
    while agent.busy:
        wake = agent.step(now)
        events.append((type(agent.motion).__name__, wake - now))
        if agent.busy and wake > now + 1:
            motion = agent.motion
            assert agent.step(now + 1) == wake and agent.motion is motion
        now = wake
    # two turns and two hops, none of them waiting
    assert [kind for kind, _ in events] == ["Turn", "Drive", "Turn", "Drive", "Rest"]
    assert all(ticks > 1 for _, ticks in events[:-1]) and events[-1][1] == 1
    assert agent.state == UNLOADING


def test_step_returns_scheduled_departure_while_resting():
    agent = make_agent()
    refusals = []

    def gate(a, nxt, now, scheduled):
        refusals.append(now)
        return math.inf

    agent.departure_gate = gate
    loaded_and_awaiting(agent)
    agent.start_leg(make_path([NodeId(0, 0), NodeId(1, 0)], depart_at=100))
    assert agent.step(2) == 100
    assert agent.step(57) == 100  # a refused gate does not move the scheduled tick
    assert refusals == [2, 57]
    assert agent.step(100) > 101  # the arrival
    assert pose(agent, 100).x > 0.0


@pytest.mark.parametrize("until, wake", [(57, 57), (150, 100)])
def test_refused_gate_wakes_at_its_until_or_the_departure(until, wake):
    agent = make_agent()
    agent.departure_gate = lambda a, nxt, now, scheduled: until
    loaded_and_awaiting(agent)
    agent.start_leg(make_path([NodeId(0, 0), NodeId(1, 0)], depart_at=100))
    assert agent.step(2) == wake
    assert pose(agent, 2).x == 0.0
    assert agent.motion.speed_at(2) == 0.0


def test_step_that_comes_to_rest_returns_scheduled_departure():
    """The step that ends a turn, or a hop, short of the next departure
    already returns that departure."""
    agent = make_agent()
    agent.departure_gate = lambda a, nxt, now, scheduled: math.inf
    loaded_and_awaiting(agent)
    north = [NodeId(0, 0), NodeId(0, 1), NodeId(0, 2)]
    agent.start_leg(TimedPath([TimedStep(north[0], 0, 500), TimedStep(north[1], 490, 900),
                                               TimedStep(north[2], 890, 900)], 10))

    def until_quiet(now):
        """Step at each tick returned from ``now`` until a step leaves the vehicle at rest."""
        while True:
            before = (pose(agent, now - 1).heading_deg, agent.current_node)
            wake = agent.step(now)
            if isinstance(agent.motion, Rest):
                return now, wake, before
            now = wake

    now, wake, before = until_quiet(2)
    assert wake == 500
    assert before[0] < pose(agent, now).heading_deg == 90.0  # this step ended the turn
    now, wake, before = until_quiet(500)
    assert wake == 900 and now < 900
    assert (before[1], agent.current_node) == (north[0], north[1])  # this step arrived


def test_step_returns_next_activate_retry_while_awaiting_route():
    agent = make_agent()
    agent.press_load_switch(3)
    assert agent.step(4) == 3 + ACTIVATE_RETRY_TICKS
    assert agent.state == AWAITING_ROUTE
    assert agent.step(23) == 23 + ACTIVATE_RETRY_TICKS
    assert [m.kind for m in agent.outbox] == [MessageKind.ACTIVATE] * 2


def test_step_returns_inf_while_parked_without_route():
    agent = make_agent()
    assert agent.step(0) == math.inf
    assert agent.step(1) == math.inf
    assert agent.state == IDLE
    assert agent.outbox == []


def test_telemetry_snapshot():
    agent = VehicleAgent(3, NodeId(1, 2), GRID, DT)
    msg = agent.telemetry(0)
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


def pair(home, params, dt_s, gate=None):
    """An agent at ``dt_s`` and its reference at ``home`` on the 2 x 2 m grid."""
    agent = make_agent(home, params, dt_s)
    agent.departure_gate = gate
    return agent, ReferenceAgent(home, GRID.node_to_position(home), params, gate)


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


def drive_both(agent, ref, dt_s, now, limit):
    """Step the reference on every tick it is due (each tick of a turn or a
    drive) and the agent only on the ticks its steps return, from ``now``
    until the leg ends or for ``limit`` ticks.  After every tick the
    agent's pose and speed read at that tick must equal the reference's,
    and whenever the reference returns a later tick than the next, the
    agent must have stepped too and returned the same one."""
    agent_wake = ref_wake = now
    for now in range(now, now + limit):
        if now == ref_wake:
            ref_wake = ref.step(GRID, dt_s, now)
        if now == agent_wake:
            agent_wake = agent.step(now)
        if ref_wake != now + 1:
            assert agent_wake == ref_wake
        # repr tells -0.0 from 0.0, which == does not
        assert repr(pose(agent, now)) == repr(Pose(ref.x, ref.y, ref.heading))
        assert repr(agent.motion.speed_at(now)) == repr(ref.speed_m_s)
        if not agent.busy:
            assert ref.route is None
            return agent_wake
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
# At dt 0.001 the stock table caps unsettled: five hops east without a halt
# run past its end onto the live wheel loop.
@example(
    route=[NodeId(i, 0) for i in range(6)], departures=[0] * 8,
    params=VehicleParams(), dt_s=0.001, gate="grant",
)
def test_agent_moves_exactly_like_the_reference(route, departures, params, dt_s, gate):
    """The agent steps only at its hop events, yet its pose and speed read
    at every tick equal those of the reference, which steps every tick.
    Where the spin-up of ``params`` at ``dt_s`` reverses the wheels (at
    dt = tau / 2 with a motor gain of 1.5 or more, say), the agent cannot
    be built."""
    if spin_up_reverses(params, dt_s, SPIN_TABLE_CAP):
        with pytest.raises(TimestepTooLarge, match=f"dt {dt_s} reverses the wheels"):
            make_agent(route[0], params, dt_s)
        return
    agent, ref = pair(route[0], params, dt_s, GATES[gate])
    departures = sorted(departures)[: len(route) - 1]
    steps = [TimedStep(node, 0, t) for node, t in zip(route, departures)] + [TimedStep(route[-1], 0, 0)]
    path = TimedPath(steps, 1)
    agent.start_leg(path)
    ref.begin(path)
    drive_both(agent, ref, dt_s, 0, 20_000)


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


def test_peak_speed_bounds_every_drive_row_in_the_table_and_past_it():
    """A settled table peaks at its fastest row.  Past a table that never
    settles, motor_gain * output_limit bounds the live loop, and so the
    peak."""
    settled = spin_table(VehicleParams(), 0.01)
    assert settled.settled
    assert settled.peak_speed_m_s == max(0.05 * row[0] for row in settled.rows)
    params = VehicleParams(wheel_radius_m=1.0, motor_gain=20.0, cruise_speed_m_s=60.0)
    capped = spin_table(params, 0.01)
    assert not capped.settled and len(capped.rows) == SPIN_TABLE_CAP
    assert capped.peak_speed_m_s == 20.0 * PidState.output_limit * 1.0
    row = capped.rows[-1]
    for _ in range(2_000):
        row = _spin_row(params, 0.01, row)
        assert row[0] * 1.0 <= capped.peak_speed_m_s


def test_each_table_row_is_the_spin_row_of_the_row_before():
    """The table starts from rest and steps by `_spin_row`, whose wheel
    speed and controller state are those of a loop that runs `pid_update`
    and `motor_step` on one `PidState`."""
    for params, dt_s in ((VehicleParams(), 0.05), (VehicleParams(motor_gain=1.5, track_m=0.3), 0.001)):
        rows = spin_table(params, dt_s).rows
        assert rows[0] == _spin_row(params, dt_s, (0.0,) * 5)
        assert all(_spin_row(params, dt_s, before) == row for before, row in zip(rows, rows[1:]))
        pid, omega = PidState(), 0.0
        for row in rows:
            omega = motor_step(omega, pid_update(pid, params.cruise_omega, omega, dt_s), params, dt_s)
            assert (row[0], row[3], row[4]) == (omega, pid.integral, pid.prev_error)


def count_live_spins(monkeypatch):
    """The `_spin_row` calls from here on: past an agent's table, its live spins."""
    calls = []
    step = swarmport.vehicle._spin_row

    def counted(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(swarmport.vehicle, "_spin_row", counted)
    return calls


def test_spin_up_without_a_fixed_point_continues_like_the_reference(monkeypatch):
    """At dt 0.001 the stock spin-up needs about 16,000 rows to settle, so
    its table caps at SPIN_TABLE_CAP: past it the agent steps on from its
    last row, one live spin a tick."""
    table = spin_table(VehicleParams(), 0.001)
    assert not table.settled and len(table.rows) == SPIN_TABLE_CAP
    home = NodeId(0, 0)
    agent, ref = pair(home, VehicleParams(), 0.001)
    live = count_live_spins(monkeypatch)
    route = [home, NodeId(1, 0), home, NodeId(1, 0)]  # a 180 degree turn at each inner node
    path = make_path(route)
    agent.start_leg(path)
    ref.begin(path)
    end = drive_both(agent, ref, 0.001, 0, 3 * SPIN_TABLE_CAP)
    assert not agent.busy and agent.current_node == route[-1]
    assert len(live) == end - SPIN_TABLE_CAP > 0  # one spin a tick from tick 0, never halted


def test_a_live_loop_that_reverses_the_wheels_raises_before_it_moves(monkeypatch):
    """A table that caps before its first reversing row hands over to the
    live loop, which raises naming the timestep when the hop whose spin-up
    reverses is set up: here the first hop, whose drive starts at tick 0.
    The agent is still at rest at home, and the reference reverses before
    it leaves that hop."""
    params = VehicleParams(motor_gain=3.0, motor_time_constant_s=0.1, cruise_speed_m_s=0.3)
    monkeypatch.setattr(swarmport.vehicle, "SPIN_TABLE_CAP", 8)
    spin_table.cache_clear()
    try:
        home = NodeId(0, 0)
        agent, ref = pair(home, params, 0.05)
        live = count_live_spins(monkeypatch)
        path = make_path([home, NodeId(1, 0), NodeId(2, 0), NodeId(3, 0)])
        agent.start_leg(path)
        ref.begin(path)
        with pytest.raises(TimestepTooLarge, match="dt 0.05 reverses the wheels"):
            agent.step(0)
        assert live  # the capped table ran out before the reversing row
        assert isinstance(agent.motion, Rest) and pose(agent, 0) == (0.0, 0.0, 0.0)
        for now in range(100):
            ref.step(GRID, 0.05, now)
            if ref.omega < 0:
                break
        assert ref.omega < 0 and ref.node == home
    finally:
        spin_table.cache_clear()


def test_timestep_above_the_stability_guard_refuses_the_agent():
    with pytest.raises(TimestepTooLarge, match="exceeds stability guard"):
        make_agent(dt_s=0.11)
