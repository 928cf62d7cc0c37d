"""Route search, reservation table, and space-time scheduling."""

import math
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from swarmport.errors import BadInterval, GridTooLarge, NoPath
from swarmport.grid import GridMap, NodeId, build_grid
from swarmport.planner import (
    INF_TICK,
    ReservationTable,
    TimedPath,
    TimedStep,
    _check_endpoints,
    _collapse,
    astar,
    bellman_ford,
    commit,
    dijkstra,
    floyd_warshall,
    plan_space_time,
    schedule_along,
)


# ---------------------------------------------------------------- oracles


def bfs_cost(grid, src, dst):
    """Independent breadth-first hop count; None when unreachable."""
    if src == dst:
        return 0
    seen = {src}
    queue = deque([(src, 0)])
    while queue:
        node, d = queue.popleft()
        for nxt in grid.neighbors(node):
            if nxt in seen:
                continue
            if nxt == dst:
                return d + 1
            seen.add(nxt)
            queue.append((nxt, d + 1))
    return None


def random_grid(seed, block_ratio=0.2):
    rng = random.Random(seed)
    grid = build_grid(2.0, 2.0, 0.25)
    nodes = [NodeId(ix, iy) for ix in range(9) for iy in range(9)]
    blocked = rng.sample(nodes, int(len(nodes) * block_ratio))
    grid = build_grid(2.0, 2.0, 0.25, blocked=blocked)
    free = [n for n in nodes if not grid.is_blocked(n)]
    src, dst = rng.sample(free, 2)
    return grid, src, dst


def check_is_path(grid, nodes, src, dst):
    assert nodes[0] == src and nodes[-1] == dst
    for a, b in zip(nodes, nodes[1:]):
        assert b in grid.neighbors(a)
        assert not grid.is_blocked(b)


def reference_plan_space_time(
    grid: GridMap,
    table: ReservationTable,
    src: NodeId,
    dst: NodeId,
    start_tick: int,
    ticks_per_hop: int,
) -> TimedPath:
    """The space-time search with its own forward, backward and walk passes,
    kept verbatim as the oracle for `plan_space_time`."""
    _check_endpoints(grid, src, dst)
    h = ticks_per_hop
    if h <= 0:
        raise BadInterval(f"ticks_per_hop must be positive, got {h}")
    t0 = start_tick

    def window_free(node: NodeId, k: int) -> bool:
        return table.is_free(node, t0 + k * h, t0 + (k + 1) * h)

    if src == dst:
        if not table.is_free(dst, t0, INF_TICK):
            raise NoPath(f"destination {tuple(dst)} reserved past arrival")
        return TimedPath([TimedStep(src, t0, t0 + h)], h)

    max_slots = 10 * (grid.nx - 1 + grid.ny - 1)
    reachable: list[set[NodeId]] = [{src}]
    arrival_slot = None
    for k in range(max_slots):
        nxt: set[NodeId] = set()
        for node in reachable[k]:
            if not window_free(node, k):
                continue
            nxt.add(node)
            for nb in grid.neighbors(node):
                if window_free(nb, k):
                    nxt.add(nb)
        reachable.append(nxt)
        if dst in nxt and table.is_free(dst, t0 + (k + 1) * h, INF_TICK):
            arrival_slot = k + 1
            break
    if arrival_slot is None:
        raise NoPath(f"no conflict-free route {tuple(src)} -> {tuple(dst)} within horizon")

    # Backward feasibility, then a forward walk preferring moves in
    # canonical direction order so ties resolve like the plain planners.
    feasible: list[set[NodeId]] = [set() for _ in range(arrival_slot + 1)]
    feasible[arrival_slot] = {dst}
    for k in range(arrival_slot - 1, -1, -1):
        nxt = feasible[k + 1]
        for node in reachable[k]:
            if not window_free(node, k):
                continue
            if node in nxt or any(nb in nxt and window_free(nb, k) for nb in grid.neighbors(node)):
                feasible[k].add(node)

    boundary = [src]
    cur = src
    for k in range(arrival_slot):
        nxt = feasible[k + 1]
        step = cur
        for nb in grid.neighbors(cur):
            if nb in nxt and window_free(nb, k):
                step = nb
                break
        if step is cur and cur not in nxt:
            raise NoPath("internal: walk lost feasibility")  # pragma: no cover
        boundary.append(step)
        cur = step

    return TimedPath(_collapse(boundary, t0, h), h)


def reference_schedule_along(
    table: ReservationTable,
    sequence: list[NodeId],
    start_tick: int,
    ticks_per_hop: int,
    max_slots: int,
) -> TimedPath:
    """The sequence search with its own forward, backward and walk passes,
    kept verbatim as the oracle for `schedule_along`."""
    if not sequence:
        raise NoPath("empty sequence")
    h = ticks_per_hop
    t0 = start_tick

    def window_free(i: int, k: int) -> bool:
        return table.is_free(sequence[i], t0 + k * h, t0 + (k + 1) * h)

    last = len(sequence) - 1
    if last == 0:
        if not table.is_free(sequence[0], t0, INF_TICK):
            raise NoPath("terminal node reserved past arrival")
        return TimedPath([TimedStep(sequence[0], t0, t0 + h)], h)

    reachable: list[set[int]] = [{0}]
    arrival_slot = None
    for k in range(max_slots):
        nxt: set[int] = set()
        for i in reachable[k]:
            if not window_free(i, k):
                continue
            nxt.add(i)
            if i < last and window_free(i + 1, k):
                nxt.add(i + 1)
        reachable.append(nxt)
        if last in nxt and table.is_free(sequence[last], t0 + (k + 1) * h, INF_TICK):
            arrival_slot = k + 1
            break
    if arrival_slot is None:
        raise NoPath("no conflict-free schedule along sequence within horizon")

    feasible: list[set[int]] = [set() for _ in range(arrival_slot + 1)]
    feasible[arrival_slot] = {last}
    for k in range(arrival_slot - 1, -1, -1):
        nxt = feasible[k + 1]
        for i in reachable[k]:
            if not window_free(i, k):
                continue
            if i in nxt or (i < last and i + 1 in nxt and window_free(i + 1, k)):
                feasible[k].add(i)

    boundary = [sequence[0]]
    cur = 0
    for k in range(arrival_slot):
        if cur < last and cur + 1 in feasible[k + 1] and window_free(cur + 1, k):
            cur += 1
        boundary.append(sequence[cur])

    return TimedPath(_collapse(boundary, t0, h), h)


# ---------------------------------------------------------------- search


def test_straight_line_cost_two():
    grid = build_grid(2.0, 2.0, 0.25)
    path = dijkstra(grid, NodeId(0, 0), NodeId(2, 0))
    assert path.cost == 2
    assert path.nodes == [NodeId(0, 0), NodeId(1, 0), NodeId(2, 0)]


def test_wall_forces_detour():
    # column blocked at (1,0) -> go up, across, down: 4 hops
    grid = build_grid(2.0, 2.0, 0.25, blocked=[NodeId(1, 0)])
    path = astar(grid, NodeId(0, 0), NodeId(2, 0))
    assert path.cost == 4
    assert path.nodes == [
        NodeId(0, 0),
        NodeId(0, 1),
        NodeId(1, 1),
        NodeId(2, 1),
        NodeId(2, 0),
    ]


def test_tie_break_prefers_east_before_north():
    grid = build_grid(2.0, 2.0, 0.25)
    expect = [NodeId(0, 0), NodeId(1, 0), NodeId(2, 0), NodeId(2, 1), NodeId(2, 2)]
    assert dijkstra(grid, NodeId(0, 0), NodeId(2, 2)).nodes == expect
    assert astar(grid, NodeId(0, 0), NodeId(2, 2)).nodes == expect


def test_tie_break_prefers_west_before_south():
    grid = build_grid(2.0, 2.0, 0.25)
    # W < S in the direction order, so go all the way west first
    expect = [NodeId(2, 2), NodeId(1, 2), NodeId(0, 2), NodeId(0, 1), NodeId(0, 0)]
    assert dijkstra(grid, NodeId(2, 2), NodeId(0, 0)).nodes == expect


def test_src_equals_dst():
    grid = build_grid(2.0, 2.0, 0.25)
    path = dijkstra(grid, NodeId(3, 3), NodeId(3, 3))
    assert path.cost == 0
    assert path.nodes == [NodeId(3, 3)]


def test_unreachable_raises_no_path():
    # wall the bottom-left corner in
    grid = build_grid(2.0, 2.0, 0.25, blocked=[NodeId(1, 0), NodeId(0, 1), NodeId(1, 1)])
    with pytest.raises(NoPath):
        dijkstra(grid, NodeId(0, 0), NodeId(8, 8))
    with pytest.raises(NoPath):
        astar(grid, NodeId(0, 0), NodeId(8, 8))


def test_blocked_endpoint_raises_no_path():
    grid = build_grid(2.0, 2.0, 0.25, blocked=[NodeId(4, 4)])
    with pytest.raises(NoPath):
        dijkstra(grid, NodeId(0, 0), NodeId(4, 4))
    with pytest.raises(NoPath):
        astar(grid, NodeId(4, 4), NodeId(0, 0))


def test_bellman_ford_distance_map():
    grid = build_grid(2.0, 2.0, 0.25, blocked=[NodeId(1, 0)])
    dist = bellman_ford(grid, NodeId(0, 0))
    assert dist[NodeId(0, 0)] == 0
    assert dist[NodeId(2, 0)] == 4
    assert dist[NodeId(8, 8)] == 16
    assert NodeId(1, 0) not in dist


def test_bellman_ford_omits_unreachable():
    grid = build_grid(2.0, 2.0, 0.25, blocked=[NodeId(1, 0), NodeId(0, 1), NodeId(1, 1)])
    dist = bellman_ford(grid, NodeId(0, 0))
    assert dist == {NodeId(0, 0): 0}


def test_floyd_warshall_matches_bfs_rows():
    grid, src, _ = random_grid(7)
    costs = floyd_warshall(grid)
    for ix in range(9):
        for iy in range(9):
            node = NodeId(ix, iy)
            if grid.is_blocked(node):
                continue
            want = bfs_cost(grid, src, node)
            got = costs.cost(src, node)
            if want is None:
                assert math.isinf(got)
            else:
                assert got == want


def test_floyd_warshall_symmetry_and_diagonal():
    grid, _, _ = random_grid(11)
    costs = floyd_warshall(grid)
    free = [NodeId(ix, iy) for ix in range(9) for iy in range(9) if not grid.is_blocked(NodeId(ix, iy))]
    for a in free[:10]:
        assert costs.cost(a, a) == 0
        for b in free[:10]:
            assert costs.cost(a, b) == costs.cost(b, a)


def test_floyd_warshall_node_limit():
    grid = build_grid(10.0, 10.0, 0.25)  # 41 x 41 = 1681 nodes
    with pytest.raises(GridTooLarge):
        floyd_warshall(grid)


@pytest.mark.parametrize("seed", range(25))
def test_all_algorithms_match_bfs_oracle(seed):
    grid, src, dst = random_grid(seed, block_ratio=0.25)
    want = bfs_cost(grid, src, dst)
    costs = floyd_warshall(grid)
    dist = bellman_ford(grid, src)
    if want is None:
        with pytest.raises(NoPath):
            dijkstra(grid, src, dst)
        with pytest.raises(NoPath):
            astar(grid, src, dst)
        assert dst not in dist
        assert math.isinf(costs.cost(src, dst))
        return
    d_path = dijkstra(grid, src, dst)
    a_path = astar(grid, src, dst)
    assert d_path.cost == want
    assert a_path.cost == want
    assert dist[dst] == want
    assert costs.cost(src, dst) == want
    # identical canonical tie-break, not merely equal cost
    assert d_path.nodes == a_path.nodes
    check_is_path(grid, d_path.nodes, src, dst)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_dijkstra_astar_parity_property(seed):
    grid, src, dst = random_grid(seed, block_ratio=0.3)
    want = bfs_cost(grid, src, dst)
    if want is None:
        with pytest.raises(NoPath):
            astar(grid, src, dst)
    else:
        assert dijkstra(grid, src, dst).nodes == astar(grid, src, dst).nodes


# ------------------------------------------------------- reservation table


def test_reserve_and_conflict():
    table = ReservationTable()
    node = NodeId(2, 2)
    assert table.reserve(0, node, 0, 10) is None
    # refused until the end of vehicle 0's hold
    assert table.reserve(1, node, 5, 15) == 10
    # failed reserve must not leave residue
    assert table.reserve(1, node, 10, 15) is None


def test_half_open_windows_touch_without_conflict():
    table = ReservationTable()
    node = NodeId(0, 0)
    assert table.reserve(0, node, 0, 10) is None
    assert table.reserve(1, node, 10, 20) is None
    assert not table.is_free(node, 9, 10)
    assert table.reserve(0, node, 9, 10) is None


def test_bad_interval():
    table = ReservationTable()
    with pytest.raises(BadInterval):
        table.reserve(0, NodeId(0, 0), 10, 10)
    with pytest.raises(BadInterval):
        table.reserve(0, NodeId(0, 0), 10, 5)


def test_open_ended_parking():
    table = ReservationTable()
    node = NodeId(1, 1)
    assert table.reserve(0, node, 100, INF_TICK) is None
    assert table.reserve(1, node, 10 ** 9, 10 ** 9 + 1) == INF_TICK
    assert table.is_free(node, 0, 100)
    assert not table.is_free(node, 50, INF_TICK)
    assert table.reserve(0, node, 50, INF_TICK) is None


def test_release_vehicle_clears_only_its_holds():
    table = ReservationTable()
    table.reserve(0, NodeId(0, 0), 0, INF_TICK)
    table.reserve(1, NodeId(1, 0), 0, INF_TICK)
    table.release_vehicle(0)
    assert table.holds_of(0) == []
    assert table.is_free(NodeId(0, 0), 0, INF_TICK)
    assert not table.is_free(NodeId(1, 0), 0, INF_TICK)


table_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("reserve"),
            st.integers(0, 3),
            st.integers(0, 4),
            st.integers(0, 30),
            st.one_of(st.integers(1, 30), st.just(INF_TICK)),
        ),
        st.tuples(st.just("release"), st.integers(0, 3)),
    ),
    max_size=60,
)


@given(table_ops)
@settings(max_examples=200, deadline=None)
def test_release_vehicle_equals_filtering_every_list(ops):
    """``release_vehicle`` visits only the nodes the vehicle holds; the table
    must read as if every node's list had been filtered, empty lists dropped."""
    table = ReservationTable()
    reference: dict[NodeId, list[tuple[float, float, int]]] = {}
    for op in ops:
        if op[0] == "reserve":
            _, vid, ix, start, length = op
            node = NodeId(ix, 0)
            if table.reserve(vid, node, start, start + length) is None:
                reference.setdefault(node, []).append((start, start + length, vid))
        else:
            vid = op[1]
            table.release_vehicle(vid)
            for node in list(reference):
                kept = [h for h in reference[node] if h[2] != vid]
                if kept:
                    reference[node] = kept
                else:
                    del reference[node]
        assert list(table.snapshot().items()) == list(reference.items())


# ------------------------------------------------------ space-time planning


def test_plan_on_empty_table_equals_static_route():
    grid = build_grid(2.0, 2.0, 0.25)
    table = ReservationTable()
    plan = plan_space_time(grid, table, NodeId(0, 0), NodeId(4, 2), 0, 10)
    assert plan.route == astar(grid, NodeId(0, 0), NodeId(4, 2)).nodes
    assert plan.arrival_tick == 6 * 10
    # uniform pacing: one window per hop, no waiting anywhere
    assert plan.steps[0].enter_tick == 0
    for step, nxt in zip(plan.steps[1:], plan.steps[2:]):
        assert nxt.enter_tick - step.enter_tick == 10


def test_plan_claims_both_endpoints_of_each_hop():
    grid = build_grid(2.0, 2.0, 0.25)
    table = ReservationTable()
    plan = plan_space_time(grid, table, NodeId(0, 0), NodeId(2, 0), 0, 10)
    commit(table, 0, plan)
    # while hopping (0,0)->(1,0) during [0,10) both nodes are held
    assert not table.is_free(NodeId(0, 0), 0, 1)
    assert not table.is_free(NodeId(1, 0), 0, 1)
    assert not table.is_free(NodeId(2, 0), 19, 20)


def test_plan_waits_out_a_transient_block():
    grid = build_grid(2.0, 2.0, 0.25)
    table = ReservationTable()
    # someone sits on (1,0) until tick 35
    table.reserve(9, NodeId(1, 0), 0, 35)
    plan = plan_space_time(grid, table, NodeId(0, 0), NodeId(2, 0), 0, 10)
    commit(table, 0, plan)
    assert plan.route[0] == NodeId(0, 0)
    assert plan.route[-1] == NodeId(2, 0)
    assert plan.arrival_tick > 30
    for hold in table.holds_of(0):
        node, start, end = hold
        assert table.reserve(0, node, start, end) is None or node == NodeId(1, 0)


def test_plan_routes_around_permanent_block():
    grid = build_grid(2.0, 2.0, 0.25)
    table = ReservationTable()
    table.reserve(9, NodeId(1, 0), 0, INF_TICK)
    plan = plan_space_time(grid, table, NodeId(0, 0), NodeId(2, 0), 0, 10)
    assert NodeId(1, 0) not in plan.route
    assert plan.route[-1] == NodeId(2, 0)


def test_plan_no_path_when_walled_in():
    grid = build_grid(2.0, 2.0, 0.25)
    table = ReservationTable()
    table.reserve(8, NodeId(1, 0), 0, INF_TICK)
    table.reserve(9, NodeId(0, 1), 0, INF_TICK)
    with pytest.raises(NoPath):
        plan_space_time(grid, table, NodeId(0, 0), NodeId(5, 5), 0, 10)


def test_destination_must_stay_free_after_arrival():
    grid = build_grid(2.0, 2.0, 0.25)
    table = ReservationTable()
    # destination box is busy later; arriving earlier would strand the vehicle
    table.reserve(9, NodeId(3, 0), 100, 130)
    plan = plan_space_time(grid, table, NodeId(0, 0), NodeId(3, 0), 0, 10)
    assert plan.steps[-1].enter_tick >= 130
    commit(table, 0, plan)
    assert table.reserve(9, NodeId(3, 0), plan.steps[-1].enter_tick, INF_TICK) == INF_TICK


def test_committed_plans_never_overlap():
    grid = build_grid(2.0, 2.0, 0.25)
    table = ReservationTable()
    # two crossing routes committed in sequence
    p0 = plan_space_time(grid, table, NodeId(0, 2), NodeId(8, 2), 0, 10)
    commit(table, 0, p0)
    p1 = plan_space_time(grid, table, NodeId(4, 0), NodeId(4, 4), 0, 10)
    commit(table, 1, p1)
    for node, holds in table.snapshot().items():
        ordered = sorted(holds)
        for (s0, e0, v0), (s1, e1, v1) in zip(ordered, ordered[1:]):
            assert e0 <= s1, f"overlap at {node}: {ordered}"


def test_head_on_corridor_resolves_by_detour_or_delay():
    grid = build_grid(2.0, 2.0, 0.25)
    table = ReservationTable()
    p0 = plan_space_time(grid, table, NodeId(0, 0), NodeId(4, 0), 0, 10)
    commit(table, 0, p0)
    p1 = plan_space_time(grid, table, NodeId(4, 0), NodeId(0, 0), 0, 10)
    commit(table, 1, p1)
    assert p1.route[0] == NodeId(4, 0) and p1.route[-1] == NodeId(0, 0)
    # direct swap is impossible; the second plan must cost time or distance
    assert p1.arrival_tick > p0.arrival_tick or len(p1.route) > len(p0.route)
    for node, holds in table.snapshot().items():
        ordered = sorted(holds)
        for (s0, e0, _), (s1, e1, _) in zip(ordered, ordered[1:]):
            assert e0 <= s1


def test_schedule_along_keeps_sequence():
    grid = build_grid(2.0, 2.0, 0.25)
    table = ReservationTable()
    seq = [NodeId(0, 0), NodeId(1, 0), NodeId(2, 0), NodeId(2, 1)]
    plan = schedule_along(table, seq, 0, 10, max_slots=50)
    assert plan.route == seq
    assert plan.arrival_tick == 30


def test_schedule_along_waits_for_clearance():
    table = ReservationTable()
    table.reserve(9, NodeId(1, 0), 0, 45)
    seq = [NodeId(0, 0), NodeId(1, 0), NodeId(2, 0)]
    plan = schedule_along(table, seq, 0, 10, max_slots=50)
    assert plan.route == seq
    assert plan.steps[1].enter_tick >= 40
    commit(table, 0, plan)


def test_schedule_along_gives_up_past_horizon():
    table = ReservationTable()
    table.reserve(9, NodeId(1, 0), 0, INF_TICK)
    with pytest.raises(NoPath):
        schedule_along(table, [NodeId(0, 0), NodeId(1, 0)], 0, 10, max_slots=30)


def test_plan_at_destination_parks_at_once_or_fails():
    grid = build_grid(2.0, 2.0, 0.25)
    table = ReservationTable()
    node = NodeId(3, 3)
    plan = plan_space_time(grid, table, node, node, 20, 10)
    assert plan.steps == [TimedStep(node, 20, 30)]
    table.reserve(9, node, 100, 130)
    with pytest.raises(NoPath):
        plan_space_time(grid, table, node, node, 20, 10)


def test_schedule_along_single_node_and_self_crossing_trail():
    table = ReservationTable()
    node = NodeId(2, 2)
    plan = schedule_along(table, [node], 20, 10, max_slots=5)
    assert plan.route == [node]
    assert plan.steps == [TimedStep(node, 20, 30)]
    loop = [NodeId(0, 0), NodeId(1, 0), NodeId(1, 1), NodeId(0, 1), NodeId(0, 0), NodeId(1, 0)]
    plan = schedule_along(table, loop, 0, 10, max_slots=50)
    assert plan.route == loop
    assert plan.arrival_tick == 50
    table.reserve(9, node, 100, 130)
    with pytest.raises(NoPath):
        schedule_along(table, [node], 20, 10, max_slots=5)


def steps_or_no_path(plan, *args):
    try:
        return plan(*args).steps
    except NoPath:
        return NoPath


@st.composite
def space_time_cases(draw):
    """A grid of 2-12 nodes a side with up to 30% blocked, random holds by
    other vehicles (some open-ended) and a random walk that may revisit."""
    nx, ny = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    nodes = [NodeId(ix, iy) for ix in range(nx) for iy in range(ny)]
    blocked = draw(st.lists(st.sampled_from(nodes), max_size=len(nodes) * 3 // 10, unique=True))
    grid = build_grid(float(nx - 1), float(ny - 1), 1.0, blocked=blocked)
    free = [n for n in nodes if not grid.is_blocked(n)]
    table = ReservationTable()
    for _ in range(draw(st.integers(0, 40))):
        start = draw(st.integers(0, 100))
        end = draw(st.sampled_from([start + draw(st.integers(1, 60))] * 3 + [INF_TICK]))
        table.reserve(draw(st.integers(1, 4)), draw(st.sampled_from(free)), start, end)
    src = draw(st.sampled_from(free))
    dst = src if draw(st.integers(0, 7)) == 0 else draw(st.sampled_from(free))
    walk = [src]
    for turn in draw(st.lists(st.integers(0, 3), max_size=12)):
        options = grid.neighbors(walk[-1])
        if options:
            walk.append(options[turn % len(options)])
    return grid, table, src, dst, walk


@given(space_time_cases(), st.integers(0, 40), st.integers(1, 5), st.integers(1, 60))
@settings(max_examples=200, deadline=None)
def test_space_time_search_matches_reference(case, t0, h, max_slots):
    grid, table, src, dst, walk = case
    assert steps_or_no_path(plan_space_time, grid, table, src, dst, t0, h) == steps_or_no_path(
        reference_plan_space_time, grid, table, src, dst, t0, h
    )
    assert steps_or_no_path(schedule_along, table, walk, t0, h, max_slots) == steps_or_no_path(
        reference_schedule_along, table, walk, t0, h, max_slots
    )


def _column_wall(table, x, ny, end):
    for y in range(ny):
        table.reserve(9, NodeId(x, y), 0, end)


def _late_destination(table, h):
    table.reserve(9, NodeId(12, 7), 0, 7 + 200 * h + 3)


def _lifting_wall(table, h):
    _column_wall(table, 7, 15, 7 + 40 * h)


def _endless_wall(table, h):
    _column_wall(table, 7, 15, INF_TICK)


@pytest.mark.parametrize("h", [1, 5])
@pytest.mark.parametrize("hold", [_late_destination, _lifting_wall, _endless_wall])
def test_long_waits_match_reference(hold, h):
    """Waits far past the hop distance, which take several deepening passes
    of the bounded search, against the unpruned reference planners."""
    grid = build_grid(14.0, 14.0, 1.0)
    table = ReservationTable()
    hold(table, h)
    src, dst = NodeId(2, 7), NodeId(12, 7)
    got = steps_or_no_path(plan_space_time, grid, table, src, dst, 7, h)
    assert got == steps_or_no_path(reference_plan_space_time, grid, table, src, dst, 7, h)
    assert (got is NoPath) == (hold is _endless_wall)
    row = [NodeId(x, 7) for x in range(2, 13)]
    for max_slots in (30, 280):
        assert steps_or_no_path(schedule_along, table, row, 7, h, max_slots) == steps_or_no_path(
            reference_schedule_along, table, row, 7, h, max_slots
        )


@pytest.mark.parametrize("h", [1, 5])
def test_other_component_matches_reference(h):
    grid = build_grid(14.0, 14.0, 1.0, blocked=[NodeId(7, y) for y in range(15)])
    table = ReservationTable()
    src, dst = NodeId(2, 7), NodeId(12, 7)
    with pytest.raises(NoPath, match=r"^no conflict-free route \(2, 7\) -> \(12, 7\) within horizon$"):
        plan_space_time(grid, table, src, dst, 7, h)
    assert steps_or_no_path(reference_plan_space_time, grid, table, src, dst, 7, h) is NoPath


class CountingTable(ReservationTable):
    """Counts the free-window probes a search makes; the open-ended probes
    that find where the destination stays free are not counted."""

    def __init__(self) -> None:
        super().__init__()
        self.probes = 0

    def is_free(self, node, tick_start, tick_end) -> bool:
        if tick_end != INF_TICK:
            self.probes += 1
        return super().is_free(node, tick_start, tick_end)


def test_search_work_is_bounded_by_the_route_not_the_grid():
    grid = build_grid(40.0, 40.0, 1.0)
    table = CountingTable()
    plan = plan_space_time(grid, table, NodeId(10, 20), NodeId(30, 20), 0, 10)
    assert plan.route == [NodeId(x, 20) for x in range(10, 31)]
    assert table.probes < 1_000

    table = CountingTable()
    table.reserve(9, NodeId(30, 20), 50, INF_TICK)
    with pytest.raises(NoPath, match=r"^no conflict-free route \(10, 20\) -> \(30, 20\) within horizon$"):
        plan_space_time(grid, table, NodeId(10, 20), NodeId(30, 20), 0, 10)
    assert table.probes == 0


def test_commit_with_park_holds_destination_forever():
    grid = build_grid(2.0, 2.0, 0.25)
    table = ReservationTable()
    plan = plan_space_time(grid, table, NodeId(0, 0), NodeId(2, 0), 0, 10)
    commit(table, 0, plan)
    assert not table.is_free(NodeId(2, 0), 10 ** 12, INF_TICK)
