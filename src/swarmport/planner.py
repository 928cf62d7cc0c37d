"""Route planning over the virtual-node grid.

Four shortest-path algorithms share one canonical tie-break so every
planner returns the same node sequence: among equal-hop routes, prefer
the one whose direction sequence comes first in East, North, West, South
order.  On top of that sit space-time reservations (half-open tick
intervals per node) and a cooperative planner that threads a route
through the reservations of other vehicles, waiting where needed: a
search over each node's free intervals of hop slots.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, TypeVar

from .errors import BadInterval, GridTooLarge, NoPath
from .grid import GridMap, NodeId

if TYPE_CHECKING:
    import numpy as np

INF_TICK = math.inf

_S = TypeVar("_S")


@dataclass
class Path:
    """Spatial route: consecutive nodes are grid neighbors, cost = hops."""

    nodes: list[NodeId]
    cost: int


class TimedStep(NamedTuple):
    node: NodeId
    enter_tick: int
    exit_tick: int


@dataclass
class TimedPath:
    """Route with tick windows.

    ``enter_tick`` is when the vehicle starts claiming the node (the move
    toward it begins), ``exit_tick`` when its departure move begins.  A
    stay longer than one hop window means the plan waits at that node.
    """

    steps: list[TimedStep]
    ticks_per_hop: int

    @property
    def route(self) -> list[NodeId]:
        return [s.node for s in self.steps]


def check_endpoints(grid: GridMap, src: NodeId, dst: NodeId) -> None:
    grid.require(src)
    grid.require(dst)
    if src in grid.blocked or dst in grid.blocked:
        raise NoPath(f"endpoint blocked: {tuple(src)} -> {tuple(dst)}")


def hop_distances(grid: GridMap, root: NodeId, stops: frozenset[NodeId] = frozenset()) -> dict[NodeId, int]:
    """Breadth-first hop counts from ``root`` to every reachable node.

    Nodes in ``stops`` other than ``root`` are reached but not expanded.
    Each table is built once per grid and kept in ``grid.hop_tables``, so
    every caller shares it and must not change it.
    """
    dist = grid.hop_tables.get((root, stops))
    if dist is not None:
        return dist
    grid.require(root)
    dist = grid.hop_tables[root, stops] = {}
    if root in grid.blocked:
        return dist
    adjacency = grid.adjacency
    dist[root] = 0
    frontier = [root]
    d = 0
    while frontier:
        d += 1
        reached = []
        for cur in frontier:
            for nb in adjacency[cur]:
                if nb not in dist:
                    dist[nb] = d
                    if nb not in stops:
                        reached.append(nb)
        frontier = reached
    return dist


def _expand_stop(
    grid: GridMap, hops: dict[NodeId, int], stops: frozenset[NodeId], node: NodeId
) -> dict[NodeId, float]:
    """``hops``, the `hop_distances` from some root with ``stops``, as they
    read with ``node`` expanded too.

    Returns a copy; when ``node`` is a reached stop, a breadth-first pass
    from it lowers every distance that a route through it shortens.  A
    node whose distance stays was expanded already, unless it is a stop.
    """
    dist: dict[NodeId, float] = dict(hops)
    if node not in stops or node not in dist:
        return dist
    adjacency = grid.adjacency
    frontier = [node]
    d = dist[node]
    while frontier:
        d += 1
        lowered = []
        for cur in frontier:
            for nb in adjacency[cur]:
                if d < dist.get(nb, INF_TICK):
                    dist[nb] = d
                    if nb not in stops:
                        lowered.append(nb)
        frontier = lowered
    return dist


def _canonical_walk(grid: GridMap, src: NodeId, dst: NodeId, to_dst: dict[NodeId, int]) -> Path:
    """Walk from src picking the first E,N,W,S neighbor that nears dst."""
    nodes = [src]
    cur = src
    while cur != dst:
        remaining = to_dst[cur]
        for nb in grid.adjacency[cur]:
            if to_dst.get(nb, math.inf) == remaining - 1:
                cur = nb
                break
        nodes.append(cur)
    return Path(nodes, len(nodes) - 1)


def dijkstra(grid: GridMap, src: NodeId, dst: NodeId) -> Path:
    """Uniform-cost search; rooted at dst so reconstruction walks forward."""
    check_endpoints(grid, src, dst)
    dist: dict[NodeId, int] = {}
    heap: list[tuple[int, NodeId]] = [(0, dst)]
    while heap:
        d, cur = heapq.heappop(heap)
        if cur in dist:
            continue
        dist[cur] = d
        if cur == src:
            break
        for nb in grid.adjacency[cur]:
            if nb not in dist:
                heapq.heappush(heap, (d + 1, nb))
    if src not in dist:
        raise NoPath(f"no route {tuple(src)} -> {tuple(dst)}")
    return _canonical_walk(grid, src, dst, dist)


def astar(grid: GridMap, src: NodeId, dst: NodeId) -> Path:
    """A* with the Manhattan heuristic (admissible on a unit 4-grid)."""
    check_endpoints(grid, src, dst)

    def h(n: NodeId) -> int:
        return abs(n[0] - dst[0]) + abs(n[1] - dst[1])

    best: dict[NodeId, int] = {src: 0}
    closed: set[NodeId] = set()
    heap: list[tuple[int, int, NodeId]] = [(h(src), 0, src)]
    cost = None
    while heap:
        f, g, cur = heapq.heappop(heap)
        if cur in closed:
            continue
        closed.add(cur)
        if cur == dst:
            cost = g
            break
        for nb in grid.adjacency[cur]:
            ng = g + 1
            if ng < best.get(nb, math.inf):
                best[nb] = ng
                heapq.heappush(heap, (ng + h(nb), ng, nb))
    if cost is None:
        raise NoPath(f"no route {tuple(src)} -> {tuple(dst)}")
    path = _canonical_walk(grid, src, dst, hop_distances(grid, dst))
    return Path(path.nodes, cost)


def bellman_ford(grid: GridMap, src: NodeId) -> dict[NodeId, int]:
    """Single-source hop counts by edge relaxation; unreachable nodes absent."""
    grid.require(src)
    if src in grid.blocked:
        return {}
    edges = [(n, nb) for n, nbs in grid.adjacency.items() if n not in grid.blocked for nb in nbs]
    dist = {src: 0}
    for _ in range(grid.node_count - 1):
        changed = False
        for a, b in edges:
            da = dist.get(a)
            if da is not None and da + 1 < dist.get(b, math.inf):
                dist[b] = da + 1
                changed = True
        if not changed:
            break
    return dist


@dataclass
class AllPairsCosts:
    """Dense hop-count matrix over every node, inf where unreachable."""

    nodes: list[NodeId]
    index: dict[NodeId, int]
    matrix: np.ndarray

    def cost(self, a: NodeId, b: NodeId) -> float:
        return float(self.matrix[self.index[a], self.index[b]])


def floyd_warshall(grid: GridMap) -> AllPairsCosts:
    """All-pairs hop counts; guarded to small grids (cubic in nodes)."""
    import numpy as np  # here, so that importing swarmport does not load numpy

    n = grid.node_count
    if n > 1000:
        raise GridTooLarge(f"{n} nodes exceeds the 1000-node all-pairs guard")
    nodes = list(grid.adjacency)
    index = {node: i for i, node in enumerate(nodes)}
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for node, nbs in grid.adjacency.items():
        if node in grid.blocked:
            continue
        i = index[node]
        for nb in nbs:
            d[i, index[nb]] = 1.0
    for k in range(n):
        np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :], out=d)
    return AllPairsCosts(nodes, index, d)


class ReservationTable:
    """Half-open [tick_start, tick_end) holds of grid nodes per vehicle.

    Intervals of distinct vehicles never overlap on a node; a vehicle may
    freely stack or extend its own holds.  A hold stays until its vehicle's
    holds are released: every query starts at or after the current tick,
    where a hold that has ended answers nothing.
    """

    def __init__(self) -> None:
        self._holds: dict[NodeId, list[tuple[float, float, int]]] = {}
        # The nodes on which each vehicle holds something.
        self._held: dict[int, set[NodeId]] = {}

    def reserve(self, vehicle_id: int, node: NodeId, tick_start: float, tick_end: float) -> float | None:
        """Add a hold and return None, or leave the table untouched and
        return the latest end among other vehicles' overlapping holds.

        Until that tick, and until the next `release_vehicle`, reserving any
        ``[t, tick_end)`` with ``t`` before it is refused: new holds only add
        conflicts.
        """
        if not tick_start < tick_end:
            raise BadInterval(f"empty interval [{tick_start}, {tick_end})")
        holds = self._holds.setdefault(node, [])
        latest = None
        for start, end, vid in holds:
            if vid != vehicle_id and tick_start < end and start < tick_end and (latest is None or end > latest):
                latest = end
        if latest is not None:
            return latest
        holds.append((tick_start, tick_end, vehicle_id))
        self._held.setdefault(vehicle_id, set()).add(node)
        return None

    def free_runs(self, node: NodeId, t0: int, h: int) -> list[tuple[int, float]]:
        """The maximal runs ``[a, b)`` of slots free on ``node``, in order.

        Slot ``k`` is the ticks ``[t0 + k*h, t0 + (k+1)*h)``; the last run
        ends at INF_TICK unless a hold never ends.
        """
        holds = self._holds.get(node)
        if not holds:
            return [(0, INF_TICK)]
        spans = []
        for start, end, _ in holds:
            # The slots from the one holding ``start`` to the last before ``end``.
            stop = end if end == INF_TICK else -((t0 - end) // h)
            if stop > 0:
                spans.append((max(0, (start - t0) // h), stop))
        spans.sort()
        out: list[tuple[int, float]] = []
        a = 0
        for lo, stop in spans:
            if lo > a:
                out.append((a, lo))
            if stop > a:
                a = stop
        if a != INF_TICK:
            out.append((a, INF_TICK))
        return out

    def release_vehicle(self, vehicle_id: int) -> None:
        for node in self._held.pop(vehicle_id, ()):
            kept = [h for h in self._holds[node] if h[2] != vehicle_id]
            if kept:
                self._holds[node] = kept
            else:
                del self._holds[node]


def _earliest_schedule(
    runs: Callable[[_S], list[tuple[int, float]]],
    moves: Callable[[_S], Iterable[_S]],
    to_dst: Callable[[_S], float],
    src: _S,
    dst: _S,
    max_slots: int,
) -> list[_S] | None:
    """Earliest conflict-free schedule from ``src`` to ``dst`` over abstract states.

    ``runs(s)`` gives the maximal runs ``[a, b)`` of slots during which
    state ``s`` is free, in order (``b`` is INF_TICK for a run that never
    ends), ``moves(s)`` gives the states one hop from ``s`` in canonical
    order and ``to_dst(s)`` a consistent lower bound on the moves from
    ``s`` to ``dst``.  Each slot the search waits in place or makes one
    move, and both states of a move must be free during its slot.  Returns
    the state at every slot boundary, arriving in ``dst``'s open-ended run
    (the vehicle parks there), or None when no schedule arrives within
    ``max_slots``.  A search that starts at ``dst`` must park at once.

    The earliest arrival comes from an A* search (Hart, Nilsson & Raphael
    1968) over safe intervals (SIPP: Phillips & Likhachev 2011): a state
    reached inside one of its free runs stays reachable, by waiting, to the
    run's end, so the search keeps the earliest arrival per (state, run).
    It stops at the first pop of ``dst``'s open-ended run; f ties go to the
    later arrival.  The schedule is then the greedy walk that takes, at
    each slot, the first move in canonical order, else the wait, from which
    ``dst`` can still be reached at that arrival: a depth-first search
    bounded by the arrival, which memoizes the dead (state, slot) pairs.
    """
    known: dict[_S, list[tuple[int, float]]] = {}

    def free_runs(s: _S) -> list[tuple[int, float]]:
        found = known.get(s)
        if found is None:
            found = known[s] = runs(s)
        return found

    first = free_runs(src)
    if src == dst:
        return [src] if first and first[0] == (0, INF_TICK) else None
    # Parking needs dst's open-ended run [p, INF) from the slot of the
    # arriving move on: the arrival is past p, and past src's bound.
    parked = free_runs(dst)
    if not first or first[0][0] > 0 or not parked or parked[-1][1] != INF_TICK:
        return None
    if max(parked[-1][0] + 1, to_dst(src)) > max_slots:
        return None

    # (f, -arrival, state, run start, run end); the arrival is a slot
    # boundary.  The bound is consistent, so the first pop of a (state,
    # run) holds its earliest arrival, and a later pop is stale.
    heap: list[tuple[float, int, _S, int, float]] = [(to_dst(src), 0, src, 0, first[0][1])]
    best = {(src, 0): 0}
    arrival = None
    while heap:
        _, neg_g, s, a, b = heapq.heappop(heap)
        g = -neg_g
        if best[s, a] < g:
            continue
        if s == dst and b == INF_TICK:
            arrival = g
            break
        for m in moves(s):
            hm = to_dst(m)
            if g + 1 + hm > max_slots:
                continue
            for a2, b2 in free_runs(m):
                # Leave during slot k, free on both states, and arrive at k + 1.
                k = g if g > a2 else a2
                if k >= b or k + 1 + hm > max_slots:
                    break
                if k + 1 < b2 and k + 1 < best.get((m, a2), INF_TICK):
                    best[m, a2] = k + 1
                    heapq.heappush(heap, (k + 1 + hm, -k - 1, m, a2, b2))
    if arrival is None:
        return None

    def free(s: _S, k: int) -> bool:
        for a, b in free_runs(s):
            if k < b:
                return a <= k
        return False

    def steps(s: _S, k: int) -> Iterator[_S]:
        budget = arrival - k - 1
        for m in (*moves(s), s):
            if to_dst(m) <= budget and free(m, k):
                yield m

    # The state at each boundary k < arrival is free during slot k.
    boundary = [src]
    tries = [steps(src, 0)]
    dead: set[tuple[_S, int]] = set()
    while len(boundary) <= arrival:
        k = len(boundary) - 1
        for m in tries[-1]:
            if (m, k + 1) not in dead and (k + 1 == arrival or free(m, k + 1)):
                boundary.append(m)
                tries.append(steps(m, k + 1))
                break
        else:
            dead.add((boundary.pop(), k))
            tries.pop()
            if not boundary:
                raise NoPath("internal: no schedule at the arrival")  # pragma: no cover
    return boundary


def plan_horizon(grid: GridMap) -> int:
    """The hop windows a plan on ``grid`` may take: ten times the hops
    corner to corner."""
    return 10 * (grid.nx - 1 + grid.ny - 1)


def plan_space_time(
    grid: GridMap,
    table: ReservationTable,
    src: NodeId,
    dst: NodeId,
    start_tick: int,
    ticks_per_hop: int,
    stops: frozenset[NodeId] = frozenset(),
) -> TimedPath:
    """Earliest-arrival route through existing reservations.

    Time advances in whole hop windows of ``ticks_per_hop`` ticks.  During
    a move the vehicle claims both edge endpoints for the window, so two
    plans can never occupy nearby poses at the same tick.  The destination
    must stay free after arrival (the vehicle parks there).  Waiting in
    place is allowed; with an empty table the result degenerates to the
    astar route with zero waits.

    Nodes in ``stops`` other than ``src`` and ``dst`` are impassable: the
    bound is `hop_distances(grid, dst, stops)`, which reaches them without
    expanding them, with ``src`` expanded by `_expand_stop`, and infinite
    on them, so the search never enters one.  The grid keeps that table
    for every leg to ``dst``.  A schedule takes at most `plan_horizon` hop
    windows.
    """
    check_endpoints(grid, src, dst)
    h = ticks_per_hop
    if h <= 0:
        raise BadInterval(f"ticks_per_hop must be positive, got {h}")
    t0 = start_tick
    to_dst = _expand_stop(grid, hop_distances(grid, dst, stops), stops, src)
    to_dst.update(dict.fromkeys(stops - {src, dst}, INF_TICK))
    boundary = None
    if src in to_dst:
        boundary = _earliest_schedule(
            lambda node: table.free_runs(node, t0, h),
            grid.adjacency.__getitem__,
            to_dst.__getitem__,
            src,
            dst,
            plan_horizon(grid),
        )
    if boundary is None:
        raise NoPath(f"no conflict-free route {tuple(src)} -> {tuple(dst)} within horizon")
    return TimedPath(_collapse(boundary, t0, h), h)


def schedule_along(
    table: ReservationTable,
    sequence: list[NodeId],
    start_tick: int,
    ticks_per_hop: int,
    max_slots: int,
) -> TimedPath:
    """Time a fixed node sequence through the table, waiting where needed.

    The search runs over sequence indices, so a trail that crosses itself
    still moves only forward along it.
    """
    if not sequence:
        raise NoPath("empty sequence")
    h = ticks_per_hop
    t0 = start_tick
    last = len(sequence) - 1
    successors = [(i + 1,) for i in range(last)] + [()]
    boundary = _earliest_schedule(
        lambda i: table.free_runs(sequence[i], t0, h),
        successors.__getitem__,
        lambda i: last - i,
        0,
        last,
        max_slots,
    )
    if boundary is None:
        raise NoPath("no conflict-free schedule along sequence within horizon")
    return TimedPath(_collapse([sequence[i] for i in boundary], t0, h), h)


def _collapse(boundary: list[NodeId], t0: int, h: int) -> list[TimedStep]:
    """Boundary occupancy per slot edge -> visit steps with tick windows."""
    steps: list[TimedStep] = []
    i = 0
    while i < len(boundary):
        j = i
        while j + 1 < len(boundary) and boundary[j + 1] == boundary[i]:
            j += 1
        enter = t0 if i == 0 else t0 + (i - 1) * h
        if j + 1 < len(boundary):
            exit_ = t0 + j * h
        else:
            exit_ = t0 + j * h + h
        steps.append(TimedStep(boundary[i], enter, exit_))
        i = j + 1
    return steps


def commit(table: ReservationTable, vehicle_id: int, plan: TimedPath) -> None:
    """Reserve every hold a plan implies; the final node parks open-ended."""
    h = plan.ticks_per_hop
    last = len(plan.steps) - 1
    for i, step in enumerate(plan.steps):
        end = INF_TICK if i == last else step.exit_tick + h
        until = table.reserve(vehicle_id, step.node, step.enter_tick, end)
        if until is not None:  # pragma: no cover - plans are conflict-free
            raise BadInterval(f"plan collides with a hold on {tuple(step.node)} until tick {until}")
