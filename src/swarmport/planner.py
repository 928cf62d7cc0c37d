"""Route planning over the virtual-node grid.

Four shortest-path algorithms share one canonical tie-break so every
planner returns the same node sequence: among equal-hop routes, prefer
the one whose direction sequence comes first in East, North, West, South
order.  On top of that sit space-time reservations (half-open tick
intervals per node) and a cooperative planner that threads a route
through the reservations of other vehicles, waiting where needed.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, TypeVar

import numpy as np

from .errors import BadInterval, GridTooLarge, NoPath
from .grid import GridMap, NodeId

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

    @property
    def arrival_tick(self) -> int:
        return self.steps[-1].enter_tick + self.ticks_per_hop


def _check_endpoints(grid: GridMap, src: NodeId, dst: NodeId) -> None:
    grid.require(src)
    grid.require(dst)
    if src in grid.blocked or dst in grid.blocked:
        raise NoPath(f"endpoint blocked: {tuple(src)} -> {tuple(dst)}")


def hop_distances(grid: GridMap, root: NodeId, stops: frozenset[NodeId] = frozenset()) -> dict[NodeId, int]:
    """Breadth-first hop counts from ``root`` to every reachable node.

    Nodes in ``stops`` other than ``root`` are reached but not expanded.
    """
    grid.require(root)
    if root in grid.blocked:
        return {}
    dist = {root: 0}
    queue = deque([root])
    while queue:
        cur = queue.popleft()
        d = dist[cur] + 1
        for nb in grid.neighbors(cur):
            if nb not in dist:
                dist[nb] = d
                if nb not in stops:
                    queue.append(nb)
    return dist


def _canonical_walk(grid: GridMap, src: NodeId, dst: NodeId, to_dst: dict[NodeId, int]) -> Path:
    """Walk from src picking the first E,N,W,S neighbor that nears dst."""
    nodes = [src]
    cur = src
    while cur != dst:
        remaining = to_dst[cur]
        for nb in grid.neighbors(cur):
            if to_dst.get(nb, math.inf) == remaining - 1:
                cur = nb
                break
        nodes.append(cur)
    return Path(nodes, len(nodes) - 1)


def dijkstra(grid: GridMap, src: NodeId, dst: NodeId) -> Path:
    """Uniform-cost search; rooted at dst so reconstruction walks forward."""
    _check_endpoints(grid, src, dst)
    dist: dict[NodeId, int] = {}
    heap: list[tuple[int, NodeId]] = [(0, dst)]
    while heap:
        d, cur = heapq.heappop(heap)
        if cur in dist:
            continue
        dist[cur] = d
        if cur == src:
            break
        for nb in grid.neighbors(cur):
            if nb not in dist:
                heapq.heappush(heap, (d + 1, nb))
    if src not in dist:
        raise NoPath(f"no route {tuple(src)} -> {tuple(dst)}")
    return _canonical_walk(grid, src, dst, dist)


def astar(grid: GridMap, src: NodeId, dst: NodeId) -> Path:
    """A* with the Manhattan heuristic (admissible on a unit 4-grid)."""
    _check_endpoints(grid, src, dst)

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
        for nb in grid.neighbors(cur):
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
    edges = []
    for iy in range(grid.ny):
        for ix in range(grid.nx):
            n = NodeId(ix, iy)
            if n in grid.blocked:
                continue
            for nb in grid.neighbors(n):
                edges.append((n, nb))
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
    n = grid.node_count
    if n > 1000:
        raise GridTooLarge(f"{n} nodes exceeds the 1000-node all-pairs guard")
    nodes = [NodeId(ix, iy) for ix in range(grid.nx) for iy in range(grid.ny)]
    index = {node: i for i, node in enumerate(nodes)}
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for node in nodes:
        if node in grid.blocked:
            continue
        i = index[node]
        for nb in grid.neighbors(node):
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
        ends = [end for start, end, vid in holds if vid != vehicle_id and tick_start < end and start < tick_end]
        if ends:
            return max(ends)
        holds.append((tick_start, tick_end, vehicle_id))
        self._held.setdefault(vehicle_id, set()).add(node)
        return None

    def is_free(self, node: NodeId, tick_start: float, tick_end: float) -> bool:
        for start, end, _ in self._holds.get(node, ()):
            if tick_start < end and start < tick_end:
                return False
        return True

    def release_vehicle(self, vehicle_id: int) -> None:
        for node in self._held.pop(vehicle_id, ()):
            kept = [h for h in self._holds[node] if h[2] != vehicle_id]
            if kept:
                self._holds[node] = kept
            else:
                del self._holds[node]

    def holds_of(self, vehicle_id: int) -> list[tuple[NodeId, float, float]]:
        out = []
        for node, holds in self._holds.items():
            for start, end, vid in holds:
                if vid == vehicle_id:
                    out.append((node, start, end))
        out.sort(key=lambda h: (h[1], h[2], h[0]))
        return out

    def snapshot(self) -> dict[NodeId, list[tuple[float, float, int]]]:
        return {node: list(holds) for node, holds in self._holds.items()}


def _earliest_schedule(
    free: Callable[[_S, int], bool],
    moves: Callable[[_S], Iterable[_S]],
    parks: Callable[[int], bool],
    to_dst: Callable[[_S], int],
    src: _S,
    dst: _S,
    max_slots: int,
) -> list[_S] | None:
    """Earliest conflict-free schedule from ``src`` to ``dst`` over abstract states.

    ``free(s, k)`` says state ``s`` is free during slot ``k``, ``moves(s)``
    gives the states one hop from ``s`` in canonical order and ``parks(k)``
    says ``dst`` stays free from slot ``k`` on.  Each slot the search waits
    in place or makes one move.  Returns the state at every slot boundary,
    or None when no schedule arrives within ``max_slots``.  A search that
    starts at ``dst`` must park at once.

    ``to_dst(s)`` must be a lower bound on the moves from ``s`` to ``dst``.
    A forward pass with bound ``B`` keeps a state at slot ``k`` only when
    ``k + to_dst(s) <= B`` (the A* bound of Hart, Nilsson & Raphael 1968);
    a pass that does not arrive is repeated with a larger bound, as in
    Korf's iterative deepening (1985).  Every state of a schedule that
    arrives by slot ``A`` has ``to_dst(s) <= A - k``, so a pass whose bound
    reaches the earliest arrival keeps all of them: the arrival slot, the
    feasible sets and the canonical walk, hence the schedule, are those of
    the unpruned search.
    """
    if src == dst:
        return [src] if parks(0) else None
    # Arriving at slot A needs dst free during slot A - 1 and from A on,
    # that is parks(A - 1); parks is monotone, so bisect its first slot.
    if max_slots < 1 or not parks(max_slots - 1):
        return None
    lo, hi = 0, max_slots - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if parks(mid):
            hi = mid
        else:
            lo = mid + 1
    base = max(to_dst(src), lo + 1)
    if base > max_slots:
        return None
    bound, slack = base, 0
    while True:
        # live[k]: states at slot boundary k that are free during slot k.
        live: list[set[_S]] = []
        arrival_slot = None
        frontier = {src}
        for k in range(bound):
            here = {s for s in frontier if free(s, k)}
            live.append(here)
            budget = bound - k - 1
            frontier = set()
            for s in here:
                if to_dst(s) <= budget:
                    frontier.add(s)
                for m in moves(s):
                    if m not in frontier and to_dst(m) <= budget and free(m, k):
                        frontier.add(m)
            if dst in frontier and parks(k + 1):
                arrival_slot = k + 1
                break
            if not frontier:
                break
        if arrival_slot is not None:
            break
        if bound == max_slots:
            return None
        slack = 4 * slack + 3
        bound = min(base + slack, max_slots)

    # Backward feasibility, then a forward walk preferring moves in
    # canonical order so ties resolve like the plain planners.  Every state
    # kept at a slot boundary was free during the slot before it, so a move
    # into one of them needs no second check.
    feasible: list[set[_S]] = [set() for _ in range(arrival_slot + 1)]
    feasible[arrival_slot] = {dst}
    for k in range(arrival_slot - 1, -1, -1):
        nxt = feasible[k + 1]
        feasible[k] = {s for s in live[k] if s in nxt or any(m in nxt for m in moves(s))}

    boundary = [src]
    cur = src
    for k in range(arrival_slot):
        nxt = feasible[k + 1]
        step = cur
        for m in moves(cur):
            if m in nxt:
                step = m
                break
        if step == cur and cur not in nxt:
            raise NoPath("internal: walk lost feasibility")  # pragma: no cover
        boundary.append(step)
        cur = step
    return boundary


def plan_space_time(
    grid: GridMap,
    table: ReservationTable,
    src: NodeId,
    dst: NodeId,
    start_tick: int,
    ticks_per_hop: int,
) -> TimedPath:
    """Earliest-arrival route through existing reservations.

    Time advances in whole hop windows of ``ticks_per_hop`` ticks.  During
    a move the vehicle claims both edge endpoints for the window, so two
    plans can never occupy nearby poses at the same tick.  The destination
    must stay free after arrival (the vehicle parks there).  Waiting in
    place is allowed; with an empty table the result degenerates to the
    astar route with zero waits.
    """
    _check_endpoints(grid, src, dst)
    h = ticks_per_hop
    if h <= 0:
        raise BadInterval(f"ticks_per_hop must be positive, got {h}")
    t0 = start_tick
    to_dst = hop_distances(grid, dst)
    boundary = None
    if src in to_dst:
        boundary = _earliest_schedule(
            lambda node, k: table.is_free(node, t0 + k * h, t0 + (k + 1) * h),
            grid.neighbors,
            lambda k: table.is_free(dst, t0 + k * h, INF_TICK),
            to_dst.__getitem__,
            src,
            dst,
            10 * (grid.nx - 1 + grid.ny - 1),
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
        lambda i, k: table.is_free(sequence[i], t0 + k * h, t0 + (k + 1) * h),
        successors.__getitem__,
        lambda k: table.is_free(sequence[last], t0 + k * h, INF_TICK),
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
