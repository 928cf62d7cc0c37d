"""Virtual-node grid laid over a rectangular terrain.

Nodes form a lattice with one node every ``spacing_m`` meters, node (0, 0)
at the terrain origin, ix growing east and iy growing north.  Vehicles
travel node to node along the four axis directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .errors import NodeOutOfRange, NonPositiveDimension, SpacingTooLarge


class NodeId(NamedTuple):
    ix: int
    iy: int


class Position(NamedTuple):
    x: float
    y: float


# Canonical neighbor order: East, North, West, South.
NEIGHBOR_OFFSETS = ((1, 0), (0, 1), (-1, 0), (0, -1))


@dataclass(frozen=True)
class GridMap:
    """Immutable grid description; blocked nodes are impassable."""

    width_m: float
    height_m: float
    spacing_m: float
    nx: int
    ny: int
    blocked: frozenset[NodeId] = field(default_factory=frozenset)

    @property
    def node_count(self) -> int:
        return self.nx * self.ny

    def contains(self, node: NodeId) -> bool:
        return 0 <= node[0] < self.nx and 0 <= node[1] < self.ny

    def require(self, node: NodeId) -> None:
        if not self.contains(node):
            raise NodeOutOfRange(f"node {tuple(node)} outside {self.nx}x{self.ny} grid")

    def is_blocked(self, node: NodeId) -> bool:
        self.require(node)
        return node in self.blocked

    @cached_property
    def adjacency(self) -> dict[NodeId, tuple[NodeId, ...]]:
        """Every node, blocked or not, mapped to its unblocked 4-neighbors in
        East, North, West, South order.

        Built on first use and kept on the instance, so every search over
        this grid reads one table; equality and hashing still cover the
        fields only.
        """
        nx, ny = self.nx, self.ny
        nodes = {(ix, iy): NodeId(ix, iy) for ix in range(nx) for iy in range(ny)}
        open_nodes = {key: node for key, node in nodes.items() if node not in self.blocked}
        return {
            node: tuple(
                nb
                for nb in (open_nodes.get((ix + dx, iy + dy)) for dx, dy in NEIGHBOR_OFFSETS)
                if nb is not None
            )
            for (ix, iy), node in nodes.items()
        }

    @cached_property
    def hop_tables(self) -> dict[tuple[NodeId, frozenset[NodeId]], dict[NodeId, int]]:
        """The `planner.hop_distances` tables of this grid by (root, stops), kept like ``adjacency``."""
        return {}

    def node_to_position(self, node: NodeId) -> Position:
        self.require(node)
        return Position(node[0] * self.spacing_m, node[1] * self.spacing_m)


def build_grid(
    width_m: float,
    height_m: float,
    spacing_m: float,
    blocked: tuple[tuple[int, int], ...] | frozenset[NodeId] | list = (),
) -> GridMap:
    """Construct a GridMap; node counts are floor(extent / spacing) + 1."""
    if width_m <= 0 or height_m <= 0 or spacing_m <= 0:
        raise NonPositiveDimension(
            f"dimensions must be positive, got {width_m} x {height_m} @ {spacing_m}"
        )
    if spacing_m > min(width_m, height_m):
        raise SpacingTooLarge(f"spacing {spacing_m} exceeds terrain extent")
    nx = int(math.floor(width_m / spacing_m)) + 1
    ny = int(math.floor(height_m / spacing_m)) + 1
    grid = GridMap(width_m, height_m, spacing_m, nx, ny, frozenset(NodeId(*b) for b in blocked))
    for b in grid.blocked:
        grid.require(b)
    return grid
