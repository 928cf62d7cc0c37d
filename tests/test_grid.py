"""Virtual-node lattice: construction, indexing, adjacency."""

import pytest
from hypothesis import given, strategies as st

from swarmport.errors import NodeOutOfRange, NonPositiveDimension, SpacingTooLarge
from swarmport.grid import NodeId, Position, build_grid


def test_default_desk_grid_is_9x9():
    grid = build_grid(2.0, 2.0, 0.25)
    assert (grid.nx, grid.ny) == (9, 9)
    assert grid.node_count == 81


def test_non_multiple_spacing_floors_node_count():
    grid = build_grid(2.0, 2.0, 0.3)
    # floor(2.0 / 0.3) + 1 per axis
    assert (grid.nx, grid.ny) == (7, 7)


def test_narrow_strip_still_has_two_columns():
    grid = build_grid(0.25, 2.0, 0.25)
    assert (grid.nx, grid.ny) == (2, 9)


@pytest.mark.parametrize("w,h,s", [(0.0, 2.0, 0.25), (2.0, 0.0, 0.25), (-1.0, 2.0, 0.25), (2.0, 2.0, 0.0)])
def test_non_positive_dimension(w, h, s):
    with pytest.raises(NonPositiveDimension):
        build_grid(w, h, s)


def test_spacing_larger_than_terrain():
    with pytest.raises(SpacingTooLarge):
        build_grid(2.0, 2.0, 2.5)
    with pytest.raises(SpacingTooLarge):
        build_grid(0.1, 2.0, 0.25)


def test_node_positions():
    grid = build_grid(2.0, 2.0, 0.25)
    assert grid.node_to_position(NodeId(0, 0)) == Position(0.0, 0.0)
    assert grid.node_to_position(NodeId(4, 4)) == Position(1.0, 1.0)
    assert grid.node_to_position(NodeId(8, 8)) == Position(2.0, 2.0)


def test_node_out_of_range():
    grid = build_grid(2.0, 2.0, 0.25)
    with pytest.raises(NodeOutOfRange):
        grid.require(NodeId(9, 0))
    with pytest.raises(NodeOutOfRange):
        grid.node_to_position(NodeId(0, -1))


@pytest.mark.parametrize("node", [NodeId(9, 4), NodeId(4, 9), NodeId(-1, 4), NodeId(4, -1)], ids=["E", "N", "W", "S"])
def test_node_to_position_rejects_a_node_beyond_each_edge(node):
    grid = build_grid(2.0, 2.0, 0.25)
    with pytest.raises(NodeOutOfRange, match=rf"^node \({node.ix}, {node.iy}\) outside 9x9 grid$"):
        grid.node_to_position(node)


def test_neighbor_order_east_north_west_south():
    grid = build_grid(2.0, 2.0, 0.25)
    assert grid.adjacency[NodeId(4, 4)] == (
        NodeId(5, 4),
        NodeId(4, 5),
        NodeId(3, 4),
        NodeId(4, 3),
    )


def test_corner_neighbors_trimmed():
    grid = build_grid(2.0, 2.0, 0.25)
    assert grid.adjacency[NodeId(0, 0)] == (NodeId(1, 0), NodeId(0, 1))
    assert grid.adjacency[NodeId(8, 8)] == (NodeId(7, 8), NodeId(8, 7))


def grid_neighbors(grid, node):
    """Unblocked 4-neighbors in East, North, West, South order, worked out
    from offsets, bounds and the blocked set, apart from `GridMap`'s table."""
    out = []
    for dx, dy in ((1, 0), (0, 1), (-1, 0), (0, -1)):
        nb = NodeId(node[0] + dx, node[1] + dy)
        if 0 <= nb.ix < grid.nx and 0 <= nb.iy < grid.ny and nb not in grid.blocked:
            out.append(nb)
    return out


@st.composite
def blocked_grids(draw):
    nx, ny = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    nodes = [NodeId(ix, iy) for ix in range(nx) for iy in range(ny)]
    blocked = draw(st.lists(st.sampled_from(nodes), max_size=len(nodes) // 2, unique=True))
    return build_grid(float(nx - 1), float(ny - 1), 1.0, blocked=blocked), nodes


@given(blocked_grids())
def test_adjacency_matches_offsets_bounds_and_blocks(case):
    grid, nodes = case
    assert grid.adjacency.keys() == set(nodes)
    for node in nodes:  # blocked nodes included
        expected = grid_neighbors(grid, node)
        assert grid.adjacency[node] == tuple(expected)
        assert all(type(nb) is NodeId for nb in grid.adjacency[node])


@pytest.mark.parametrize("node", [NodeId(-1, 0), NodeId(0, -1), NodeId(-1, -1), NodeId(9, 0), NodeId(0, 9)])
def test_neighbors_outside_grid_raise(node):
    grid = build_grid(2.0, 2.0, 0.25)
    with pytest.raises(KeyError):
        grid.adjacency[node]


def test_built_table_leaves_equality_and_hash_alone():
    grid = build_grid(2.0, 2.0, 0.25, blocked=[NodeId(4, 4)])
    twin = build_grid(2.0, 2.0, 0.25, blocked=[NodeId(4, 4)])
    assert grid.adjacency
    assert "adjacency" in vars(grid) and "adjacency" not in vars(twin)
    assert grid == twin and hash(grid) == hash(twin)


def test_blocked_nodes_are_not_neighbors():
    grid = build_grid(2.0, 2.0, 0.25, blocked=[NodeId(5, 4), NodeId(4, 3)])
    assert grid.adjacency[NodeId(4, 4)] == (NodeId(4, 5), NodeId(3, 4))
    assert grid.is_blocked(NodeId(5, 4))
    assert not grid.is_blocked(NodeId(4, 4))
