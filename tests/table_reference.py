"""Reservation-table reads for the tests, taken from the table's hold
lists apart from its own queries."""


def holds_by_node(table):
    """Each node's holds ``(tick_start, tick_end, vehicle_id)``, copied."""
    return {node: list(holds) for node, holds in table._holds.items()}


def is_free(table, node, tick_start, tick_end):
    """No hold on ``node`` overlaps ``[tick_start, tick_end)``."""
    return not any(tick_start < end and start < tick_end for start, end, _ in table._holds.get(node, ()))
