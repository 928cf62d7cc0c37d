"""Servo-swept ultrasonic ranger simulation.

A sensor at a fixed origin sweeps the terrain in angular steps, reporting
the nearest disc obstacle along each bearing as an echo distance.  Scans
cluster into target estimates, stream as terse serial lines, and render
to deterministic SVG frames.  Every echo is read through a `HopIndex`,
which tests at each sweep index only the bodies whose segment the beam
can reach: the engine's moving vehicles on their current hops, and in
`sweep` still discs, each placed at its centre.  What a sweep index fixes
(its angle and its ray's direction cosines) is worked out once per
`SweepConfig` in its `sweep_table`, with the index the servo reads at
each tick of an up-and-back pair of sweeps and that tick's line and
sample with no echo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable, NamedTuple, Sequence

from .errors import AngleOutOfRange, IoFailure
from .grid import Position

# Slack on each side of a body's reach in `HopIndex`, for the rounding in
# `HopIndex.echo`: a ray that misses a disc's edge or the range limit by a few
# ulps can still read as a hit.  The ray's cos/sin bound that excess near
# 1e-5 degrees; the grazing-ray test in tests/test_radar.py fails with
# either margin at 0 and has passed with the angle's down to 1e-8.
REACH_MARGIN_DEG = 1e-4
REACH_MARGIN_M = 1e-9


class Disc(NamedTuple):
    center: Position
    radius_m: float


@dataclass(frozen=True)
class SweepConfig:
    origin: Position = Position(1.0, 1.0)
    step_deg: float = 1.0
    beam_halfwidth_deg: float = 0.0
    max_range_m: float = 4.0

    def __post_init__(self) -> None:
        # The floor bounds the per-index tables an engine builds: 36,000
        # indices take about 14.5 MB.
        if not 0.01 <= self.step_deg <= 15:
            raise ValueError(f"step_deg must be in [0.01, 15], got {self.step_deg}")
        if not 0 <= self.beam_halfwidth_deg <= 15:
            raise ValueError(f"beam_halfwidth_deg must be in [0, 15], got {self.beam_halfwidth_deg}")
        if self.max_range_m <= 0:
            raise ValueError("max_range_m must be positive")

    @property
    def sweep_len(self) -> int:
        """Samples in one full sweep: whole steps that fit in 360 degrees."""
        return max(1, int(math.floor(360.0 / self.step_deg + 1e-9)))


@dataclass
class Scan:
    origin: Position
    samples: list[tuple[float, float | None]]
    direction: int


@dataclass
class TargetEstimate:
    centroid: Position
    angle_deg: float
    distance_m: float
    sample_count: int


class SweepTable(NamedTuple):
    """Per sweep index k: its angle ``k * step_deg`` and the (cos, sin) of
    its ray, the beam when the half-width is 0.  Per tick t of one
    up-and-back pair of sweeps: the index ``order[t]`` the servo reads, up
    from 0 and back down, so each end index is read twice in a row; the
    line and the ``(angle, None)`` sample of that step when it returns no
    echo."""

    angles: tuple[float, ...]
    rays: tuple[tuple[float, float], ...]
    order: tuple[int, ...]
    quiet_lines: tuple[str, ...]
    quiet_samples: tuple[tuple[float, None], ...]


@cache
def sweep_table(cfg: SweepConfig) -> SweepTable:
    """The sweep indices' table, built once per sensor configuration."""
    angles = tuple(k * cfg.step_deg for k in range(cfg.sweep_len))
    rays = tuple((math.cos(math.radians(a)), math.sin(math.radians(a))) for a in angles)
    # Each tick-order column is its per-index column, up and then back
    # down, so both halves share the same objects.
    up = tuple(range(cfg.sweep_len))
    lines = tuple(encode_frame(a, None) for a in angles)
    samples = tuple((a, None) for a in angles)
    return SweepTable(angles, rays, up + up[::-1], lines + lines[::-1], samples + samples[::-1])


def _index_spans(lo_deg: float, width_deg: float, step_deg: float, n: int) -> tuple[tuple[int, int], ...]:
    """The sweep indices ``k < n`` whose angle ``k * step_deg`` lies on the arc
    from ``lo_deg`` through ``width_deg``, as half-open index ranges."""
    if width_deg >= 360.0:
        return ((0, n),)
    lo = lo_deg % 360.0
    hi = lo + width_deg
    first = math.ceil(lo / step_deg)
    last = min(n, math.floor(hi / step_deg) + 1)
    if hi < 360.0:
        return ((first, last),) if first < last else ()
    wrapped = min(n, math.floor((hi - 360.0) / step_deg) + 1)
    if wrapped >= first:
        return ((0, n),)
    return ((0, wrapped),) + (((first, last),) if first < last else ())


class HopIndex:
    """For each sweep index, the bodies whose echo its beam can return.

    Body i lies on a segment from the last `place` until the next one (a
    vehicle on its hop: the node it is at, or the edge it drives).
    ``masks[k]`` has bit i set when the beam at sweep index k can meet body
    i's disc anywhere on that segment: the arc between the bearings of the
    segment's ends, widened on each side by the disc's angular radius seen
    from the segment's nearest point, the beam half-width and
    REACH_MARGIN_DEG.  A segment whose disc can cover the origin sets every
    index; one whose disc stays beyond max range, or has no positive
    radius, sets none.

    `echo` evaluates the echo formula only for the bodies the index's mask
    names, each where its ``position`` reads it then, so it returns the
    nearest hit over every body's disc.
    """

    def __init__(self, cfg: SweepConfig, radii: Sequence[float]) -> None:
        self.cfg = cfg
        self.radii = radii
        self.masks = [0] * cfg.sweep_len
        self._table = sweep_table(cfg)
        self._spans: list[tuple[tuple[int, int], ...]] = [()] * len(radii)

    def place(self, i: int, a: tuple[float, float], b: tuple[float, float]) -> None:
        """Body i stays on the segment from ``a`` to ``b`` (a `Position` or
        an (x, y) pair each) until placed again."""
        spans = self._reach(a, b, self.radii[i])
        masks = self.masks
        keep = ~(1 << i)
        for lo, hi in self._spans[i]:
            masks[lo:hi] = [m & keep for m in masks[lo:hi]]
        bit = 1 << i
        for lo, hi in spans:
            masks[lo:hi] = [m | bit for m in masks[lo:hi]]
        self._spans[i] = spans

    def _reach(self, a: tuple[float, float], b: tuple[float, float], radius_m: float) -> tuple[tuple[int, int], ...]:
        n = len(self.masks)
        cfg = self.cfg
        ox, oy = cfg.origin
        ax, ay = a[0] - ox, a[1] - oy
        bx, by = b[0] - ox, b[1] - oy
        dx, dy = bx - ax, by - ay
        length_sq = dx * dx + dy * dy
        t = 0.0 if length_sq == 0 else max(0.0, min(1.0, -(ax * dx + ay * dy) / length_sq))
        nearest = math.hypot(ax + t * dx, ay + t * dy)
        if radius_m <= 0 or nearest - radius_m > cfg.max_range_m + REACH_MARGIN_M:
            return ()
        if nearest <= radius_m + REACH_MARGIN_M:
            return ((0, n),)
        start = math.degrees(math.atan2(ay, ax))
        turn = (math.degrees(math.atan2(by, bx)) - start + 180.0) % 360.0 - 180.0
        widen = math.degrees(math.asin(radius_m / nearest)) + cfg.beam_halfwidth_deg + REACH_MARGIN_DEG
        return _index_spans(start + min(0.0, turn) - widen, abs(turn) + 2.0 * widen, cfg.step_deg, n)

    def echo(self, k: int, position: Callable[[int], tuple[float, float]]) -> float | None:
        """The nearest echo at sweep index ``k`` over the bodies its mask
        names, with body i at ``position(i)``; None when none is hit.

        The minimum over the beam's cone is reached on the ray aimed closest
        to the body's bearing, so the beam is the index's angle clamped
        toward that bearing, with a zero half-width the index's own ray from
        the sweep table.  A hit beyond max range is no echo; a disc over
        the origin echoes 0.
        """
        mask = self.masks[k]
        cfg = self.cfg
        ox, oy = cfg.origin
        half = cfg.beam_halfwidth_deg
        angle = self._table.angles[k]
        ray = self._table.rays[k]
        best: float | None = None
        while mask:
            low = mask & -mask
            mask ^= low
            i = low.bit_length() - 1
            x, y = position(i)
            fx, fy = x - ox, y - oy
            dist_sq = fx * fx + fy * fy
            r_sq = self.radii[i] * self.radii[i]
            if dist_sq <= r_sq:
                hit = 0.0  # the origin is inside the disc
            else:
                if half:
                    offset = (math.degrees(math.atan2(fy, fx)) - angle + 180.0) % 360.0 - 180.0
                    a = math.radians(angle + max(-half, min(half, offset)))
                    cos, sin = math.cos(a), math.sin(a)
                else:
                    cos, sin = ray
                b = cos * fx + sin * fy
                discriminant = b * b - (dist_sq - r_sq)
                if discriminant < 0:
                    continue
                hit = b - math.sqrt(discriminant)
                if not hit >= 0:
                    continue
            if hit <= cfg.max_range_m and (best is None or hit < best):
                best = hit
        return best


def polar_to_cartesian(origin: Position, angle_deg: float, distance_m: float) -> Position:
    """East is 0 degrees, angles grow counter-clockwise."""
    a = math.radians(angle_deg)
    return Position(origin.x + distance_m * math.cos(a), origin.y + distance_m * math.sin(a))


def sweep(cfg: SweepConfig, discs: Sequence[Disc]) -> Scan:
    """One full sweep of still ``discs``: at each sweep index k from 0 to
    ``sweep_len - 1``, the nearest echo at angle ``k * step_deg``."""
    centres = [disc.center for disc in discs]
    index = HopIndex(cfg, [disc.radius_m for disc in discs])
    for i, centre in enumerate(centres):
        index.place(i, centre, centre)
    angles = sweep_table(cfg).angles
    samples = [(angle, index.echo(k, centres.__getitem__)) for k, angle in enumerate(angles)]
    return Scan(cfg.origin, samples, 1)


def detect_targets(scan: Scan, cfg: SweepConfig) -> list[TargetEstimate]:
    """Cluster consecutive echoes of similar range into target estimates.

    A run breaks on a NONE sample or on a range jump of 0.1 m or more
    between adjacent samples — the surface of one object drifts smoothly
    with angle, while a step to another object at a different depth
    jumps.  Each run's centroid is the mean of its Cartesian echo points.
    """
    targets: list[TargetEstimate] = []
    run: list[tuple[float, float]] = []

    def close_run() -> None:
        if not run:
            return
        xs = [polar_to_cartesian(scan.origin, a, d) for a, d in run]
        cx = sum(p.x for p in xs) / len(xs)
        cy = sum(p.y for p in xs) / len(xs)
        dx, dy = cx - scan.origin.x, cy - scan.origin.y
        angle = math.degrees(math.atan2(dy, dx)) % 360.0
        targets.append(TargetEstimate(Position(cx, cy), angle, math.hypot(dx, dy), len(run)))

    for angle, dist in scan.samples:
        if dist is None:
            close_run()
            run = []
            continue
        if run and abs(dist - run[-1][1]) >= 0.1:
            close_run()
            run = []
        run.append((angle, dist))
    close_run()
    targets.sort(key=lambda t: t.angle_deg)
    return targets


def encode_frame(angle_deg: float, distance_m: float | None) -> str:
    """One serial line: ``<angle_int>,<distance_mm_int>.`` plus newline,
    the angle rounded to a whole degree in [0, 360)."""
    if not 0 <= angle_deg < 360:
        raise AngleOutOfRange(f"angle {angle_deg} outside [0, 360)")
    mm = 0 if distance_m is None else int(round(distance_m * 1000.0))
    return f"{int(round(angle_deg)) % 360},{mm}.\n"


def render_frame(scan: Scan, world_bounds: tuple[float, float], out_path) -> None:
    """Write a deterministic SVG: terrain box, last sweep ray, echo points."""
    width, height = world_bounds
    scale = 200.0

    def sx(x: float) -> str:
        return f"{x * scale:.2f}"

    def sy(y: float) -> str:
        return f"{(height - y) * scale:.2f}"

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{sx(width)}" height="{sy(0.0)}" '
        f'viewBox="0 0 {sx(width)} {sy(0.0)}">',
        f'<rect x="0" y="0" width="{sx(width)}" height="{sy(0.0)}" fill="black" stroke="green"/>',
    ]
    if scan.samples:
        last_angle, last_dist = scan.samples[-1]
        ray_len = last_dist if last_dist is not None else max(width, height)
        tip = polar_to_cartesian(scan.origin, last_angle, ray_len)
        lines.append(
            f'<line x1="{sx(scan.origin.x)}" y1="{sy(scan.origin.y)}" '
            f'x2="{sx(tip.x)}" y2="{sy(tip.y)}" stroke="green" stroke-width="1"/>'
        )
    for angle, dist in scan.samples:
        if dist is None:
            continue
        p = polar_to_cartesian(scan.origin, angle, dist)
        lines.append(f'<circle cx="{sx(p.x)}" cy="{sy(p.y)}" r="3" fill="red"/>')
    lines.append("</svg>\n")
    try:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines))
    except OSError as exc:
        raise IoFailure(f"cannot write frame to {out_path}: {exc}") from exc
