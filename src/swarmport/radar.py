"""Servo-swept ultrasonic ranger simulation.

A sensor at a fixed origin sweeps the terrain in angular steps, reporting
the nearest disc obstacle along each bearing as an echo distance.  Scans
cluster into target estimates, stream as terse serial lines, and render
to deterministic SVG frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import AngleOutOfRange, IoFailure, NonPositiveSpeed
from .grid import Position


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
        if not 0 < self.step_deg <= 15:
            raise ValueError(f"step_deg must be in (0, 15], got {self.step_deg}")
        if not 0 <= self.beam_halfwidth_deg <= 15:
            raise ValueError(f"beam_halfwidth_deg must be in [0, 15], got {self.beam_halfwidth_deg}")
        if self.max_range_m <= 0:
            raise ValueError("max_range_m must be positive")

    @property
    def sweep_len(self) -> int:
        """Samples in one full sweep: whole steps that fit in 360 degrees."""
        return max(1, int(math.floor(360.0 / self.step_deg + 1e-9)))


@dataclass
class WorldModel:
    obstacles: list[Disc]
    # One slot per obstacle: its geometry from the origin of the last echo,
    # reused while the same disc object is seen from the same origin.
    _geometry: list = field(default_factory=list, init=False, repr=False, compare=False)


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


def _disc_geometry(disc: Disc, origin: Position) -> tuple:
    """What the echo needs of a disc seen from origin, whatever the ray."""
    fx, fy = disc.center.x - origin.x, disc.center.y - origin.y
    bearing = math.degrees(math.atan2(fy, fx))
    return disc, origin, bearing, fx, fy, fx * fx + fy * fy, disc.radius_m * disc.radius_m


def echo_distance(world: WorldModel, cfg: SweepConfig, angle_deg: float) -> float | None:
    """Nearest ray-disc hit within the beam cone, capped at max range.

    The minimum over the cone is reached on the ray aimed closest to a
    disc's bearing, so the beam is evaluated by clamping the query angle
    toward each disc instead of sampling the cone.  Each disc's geometry
    is kept in ``world._geometry`` until the disc or the origin changes,
    and each distinct ray's cos/sin is computed once per call.
    """
    origin = cfg.origin
    half = cfg.beam_halfwidth_deg
    obstacles = world.obstacles
    geometry = world._geometry
    if len(geometry) != len(obstacles):
        geometry[:] = [None] * len(obstacles)
    rays: dict[float, tuple[float, float]] = {}
    best: float | None = None
    for i, disc in enumerate(obstacles):
        if disc.radius_m <= 0:
            continue
        geo = geometry[i]
        if geo is None or geo[0] is not disc or geo[1] is not origin:
            geo = geometry[i] = _disc_geometry(disc, origin)
        _, _, bearing, fx, fy, dist_sq, r_sq = geo
        if dist_sq <= r_sq:
            hit = 0.0  # the origin is inside the disc
        else:
            if half:
                offset = (bearing - angle_deg + 180.0) % 360.0 - 180.0
                beam = angle_deg + max(-half, min(half, offset))
            else:
                # With a zero half-width the clamp gives -half for every offset.
                beam = angle_deg + -half
            ray = rays.get(beam)
            if ray is None:
                a = math.radians(beam)
                ray = rays[beam] = (math.cos(a), math.sin(a))
            b = ray[0] * fx + ray[1] * fy
            discriminant = b * b - (dist_sq - r_sq)
            if discriminant < 0:
                continue
            hit = b - math.sqrt(discriminant)
            if not hit >= 0:
                continue
        if hit <= cfg.max_range_m and (best is None or hit < best):
            best = hit
    return best


def time_of_flight(distance_m: float, speed_of_sound_m_s: float) -> float:
    """Out-and-back travel time of the ping."""
    if speed_of_sound_m_s <= 0:
        raise NonPositiveSpeed(f"speed of sound must be positive, got {speed_of_sound_m_s}")
    return 2.0 * distance_m / speed_of_sound_m_s


def polar_to_cartesian(origin: Position, angle_deg: float, distance_m: float) -> Position:
    """East is 0 degrees, angles grow counter-clockwise."""
    a = math.radians(angle_deg)
    return Position(origin.x + distance_m * math.cos(a), origin.y + distance_m * math.sin(a))


def sweep(world: WorldModel, cfg: SweepConfig, start_deg: float, end_deg: float) -> Scan:
    """Sample every cfg.step_deg from start toward end, inclusive."""
    direction = 1 if end_deg >= start_deg else -1
    count = int(math.floor(abs(end_deg - start_deg) / cfg.step_deg)) + 1
    samples = []
    for i in range(count):
        angle = start_deg + direction * i * cfg.step_deg
        samples.append((angle, echo_distance(world, cfg, angle)))
    return Scan(cfg.origin, samples, direction)


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
    """One serial line: ``<angle_int>,<distance_mm_int>.`` plus newline."""
    if not 0 <= angle_deg < 360:
        raise AngleOutOfRange(f"angle {angle_deg} outside [0, 360)")
    mm = 0 if distance_m is None else int(round(distance_m * 1000.0))
    return f"{int(round(angle_deg))},{mm}.\n"


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
