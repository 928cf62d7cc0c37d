"""An echo oracle for the radar tests, independent of `swarmport.radar`."""

import math


def reference_echo_distance(discs, cfg, angle_deg):
    """The nearest echo of ``discs`` at ``angle_deg``, with the echo formula
    written out afresh per disc and call: the oracle for `radar.sweep`,
    `HopIndex.echo` and the engine's radar phase."""
    best = None
    for disc in discs:
        if disc.radius_m <= 0:
            continue
        bearing = math.degrees(math.atan2(disc.center.y - cfg.origin.y, disc.center.x - cfg.origin.x))
        offset = (bearing - angle_deg + 180.0) % 360.0 - 180.0
        clamped = max(-cfg.beam_halfwidth_deg, min(cfg.beam_halfwidth_deg, offset))
        hit = reference_ray_disc(cfg.origin, math.radians(angle_deg + clamped), disc)
        if hit is not None and hit <= cfg.max_range_m and (best is None or hit < best):
            best = hit
    return best


def reference_ray_disc(origin, angle_rad, disc):
    ox, oy = origin
    cx, cy = disc.center
    dx, dy = math.cos(angle_rad), math.sin(angle_rad)
    fx, fy = cx - ox, cy - oy
    dist_sq = fx * fx + fy * fy
    if dist_sq <= disc.radius_m * disc.radius_m:
        return 0.0
    b = dx * fx + dy * fy
    discriminant = b * b - (dist_sq - disc.radius_m * disc.radius_m)
    if discriminant < 0:
        return None
    t = b - math.sqrt(discriminant)
    return t if t >= 0 else None
