"""Rotating rangefinder: echo geometry, sweeps, clustering, serial frames."""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from swarmport.errors import AngleOutOfRange, IoFailure
from swarmport.grid import Position
from echo_reference import reference_echo_distance
from swarmport.radar import (
    Disc,
    HopIndex,
    SweepConfig,
    detect_targets,
    encode_frame,
    polar_to_cartesian,
    render_frame,
    sweep,
    sweep_table,
)
from swarmport.sim import Simulation, default_scenario

CENTER = Position(1.0, 1.0)


def cfg(**overrides):
    return SweepConfig(origin=CENTER, **overrides)


def echo(discs, c, angle_deg):
    """The sample at ``angle_deg``, a sweep angle, of one sweep of still ``discs``."""
    return dict(sweep(c, discs).samples)[angle_deg]


def march_oracle(origin, angle_deg, disc, max_range):
    """Step along the ray until inside the disc; None if never."""
    a = math.radians(angle_deg)
    step = 1e-4
    t = 0.0
    while t <= max_range:
        x = origin.x + t * math.cos(a)
        y = origin.y + t * math.sin(a)
        if math.hypot(x - disc.center.x, y - disc.center.y) <= disc.radius_m:
            return t
        t += step
    return None


# ----------------------------------------------------------------- echoes


def test_echo_straight_ahead():
    discs = [Disc(Position(2.0, 1.0), 0.1)]
    assert echo(discs, cfg(), 0.0) == pytest.approx(0.9, abs=1e-12)


def test_echo_misses_disc_behind():
    discs = [Disc(Position(0.0, 1.0), 0.1)]
    assert echo(discs, cfg(), 0.0) is None
    assert echo(discs, cfg(), 180.0) == pytest.approx(0.9)


def test_echo_beyond_max_range_is_none():
    assert echo([Disc(Position(1.0 + 4.5, 1.0), 0.1)], cfg(), 0.0) is None
    assert echo([Disc(Position(1.0 + 4.05, 1.0), 0.1)], cfg(), 0.0) == pytest.approx(3.95)


def test_origin_inside_disc_echoes_zero():
    assert echo([Disc(Position(1.05, 1.0), 0.2)], cfg(), 123.0) == 0.0


def test_nearest_of_several_discs_wins():
    discs = [
        Disc(Position(2.5, 1.0), 0.1),
        Disc(Position(1.8, 1.0), 0.1),
    ]
    assert echo(discs, cfg(), 0.0) == pytest.approx(0.7)


def test_beam_halfwidth_catches_offset_disc():
    # disc sits 10 degrees off the ray: invisible to a pencil beam,
    # visible once the cone is wide enough
    bearing = math.radians(10.0)
    disc = Disc(Position(1.0 + math.cos(bearing), 1.0 + math.sin(bearing)), 0.05)
    assert echo([disc], cfg(), 0.0) is None
    wide = cfg(beam_halfwidth_deg=15.0)
    assert echo([disc], wide, 0.0) == pytest.approx(0.95, abs=1e-9)


def test_echo_matches_marching_oracle():
    discs = [
        Disc(Position(1.9, 1.3), 0.12),
        Disc(Position(0.4, 0.5), 0.2),
        Disc(Position(1.0, 2.4), 0.08),
    ]
    samples = sweep(cfg(), discs).samples
    for angle in range(0, 360, 7):
        got = samples[angle][1]
        want = min(
            (m for m in (march_oracle(CENTER, angle, d, 4.0) for d in discs) if m is not None),
            default=None,
        )
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=2e-4)


coordinate = st.floats(-5.0, 5.0, allow_nan=False)
far_disc = st.builds(Disc, st.builds(Position, coordinate, coordinate), st.floats(-0.5, 1.0))


@st.composite
def sensing_cases(draw):
    """An origin, discs around it (some of radius <= 0, some over the origin)
    and a sweep config with its angles, all multiples of step_deg."""
    origin = Position(draw(coordinate), draw(coordinate))
    near = st.floats(-0.3, 0.3, allow_nan=False)
    over_origin = st.builds(
        Disc,
        st.builds(Position, near.map(lambda d: origin.x + d), near.map(lambda d: origin.y + d)),
        st.floats(0.3, 1.0),
    )
    at_origin = st.builds(Disc, st.just(origin), st.floats(-0.5, 1.0))
    discs = draw(st.lists(st.one_of(far_disc, over_origin, at_origin), max_size=8))
    step = draw(st.floats(0.05, 15.0))
    sweep_len = max(1, int(math.floor(360.0 / step + 1e-9)))
    sweep_cfg = SweepConfig(
        origin=origin,
        step_deg=step,
        beam_halfwidth_deg=draw(st.one_of(st.just(0.0), st.floats(0.0, 15.0))),
        max_range_m=draw(st.floats(0.1, 6.0)),
    )
    angles = draw(st.lists(st.integers(0, sweep_len - 1).map(lambda i: i * step), min_size=1, max_size=6))
    return discs, sweep_cfg, angles


@given(sensing_cases(), far_disc, st.data())
def test_echo_equals_per_disc_reference_exactly(case, replacement, data):
    discs, c, angles = case
    samples = dict(sweep(c, discs).samples)
    for angle in angles:
        # repr pins every bit, the sign of a zero included, and None.
        assert repr(samples[angle]) == repr(reference_echo_distance(discs, c, angle))
    if discs:
        # A replaced disc must not be answered from the geometry of the old one.
        discs[data.draw(st.integers(0, len(discs) - 1))] = replacement
    samples = dict(sweep(c, discs).samples)
    for angle in angles:
        assert repr(samples[angle]) == repr(reference_echo_distance(discs, c, angle))


HOPS = [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)]


@st.composite
def hop_bodies(draw, c, spacing):
    """One body on a unit or zero hop: (radius, hop start, hop end).

    The start is a lattice node, or a point placed so that some sweep ray
    is exactly tangent to the disc there (at the beam's edge when the beam
    is wide), so that the disc covers the origin, or so that its near side
    is just at or beyond max range."""
    radius = draw(st.floats(0.01, 1.0))
    kind = draw(st.sampled_from(["lattice", "tangent", "over_origin", "range_edge"]))
    ox, oy = c.origin
    if kind == "lattice":
        a = Position(draw(st.integers(-8, 8)) * spacing, draw(st.integers(-8, 8)) * spacing)
    elif kind == "over_origin":
        near = st.floats(-0.9, 0.9).map(lambda f: f * radius)
        a = Position(ox + draw(near), oy + draw(near))
    else:
        angle = draw(st.integers(0, c.sweep_len - 1)) * c.step_deg
        side = draw(st.sampled_from([-1.0, 1.0]))
        if kind == "tangent":
            # The clamped beam lies at angle + side * half; the disc touches it.
            dist = draw(st.floats(radius * 1.001, c.max_range_m + radius + 0.5))
            bearing = angle + side * (c.beam_halfwidth_deg + math.degrees(math.asin(radius / dist)))
        else:
            dist = c.max_range_m + radius + draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3]))
            bearing = angle + side * draw(st.sampled_from([0.0, c.beam_halfwidth_deg]))
        a = Position(ox + dist * math.cos(math.radians(bearing)), oy + dist * math.sin(math.radians(bearing)))
    dx, dy = draw(st.sampled_from(HOPS))
    return radius, a, Position(a.x + dx * spacing, a.y + dy * spacing)


@st.composite
def hop_index_cases(draw):
    """A sweep config (including steps whose sweep stops short of 360
    degrees), up to three bodies on hops, where each was placed before, and
    a few moments, each giving every body's place along its hop."""
    origin = Position(draw(coordinate), draw(coordinate))
    step = draw(st.one_of(st.floats(0.5, 15.0), st.sampled_from([0.7, 7.0, 11.0, 13.0, 14.0])))
    c = SweepConfig(
        origin=origin,
        step_deg=step,
        beam_halfwidth_deg=draw(st.one_of(st.just(0.0), st.floats(0.0, 15.0))),
        max_range_m=draw(st.floats(0.1, 6.0)),
    )
    spacing = draw(st.floats(0.05, 1.0))
    bodies = draw(st.lists(hop_bodies(c, spacing), min_size=1, max_size=3))
    before = draw(st.lists(hop_bodies(c, spacing), min_size=len(bodies), max_size=len(bodies)))
    along = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
    moments = draw(st.lists(st.lists(along, min_size=len(bodies), max_size=len(bodies)), min_size=1, max_size=3))
    return c, bodies, before, moments


def on_hop(a, b, t):
    """The point a fraction t along the hop, with both ends exact."""
    if t == 1.0:
        return b
    return Position(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))


@settings(max_examples=300, deadline=None)
@given(hop_index_cases())
def test_hop_index_echo_equals_reference_at_every_sweep_index(case):
    c, bodies, before, moments = case
    radii = [radius for radius, _, _ in bodies]
    where = [a for _, a, _ in bodies]
    index = HopIndex(c, radii)
    for i, (_, a, b) in enumerate(before):
        index.place(i, a, b)
    for i, (_, a, b) in enumerate(bodies):
        index.place(i, a, b)
    for moment in moments:
        where[:] = [on_hop(a, b, t) for (_, a, b), t in zip(bodies, moment)]
        discs = [Disc(p, r) for p, r in zip(where, radii)]
        for k in range(c.sweep_len):
            angle = k * c.step_deg
            # repr pins every bit, the sign of a zero included, and None.
            assert repr(index.echo(k, where.__getitem__)) == repr(reference_echo_distance(discs, c, angle))


@st.composite
def grazing_cases(draw):
    """A parked disc placed so that the ray of one sweep index is exactly
    tangent to it (at the beam's edge when the beam is wide), or meets its
    near side exactly at max range, give or take a few ulps."""
    c = SweepConfig(
        origin=Position(draw(coordinate), draw(coordinate)),
        step_deg=draw(st.floats(0.5, 15.0)),
        beam_halfwidth_deg=draw(st.one_of(st.just(0.0), st.floats(0.0, 15.0))),
        max_range_m=draw(st.floats(0.1, 6.0)),
    )
    radius = draw(st.floats(0.01, 1.0))
    k = draw(st.integers(0, c.sweep_len - 1))
    side = draw(st.sampled_from([-1.0, 1.0]))
    if draw(st.booleans()):
        dist = draw(st.floats(radius * 1.001, c.max_range_m + radius))
        bearing = k * c.step_deg + side * (c.beam_halfwidth_deg + math.degrees(math.asin(radius / dist)))
    else:
        dist = c.max_range_m + radius
        bearing = k * c.step_deg + side * draw(st.sampled_from([0.0, c.beam_halfwidth_deg]))
    dist *= 1.0 + draw(st.integers(-4, 4)) * 2.0**-52
    a = math.radians(bearing)
    return c, radius, Position(c.origin.x + dist * math.cos(a), c.origin.y + dist * math.sin(a)), k


@settings(max_examples=500, deadline=None)
@given(grazing_cases())
def test_hop_index_keeps_grazing_rays(case):
    """The rays that graze a disc read as hits or misses by rounding alone;
    REACH_MARGIN_DEG and REACH_MARGIN_M keep them all in the index."""
    c, radius, center, k = case
    index = HopIndex(c, [radius])
    index.place(0, center, center)
    discs = [Disc(center, radius)]
    for j in {max(k - 1, 0), k, min(k + 1, c.sweep_len - 1)}:
        angle = j * c.step_deg
        assert repr(index.echo(j, [center].__getitem__)) == repr(reference_echo_distance(discs, c, angle))


def test_hop_index_marks_only_the_reachable_arc():
    """A parked disc 2 m east of the sensor covers the indices within its
    angular radius of 0 degrees, across the 0/360 seam; a hop north widens
    that by the hop's arc; a disc out of range or over the origin covers
    none or all."""
    c = cfg(max_range_m=4.0)
    index = HopIndex(c, [0.2, 0.2, 0.2])
    arc = math.degrees(math.asin(0.2 / 2.0))  # 5.74 degrees
    index.place(0, Position(3.0, 1.0), Position(3.0, 1.0))
    assert [k for k, m in enumerate(index.masks) if m] == list(range(0, 6)) + list(range(355, 360))
    index.place(0, Position(3.0, 1.0), Position(3.0, 1.25))
    hop = math.degrees(math.atan2(0.25, 2.0))  # 7.13 degrees
    assert [k for k, m in enumerate(index.masks) if m] == list(range(0, int(hop + arc) + 1)) + list(range(355, 360))
    index.place(1, Position(5.3, 1.0), Position(5.3, 1.0))
    assert not any(m & 2 for m in index.masks)
    index.place(2, Position(1.1, 1.0), Position(1.1, 1.0))
    assert all(m & 4 for m in index.masks)
    index.place(0, Position(1.0, 3.0), Position(1.0, 3.0))  # moved: its old arc is cleared
    assert [k for k, m in enumerate(index.masks) if m & 1] == list(range(85, 96))


@st.composite
def placements(draw):
    """A sweep config, bodies of drawn radii (some of none), and a sequence
    of `place` calls, each putting one body on a parked or unit-hop segment:
    from a lattice node, due east of the sensor so that its arc crosses
    the 0/360 seam, with its disc over the sensor, or beyond max range.
    A call may put a body back on its last segment, or on another from its
    start.  Each end is a `Position` or a plain (x, y) tuple."""
    c = SweepConfig(
        origin=Position(draw(coordinate), draw(coordinate)),
        step_deg=draw(st.one_of(st.floats(0.5, 15.0), st.sampled_from([1.0, 7.0]))),
        beam_halfwidth_deg=draw(st.one_of(st.just(0.0), st.floats(0.0, 15.0))),
        max_range_m=draw(st.floats(0.1, 6.0)),
    )
    spacing = draw(st.floats(0.05, 1.0))
    radii = draw(st.lists(st.one_of(st.floats(0.01, 1.0), st.just(0.0)), min_size=1, max_size=3))
    ox, oy = c.origin
    calls, last = [], {}
    for _ in range(draw(st.integers(1, 10))):
        i = draw(st.integers(0, len(radii) - 1))
        radius = radii[i]
        again = draw(st.sampled_from(["segment", "start", "no"])) if i in last else "no"
        if again == "segment":
            a, b = last[i]
        elif again == "start":
            a = last[i][0]
        else:
            kind = draw(st.sampled_from(["lattice", "seam", "over_origin", "beyond_range"]))
            if kind == "lattice":
                a = (draw(st.integers(-8, 8)) * spacing, draw(st.integers(-8, 8)) * spacing)
            elif kind == "seam":
                a = (ox + draw(st.floats(radius + 0.01, c.max_range_m + radius)), oy + draw(st.floats(-spacing, spacing)))
            elif kind == "over_origin":
                a = (ox + draw(st.floats(-0.9, 0.9)) * radius, oy + draw(st.floats(-0.9, 0.9)) * radius)
            else:
                bearing = math.radians(draw(st.floats(0.0, 360.0)))
                dist = c.max_range_m + radius + draw(st.floats(0.01, 2.0)) + spacing
                a = (ox + dist * math.cos(bearing), oy + dist * math.sin(bearing))
        if again != "segment":
            dx, dy = draw(st.sampled_from(HOPS))
            b = (a[0] + dx * spacing, a[1] + dy * spacing)
        last[i] = (a, b)
        a, b = (Position(*end) if draw(st.booleans()) else tuple(end) for end in (a, b))
        calls.append((i, a, b))
    return c, radii, calls


@settings(max_examples=500, deadline=None)
@given(placements())
# Parked across the seam, then a hop south: the arc's wrapped part stays.
@example((SweepConfig(origin=Position(0.0, 0.0)), [0.2],
          [(0, (2.0, -0.01), (2.0, -0.01)), (0, Position(2.0, -0.01), Position(2.0, -0.26))]))
def test_a_re_placed_index_equals_one_placed_once(case):
    """`place` clears a body's old arc before it sets the new one, for a
    parked segment as for a moving one: after any sequence of calls, the
    masks must equal those of a fresh index given only each body's last
    segment, as `Position` ends."""
    c, radii, calls = case
    index = HopIndex(c, radii)
    last = {}
    for i, a, b in calls:
        index.place(i, a, b)
        last[i] = (a, b)
    fresh = HopIndex(c, radii)
    for i, (a, b) in last.items():
        fresh.place(i, Position(*a), Position(*b))
    assert index.masks == fresh.masks


def test_config_validation():
    with pytest.raises(ValueError):
        cfg(step_deg=0.0)
    with pytest.raises(ValueError, match=r"^step_deg "):
        cfg(step_deg=0.0099)
    assert cfg(step_deg=0.01).sweep_len == 36_000
    with pytest.raises(ValueError):
        cfg(step_deg=20.0)
    with pytest.raises(ValueError):
        cfg(beam_halfwidth_deg=-1.0)
    with pytest.raises(ValueError):
        cfg(max_range_m=0.0)


# ----------------------------------------------------------------- polar


def test_polar_to_cartesian_axes():
    assert polar_to_cartesian(CENTER, 0.0, 0.5).x == pytest.approx(1.5)
    p = polar_to_cartesian(CENTER, 90.0, 0.5)
    assert p.x == pytest.approx(1.0, abs=1e-12)
    assert p.y == pytest.approx(1.5)
    p = polar_to_cartesian(Position(0.0, 0.0), 45.0, math.sqrt(2.0))
    assert p.x == pytest.approx(1.0)
    assert p.y == pytest.approx(1.0)


# ----------------------------------------------------------------- sweeps


def test_sweep_sample_counts():
    """A sweep reads every whole step that fits in 360 degrees, from 0 up."""
    for step, count in ((1.0, 360), (0.5, 720), (0.39, 923)):
        scan = sweep(cfg(step_deg=step), [])
        angles = [a for a, _ in scan.samples]
        assert len(angles) == count
        assert angles[0] == 0.0
        assert angles[-1] == (count - 1) * step
        assert angles == sorted(angles)
        assert scan.direction == 1


def test_sweep_records_echoes_in_order():
    scan = sweep(cfg(), [Disc(Position(2.0, 1.0), 0.1)])
    hits = {a: d for a, d in scan.samples}
    assert hits[0.0] == pytest.approx(0.9)
    assert hits[10.0] is None


# --------------------------------------------------------------- clustering


def test_detect_single_target_centroid():
    disc = Disc(Position(1.0, 2.0), 0.04)  # due north, clear of the 0/359 seam
    scan = sweep(cfg(), [disc])
    targets = detect_targets(scan, cfg())
    assert len(targets) == 1
    t = targets[0]
    assert t.sample_count >= 2
    near_face = Position(1.0, 2.0 - disc.radius_m)
    err = math.hypot(t.centroid.x - near_face.x, t.centroid.y - near_face.y)
    assert err <= 0.05
    assert t.distance_m <= 4.0


def test_detect_counts_separated_targets():
    discs = [
        Disc(Position(1.8, 1.6), 0.05),
        Disc(Position(1.0, 2.2), 0.05),
        Disc(Position(0.2, 0.2), 0.05),
    ]
    scan = sweep(cfg(), discs)
    targets = detect_targets(scan, cfg())
    assert len(targets) == 3
    angles = [t.angle_deg for t in targets]
    assert angles == sorted(angles)


def test_disc_straddling_scan_seam_splits():
    # runs are linear in scan order, so a dead-east disc spanning the
    # 359->0 boundary shows up twice on a single-revolution scan
    scan = sweep(cfg(), [Disc(Position(2.0, 1.0), 0.05)])
    assert len(detect_targets(scan, cfg())) == 2


def test_detect_empty_world():
    scan = sweep(cfg(), [])
    assert detect_targets(scan, cfg()) == []


def test_range_jump_splits_runs():
    # hand-built scan: two echo runs with a >= 0.1 m gap and no None between
    scan_samples = [(0.0, 1.0), (1.0, 1.01), (2.0, 1.25), (3.0, 1.26)]
    from swarmport.radar import Scan

    scan = Scan(CENTER, scan_samples, 1)
    targets = detect_targets(scan, cfg())
    assert len(targets) == 2
    assert targets[0].sample_count == 2 and targets[1].sample_count == 2


def test_none_sample_splits_runs():
    from swarmport.radar import Scan

    scan = Scan(CENTER, [(0.0, 1.0), (1.0, None), (2.0, 1.0)], 1)
    assert len(detect_targets(scan, cfg())) == 2


# ------------------------------------------------------------ serial frames


def test_encode_frame_format():
    assert encode_frame(0.0, 0.4) == "0,400.\n"
    assert encode_frame(90.0, None) == "90,0.\n"
    assert encode_frame(123.0, 1.2345) == "123,1234.\n"
    assert encode_frame(124.0, 1.2355) == "124,1236.\n"
    # 359.5 and above rounds to 360, which is the bearing 0
    assert encode_frame(359.6, None) == "0,0.\n"


@pytest.mark.parametrize("step_deg", [0.5, 0.7, 1.0, 7.0, 15.0])
def test_sweep_table_lines_equal_encode_frame(step_deg):
    """The engine streams a quiet step's line from the table and builds a
    hit's in `frame_lines`: both must be the line `encode_frame` writes for
    the tick's index, at every index.  The servo reads the indices up, then
    down, each end index twice in a row, and the quiet columns follow that
    tick order."""
    c = cfg(step_deg=step_deg)
    n = c.sweep_len
    table = sweep_table(c)
    assert len(table.angles) == n
    assert table.order == tuple(range(n)) + tuple(range(n - 1, -1, -1))
    assert table.order[n - 1] == table.order[n] == n - 1 and table.order[-1] == table.order[0] == 0
    for k, angle in enumerate(table.angles):
        assert angle == k * step_deg
    # Every tick of one up-and-back pair hits at each distance in turn.
    sim = Simulation(dataclasses.replace(default_scenario(), sensor=c))
    dists = (0.0, 0.0004, 0.0005, 0.4, 1.2345, 1.2355, 3.9995, 4.0)
    sim._hits = [(t, dist) for j, dist in enumerate(dists) for t in range(2 * n * j, 2 * n * (j + 1))]
    sim.tick_count = len(sim._hits)
    lines = sim.frame_lines
    assert len(lines) == len(sim._hits)
    for (t, dist), line in zip(sim._hits, lines):
        assert line == encode_frame(table.angles[table.order[t % (2 * n)]], dist)
    assert len(table.quiet_lines) == len(table.quiet_samples) == 2 * n
    for t, k in enumerate(table.order):
        assert table.quiet_samples[t] == (table.angles[k], None)
        assert table.quiet_lines[t] == encode_frame(table.angles[k], None)
    if step_deg == 0.5:
        assert table.angles[719] == 359.5 and table.quiet_lines[719] == table.quiet_lines[720] == "0,0.\n"


@pytest.mark.parametrize("half", [0.0, 4.0])
@pytest.mark.parametrize("step_deg", [0.5, 0.7, 1.0, 7.0, 15.0])
def test_table_read_echo_equals_reference(step_deg, half):
    """With a zero half-width the echo reads each index's ray from the
    sweep table, with a wider beam it works the beam out per body: both
    equal the reference echo at every index."""
    c = cfg(step_deg=step_deg, beam_halfwidth_deg=half)
    discs = [
        Disc(Position(2.2, 1.3), 0.15),
        Disc(Position(0.1, 2.9), 0.3),
        Disc(Position(-1.5, -0.4), 0.2),
        Disc(Position(1.0, 0.35), 0.1),
    ]
    samples = sweep(c, discs).samples
    for k, (angle, dist) in enumerate(samples):
        assert angle == sweep_table(c).angles[k]
        assert repr(dist) == repr(reference_echo_distance(discs, c, angle))
    assert any(dist is not None for _, dist in samples)


def test_encode_frame_angle_bounds():
    with pytest.raises(AngleOutOfRange):
        encode_frame(360.0, 1.0)
    with pytest.raises(AngleOutOfRange):
        encode_frame(-1.0, 1.0)


def test_render_frame_deterministic(tmp_path):
    scan = sweep(cfg(), [Disc(Position(2.0, 1.0), 0.1)])
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    render_frame(scan, (2.0, 2.0), a)
    render_frame(scan, (2.0, 2.0), b)
    data = a.read_bytes()
    assert data == b.read_bytes()
    assert data.startswith(b"<svg")


def test_render_frame_io_failure(tmp_path):
    scan = sweep(cfg(), [])
    with pytest.raises(IoFailure):
        render_frame(scan, (2.0, 2.0), tmp_path / "missing" / "deep" / "x.svg")
