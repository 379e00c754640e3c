"""The box, plane-slab and sphere filters never change a query's answer.

``check_collision`` hands the narrowphase only the grid candidates that
survive ``World.sweep_indices``.  Most tests here compare it, bit for bit
(same ``t``, same contact point, same index), with a scan of every
triangle in the world, and check that every triangle the scan hits
survived the filters.  The sphere test, which scanned worlds and short
grid answers get, also has a property of its own: every triangle it drops
gets no contact from the narrowphase.
"""

import math
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sweepslide.detect
from sweepslide import world as world_module
from sweepslide.core import Triangle, add, distance, sub
from sweepslide.detect import check_collision, closest_point_on_triangle, sweep_unit_sphere_triangle
from sweepslide.ellipsoid import EllipsoidRadii, EllipsoidWorldView, triangle_to_sphere_space
from sweepslide.legacy import LegacyConfig, collide_with_world_legacy
from sweepslide.mesh import builtin_mesh
from sweepslide.response import sphere_sweep
from sweepslide.scenario import min_distance_to_mesh
from sweepslide.world import SLAB_MARGIN, build_world

UNIT = EllipsoidRadii(1.0, 1.0, 1.0)


def _scan(triangles, source, vel):
    """Earliest hit over every triangle, and the indices of all hits."""
    best, hit_indices = None, []
    for index, tri in enumerate(triangles):
        hit = sweep_unit_sphere_triangle(source, vel, tri)
        if hit is not None:
            hit_indices.append(index)
            if best is None or hit.t < best[0].t:
                best = (hit, index)
    return best, hit_indices


def _assert_same_as_scan(world, radii, source, vel):
    """``check_collision`` through *radii*'s view equals the full scan."""
    view = EllipsoidWorldView(world, radii)
    triangles = [triangle_to_sphere_space(t, radii) for t in world.triangles]
    best, hit_indices = _scan(triangles, source, vel)
    got = check_collision(view, source, vel)
    if best is None:
        assert got is None
    else:
        hit, index = best
        assert got is not None
        assert (got.t, got.contact_point, got.triangle_index) == (hit.t, hit.contact_point, index)
    end = add(source, vel)
    kept = [index for index, _ in view.candidates(source, end)]
    assert kept == sorted(set(kept))
    assert set(hit_indices) <= set(kept)
    return got


def _translated(tris, offset):
    return [Triangle(add(t.a, offset), add(t.b, offset), add(t.c, offset)) for t in tris]


def _random_sweeps(rng, center, extent, count):
    for _ in range(count):
        source = tuple(c + rng.uniform(-extent, extent) for c in center)
        vel = tuple(rng.uniform(-6.0, 6.0) for _ in range(3))
        yield source, vel


def test_empty_world():
    world = build_world([])
    for radii in (UNIT, EllipsoidRadii(2.0, 0.5, 1.0)):
        assert _assert_same_as_scan(world, radii, (0.0, 0.0, 3.0), (0.0, 0.0, -3.0)) is None
    assert check_collision(world, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)) is None


def test_unit_world_matches_full_scan():
    rng = random.Random(31)
    world = build_world(builtin_mesh("random_soup", n=120, seed=4, extent=7.0))
    hits = 0
    for source, vel in _random_sweeps(rng, (0.0, 0.0, 0.0), 8.0, 400):
        hits += _assert_same_as_scan(world, UNIT, source, vel) is not None
    assert hits >= 100


@pytest.mark.parametrize("radii", [
    EllipsoidRadii(0.1, 1.0, 10.0),
    EllipsoidRadii(1.0, 0.01, 1.0),
    EllipsoidRadii(100.0, 1.0, 1.0),
    EllipsoidRadii(2.0, 2.0, 0.5),
])
def test_views_match_full_scan(radii):
    rng = random.Random(37)
    world = build_world(builtin_mesh("random_soup", n=80, seed=6, extent=6.0))
    hits = 0
    for source, vel in _random_sweeps(rng, (0.0, 0.0, 0.0), 7.0, 150):
        sphere_source = tuple(s / r for s, r in zip(source, radii.as_tuple()))
        sphere_vel = tuple(v / r for v, r in zip(vel, radii.as_tuple()))
        hits += _assert_same_as_scan(world, radii, sphere_source, sphere_vel) is not None
    assert hits >= 20


@pytest.mark.parametrize("offset", [(1e3, -2e3, 5e2), (1e6, 1e6, -1e6), (-1e6, 3e5, 1e6)])
@pytest.mark.parametrize("radii", [UNIT, EllipsoidRadii(0.5, 2.0, 1.0)])
def test_far_from_origin_matches_full_scan(offset, radii):
    rng = random.Random(41)
    world = build_world(_translated(builtin_mesh("random_soup", n=60, seed=9, extent=6.0), offset))
    center = tuple(o / r for o, r in zip(offset, radii.as_tuple()))
    hits = 0
    for source, vel in _random_sweeps(rng, center, 7.0, 120):
        hits += _assert_same_as_scan(world, radii, source, vel) is not None
    assert hits >= 20


@pytest.mark.parametrize("radii", [UNIT, EllipsoidRadii(2.0, 0.5, 1.0)])
def test_a_large_mesh_of_ordinary_triangles_matches_full_scan(radii):
    # A 6,000-unit heightfield of 300-unit quads: at cell size 4.0 its 800
    # triangles would fill 14,821,216 grid entries, which a mesh-wide cap of
    # 4,000,000 once refused.  Each is far inside the per-triangle bound.
    rng = random.Random(53)
    heights = [[40.0 * math.sin(0.3 * i) * math.cos(0.2 * j) + rng.uniform(-5.0, 5.0)
                for j in range(21)] for i in range(21)]
    tris = []
    for i in range(20):
        for j in range(20):
            x0, x1, y0, y1 = 300.0 * i, 300.0 * (i + 1), 300.0 * j, 300.0 * (j + 1)
            a, b = (x0, y0, heights[i][j]), (x1, y0, heights[i + 1][j])
            c, d = (x1, y1, heights[i + 1][j + 1]), (x0, y1, heights[i][j + 1])
            tris += [Triangle(a, b, c), Triangle(a, c, d)]
    world = build_world(tris)
    hits = 0
    for _ in range(60):
        tri = rng.choice(tris)
        u, v = rng.random(), rng.random()
        if u + v > 1.0:
            u, v = 1.0 - u, 1.0 - v
        on = tuple(a + u * (b - a) + v * (c - a) for a, b, c in zip(tri.a, tri.b, tri.c))
        above = (on[0], on[1], on[2] + rng.uniform(1.5, 6.0) * radii.rz)
        source = tuple(p / r for p, r in zip(above, radii.as_tuple()))
        vel = (rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0), rng.uniform(-8.0, 1.0))
        hits += _assert_same_as_scan(world, radii, source, vel) is not None
    assert hits >= 20


def _ulps_from(x, count):
    for _ in range(abs(count)):
        x = math.nextafter(x, math.inf if count > 0 else -math.inf)
    return x


@pytest.mark.parametrize("level", [1.0, SLAB_MARGIN])
@pytest.mark.parametrize("radii", [UNIT, EllipsoidRadii(3.0, 0.5, 2.0)])
@pytest.mark.parametrize("height", [0.0, 1e6])
def test_grazing_sweeps_near_the_slab_edge(level, radii, height):
    # Flat floor pieces at z = height (exact normal (0, 0, 1)), one tilted
    # triangle across the path, and sweeps whose two endpoints lie a few
    # ulps either side of *level* above or below the floor's plane.
    floor = _translated(builtin_mesh("floor", size=40.0), (0.0, 0.0, height))
    ramp = Triangle((2.0, -5.0, height - 1.0), (2.0, 5.0, height - 1.0), (3.0, 0.0, height + 3.0))
    world = build_world(floor + [ramp])
    rz = radii.rz
    for side in (1.0, -1.0):
        for k0 in range(-3, 4):
            for k1 in (-3, 0, 2):
                z0 = (height + side * _ulps_from(level, k0) * rz) / rz
                z1 = (height + side * _ulps_from(level, k1) * rz) / rz
                source = (-4.0 / radii.rx, 0.3 / radii.ry, z0)
                vel = (9.0 / radii.rx, 0.2 / radii.ry, z1 - z0)
                _assert_same_as_scan(world, radii, source, vel)


def test_tilted_grazing_sweeps():
    rng = random.Random(43)
    tris = builtin_mesh("random_soup", n=40, seed=3, extent=5.0)
    world = build_world(tris)
    for _ in range(300):
        tri = rng.choice(tris)
        u, v = rng.random(), rng.random()
        if u + v > 1.0:
            u, v = 1.0 - u, 1.0 - v
        on = tuple(a + u * (b - a) + v * (c - a) for a, b, c in zip(tri.a, tri.b, tri.c))
        level = rng.choice((1.0, SLAB_MARGIN)) * rng.choice((1.0, -1.0))
        source = tuple(p + level * n for p, n in zip(on, tri.normal))
        along = tuple(rng.uniform(-3.0, 3.0) for _ in range(3))
        # Remove the normal component: the sweep runs parallel to the plane.
        along_n = sum(a * n for a, n in zip(along, tri.normal))
        vel = sub(along, tuple(along_n * n for n in tri.normal))
        _assert_same_as_scan(world, UNIT, source, vel)


@pytest.mark.parametrize("radii", [UNIT, EllipsoidRadii(0.5, 0.5, 2.0)])
def test_starts_at_clearance_one(radii):
    # A start exactly one unit (in sphere space) off the floor takes the
    # narrowphase's t = 0 path for every direction that does not separate,
    # and the filters must keep the floor for all of them.
    world = build_world(builtin_mesh("floor", size=40.0))
    source = (0.25, -0.5, 1.0)
    directions = [(0.0, 0.0, -1.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.3, 0.4, -0.2),
                  (0.3, 0.4, 5.0), (-2.0, 1.0, 0.0)]
    for vel in directions:
        _assert_same_as_scan(world, radii, source, vel)


@pytest.mark.parametrize("radii", [UNIT, EllipsoidRadii(2.0, 1.0, 0.5)])
def test_zero_velocity(radii):
    rng = random.Random(47)
    world = build_world(builtin_mesh("random_soup", n=60, seed=2, extent=5.0))
    sphere_tris = [triangle_to_sphere_space(t, radii) for t in world.triangles]
    embedded = 0
    for _ in range(200):
        source = tuple(rng.uniform(-6.0, 6.0) for _ in range(3))
        assert _assert_same_as_scan(world, radii, source, (0.0, 0.0, 0.0)) is None
        embedded += any(distance(source, closest_point_on_triangle(source, t)) < 1.0
                        for t in sphere_tris)
    # A start closer than one unit that does not move closes in on nothing,
    # so it touches nothing either.
    assert embedded >= 10


def test_filters_drop_box_misses_and_slab_clears():
    # Three triangles in the same grid cells: one the sweep crosses, one
    # outside the sweep's box, and one inside the box whose plane,
    # x + y + z = 4.5, both endpoints clear by more than the margin.
    crossed = Triangle((0.0, -1.0, 0.0), (1.0, 1.0, 0.0), (-1.0, 1.0, 0.0))
    outside = Triangle((3.0, 3.0, 3.0), (3.5, 3.0, 3.0), (3.0, 3.5, 3.0))
    cleared = Triangle((1.0, 1.0, 2.5), (3.0, 1.0, 0.5), (1.0, 3.0, 0.5))
    # A far triangle fills more cells than the sweep boxes' eight, so the
    # grid walks those cells instead of scanning every triangle's box.
    far = Triangle((100.0, 100.0, 100.0), (140.0, 100.0, 100.0), (100.0, 140.0, 100.0))
    world = build_world([crossed, outside, cleared, far])
    assert len(world._cells) > 8
    source, end = (0.0, 0.0, 1.5), (0.0, 0.0, -1.5)
    # The sweep's box: the endpoints' box padded by 1 + SWEEP_BOX_SLACK.
    box = ((-1.01, -1.01, -2.51), (1.01, 1.01, 2.51))
    assert world.query_candidates(box) == [0, 1, 2]
    assert world.sweep_indices(source, end) == [0]
    # Moving toward that plane keeps it; the other two leave the box.
    end = (0.9, 0.9, 1.5)
    box = ((-1.01, -1.01, 0.49), (1.91, 1.91, 2.51))
    assert world.query_candidates(box) == [0, 1, 2]
    assert world.sweep_indices(source, end) == [2]


# --- the sphere test ---

def _unit(v):
    n = math.sqrt(sum(x * x for x in v))
    return tuple(x / n for x in v)


def _across(u, rng):
    """A random unit vector square to the unit vector *u*."""
    w = _unit(tuple(rng.gauss(0.0, 1.0) for _ in range(3)))
    k = sum(a * b for a, b in zip(u, w))
    return _unit(tuple(b - k * a for a, b in zip(u, w)))


@st.composite
def _sphere_cases(draw):
    """A few small triangles, radii (``None``, or axis ratios up to 1e3), and
    world-space sweeps: random fast ones and grazing ones.

    The mesh lies near the origin or up to 1e8 from it.  A grazing sweep
    passes, at its middle, ``r + R * (1 + k * 1e-9)`` from an equilateral
    triangle's centre along the direction of one of its vertices, where
    ``r`` is the triangle's circumradius, ``R`` the largest radius (1 for a
    unit world), ``k`` is -1, 0 or 1, and for a view the vertex lies along
    the axis of the largest radius, so that the ellipsoid comes within
    ``k * R * 1e-9`` of that vertex.
    """
    offset = tuple(draw(st.sampled_from((0.0, 2.5, -1e4, 1e6, -1e8, 1e8))) for _ in range(3))
    radii = draw(st.none() | st.tuples(*[st.floats(-1.5, 1.5).map(lambda e: 10.0 ** e)] * 3))
    big = 1.0 if radii is None else max(radii)
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    tris, sweeps = [], []
    for _ in range(draw(st.integers(1, 6))):
        size = rng.uniform(0.05, 3.0)
        centre = tuple(o + rng.uniform(-4.0, 4.0) for o in offset)
        if rng.random() < 0.5:
            try:
                tris.append(Triangle(*(tuple(c + rng.uniform(-size, size) for c in centre)
                                       for _ in range(3))))
            except ValueError:
                pass  # collinear
            continue
        # An equilateral triangle of circumradius *size* and one grazing sweep.
        if radii is None:
            u = _unit(tuple(rng.gauss(0.0, 1.0) for _ in range(3)))
        else:
            axis = radii.index(big)
            u = tuple(rng.choice((-1.0, 1.0)) if k == axis else 0.0 for k in range(3))
        w = _across(u, rng)
        v = tuple(math.cos(2.0 * math.pi / 3.0) * a + math.sin(2.0 * math.pi / 3.0) * b
                  for a, b in zip(u, w))
        x = tuple(math.cos(2.0 * math.pi / 3.0) * a - math.sin(2.0 * math.pi / 3.0) * b
                  for a, b in zip(u, w))
        tris.append(Triangle(*(tuple(c + size * e for c, e in zip(centre, d)) for d in (u, v, x))))
        gap = size + big * (1.0 + rng.choice((-1, 0, 1)) * 1e-9)
        closest = tuple(c + gap * e for c, e in zip(centre, u))
        along = _across(u, rng)
        length = rng.uniform(0.5, 6.0) * big
        before = rng.uniform(0.2, 0.8) * length
        start = tuple(p - before * d for p, d in zip(closest, along))
        sweeps.append((start, tuple(length * d for d in along)))
    if not tris:
        tris.append(Triangle(offset, add(offset, (1.0, 0.0, 0.0)), add(offset, (0.0, 1.0, 0.0))))
    for _ in range(6):
        tri = rng.choice(tris)
        start = tuple(c + rng.uniform(-3.0, 3.0) * big for c in tri.a)
        sweeps.append((start, tuple(rng.uniform(-6.0, 6.0) * big for _ in range(3))))
    return tris, radii, sweeps


def _capsule_gap(world, index, start, end, reach):
    """The exact squared distance from the segment to sphere *index*'s centre,
    and the exact squared bound ``(radius + reach)**2``, from the floats the
    filter reads."""
    cx, cy, cz, r = (Fraction(v) for v in world._row(index)[10:])
    s, e = [Fraction(v) for v in start], [Fraction(v) for v in end]
    d = [b - a for a, b in zip(s, e)]
    p = [cx - s[0], cy - s[1], cz - s[2]]
    dd = sum(x * x for x in d)
    t = min(max(sum(a * b for a, b in zip(p, d)) / dd, 0), 1) if dd else 0
    gap = sum((a - t * b) ** 2 for a, b in zip(p, d))
    return gap, (r + Fraction(reach)) ** 2


@given(_sphere_cases())
@settings(max_examples=200, deadline=None)
def test_the_sphere_test_drops_only_triangles_the_sweep_misses(case):
    tris, radii, sweeps = case
    world = build_world(tris)
    scale = (1.0, 1.0, 1.0) if radii is None else radii
    if radii is not None:
        view_radii = EllipsoidRadii(*radii)
        EllipsoidWorldView(world, view_radii)  # the view accepts these radii
        tris = [triangle_to_sphere_space(t, view_radii) for t in tris]
    reach = SLAB_MARGIN * max(scale)
    for world_start, world_vel in sweeps:
        source = tuple(v / r for v, r in zip(world_start, scale))
        vel = tuple(v / r for v, r in zip(world_vel, scale))
        end = add(source, vel)
        # Box and slab alone (the numpy path), and with the sphere test.
        with mock.patch.multiple(world_module, SCALAR_FILTER_CANDIDATES=-1,
                                 SCAN_WORLD_TRIANGLES=-1):
            box_and_slab = world.sweep_indices(source, end, radii)
        with mock.patch.object(world_module, "SCALAR_FILTER_CANDIDATES", len(tris)):
            kept = world.sweep_indices(source, end, radii)
        assert set(kept) <= set(box_and_slab)
        for index in set(box_and_slab) - set(kept):
            assert sweep_unit_sphere_triangle(source, vel, tris[index], limit=1.0) is None
        # It is the capsule test, up to the filter's rounding: a sphere the
        # segment clears by more is dropped, one it comes well within is kept.
        segment = [tuple(v * r for v, r in zip(p, scale)) for p in (source, end)]
        for index in box_and_slab:
            gap, bound = _capsule_gap(world, index, *segment, reach)
            if gap > bound * (1 + Fraction(1, 10 ** 9)):
                assert index not in kept
            elif gap < bound * (1 - Fraction(1, 10 ** 9)):
                assert index in kept


def test_a_fast_sweep_past_a_small_triangle_reaches_no_narrowphase(monkeypatch):
    # The sweep's box meets the triangle's box and the sweep stays within
    # the slab of its plane, z = 0, but the segment passes 1.51 from the
    # centre of a sphere of radius 0.15.
    world = build_world([Triangle((0.0, 0.0, 0.0), (0.2, 0.0, 0.0), (0.0, 0.2, 0.0))])
    source, vel = (-3.0, 1.0, 0.5), (4.0, -4.0, 0.0)
    calls = []
    original = sweepslide.detect.sweep_unit_sphere_triangle

    def counted(*args, **kw):
        calls.append(args[2])
        return original(*args, **kw)

    monkeypatch.setattr(sweepslide.detect, "sweep_unit_sphere_triangle", counted)
    # A world this small is scanned; the grid's short answer runs the same test.
    assert check_collision(world, source, vel) is None
    with mock.patch.object(world_module, "SCAN_WORLD_TRIANGLES", -1):
        assert check_collision(world, source, vel) is None
    assert calls == []
    # Off the scan, the numpy path keeps it: it runs no sphere test.
    with mock.patch.multiple(world_module, SCALAR_FILTER_CANDIDATES=-1, SCAN_WORLD_TRIANGLES=-1):
        assert world.sweep_indices(source, add(source, vel)) == [0]


# --- the scan of every row ---

def _fuzz_frames(worlds, count, rng, radii=None):
    """Frames drawn as ``sweepslide verify``'s fuzz corpus draws them, in the
    sphere space of *radii*: clear starts in the soups' box, half of them
    aimed at a point of a triangle, the rest up to 6 units in any direction."""
    scale = (1.0, 1.0, 1.0) if radii is None else radii.as_tuple()
    blocks = [world.vertices / scale for world in worlds]
    frames = []
    for i in range(count):
        world, vertices = worlds[i % len(worlds)], blocks[i % len(worlds)]
        while True:
            pos = tuple(rng.uniform(-8.0, 8.0) / r for r in scale)
            if min_distance_to_mesh(pos, vertices) >= 1.000001:
                break
        if rng.random() < 0.5:
            w = [rng.random() for _ in range(3)]
            corners = vertices[rng.randrange(len(vertices))].tolist()
            target = tuple(sum(wk * c[axis] for wk, c in zip(w, corners)) / sum(w)
                           for axis in range(3))
            vel = tuple((t - p) * rng.uniform(0.5, 2.0) for t, p in zip(target, pos))
        else:
            speed = rng.uniform(0.0, 6.0)
            vel = tuple(rng.gauss(0.0, 1.0) for _ in range(3))
            vel = tuple(v * speed / math.sqrt(sum(x * x for x in vel)) for v in vel)
        frames.append((world, pos, vel))
    return frames


def test_the_scan_changes_no_frame():
    # The acceptance corpus's soups, and a view of one of them, swept with
    # the scan as the world selects it, never, and for every sweep.
    soups = [builtin_mesh("random_soup", n=40, seed=1000 + k, extent=8.0) for k in range(10)]
    worlds = [build_world(tris) for tris in soups]
    radii = EllipsoidRadii(1.6, 0.9, 0.6)
    rng = random.Random(24)
    frames = _fuzz_frames(worlds, 600, rng)
    frames += [(EllipsoidWorldView(world, radii), pos, vel)
               for world, pos, vel in _fuzz_frames(worlds[:1], 200, rng, radii)]
    legacy_cfg = LegacyConfig(max_recursion=5)

    def run():
        return [(sphere_sweep(world, pos, vel),
                 collide_with_world_legacy(world, pos, vel, legacy_cfg))
                for world, pos, vel in frames]

    want = run()
    with mock.patch.object(world_module, "SCAN_WORLD_TRIANGLES", -1):
        assert run() == want
    with mock.patch.object(world_module, "SCAN_WORLD_TRIANGLES", sys.maxsize):
        assert run() == want
    assert sum(res.planes != () for res, _ in want) > 100
