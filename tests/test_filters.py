"""The box and plane-slab filters never change a query's answer.

``check_collision`` hands the narrowphase only the grid candidates that
survive ``World.sweep_indices``.  Every test here compares it, bit for bit
(same ``t``, same contact point, same index), with a scan of every
triangle in the world, and checks that every triangle the scan hits
survived the filters.
"""

import math
import random

import pytest

from sweepslide.core import Triangle, add, distance, sub
from sweepslide.detect import check_collision, closest_point_on_triangle, sweep_unit_sphere_triangle
from sweepslide.ellipsoid import EllipsoidRadii, EllipsoidWorldView, triangle_to_sphere_space
from sweepslide.mesh import builtin_mesh
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
