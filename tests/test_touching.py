"""Whole frames that start touching the mesh, at exactly one radius.

Each narrowphase feature reports only the crossing where its distance
falls to one unit, so a sphere resting on the mesh can leave it; a start
that rounds to just inside a feature's shell and closes in touches at
``t = 0`` instead of passing through, and one whose distance rounds below
one unit but that moves away touches nothing.
"""

import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sweepslide.core import (
    DegenerateTriangleError,
    DegenerateVectorError,
    Triangle,
    add,
    cross,
    dot,
    normalize,
    scale,
    sub,
)
from sweepslide.ellipsoid import (
    EllipsoidRadii,
    EllipsoidWorldView,
    from_sphere_space,
    triangle_to_sphere_space,
)
from sweepslide.mesh import builtin_mesh
from sweepslide.response import MIN_VELOCITY, sphere_sweep
from sweepslide.scenario import min_distance_to_mesh
from sweepslide.world import SCALAR_FILTER_CANDIDATES, build_world


def _clearance(world, pos):
    return min_distance_to_mesh(pos, world.vertices)


def _tessellated_floor(n=40, cell=1.0, height=lambda x, y: 0.0):
    """An ``n`` by ``n`` grid of unit squares at z = height(x, y), two triangles each."""
    tris = []
    lo = -0.5 * n * cell
    for i in range(n):
        for j in range(n):
            x0, y0 = lo + i * cell, lo + j * cell
            x1, y1 = x0 + cell, y0 + cell
            a, b = (x0, y0, height(x0, y0)), (x1, y0, height(x1, y0))
            c, d = (x1, y1, height(x1, y1)), (x0, y1, height(x0, y1))
            tris.append(Triangle(a, b, c))
            tris.append(Triangle(a, c, d))
    return tris


def test_a_sphere_that_lands_on_the_floor_keeps_sliding():
    world = build_world(builtin_mesh("floor"))
    pos = (0.0, 0.0, 1.1)
    step = (0.37, 0.11, -0.05)
    for frame in range(8):
        res = sphere_sweep(world, pos, step)
        assert res.final_pos[0] - pos[0] == pytest.approx(0.37, abs=1e-12), frame
        assert res.final_pos[1] - pos[1] == pytest.approx(0.11, abs=1e-12), frame
        assert 1.0 <= res.final_pos[2] <= 1.1
        assert res.iterations <= 1
        pos = res.final_pos
    assert pos[2] == pytest.approx(1.005, abs=1e-9)


@pytest.mark.parametrize("tris, vel", [
    (builtin_mesh("floor"), (0.0, 0.0, 0.5)),  # over the floor's diagonal edge
    # Over a vertex, leaving it sideways: neither the face nor an edge is
    # touched, only the vertex, whose roots are 0 and -2.
    ([Triangle((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))], (-0.3, -0.4, 0.5)),
], ids=["floor", "vertex"])
def test_a_touching_sphere_can_lift_off(tris, vel):
    res = sphere_sweep(build_world(tris), (0.0, 0.0, 1.0), vel)
    assert res.final_pos == add((0.0, 0.0, 1.0), vel)
    assert res.iterations == 0


@pytest.mark.parametrize("tris", [builtin_mesh("floor"), _tessellated_floor()],
                         ids=["floor", "tessellated"])
def test_no_walker_stops_on_a_flat_floor(tris):
    # Walkers spawned from exactly one radius up to 1.95 above the floor,
    # under gravity: every frame keeps at least 90 % of the commanded
    # horizontal motion, on one big triangle pair and on 3,200 small ones.
    world = build_world(tris)
    rng = random.Random(5)
    for k in range(100):
        pos = (rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0), 1.0 + 0.05 * (k % 20))
        gravity = rng.uniform(0.05, 0.5)
        speed = rng.uniform(0.1, 0.37)
        heading = rng.uniform(0.0, 2.0 * math.pi)
        vel = (speed * math.cos(heading), speed * math.sin(heading), -gravity)
        for frame in range(20):
            res = sphere_sweep(world, pos, vel)
            moved = math.hypot(res.final_pos[0] - pos[0], res.final_pos[1] - pos[1])
            assert moved >= 0.9 * speed, (k, frame, pos)
            assert res.final_pos[2] >= 1.0 - 1e-6
            pos = res.final_pos


def test_no_walker_stops_on_a_tessellated_ramp():
    # Walkers spawned at exactly one radius along the normal of the ramp
    # z = 0.3x + 0.2y, made of 3,200 small triangles.  For some, the
    # closest-point distance rounds to just below 1; a narrowphase that
    # took any such start as a contact, moving away or not, stopped them
    # in every frame with 3 iterations.
    world = build_world(_tessellated_floor(height=lambda x, y: 0.3 * x + 0.2 * y))
    normal = normalize((-0.3, -0.2, 1.0))
    rng = random.Random(0)
    for k in range(60):
        x, y = rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0)
        pos = add((x, y, 0.3 * x + 0.2 * y), normal)
        gravity = rng.uniform(0.05, 0.5)
        speed = rng.uniform(0.1, 0.37)
        heading = rng.uniform(0.0, 2.0 * math.pi)
        vel = (speed * math.cos(heading), speed * math.sin(heading), -gravity)
        for frame in range(30):
            res = sphere_sweep(world, pos, vel)
            assert res.final_pos != pos, (k, frame, pos)
            pos = res.final_pos
        assert _clearance(world, pos) >= 1.0 - 1e-6


def test_a_rounded_touching_start_cannot_tunnel():
    # The plane z = 0.3x + 0.2y.  The start's exact clearance is
    # 0.9999999999999963, which the narrowphase's closest-point distance
    # rounds up to 1, while the face's own plane distance stays below 1.
    tri = Triangle((-50.0, -50.0, -25.0), (50.0, -50.0, 5.0), (0.0, 50.0, 10.0))
    world = build_world([tri])
    start = add((-3.0, -3.0, -1.5), tri.normal)
    assert _clearance(world, start) >= 1.0 - 1e-12
    res = sphere_sweep(world, start, (0.0, 0.0, -0.5))
    assert res.iterations >= 1
    assert _clearance(world, res.final_pos) >= 1.0 - 1e-6


_coord = st.floats(-10.0, 10.0)
_offset = st.sampled_from((0.0, 1e4, -1e6, 1e8))
_ulps = st.tuples(*[st.sampled_from((-1, 0, 1))] * 3)


def _nudged(p, ulps):
    return tuple(x if k == 0 else math.nextafter(x, k * math.inf) for x, k in zip(p, ulps))


def _touching_starts(tri, s, f, phi):
    """A point one unit off a vertex, an edge and the face of *tri*, with
    the outward direction from each feature.

    A feature whose outward direction cannot be normalised, such as the
    vertex between a sliver's 1e-32 edge and a long one, which ``Triangle``
    accepts because its test is relative, gives no start.
    """
    a, b, c = tri.a, tri.b, tri.c
    n = tri.normal
    tilt = (math.cos(phi), math.sin(phi))
    # The vertex's outward bisector and the edge's outward in-plane normal
    # keep the start in that feature's Voronoi region, so the feature is
    # the nearest point of the triangle.
    try:
        bisector = normalize(scale(add(normalize(sub(b, a)), normalize(sub(c, a))), -1.0))
    except DegenerateVectorError:
        pass
    else:
        out = add(scale(n, tilt[0]), scale(bisector, tilt[1]))
        yield add(a, out), out
    try:
        edge_out = normalize(cross(sub(b, a), n))
    except DegenerateVectorError:
        pass
    else:
        if dot(edge_out, sub(c, a)) > 0.0:
            edge_out = scale(edge_out, -1.0)
        out = add(scale(n, tilt[0]), scale(edge_out, tilt[1]))
        yield add(add(a, scale(sub(b, a), f)), out), out
    out = scale(n, 1.0 if phi < 0.5 * math.pi else -1.0)
    yield add(add(a, add(scale(sub(b, a), s), scale(sub(c, a), (1.0 - s) * f))), out), out


@given(st.tuples(*[st.tuples(_coord, _coord, _coord)] * 3),
       st.tuples(_offset, _offset, _offset),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, math.pi),
       _ulps, st.floats(0.01, 2.0), st.tuples(*[st.floats(-1.0, 1.0)] * 3))
@settings(max_examples=250, deadline=None)
# A sliver Triangle accepts: its vertex start has no bisector.
@example(verts=((0.0, 0.0, 0.0), (0.0, 1.0, 1.0), (2.3640112368562358e-32, 0.0, 0.0)),
         offset=(0.0, 0.0, 0.0), s=0.0, f=0.0, phi=0.0, ulps=(-1, -1, -1), speed=1.0,
         drift=(0.0, 0.0, 0.0))
def test_touching_starts_keep_the_guarantees(verts, offset, s, f, phi, ulps, speed, drift):
    # One unit off a vertex, an edge or the face of a random tilted
    # triangle, give or take an ulp, far from the origin or not, moving in
    # or out: one frame ends within 3 iterations and no closer than one
    # radius, as every non-penetrating start must.
    try:
        tri = Triangle(*(add(v, offset) for v in verts))
    except DegenerateTriangleError:
        assume(False)
    n = tri.normal
    assume(max(abs(n[0]), abs(n[1]), abs(n[2])) < 0.999)
    world = build_world([tri])
    for start, out in _touching_starts(tri, s, f, phi):
        start = _nudged(start, ulps)
        for sign in (1.0, -1.0):
            vel = add(scale(out, sign * speed), drift)
            res = sphere_sweep(world, start, vel)
            assert res.iterations <= 3
            assert _clearance(world, res.final_pos) >= 1.0 - 1e-6, (start, vel)


# Each radius 1e-3 to 1: axis ratios from 1e-3 to 1e3, and world-space
# triangles no larger than their sphere-space ones, so the grid takes them.
_radius = st.floats(-3.0, 0.0).map(lambda e: 10.0 ** e)


@given(st.tuples(*[st.tuples(_coord, _coord, _coord)] * 3),
       st.tuples(_offset, _offset, _offset),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, math.pi),
       _ulps, st.floats(0.01, 2.0), st.tuples(*[st.floats(-1.0, 1.0)] * 3),
       st.tuples(_radius, _radius, _radius))
@settings(max_examples=150, deadline=None)
def test_touching_starts_keep_the_guarantees_through_a_view(verts, offset, s, f, phi, ulps,
                                                            speed, drift, radii):
    # The same starts as above, one unit off a feature of the sphere-space
    # triangle an ellipsoid's view sees, through a world of that triangle
    # alone (whose sweeps the world filters in Python floats) and a world
    # of enough copies of it that they take the numpy filter.
    radii = EllipsoidRadii(*radii)
    try:
        world_tri = Triangle(*(from_sphere_space(add(v, offset), radii) for v in verts))
        tri = triangle_to_sphere_space(world_tri, radii)
    except DegenerateTriangleError:
        assume(False)  # radii that flatten the triangle one way or the other
    n = tri.normal
    assume(max(abs(n[0]), abs(n[1]), abs(n[2])) < 0.999)
    views = [EllipsoidWorldView(build_world([world_tri] * copies), radii)
             for copies in (1, SCALAR_FILTER_CANDIDATES + 1)]
    sphere_vertices = views[0].world.vertices / radii.as_tuple()
    for start, out in _touching_starts(tri, s, f, phi):
        start = _nudged(start, ulps)
        for sign in (1.0, -1.0):
            vel = add(scale(out, sign * speed), drift)
            res = sphere_sweep(views[0], start, vel)
            # Deterministic, and the same frame whichever filter ran.
            assert all(sphere_sweep(view, start, vel) == res for view in views)
            assert res.iterations <= 3
            assert min_distance_to_mesh(res.final_pos, sphere_vertices) >= 1.0 - 1e-6, (start, vel)
            if dot(vel, out) > 0.0 and math.sqrt(dot(vel, vel)) > MIN_VELOCITY:
                # Moving away from the nearest point of a convex triangle:
                # nothing is touched, and the whole motion is made.
                assert res.iterations == 0 and res.final_pos == add(start, vel), (start, vel)
