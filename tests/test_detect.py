import math
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sweepslide.detect
from sweepslide.core import (
    DegenerateTriangleError,
    Triangle,
    add,
    cross,
    distance,
    dot,
    norm,
    robust_quadratic_roots,
    scale,
    sub,
)
from sweepslide.detect import (
    BARYCENTRIC_TOLERANCE,
    REACH_MARGIN,
    SweepHit,
    check_collision,
    closest_point_on_triangle,
    point_in_triangle,
    sweep_unit_sphere_triangle,
)
from sweepslide.ellipsoid import EllipsoidRadii, EllipsoidWorldView
from sweepslide.legacy import collide_with_world_legacy
from sweepslide.mesh import builtin_mesh
from sweepslide.response import sphere_sweep
from sweepslide.world import build_world

BIG_FLOOR = Triangle((-50.0, -50.0, 0.0), (50.0, -50.0, 0.0), (0.0, 50.0, 0.0))


def test_face_hit_floor():
    # Dropping from height 3 touches the plane when the center reaches 1:
    # t = (3 - 1) / 3.
    hit = sweep_unit_sphere_triangle((0.0, 0.0, 3.0), (0.0, 0.0, -3.0), BIG_FLOOR)
    assert hit is not None
    assert abs(hit.t - 2.0 / 3.0) <= 1e-12
    assert distance(hit.contact_point, (0.0, 0.0, 0.0)) <= 1e-12


def test_separating_motion_misses():
    assert sweep_unit_sphere_triangle((0.0, 0.0, 3.0), (0.0, 0.0, 3.0), BIG_FLOOR) is None
    assert sweep_unit_sphere_triangle((0.0, 0.0, -3.0), (0.0, 0.0, -3.0), BIG_FLOOR) is None


def test_vertex_hit():
    # Path offset below the triangle so the face test misses and the origin
    # vertex is the first feature reached.  Expected time frozen from the
    # distance-bisection oracle (equals (3 - sqrt(0.75)) / 3).
    tri = Triangle((0.0, 0.0, 0.0), (1.0, 0.0, 1.0), (-1.0, 0.0, 1.0))
    hit = sweep_unit_sphere_triangle((0.0, -3.0, -0.5), (0.0, 3.0, 0.0), tri)
    assert hit is not None
    assert abs(hit.t - 0.7113248654051871) <= 1e-9
    assert hit.contact_point == (0.0, 0.0, 0.0)


def test_edge_hit():
    # Dropping half a unit beyond the y=-10 edge: contact lands mid-edge.
    # Expected time frozen from the distance-bisection oracle.
    hit = sweep_unit_sphere_triangle(
        (0.0, -10.5, 3.0), (0.0, 0.0, -3.0),
        Triangle((-10.0, -10.0, 0.0), (10.0, -10.0, 0.0), (0.0, 10.0, 0.0)),
    )
    assert hit is not None
    assert abs(hit.t - 0.7113248654051871) <= 1e-9
    assert distance(hit.contact_point, (0.0, -10.0, 0.0)) <= 1e-9


def test_parallel_inside_slab_skips_face():
    # Sliding sideways while overlapping the plane slab: the face can never
    # be newly touched, but the edge still can.
    tri = Triangle((-2.0, -2.0, 0.0), (2.0, -2.0, 0.0), (0.0, 2.0, 0.0))
    hit = sweep_unit_sphere_triangle((-6.0, -2.0, 0.5), (8.0, 0.0, 0.0), tri)
    assert hit is not None
    assert hit.t > 0.0
    center = add((-6.0, -2.0, 0.5), scale((8.0, 0.0, 0.0), hit.t))
    assert abs(distance(center, hit.contact_point) - 1.0) <= 1e-6


def test_embedded_start_reports_t_zero():
    # Half a unit above the floor: motion that closes in on it touches at
    # once, at the nearest point; motion along it or away touches nothing.
    for vel in ((0.0, 0.0, -1.0), (1.0, 0.0, -0.1), (0.0, 0.0, -1e-9)):
        hit = sweep_unit_sphere_triangle((0.0, 0.0, 0.5), vel, BIG_FLOOR)
        assert hit is not None, vel
        assert hit.t == 0.0
        assert hit.contact_point == (0.0, 0.0, 0.0)
    for vel in ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.2), (0.0, 0.0, 0.0)):
        assert sweep_unit_sphere_triangle((0.0, 0.0, 0.5), vel, BIG_FLOOR) is None, vel


def test_point_in_triangle_edge_tolerance():
    tri = Triangle((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    assert point_in_triangle((0.5, 0.0, 0.0), tri)
    assert point_in_triangle((0.5, -5e-10, 0.0), tri)
    assert not point_in_triangle((0.5, -1e-6, 0.0), tri)


def _random_triangle(rng, extent=4.0):
    while True:
        base = tuple(rng.uniform(-extent, extent) for _ in range(3))
        try:
            return Triangle(
                base,
                tuple(base[i] + rng.uniform(-2, 2) for i in range(3)),
                tuple(base[i] + rng.uniform(-2, 2) for i in range(3)),
            )
        except ValueError:
            continue


def _random_clear_sweep(rng):
    """A random (source, vel, tri) with a non-penetrating start."""
    tri = _random_triangle(rng)
    while True:
        source = tuple(rng.uniform(-6, 6) for _ in range(3))
        if distance(source, closest_point_on_triangle(source, tri)) >= 1.001:
            break
    centroid = tuple((tri.a[i] + tri.b[i] + tri.c[i]) / 3.0 for i in range(3))
    toward = sub(centroid, source)
    vel = scale(toward, rng.uniform(0.3, 2.0))
    return source, vel, tri


def test_no_early_contact_and_tangency_fuzz():
    rng = random.Random(7)
    hits = 0
    for _ in range(1500):
        source, vel, tri = _random_clear_sweep(rng)
        hit = sweep_unit_sphere_triangle(source, vel, tri)
        if hit is None:
            continue
        hits += 1
        center = add(source, scale(vel, hit.t))
        assert abs(distance(center, hit.contact_point) - 1.0) <= 1e-6
        # contact point must actually lie on the triangle
        assert distance(hit.contact_point,
                        closest_point_on_triangle(hit.contact_point, tri)) <= 1e-9
        for k in range(8):
            s = hit.t * k / 8.0
            c = add(source, scale(vel, s))
            assert distance(c, closest_point_on_triangle(c, tri)) >= 1.0 - 1e-6
    assert hits >= 300


def test_check_collision_empty_world():
    world = build_world([])
    assert check_collision(world, (0.0, 0.0, 3.0), (0.0, 0.0, -3.0)) is None


def test_check_collision_orders_by_time():
    upper = Triangle((-30.0, -30.0, 0.0), (30.0, -30.0, 0.0), (0.0, 30.0, 0.0))
    lower = Triangle((-30.0, -30.0, -1.0), (30.0, -30.0, -1.0), (0.0, 30.0, -1.0))
    world = build_world([lower, upper])
    hit = check_collision(world, (0.0, 0.0, 3.0), (0.0, 0.0, -5.0))
    assert hit is not None
    assert hit.triangle_index == 1  # the z=0 triangle is reached first
    assert abs(hit.t - 2.0 / 5.0) <= 1e-12


def test_check_collision_matches_brute_force():
    rng = random.Random(21)
    tris = [_random_triangle(rng, extent=6.0) for _ in range(50)]
    world = build_world(tris)
    agreements = 0
    for _ in range(300):
        while True:
            source = tuple(rng.uniform(-7, 7) for _ in range(3))
            if all(distance(source, closest_point_on_triangle(source, t)) >= 1.001
                   for t in tris):
                break
        vel = tuple(rng.uniform(-6, 6) for _ in range(3))
        grid_hit = check_collision(world, source, vel)
        brute = None
        for i, t in enumerate(tris):
            h = sweep_unit_sphere_triangle(source, vel, t)
            if h is not None and (brute is None or h.t < brute[0]):
                brute = (h.t, i)
        if grid_hit is None:
            assert brute is None
        else:
            assert brute is not None
            assert grid_hit.t == brute[0]
            assert grid_hit.triangle_index == brute[1]
            agreements += 1
    assert agreements >= 50


def test_check_collision_calls_the_narrowphase_through_the_module(monkeypatch):
    # The bench counts narrowphase calls by rebinding the module name, so
    # check_collision must look it up there once per surviving candidate.
    # Its hook unpacks exactly (source, vel, tri): the horizon goes by keyword.
    rng = random.Random(5)
    world = build_world([_random_triangle(rng, extent=3.0) for _ in range(40)])
    calls = []
    original = sweepslide.detect.sweep_unit_sphere_triangle

    def counted(*args, **kw):
        assert len(args) == 3
        calls.append(args[2])
        return original(*args, **kw)

    monkeypatch.setattr(sweepslide.detect, "sweep_unit_sphere_triangle", counted)
    checked = 0
    for _ in range(50):
        source = tuple(rng.uniform(-5, 5) for _ in range(3))
        vel = tuple(rng.uniform(-3, 3) for _ in range(3))
        end = add(source, vel)
        expected = len(world.candidates(source, end))
        del calls[:]
        check_collision(world, source, vel)
        assert len(calls) == expected
        checked += expected
    assert checked > 50


# --- bit identity with the helper-based formulation ---
#
# The library writes the per-triangle arithmetic out in float locals.  These
# references are the same algorithms through core's helpers; the inline code
# keeps their operation order, so every result must be equal, not close.


def _ref_point_in_triangle(p, tri):
    v0 = sub(tri.b, tri.a)
    v1 = sub(tri.c, tri.a)
    v2 = sub(p, tri.a)
    d00 = dot(v0, v0)
    d01 = dot(v0, v1)
    d11 = dot(v1, v1)
    d20 = dot(v2, v0)
    d21 = dot(v2, v1)
    denom = d00 * d11 - d01 * d01
    if denom == 0.0:
        return False
    v = (d11 * d20 - d01 * d21) / denom
    w = (d00 * d21 - d01 * d20) / denom
    tol = BARYCENTRIC_TOLERANCE
    return v >= -tol and w >= -tol and (v + w) <= 1.0 + tol


def _ref_closest_point(p, tri):
    a, b, c = tri.a, tri.b, tri.c
    ab = sub(b, a)
    ac = sub(c, a)
    ap = sub(p, a)
    d1 = dot(ab, ap)
    d2 = dot(ac, ap)
    if d1 <= 0.0 and d2 <= 0.0:
        return a
    bp = sub(p, b)
    d3 = dot(ab, bp)
    d4 = dot(ac, bp)
    if d3 >= 0.0 and d4 <= d3:
        return b
    vc = d1 * d4 - d3 * d2
    if vc <= 0.0 and d1 >= 0.0 and d3 <= 0.0:
        v = d1 / (d1 - d3)
        return add(a, scale(ab, v))
    cp = sub(p, c)
    d5 = dot(ab, cp)
    d6 = dot(ac, cp)
    if d6 >= 0.0 and d5 <= d6:
        return c
    vb = d5 * d2 - d1 * d6
    if vb <= 0.0 and d2 >= 0.0 and d6 <= 0.0:
        w = d2 / (d2 - d6)
        return add(a, scale(ac, w))
    va = d3 * d6 - d5 * d4
    if va <= 0.0 and (d4 - d3) >= 0.0 and (d5 - d6) >= 0.0:
        w = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        return add(b, scale(sub(c, b), w))
    denom = 1.0 / (va + vb + vc)
    v = vb * denom
    w = vc * denom
    return add(a, add(scale(ab, v), scale(ac, w)))


def _ref_sweep(source, vel, tri):
    nearest = _ref_closest_point(source, tri)
    offset = sub(source, nearest)
    if norm(offset) < 1.0 and dot(offset, vel) < 0.0:
        return SweepHit(0.0, nearest)
    vel_sq = dot(vel, vel)
    if vel_sq < 1e-24:
        return None
    best_t = None
    best_point = None
    n = tri.normal
    nv = dot(n, vel)
    if nv != 0.0:
        d0 = dot(n, sub(source, tri.a))
        level = 1.0 if nv < 0.0 else -1.0
        t = (level - d0) / nv
        if t < 0.0 and level * d0 > 0.0:
            t = 0.0
        if 0.0 <= t <= 1.0:
            center = add(source, scale(vel, t))
            p = sub(center, scale(n, level))
            if _ref_point_in_triangle(p, tri):
                best_t = t
                best_point = p
    for v in (tri.a, tri.b, tri.c):
        m = sub(source, v)
        qb = 2.0 * dot(vel, m)
        qc = dot(m, m) - 1.0
        roots = robust_quadratic_roots(vel_sq, qb, qc)
        if roots is None:
            continue
        t = roots[0]
        if t < 0.0 and qc < 0.0 and qb < 0.0:
            t = 0.0
        if 0.0 <= t <= 1.0 and (best_t is None or t < best_t):
            best_t = t
            best_point = v
    for p1, p2 in ((tri.a, tri.b), (tri.b, tri.c), (tri.c, tri.a)):
        e = sub(p2, p1)
        m = sub(source, p1)
        ee = dot(e, e)
        ev = dot(e, vel)
        em = dot(e, m)
        qa = ee * vel_sq - ev * ev
        if qa == 0.0:
            continue
        qb = 2.0 * (ee * dot(m, vel) - em * ev)
        qc = ee * (dot(m, m) - 1.0) - em * em
        roots = robust_quadratic_roots(qa, qb, qc)
        if roots is None:
            continue
        t = roots[0]
        if t < 0.0 and qc < 0.0 and qb < 0.0:
            t = 0.0
        if 0.0 <= t <= 1.0:
            f = (em + ev * t) / ee
            if 0.0 <= f <= 1.0 and (best_t is None or t < best_t):
                best_t = t
                best_point = add(p1, scale(e, f))
    if best_t is None:
        return None
    return SweepHit(best_t, best_point)


def _ref_check_collision(world, source, vel):
    end = add(source, vel)
    best = None
    for index, tri in world.candidates(source, end):
        hit = _ref_sweep(source, vel, tri)
        if hit is not None and (best is None or hit.t < best.t):
            best = replace(hit, triangle_index=index)
    return best


_coord = st.floats(-4.0, 4.0)
_vec = st.tuples(_coord, _coord, _coord)
# Integer-valued, so the plane z = const, its edges and a start one unit
# above a vertex are all exact.
_grid = st.integers(-4, 4).map(float)


@st.composite
def _sweeps(draw, kinds=("random", "sliver", "flat"),
            starts=("clear", "above", "touching", "inside"),
            motions=("random", "zero", "edge", "face", "toward")):
    """``(source, vel, triangle)``: random, sliver and axis-aligned triangles;
    starts clear, above the face, touching and inside; velocities random,
    zero, parallel to an edge or to the face, and toward the centroid;
    optionally offset by up to 1e8 and divided by radii with axis ratios up
    to 1e3."""
    kind = draw(st.sampled_from(kinds))
    if kind == "flat":
        z = draw(_grid)
        a, b, c = ((draw(_grid), draw(_grid), z) for _ in range(3))
    else:
        a, b, c = draw(_vec), draw(_vec), draw(_vec)
        if kind == "sliver":
            s = draw(st.floats(-0.5, 1.5))
            eps = draw(st.sampled_from((1e-3, 1e-6, 1e-9)))
            c = add(add(a, scale(sub(b, a), s)), scale(c, eps))
    try:
        tri = Triangle(a, b, c)
    except DegenerateTriangleError:
        tri = Triangle((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        a, b, c = tri.vertices()
    n = tri.normal

    centroid = scale(add(add(a, b), c), 1.0 / 3.0)
    start = draw(st.sampled_from(starts))
    if start == "above":
        # Over the face, so motion toward the centroid meets the face first.
        source = add(centroid, scale(n, draw(st.floats(1.01, 4.0))))
    elif start == "touching":
        # One unit along the normal from a vertex: exactly 1 away when flat.
        source = add(draw(st.sampled_from((a, b, c))), n)
    elif start == "inside":
        source = add(centroid, scale(n, draw(st.floats(-0.999, 0.999))))
    else:
        source = add(a, draw(st.tuples(*[st.floats(-6.0, 6.0)] * 3)))

    motion = draw(st.sampled_from(motions))
    k = draw(st.floats(-3.0, 3.0))
    if motion == "zero":
        vel = (0.0, 0.0, 0.0)
    elif motion == "edge":
        p1, p2 = draw(st.sampled_from(((a, b), (b, c), (c, a))))
        vel = scale(sub(p2, p1), k)
    elif motion == "face":
        vel = add(scale(sub(b, a), k), scale(sub(c, a), draw(st.floats(-3.0, 3.0))))
    elif motion == "toward":
        vel = scale(sub(centroid, source), draw(st.floats(0.3, 2.0)))
    else:
        vel = draw(_vec)

    # Half the examples stay within a few units of the origin, where the
    # reach cull's margin is small and the cull fires; the rest go far out.
    offsets = (0.0, 2.0, -5.0) if draw(st.booleans()) else (0.0, 1e4, -1e6, 1e8)
    offset = draw(st.tuples(*[st.sampled_from(offsets)] * 3))
    verts = [add(v, offset) for v in (a, b, c)]
    source = add(source, offset)
    radii = draw(st.none() | st.tuples(*[st.floats(0.03, 30.0)] * 3))
    if radii is not None:
        verts = [(v[0] / radii[0], v[1] / radii[1], v[2] / radii[2]) for v in verts]
        source = (source[0] / radii[0], source[1] / radii[1], source[2] / radii[2])
        vel = (vel[0] / radii[0], vel[1] / radii[1], vel[2] / radii[2])
    try:
        tri = Triangle(*verts)
    except DegenerateTriangleError:
        pass
    return source, vel, tri


@given(_sweeps())
@settings(max_examples=600, deadline=None)
def test_narrowphase_is_bit_identical_to_the_helper_formulation(case):
    source, vel, tri = case
    assert closest_point_on_triangle(source, tri) == _ref_closest_point(source, tri)
    assert sweep_unit_sphere_triangle(source, vel, tri) == _ref_sweep(source, vel, tri)
    n = tri.normal
    d = dot(n, sub(source, tri.a))
    for p in (source, sub(source, scale(n, d)), tri.a, scale(add(tri.b, tri.c), 0.5)):
        assert point_in_triangle(p, tri) == _ref_point_in_triangle(p, tri)


@given(_sweeps(kinds=("random",), starts=("above",), motions=("toward",)))
@settings(max_examples=300, deadline=None)
def test_face_contacts_are_bit_identical_to_the_helper_formulation(case):
    # Tilted triangles approached from above: the face test decides almost
    # every example, which the mixed strategy above reaches only rarely.
    source, vel, tri = case
    assert sweep_unit_sphere_triangle(source, vel, tri) == _ref_sweep(source, vel, tri)


@given(st.lists(_sweeps(), min_size=1, max_size=6), st.booleans())
@settings(max_examples=100, deadline=None)
def test_check_collision_is_bit_identical_to_the_helper_formulation(cases, duplicate):
    tris = [tri for _, _, tri in cases]
    if duplicate:
        tris += tris  # equal t on two indices: the smaller must win
    world = build_world(tris)
    source, vel, _ = cases[0]
    assert check_collision(world, source, vel) == _ref_check_collision(world, source, vel)


@pytest.mark.parametrize("source, vel", [
    ((0.0, 0.0, 1.0), (0.0, 0.0, 0.5)),      # touching, separating
    ((0.0, 0.0, 1.0), (0.0, 0.0, -0.5)),     # touching, closing
    ((0.0, 0.0, 1.0), (0.0, 0.0, 0.0)),      # touching, at rest
    ((0.0, 0.0, 0.5), (0.3, 0.0, 0.0)),      # inside
    ((-60.0, -50.0, 0.5), (8.0, 0.0, 0.0)),  # along an edge line, in the face plane
    ((-60.0, -50.0, 1.0), (120.0, 0.0, 0.0)),  # along an edge, touching it
    ((0.0, 0.0, 2.0), (7.0, -3.0, 0.0)),     # parallel to the face
])
def test_narrowphase_edge_cases_are_bit_identical(source, vel):
    assert sweep_unit_sphere_triangle(source, vel, BIG_FLOOR) == _ref_sweep(source, vel, BIG_FLOOR)


# --- the reach cull ---


def _culled(source, vel, tri):
    """Whether the reach cull drops this sweep: the distance's tangent at the
    start, ``gap + t * (source - nearest) . vel / gap``, or ``gap`` for motion
    that does not close in, stays farther than one unit over the frame, plus
    REACH_MARGIN times the size over the squared sine of the angle at ``a``."""
    offset = sub(source, closest_point_on_triangle(source, tri))
    gap = norm(offset)
    closing = dot(offset, vel)
    clear = gap - 1.0 + (closing / gap if closing < 0.0 else 0.0)
    ab, ac = sub(tri.b, tri.a), sub(tri.c, tri.a)
    size = math.sqrt(1.0 + dot(vel, vel) + dot(source, source) + dot(tri.a, tri.a)
                     + dot(ab, ab) + dot(ac, ac))
    sine_sq = dot(cross(ab, ac), cross(ab, ac)) / (dot(ab, ab) * dot(ac, ac))
    return (not (gap < 1.0 and closing < 0.0) and dot(vel, vel) >= 1e-24
            and clear > REACH_MARGIN * size / sine_sq)


@st.composite
def _head_on(draw):
    """``(source, vel, triangle)``: a start ``1 + L`` from its nearest point on
    one of ``_sweeps()``'s triangles (offsets and radii included), closing in
    on it by ``L * (1 + delta)`` and, optionally, sliding sideways.  The
    tangent bound then reaches one unit at ``t = 1 / (1 + delta)``, just before
    or just after the frame ends, and first contact is due there when the
    nearest point lies inside the face (and the slide stays over it) or the
    motion is head-on."""
    source, _, tri = draw(_sweeps(motions=("zero",)))
    nearest = closest_point_on_triangle(source, tri)
    away = sub(source, nearest)
    gap = norm(away)
    direction = scale(away, 1.0 / gap) if gap > 0.0 else tri.normal
    length = draw(st.floats(0.05, 50.0))
    delta = draw(st.floats(-1e-6, 1e-6))
    vel = scale(direction, -length * (1.0 + delta))
    side = draw(st.sampled_from((None, "edge", "random")))
    if side is not None:
        w = sub(tri.b, tri.a) if side == "edge" else draw(_vec)
        w = sub(w, scale(direction, dot(w, direction)))  # perpendicular to the closing motion
        vel = add(vel, scale(w, draw(st.floats(0.0, 2.0))))
    return add(nearest, scale(direction, 1.0 + length)), vel, tri


@given(_head_on())
@settings(max_examples=600, deadline=None)
def test_reach_cull_is_exact_at_its_tight_case(case):
    # The tangent bound meets one unit within about 1e-6 of t = 1, on
    # either side, so a cull that fires a hair too early drops a real contact.
    source, vel, tri = case
    expected = _ref_sweep(source, vel, tri)
    assert sweep_unit_sphere_triangle(source, vel, tri) == expected
    if _culled(source, vel, tri):
        assert expected is None


def test_reach_cull_skips_the_feature_tests(monkeypatch):
    # Nine units from the triangle and moving about one: out of reach.  The
    # sweep still passes half a unit from the line through edge ab, so
    # without the cull that edge's quadratic has roots to find.
    tri = Triangle((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    source, vel = (10.0, 0.0, 0.5), (1.0, 0.1, 0.0)
    assert _culled(source, vel, tri)
    calls = []
    original = sweepslide.detect.robust_quadratic_roots

    def counted(a, b, c):
        calls.append((a, b, c))
        return original(a, b, c)

    monkeypatch.setattr(sweepslide.detect, "robust_quadratic_roots", counted)
    assert sweep_unit_sphere_triangle(source, vel, tri) is None
    assert calls == []


# --- the horizon ---


@st.composite
def _bounded(draw):
    """``(source, vel, triangle, L)``: a ``_sweeps()`` or ``_head_on()`` case
    with its motion stretched, which moves a head-on contact due at the
    frame's end to ``1 / stretch`` with the tangent bound still tight there,
    and a horizon ``L`` from [0, 1] or next to the unbounded contact time,
    where a horizon a hair too short drops a real contact."""
    source, vel, tri = draw(st.one_of(_sweeps(), _head_on()))
    vel = scale(vel, draw(st.floats(1.0, 20.0)))
    horizons = st.floats(0.0, 1.0)
    full = sweep_unit_sphere_triangle(source, vel, tri)
    if full is not None:
        near = {full.t, math.nextafter(full.t, 0.0), math.nextafter(full.t, 2.0)}
        horizons |= st.sampled_from(sorted(x for x in near if 0.0 < x <= 1.0))
    return source, vel, tri, draw(horizons)


@given(_bounded())
@example(((0.0, 0.0, 3.0), (0.0, 0.0, -3.0), BIG_FLOOR, math.nextafter(2.0 / 3.0, 1.0)))
@settings(max_examples=600, deadline=None)
def test_a_horizon_drops_only_contacts_at_or_after_it(case):
    # check_collision bounds each call by the earliest contact found so far.
    # Cut off at L, the reach cull may drop a triangle whose first contact
    # comes at L or later, but it keeps every earlier one and never changes
    # a result it keeps.
    source, vel, tri, limit = case
    full = sweep_unit_sphere_triangle(source, vel, tri)
    hit = sweep_unit_sphere_triangle(source, vel, tri, limit=limit)
    assert hit is None or hit == full
    if full is not None and full.t < limit:
        assert hit == full


def _tessellated_floor(n):
    """An ``n`` by ``n`` grid of unit squares in the plane z = 0, two triangles each."""
    tris = []
    for i in range(n):
        for j in range(n):
            x0, y0 = i - 0.5 * n, j - 0.5 * n
            a, b = (x0, y0, 0.0), (x0 + 1.0, y0, 0.0)
            c, d = (x0 + 1.0, y0 + 1.0, 0.0), (x0, y0 + 1.0, 0.0)
            tris += [Triangle(a, b, c), Triangle(a, c, d)]
    return tris


def _without_horizon(monkeypatch):
    """Rebinds the narrowphase so every call ignores its horizon, as before it had one."""
    original = sweepslide.detect.sweep_unit_sphere_triangle

    def unbounded(source, vel, tri, *, limit=1.0):
        return original(source, vel, tri)

    monkeypatch.setattr(sweepslide.detect, "sweep_unit_sphere_triangle", unbounded)


def _walker_frames(worlds, seed):
    """Improved and legacy frames through each world and through two views of
    it with non-unit radii: walkers start in [-8, 8]^3, half of them aimed
    at a triangle, and each response runs on for four frames."""
    rng = random.Random(seed)
    frames = []
    for world in worlds:
        for radii in ((1.0, 1.0, 1.0), (0.5, 0.8, 1.6), (2.0, 1.0, 0.7)):
            view = EllipsoidWorldView(world, EllipsoidRadii(*radii))
            for _ in range(12):
                pos = tuple(rng.uniform(-8.0, 8.0) for _ in range(3))
                if rng.random() < 0.5:
                    tri = world.triangles[rng.randrange(len(world.triangles))]
                    target = tuple((tri.a[i] + tri.b[i] + tri.c[i]) / (3.0 * radii[i])
                                   for i in range(3))
                    vel = scale(sub(target, pos), rng.uniform(0.5, 2.0))
                else:
                    vel = tuple(rng.uniform(-3.0, 3.0) for _ in range(3))
                for step in (sphere_sweep, collide_with_world_legacy):
                    p = pos
                    for _ in range(4):
                        res = step(view, p, vel)
                        frames.append(res)
                        p = res.final_pos
    return frames


def test_whole_frames_keep_their_bits_under_the_horizon(monkeypatch):
    # The acceptance corpus's ten soups and a tessellated floor, each also
    # seen through ellipsoid views.
    worlds = [build_world(builtin_mesh("random_soup", n=40, seed=1000 + i, extent=8.0))
              for i in range(10)]
    worlds.append(build_world(_tessellated_floor(12)))
    bounded = _walker_frames(worlds, 11)
    with monkeypatch.context() as m:
        _without_horizon(m)
        unbounded = _walker_frames(worlds, 11)
    assert sum(res.iterations > 0 for res in bounded) > 500
    assert bounded == unbounded


def test_a_found_contact_spares_later_candidates_the_feature_tests(monkeypatch):
    # A sphere dropping onto an 8 by 8 floor of small triangles touches the
    # one below it first.  Its neighbours are touched later, and those after
    # it in index order stay out of reach up to that contact, though not up
    # to the end of the frame.
    world = build_world(_tessellated_floor(8))
    frames, roots = [], []
    for bounded in (True, False):
        with monkeypatch.context() as m:
            if not bounded:
                _without_horizon(m)
            calls = []
            original = sweepslide.detect.robust_quadratic_roots

            def counted(a, b, c):
                calls.append((a, b, c))
                return original(a, b, c)

            m.setattr(sweepslide.detect, "robust_quadratic_roots", counted)
            frames.append(sphere_sweep(world, (0.3, 0.2, 3.0), (0.1, 0.05, -2.5)))
        roots.append(len(calls))
    assert frames[0] == frames[1]
    assert frames[0].iterations >= 1
    assert roots[0] < roots[1]
