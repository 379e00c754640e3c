import math
import random

import pytest

from sweepslide.core import (
    Plane,
    Triangle,
    add,
    cross,
    distance,
    dot,
    norm,
    scale,
    signed_plane_distance,
    sub,
)
from sweepslide.detect import closest_point_on_triangle
from sweepslide.mesh import builtin_mesh
from sweepslide.response import (
    MIN_VELOCITY,
    ResponseConfig,
    crease_response,
    near_and_touch_points,
    project_dest_one_plane,
    sliding_plane,
    sphere_sweep,
)
from sweepslide.world import build_world

CFG = ResponseConfig()  # very_close_dist 0.005


# --- config validation ---

def test_config_validation():
    with pytest.raises(ValueError):
        ResponseConfig(very_close_dist=0.0)
    with pytest.raises(ValueError):
        ResponseConfig(very_close_dist=0.5)


# --- near and touch points ---

def test_near_touch_floor_case():
    touch, near = near_and_touch_points((0.0, 0.0, 3.0), (0.0, 0.0, -3.0), 2.0 / 3.0, CFG)
    assert distance(touch, (0.0, 0.0, 1.0)) <= 1e-12
    assert distance(near, (0.0, 0.0, 1.005)) <= 1e-12


def test_near_clamps_to_source():
    # contact distance below the tolerance: no backward step
    touch, near = near_and_touch_points((1.0, 2.0, 3.0), (0.1, 0.0, 0.0), 0.01, CFG)
    assert near == (1.0, 2.0, 3.0)


def test_near_touch_at_t_zero():
    touch, near = near_and_touch_points((1.0, 2.0, 3.0), (0.0, 4.0, 0.0), 0.0, CFG)
    assert touch == (1.0, 2.0, 3.0)
    assert near == (1.0, 2.0, 3.0)


def test_near_point_on_segment_monotone():
    rng = random.Random(3)
    for _ in range(300):
        source = tuple(rng.uniform(-5, 5) for _ in range(3))
        vel = tuple(rng.uniform(-4, 4) for _ in range(3))
        if norm(vel) < 1e-6:
            continue
        t = rng.uniform(0.0, 1.0)
        touch, near = near_and_touch_points(source, vel, t, CFG)
        assert distance(near, source) <= distance(touch, source) + 1e-12
        # collinear with the motion
        assert norm(cross(sub(near, source), vel)) <= 1e-9 * max(norm(vel), 1.0)


# --- sliding plane ---

def test_sliding_plane_face_contact():
    plane = sliding_plane((0.0, 0.0, 1.0), (0.0, 0.0, 0.0))
    assert plane.origin == (0.0, 0.0, 0.0)
    assert distance(plane.normal, (0.0, 0.0, 1.0)) <= 1e-12


def test_sliding_plane_oblique_contact():
    plane = sliding_plane((0.0, 0.6, 0.8), (0.0, 0.0, 0.0))
    assert distance(plane.normal, (0.0, 0.6, 0.8)) <= 1e-12
    assert abs(signed_plane_distance(plane, (0.0, 0.6, 0.8)) - 1.0) <= 1e-12


# --- one-plane projection ---

def test_project_dest_floor():
    floor = Plane((0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    assert distance(project_dest_one_plane((0.0, 0.0, 0.0), floor, CFG),
                    (0.0, 0.0, 1.005)) <= 1e-12
    assert distance(project_dest_one_plane((3.0, 4.0, -2.0), floor, CFG),
                    (3.0, 4.0, 1.005)) <= 1e-12


def test_project_dest_fixed_point():
    floor = Plane((0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    dest = (1.0, -2.0, 1.005)
    assert project_dest_one_plane(dest, floor, CFG) == dest


def test_project_moves_along_normal_only():
    rng = random.Random(5)
    for _ in range(200):
        n = (0.6, 0.0, 0.8)
        plane = Plane(tuple(rng.uniform(-5, 5) for _ in range(3)), n)
        dest = tuple(rng.uniform(-5, 5) for _ in range(3))
        moved = project_dest_one_plane(dest, plane, CFG)
        assert abs(signed_plane_distance(plane, moved) - 1.005) <= 1e-9
        assert norm(cross(sub(moved, dest), n)) <= 1e-9


# --- crease response ---

def test_crease_axis_planes():
    p1 = Plane((0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    p2 = Plane((0.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    near = (0.0, 0.005, 1.005)
    dest = add(near, (-2.0, -1.0, -1.0))
    new_vel, new_dest = crease_response(dest, near, p1, p2)
    assert distance(new_vel, (-2.0, 0.0, 0.0)) <= 1e-12
    assert distance(new_dest, add(near, new_vel)) <= 1e-12
    assert abs(dot(new_vel, p1.normal)) <= 1e-9 * norm(new_vel)
    assert abs(dot(new_vel, p2.normal)) <= 1e-9 * norm(new_vel)


def test_crease_orthogonal_motion_stops():
    p1 = Plane((0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    p2 = Plane((0.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    near = (1.0, 1.0, 1.0)
    dest = add(near, (0.0, -3.0, -2.0))  # no component along the x crease
    new_vel, new_dest = crease_response(dest, near, p1, p2)
    assert norm(new_vel) <= 1e-12
    assert new_dest == near


# --- full frames ---

def _floor_world():
    return build_world(builtin_mesh("floor", size=100.0))


def test_sweep_no_obstacles():
    world = build_world([])
    res = sphere_sweep(world, (1.0, 2.0, 3.0), (4.0, 5.0, 6.0), CFG)
    assert res.final_pos == (5.0, 7.0, 9.0)
    assert res.iterations == 0
    assert res.planes == ()


def test_sweep_zero_velocity():
    res = sphere_sweep(_floor_world(), (0.0, 0.0, 2.0), (0.0, 0.0, 0.0), CFG)
    assert res.final_pos == (0.0, 0.0, 2.0)
    assert res.iterations == 0


def test_sweep_floor_drop():
    res = sphere_sweep(_floor_world(), (0.0, 0.0, 3.0), (0.0, 0.0, -3.0), CFG)
    assert distance(res.final_pos, (0.0, 0.0, 1.005)) <= 1e-9
    assert res.iterations == 1
    assert len(res.planes) == 1
    assert res.contact_indices == (0,)


def test_sweep_slides_along_floor():
    # A diagonal push lands on the floor and keeps its horizontal motion.
    res = sphere_sweep(_floor_world(), (0.0, 0.0, 2.0), (3.0, 0.0, -3.0), CFG)
    assert res.final_pos[0] > 2.0
    assert abs(res.final_pos[2] - 1.005) <= 1e-9
    assert res.iterations >= 1


def test_sweep_obtuse_corner_settles():
    # Driven into a two-plane corner every frame, displacement falls below
    # the tolerance once the sphere wedges in, and stays there.
    world = build_world(builtin_mesh("obtuse_corner", angle=135.0))
    pos = (2.5, 0.0, 3.5)
    vel = (-1.2, 0.0, -1.6)
    displacements = []
    for _ in range(12):
        res = sphere_sweep(world, pos, vel, CFG)
        displacements.append(distance(res.final_pos, pos))
        pos = res.final_pos
    assert max(displacements[-5:]) < CFG.very_close_dist


def test_sweep_crease_velocity_confinement():
    world = build_world(builtin_mesh("crease", angle=120.0))
    pos = (2.0, 0.0, 2.0)
    vel = (-1.5, 1.0, -1.0)
    saw_two_planes = False
    for _ in range(8):
        res = sphere_sweep(world, pos, vel, CFG)
        pos = res.final_pos
        if len(res.planes) == 2:
            saw_two_planes = True
            speed = norm(res.final_vel)
            if speed > MIN_VELOCITY:
                for plane in res.planes:
                    assert abs(dot(res.final_vel, plane.normal)) <= 1e-9 * speed
    assert saw_two_planes


def _slab(z):
    return [
        Triangle((-50.0, -50.0, z), (50.0, -50.0, z), (50.0, 50.0, z)),
        Triangle((-50.0, -50.0, z), (50.0, 50.0, z), (-50.0, 50.0, z)),
    ]


def test_sweep_parallel_second_plane_replaced():
    # A channel barely wider than the sphere: the second contact's sliding
    # plane is antiparallel to the first, so their cross product vanishes
    # and the newest plane must replace the old one instead of forming a
    # zero crease.  The sphere must still clear both walls.
    gap = 2.002
    world = build_world(_slab(0.0) + _slab(gap))
    res = sphere_sweep(world, (0.0, 0.0, 1.001), (1.0, 0.0, 0.1), CFG)
    assert len(res.planes) == 1
    assert res.iterations <= 3
    assert res.final_pos[2] >= 1.0 - 1e-6
    assert gap - res.final_pos[2] >= 1.0 - 1e-6


def test_sweep_iterations_capped_at_three():
    rng = random.Random(9)
    tris = builtin_mesh("random_soup", n=40, seed=31, extent=6.0)
    world = build_world(tris)
    for _ in range(400):
        while True:
            pos = tuple(rng.uniform(-7, 7) for _ in range(3))
            if all(distance(pos, closest_point_on_triangle(pos, t)) >= 1.001 for t in tris):
                break
        vel = tuple(rng.uniform(-6, 6) for _ in range(3))
        res = sphere_sweep(world, pos, vel, CFG)
        assert 0 <= res.iterations <= 3
        assert len(res.planes) <= 2


def test_sweep_never_penetrates_small_fuzz():
    rng = random.Random(10)
    tris = builtin_mesh("random_soup", n=40, seed=77, extent=6.0)
    world = build_world(tris)
    for _ in range(600):
        while True:
            pos = tuple(rng.uniform(-7, 7) for _ in range(3))
            if all(distance(pos, closest_point_on_triangle(pos, t)) >= 1.000001
                   for t in tris):
                break
        vel = tuple(rng.uniform(-5, 5) for _ in range(3))
        res = sphere_sweep(world, pos, vel, CFG)
        worst = min(distance(res.final_pos, closest_point_on_triangle(res.final_pos, t))
                    for t in tris)
        assert worst >= 1.0 - 1e-6


def test_one_plane_velocity_reaches_projected_dest():
    # After a first contact the carried destination must satisfy the
    # stand-off exactly, and pos + vel must land on it without re-derivation.
    world = _floor_world()
    res = sphere_sweep(world, (0.0, 0.0, 2.0), (1.0, 0.5, -3.0), CFG)
    floor = Plane((0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    assert abs(signed_plane_distance(floor, res.final_pos) - 1.005) <= 1e-9


# --- a shallow valley (ROADMAP item 1) ---

# z = 1.5*sin(0.31*i)*cos(0.23*j) + 0.8*sin(0.11*(i + j)) at i = 12..15
# (rows) and j = 25..28 (columns), written out so that no libm moves them.
_VALLEY_HEIGHTS = (
    (-1.3467427021398972, -1.471912486571894, -1.5475312192615451, -1.5712561773425033),
    (-1.6917937579801405, -1.8406979135133983, -1.9222680225899462, -1.9334899955164564),
    (-1.9329402218257798, -2.0947474088409166, -2.1771224516515186, -2.1766354461856157),
    (-2.0505570309719294, -2.2124715766798344, -2.2896623343204308, -2.278588038402282),
)
_VALLEY_START = (13.287099145842799, 26.094682529042547, -0.8851386544955206)
_VALLEY_STEP = (0.145399268978585, 0.31268552123857873, -0.31172007364810983)


def _valley_world():
    """The 3x3 quads around the walker, two triangles each, in the bench terrain's corner order."""
    h = _VALLEY_HEIGHTS
    tris = []
    for i in range(3):
        for j in range(3):
            x, y = 12.0 + i, 25.0 + j
            a, b = (x, y, h[i][j]), (x + 1.0, y, h[i + 1][j])
            c, d = (x + 1.0, y + 1.0, h[i + 1][j + 1]), (x, y + 1.0, h[i][j + 1])
            tris += [Triangle(a, b, c), Triangle(a, c, d)]
    return build_world(tris)


def test_the_valley_step_without_its_fall_moves_freely():
    world = _valley_world()
    step = (_VALLEY_STEP[0], _VALLEY_STEP[1], 0.0)
    res = sphere_sweep(world, _VALLEY_START, step, CFG)
    assert res.iterations == 0
    assert res.final_pos == add(_VALLEY_START, step)  # 0.345 along the valley


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_a_walker_in_a_shallow_valley_keeps_moving():
    # Two planes sloped about 21 and 16 degrees make a crease, and the
    # crease runs into a third triangle at once: 3 iterations, no motion.
    world = _valley_world()
    res = sphere_sweep(world, _VALLEY_START, _VALLEY_STEP, CFG)
    assert distance(res.final_pos, _VALLEY_START) > 0.01
    worst = min(distance(res.final_pos, closest_point_on_triangle(res.final_pos, t))
                for t in world.triangles)
    assert worst >= 1.0 - 1e-6
