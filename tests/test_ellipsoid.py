import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweepslide.core import Triangle, dot, norm, sub
from sweepslide.detect import check_collision
from sweepslide.ellipsoid import (
    EllipsoidRadii,
    EllipsoidWorldView,
    from_sphere_space,
    to_sphere_space,
    triangle_to_sphere_space,
)
from sweepslide.mesh import builtin_mesh
from sweepslide.response import sphere_sweep
from sweepslide.world import MAX_TRIANGLE_EXTENT, build_world

UNIT = EllipsoidRadii(1.0, 1.0, 1.0)


def test_radii_validation():
    with pytest.raises(ValueError):
        EllipsoidRadii(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        EllipsoidRadii(1.0, -2.0, 1.0)
    with pytest.raises(ValueError):
        EllipsoidRadii(1.0, 1.0, math.inf)


def test_unit_radii_is_identity():
    assert to_sphere_space((3.0, -4.0, 5.0), UNIT) == (3.0, -4.0, 5.0)
    assert from_sphere_space((3.0, -4.0, 5.0), UNIT) == (3.0, -4.0, 5.0)


def test_uniform_scale():
    r = EllipsoidRadii(2.0, 2.0, 2.0)
    assert to_sphere_space((4.0, 2.0, 0.0), r) == (2.0, 1.0, 0.0)


def test_componentwise_division():
    r = EllipsoidRadii(2.0, 1.0, 0.5)
    assert to_sphere_space((2.0, 3.0, 1.0), r) == (1.0, 3.0, 2.0)
    assert from_sphere_space((1.0, 3.0, 2.0), r) == (2.0, 3.0, 1.0)


coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
radius = st.floats(min_value=1e-3, max_value=1e3)


@given(st.tuples(coord, coord, coord), radius, radius, radius)
@settings(max_examples=300)
def test_round_trip(v, rx, ry, rz):
    r = EllipsoidRadii(rx, ry, rz)
    back = from_sphere_space(to_sphere_space(v, r), r)
    for orig, rt in zip(v, back):
        assert abs(rt - orig) <= 1e-12 * max(abs(orig), 1e-30)


def test_transformed_triangle_normal_is_recomputed():
    tri = Triangle((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 1.0))
    r = EllipsoidRadii(2.0, 1.0, 0.5)
    scaled = triangle_to_sphere_space(tri, r)
    # still unit and perpendicular to the scaled edges
    assert abs(norm(scaled.normal) - 1.0) <= 1e-9
    assert abs(dot(scaled.normal, sub(scaled.b, scaled.a))) <= 1e-9
    assert abs(dot(scaled.normal, sub(scaled.c, scaled.a))) <= 1e-9
    # naively scaling the old normal would NOT be perpendicular here
    naive = (tri.normal[0] / r.rx, tri.normal[1] / r.ry, tri.normal[2] / r.rz)
    assert abs(dot(naive, sub(scaled.c, scaled.a))) > 1e-3


def test_view_matches_pretransformed_world():
    # Querying through the view must equal building a world from
    # pre-scaled triangles.
    tris = builtin_mesh("random_soup", n=80, seed=12, extent=6.0)
    r = EllipsoidRadii(2.0, 1.0, 0.5)
    world = build_world(tris)
    view = EllipsoidWorldView(world, r)
    pre = build_world([triangle_to_sphere_space(t, r) for t in tris])

    source = (0.0, 0.0, 9.0)
    for vel in [(0.0, 0.0, -12.0), (1.0, -2.0, -9.0), (-3.0, 1.0, -6.0)]:
        via_view = check_collision(view, source, vel)
        via_pre = check_collision(pre, source, vel)
        assert (via_view is None) == (via_pre is None)
        if via_view is not None:
            assert via_view.triangle_index == via_pre.triangle_index
            assert abs(via_view.t - via_pre.t) <= 1e-12


def test_full_response_through_view_equals_presched_pipeline():
    # The whole ellipsoid pipeline (scale in, respond, scale out) must
    # match running the plain unit-sphere pipeline on a pre-scaled world.
    from sweepslide.response import ResponseConfig, sphere_sweep

    tris = builtin_mesh("obtuse_corner", angle=135.0)
    r = EllipsoidRadii(2.0, 2.0, 2.0)
    world = build_world(tris)
    view = EllipsoidWorldView(world, r)
    pre = build_world([triangle_to_sphere_space(t, r) for t in tris])

    start_world = (5.0, 0.0, 7.0)
    vel_world = (-2.4, 0.0, -3.2)
    cfg = ResponseConfig()

    via_view = sphere_sweep(view, to_sphere_space(start_world, r),
                            to_sphere_space(vel_world, r), cfg)
    via_pre = sphere_sweep(pre, to_sphere_space(start_world, r),
                           to_sphere_space(vel_world, r), cfg)
    assert via_view.iterations == via_pre.iterations
    assert max(abs(a - b) for a, b in zip(via_view.final_pos, via_pre.final_pos)) <= 1e-12
    back = from_sphere_space(via_view.final_pos, r)
    assert all(abs(b) < 1e6 for b in back)


def test_view_with_unit_radii_matches_world():
    tris = builtin_mesh("random_soup", n=60, seed=13, extent=6.0)
    world = build_world(tris)
    view = EllipsoidWorldView(world, UNIT)
    source, vel = (0.0, 0.0, 9.0), (0.5, -0.25, -10.0)
    a = check_collision(world, source, vel)
    b = check_collision(view, source, vel)
    assert (a is None) == (b is None)
    if a is not None:
        assert a == b


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_a_view_refuses_radii_that_widen_a_triangle_past_the_bound(axis):
    # The triangle's box is 200 by 50 by 10.  A radius of side / bound (exact:
    # the bound is a power of two) makes that side exactly as wide as the
    # bound in sphere space; one a hair smaller makes it wider.
    world = build_world([Triangle((0.0, 0.0, 0.0), (200.0, 0.0, 0.0), (0.0, 50.0, 10.0))])
    radii = [1.0, 1.0, 1.0]
    radii[axis] = (200.0, 50.0, 10.0)[axis] / MAX_TRIANGLE_EXTENT
    view = EllipsoidWorldView(world, EllipsoidRadii(*radii))
    # Through it, a sphere dropped onto the middle of the face stops above it.
    centroid = to_sphere_space((200.0 / 3.0, 50.0 / 3.0, 10.0 / 3.0), view.radii)
    normal = triangle_to_sphere_space(world.triangles[0], view.radii).normal
    start = tuple(c + 3.0 * n for c, n in zip(centroid, normal))
    res = sphere_sweep(view, start, tuple(-3.0 * n for n in normal))
    assert res.iterations == 1
    assert dot(sub(res.final_pos, centroid), normal) == pytest.approx(1.005, abs=1e-6)
    radii[axis] = math.nextafter(radii[axis], 0.0)
    with pytest.raises(ValueError, match=r"^radii .* widen a triangle of the world past "
                                         r"MAX_TRIANGLE_EXTENT \(4194304\.0\) in sphere space"):
        EllipsoidWorldView(world, EllipsoidRadii(*radii))
