import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweepslide.core import (
    DEGENERATE_LENGTH,
    DegenerateTriangleError,
    DegenerateVectorError,
    Plane,
    Triangle,
    add,
    cross,
    dot,
    norm,
    normalize,
    robust_quadratic_roots,
    scale,
    signed_plane_distance,
    sub,
    triangle_normals,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
vec3 = st.tuples(finite, finite, finite)


# --- normalize ---

def test_normalize_axis():
    assert normalize((0.0, 0.0, 5.0)) == (0.0, 0.0, 1.0)


def test_normalize_scale_invariance():
    expected = (1 / math.sqrt(3),) * 3
    for k in (1.0, 0.001, 1234.5):
        got = normalize((k, k, k))
        assert max(abs(g - e) for g, e in zip(got, expected)) < 1e-12


def test_normalize_degenerate():
    with pytest.raises(DegenerateVectorError):
        normalize((0.0, 0.0, 1e-13))


@given(vec3)
@settings(max_examples=300)
def test_normalize_properties(v):
    if norm(v) <= 1e-12:
        return
    u = normalize(v)
    assert abs(norm(u) - 1.0) <= 1e-9
    assert norm(cross(u, v)) <= 1e-9 * norm(v)


# --- signed plane distance ---

def test_plane_distance_axis_aligned():
    floor = Plane((0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    assert signed_plane_distance(floor, (0.0, 0.0, 3.0)) == 3.0
    assert signed_plane_distance(floor, (7.0, -2.0, 0.0)) == 0.0
    assert signed_plane_distance(floor, (5.0, -2.0, -1.5)) == -1.5


def test_plane_requires_unit_normal():
    with pytest.raises(ValueError):
        Plane((0.0, 0.0, 0.0), (0.0, 0.0, 2.0))


@given(vec3, vec3, st.floats(min_value=-100, max_value=100))
@settings(max_examples=300)
def test_plane_distance_translation_along_normal(origin, point, d):
    direction = (0.6, 0.8, 0.0)
    plane = Plane(origin, direction)
    base = signed_plane_distance(plane, point)
    moved = signed_plane_distance(plane, add(point, scale(direction, d)))
    assert abs(moved - (base + d)) <= 1e-9 * (1.0 + abs(d)) + 1e-9 * max(abs(base), 1.0)


# --- triangles ---

def test_triangle_normal_cached():
    tri = Triangle((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    assert tri.normal == (0.0, 0.0, 1.0)
    recomputed = normalize(cross(sub(tri.b, tri.a), sub(tri.c, tri.a)))
    assert max(abs(a - b) for a, b in zip(tri.normal, recomputed)) <= 1e-9


def test_triangle_rejects_collinear():
    o, p, q = (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2.0, 2.0, 2.0)
    # Collinear at any scale, and every way of repeating a vertex.
    for a, b, c in ((o, p, q), (o, scale(p, 1e-9), scale(q, 1e-9)),
                    (o, o, q), (o, p, o), (o, p, p)):
        with pytest.raises(DegenerateTriangleError):
            Triangle(a, b, c)


@pytest.mark.parametrize("a, b, c", [
    ((math.nan, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
    ((math.inf, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 1.0)),
    ((0.0, 0.0, 0.0), (math.inf, 1.0, 2.0), (1.0, math.inf, 3.0)),
    ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, -math.inf, 0.0)),
])
def test_triangle_rejects_non_finite_vertices(a, b, c):
    with pytest.raises(DegenerateTriangleError, match="collinear or non-finite"):
        Triangle(a, b, c)
    assert not triangle_normals(np.array([(a, b, c)]))[1][0]


@pytest.mark.parametrize("size", [1e-9, 1e-7, 1.0, 1e6])
def test_triangle_degeneracy_is_scale_invariant(size):
    tri = Triangle((0.0, 0.0, 0.0), (size, 0.0, 0.0), (0.0, size, 0.0))
    assert tri.normal == (0.0, 0.0, 1.0)


def _ref_normal(a, b, c):
    """Triangle's normal through the helpers, or None where it must refuse."""
    ab = sub(b, a)
    ac = sub(c, a)
    n = cross(ab, ac)
    nn = dot(n, n)
    if nn <= DEGENERATE_LENGTH * DEGENERATE_LENGTH * dot(ab, ab) * dot(ac, ac):
        return None
    m = math.sqrt(nn)
    return (n[0] / m, n[1] / m, n[2] / m)


@st.composite
def _triangle_vertices(draw):
    """Random, sliver and exactly collinear vertices, offset by up to 1e8
    and divided by radii with axis ratios up to 1e3."""
    coord = st.floats(-4.0, 4.0)
    a, b, c = (draw(st.tuples(coord, coord, coord)) for _ in range(3))
    kind = draw(st.sampled_from(("random", "sliver", "collinear")))
    if kind != "random":
        s = draw(st.floats(-0.5, 1.5))
        eps = 0.0 if kind == "collinear" else draw(st.sampled_from((1e-3, 1e-9, 1e-13)))
        c = add(add(a, scale(sub(b, a), s)), scale(c, eps))
    offset = draw(st.tuples(*[st.sampled_from((0.0, 1e4, -1e6, 1e8))] * 3))
    radii = draw(st.tuples(*[st.floats(0.03, 30.0)] * 3))
    return tuple((v[0] / radii[0], v[1] / radii[1], v[2] / radii[2])
                 for v in (add(v, offset) for v in (a, b, c)))


@given(_triangle_vertices())
@settings(max_examples=300)
def test_triangle_normal_is_bit_identical_to_the_helper_formulation(vertices):
    expected = _ref_normal(*vertices)
    if expected is None:
        with pytest.raises(DegenerateTriangleError):
            Triangle(*vertices)
    else:
        assert Triangle(*vertices).normal == expected
    # The block form, one row of it.
    normals, accepted = triangle_normals(np.array([vertices]))
    assert accepted.tolist() == [expected is not None]
    if expected is not None:
        assert tuple(normals[0].tolist()) == expected


# --- quadratic solver ---

def test_quadratic_factorable():
    assert robust_quadratic_roots(1.0, -3.0, 2.0) == (1.0, 2.0)


def test_quadratic_negative_discriminant():
    assert robust_quadratic_roots(1.0, 0.0, 1.0) is None


def test_quadratic_zero_c():
    assert robust_quadratic_roots(2.0, -4.0, 0.0) == (0.0, 2.0)
    assert robust_quadratic_roots(2.0, 4.0, 0.0) == (-2.0, 0.0)
    assert robust_quadratic_roots(3.0, 0.0, 0.0) == (0.0, 0.0)


def test_quadratic_cancellation_prone():
    # Frozen from a 60-digit evaluation: the exact roots of t^2 + 1e8 t + 1
    # are -99999999.99999999 and -1.0000000000000001e-08; the small root must
    # not be destroyed by cancellation.
    roots = robust_quadratic_roots(1.0, 1e8, 1.0)
    assert roots is not None
    small = max(roots)
    assert abs(small - (-1.0000000000000001e-08)) <= 1e-10 * 1e-8


def test_quadratic_double_root():
    roots = robust_quadratic_roots(1.0, -2.0, 1.0)
    assert roots == (1.0, 1.0)


@given(
    st.floats(min_value=0.1, max_value=10).flatmap(
        lambda a: st.tuples(st.sampled_from([a, -a]),
                            st.floats(min_value=-10, max_value=10),
                            st.floats(min_value=-10, max_value=10))
    )
)
@settings(max_examples=500)
def test_quadratic_residual_property(coeffs):
    a, b, c = coeffs
    roots = robust_quadratic_roots(a, b, c)
    if roots is None:
        return
    assert roots[0] <= roots[1]
    for t in roots:
        residual = abs(a * t * t + b * t + c)
        bound = 1e-6 * max(abs(a * t * t), abs(b * t), abs(c), 1.0)
        assert residual <= bound


def _bisect_roots(a, b, c):
    """Sign-change bisection on each side of the parabola's vertex."""
    disc = b * b - 4 * a * c
    if disc < 0:
        return None
    if a < 0:  # same roots, upward-opening: the vertex is the minimum
        a, b, c = -a, -b, -c
    vertex = -b / (2 * a)
    reach = 1.0 + max(abs(b), abs(c)) / abs(a)  # Cauchy bound on |roots|
    lo, hi = vertex - reach, vertex + reach

    def poly(t):
        return a * t * t + b * t + c

    def bisect(x0, x1):
        f0 = poly(x0)
        for _ in range(80):
            mid = 0.5 * (x0 + x1)
            if (poly(mid) <= 0) == (f0 <= 0):
                x0 = mid
            else:
                x1 = mid
        return 0.5 * (x0 + x1)

    if poly(vertex) > 0:  # grazing; within float noise of a double root
        return (vertex, vertex)
    r0 = bisect(lo, vertex) if poly(lo) * poly(vertex) <= 0 else vertex
    r1 = bisect(hi, vertex) if poly(hi) * poly(vertex) <= 0 else vertex
    return tuple(sorted((r0, r1)))


def test_quadratic_matches_bisection_on_random_triples():
    import random

    rng = random.Random(42)
    compared = 0
    for _ in range(10_000):
        a = rng.uniform(0.1, 10.0) * rng.choice((-1.0, 1.0))
        b = rng.uniform(-10.0, 10.0)
        c = rng.uniform(-10.0, 10.0)
        ours = robust_quadratic_roots(a, b, c)
        ref = _bisect_roots(a, b, c)
        assert (ours is None) == (ref is None)
        if ours is None:
            continue
        compared += 1
        for mine, theirs in zip(ours, ref):
            assert abs(mine - theirs) <= 1e-7 * max(1.0, abs(theirs))
    assert compared > 3000  # the corpus must actually exercise real roots
