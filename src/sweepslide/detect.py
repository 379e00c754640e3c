"""Earliest-contact queries for a unit sphere swept along a velocity vector.

The per-triangle test decomposes the sweep into three sub-tests -- the
triangle's face plane, its three vertices, and its three edges -- and takes
the global minimum contact time.  Each sub-test enumerates every instant at
which its feature is exactly one unit from the sphere center, so the
minimum over all candidates is the true first contact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .core import (
    Triangle,
    Vec3,
    add,
    dot,
    norm,
    robust_quadratic_roots,
    scale,
    sub,
)

__all__ = [
    "SweepHit",
    "sweep_unit_sphere_triangle",
    "check_collision",
    "closest_point_on_triangle",
    "point_in_triangle",
    "sweep_bounds",
]

# A face contact point may sit this far outside an edge (in barycentric
# terms) and still count as inside, so a point on a shared edge is never
# claimed by neither adjacent triangle.
BARYCENTRIC_TOLERANCE = 1e-9

# Extra padding (beyond the unit radius) on the swept bounding box handed
# to the broadphase, and on the plane slab the world filters with.  Slack
# only adds candidates, never drops one.
SWEEP_BOX_SLACK = 1e-2


@dataclass(frozen=True)
class SweepHit:
    """First contact of a swept unit sphere.

    ``t`` is the fraction of the velocity traversed at contact and
    ``contact_point`` lies on the triangle surface.  ``triangle_index``
    is -1 for single-triangle queries and is filled in by world-level
    queries.
    """

    t: float
    contact_point: Vec3
    triangle_index: int = -1


def point_in_triangle(p: Vec3, tri: Triangle) -> bool:
    """Barycentric containment test for a point already on the triangle plane."""
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


def closest_point_on_triangle(p: Vec3, tri: Triangle) -> Vec3:
    """Closest point on the (solid) triangle to *p*, by Voronoi-region walk."""
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


def sweep_unit_sphere_triangle(source: Vec3, vel: Vec3, tri: Triangle) -> SweepHit | None:
    """First contact time of a unit sphere at *source* moving by *vel*.

    Returns ``None`` when the triangle is not reached within the frame
    (t in [0, 1]).  A start already closer than one unit to the triangle
    reports t = 0 with the nearest surface point as the contact so the
    caller never crashes on a bad input; such starts are the response
    algorithm's job to avoid.
    """
    nearest = closest_point_on_triangle(source, tri)
    if norm(sub(source, nearest)) < 1.0:
        return SweepHit(0.0, nearest)

    vel_sq = dot(vel, vel)
    if vel_sq < 1e-24:
        return None

    best_t = None
    best_point = None

    # Face: the center's plane distance is linear in t, so contact with the
    # face interior can only happen where |distance| == 1.  Both crossings
    # are tested; the containment check rejects the geometrically impossible
    # one, and edges/vertices cover everything outside the face.
    n = tri.normal
    nv = dot(n, vel)
    if nv != 0.0:
        d0 = dot(n, sub(source, tri.a))
        for level in (1.0, -1.0):
            t = (level - d0) / nv
            if 0.0 <= t <= 1.0:
                center = add(source, scale(vel, t))
                p = sub(center, scale(n, level))
                if point_in_triangle(p, tri):
                    if best_t is None or t < best_t:
                        best_t = t
                        best_point = p
    # nv == 0 while overlapping the plane slab: moving parallel, the face
    # can never be newly touched; only vertices and edges apply.

    # Vertices: |source + vel*t - v| == 1.
    for v in (tri.a, tri.b, tri.c):
        m = sub(source, v)
        roots = robust_quadratic_roots(vel_sq, 2.0 * dot(vel, m), dot(m, m) - 1.0)
        if roots is None:
            continue
        for t in roots:
            if 0.0 <= t <= 1.0:
                if best_t is None or t < best_t:
                    best_t = t
                    best_point = v
                break

    # Edges: distance one from the infinite edge line, with the closest
    # point inside the segment.  Both roots are checked because the first
    # tangency to the line can fall outside the segment while the second
    # falls inside it.
    for p1, p2 in ((tri.a, tri.b), (tri.b, tri.c), (tri.c, tri.a)):
        e = sub(p2, p1)
        m = sub(source, p1)
        ee = dot(e, e)
        ev = dot(e, vel)
        em = dot(e, m)
        qa = ee * vel_sq - ev * ev
        if qa == 0.0:
            continue  # moving parallel to the edge line: constant distance
        qb = 2.0 * (ee * dot(m, vel) - em * ev)
        qc = ee * (dot(m, m) - 1.0) - em * em
        roots = robust_quadratic_roots(qa, qb, qc)
        if roots is None:
            continue
        for t in roots:
            if 0.0 <= t <= 1.0:
                f = (em + ev * t) / ee
                if 0.0 <= f <= 1.0:
                    if best_t is None or t < best_t:
                        best_t = t
                        best_point = add(p1, scale(e, f))
                    break

    if best_t is None:
        return None
    return SweepHit(best_t, best_point)


def sweep_bounds(start: Vec3, end: Vec3) -> tuple[Vec3, Vec3]:
    """Axis-aligned box around the whole swept sphere, with slack."""
    pad = 1.0 + SWEEP_BOX_SLACK
    lo = (
        min(start[0], end[0]) - pad,
        min(start[1], end[1]) - pad,
        min(start[2], end[2]) - pad,
    )
    hi = (
        max(start[0], end[0]) + pad,
        max(start[1], end[1]) + pad,
        max(start[2], end[2]) + pad,
    )
    return lo, hi


def check_collision(world, source: Vec3, vel: Vec3) -> SweepHit | None:
    """Earliest contact over all broadphase candidates of *world*.

    *world* is anything with a ``candidates(bounds, start, end)`` method
    (a ``World`` or an ``EllipsoidWorldView``) returning ``(index,
    Triangle)`` pairs in ascending index order.  It is handed the sweep's
    padded box and its two endpoints, and may leave out any triangle the
    sweep provably cannot touch, but no other.  Ties at identical t go to
    the smaller index, which iteration order plus the strict comparison
    provides.
    """
    end = add(source, vel)
    best: SweepHit | None = None
    for index, tri in world.candidates(sweep_bounds(source, end), source, end):
        hit = sweep_unit_sphere_triangle(source, vel, tri)
        if hit is not None and (best is None or hit.t < best.t):
            best = replace(hit, triangle_index=index)
    return best
