"""Earliest-contact queries for a unit sphere swept along a velocity vector.

The per-triangle test decomposes the sweep into three sub-tests -- the
triangle's face plane, its three vertices, and its three edges -- and takes
the global minimum contact time.  Each sub-test takes the one instant at
which its feature's distance from the sphere center falls to one unit (the
entering crossing; the exiting one never comes first), so the minimum over
all candidates is the true first contact.

Before the sub-tests run, the reach cull drops a triangle the sphere cannot
reach this frame.  The distance from the center to a convex set is a convex
function along the sweep, so it stays above its tangent at the start,
``gap + t * (source - nearest) . vel / gap`` (or ``gap``, for motion that
does not close in); where that stays above one unit up to t = 1, nothing is
touched.  It fires only past a margin (see ``REACH_MARGIN``) that covers
the rounding of the start's nearest point and the sub-tests' own rounding,
so it drops only triangles the sub-tests would miss as well, and every
result is the same bit for bit.

The tangent is checked up to a horizon, ``limit`` (1 by default), and
``check_collision`` passes the earliest contact time found so far.  A
triangle culled at horizon L stays farther than one unit plus the margin
for every t <= L, so its sub-tests could not return a t below L, and a t of
exactly L, from a later candidate, loses the tie to the earlier one anyway.
A bounded call thus returns the unbounded result or ``None``, and the
unbounded result whenever its t is below L, so the earliest contact keeps
its bits.  On the benchmark's workloads the cull takes 85 % of the
narrowphase calls on terrain_crowd, 68 % on scenario_suite and 39 % on
soup_fuzz, where a horizon fixed at 1 takes 71, 59 and 16 %.

The per-triangle functions unpack their tuples into float locals and write
every difference and dot product inline, in the operation order of
``core``'s helpers: the results are the helpers' bit for bit, without a
Python call per vector operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Triangle, Vec3, add, robust_quadratic_roots

__all__ = [
    "SweepHit",
    "sweep_unit_sphere_triangle",
    "check_collision",
    "closest_point_on_triangle",
    "point_in_triangle",
]

# A face contact point may sit this far outside an edge (in barycentric
# terms) and still count as inside, so a point on a shared edge is never
# claimed by neither adjacent triangle.
BARYCENTRIC_TOLERANCE = 1e-9

# How far past one unit the reach cull's tangent (see the module docstring)
# must stay before a triangle is dropped, per unit of the size
# ``sqrt(1 + |vel|^2 + |source|^2 + |a|^2 + |ab|^2 + |ac|^2)`` over the
# squared sine of the angle at ``a``.  The size, at least |vel| and half the
# largest coordinate magnitude of the source and the vertices, covers the
# rounding of the start's nearest point (a floor with corners at +-1e7 puts
# up to 5e-9 into it near the origin), of the tangent's slope taken from
# it, and of the edge test's cancellation on long edges, about 1e-16 of an
# edge's squared length.  The sine covers slivers, whose nearest point is
# off by about 1e-16 of their size over the squared sine: at a sine of
# 1e-11, a start 1.02 units from its triangle came out 5.9 away.
REACH_MARGIN = 1e-8


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
    ax, ay, az = tri.a
    bx, by, bz = tri.b
    cx, cy, cz = tri.c
    v0x, v0y, v0z = bx - ax, by - ay, bz - az
    v1x, v1y, v1z = cx - ax, cy - ay, cz - az
    v2x, v2y, v2z = p[0] - ax, p[1] - ay, p[2] - az
    d00 = v0x * v0x + v0y * v0y + v0z * v0z
    d01 = v0x * v1x + v0y * v1y + v0z * v1z
    d11 = v1x * v1x + v1y * v1y + v1z * v1z
    d20 = v2x * v0x + v2y * v0y + v2z * v0z
    d21 = v2x * v1x + v2y * v1y + v2z * v1z
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
    ax, ay, az = a
    bx, by, bz = b
    cx, cy, cz = c
    px, py, pz = p
    abx, aby, abz = bx - ax, by - ay, bz - az
    acx, acy, acz = cx - ax, cy - ay, cz - az
    apx, apy, apz = px - ax, py - ay, pz - az

    d1 = abx * apx + aby * apy + abz * apz
    d2 = acx * apx + acy * apy + acz * apz
    if d1 <= 0.0 and d2 <= 0.0:
        return a

    bpx, bpy, bpz = px - bx, py - by, pz - bz
    d3 = abx * bpx + aby * bpy + abz * bpz
    d4 = acx * bpx + acy * bpy + acz * bpz
    if d3 >= 0.0 and d4 <= d3:
        return b

    vc = d1 * d4 - d3 * d2
    if vc <= 0.0 and d1 >= 0.0 and d3 <= 0.0:
        v = d1 / (d1 - d3)
        return (ax + abx * v, ay + aby * v, az + abz * v)

    cpx, cpy, cpz = px - cx, py - cy, pz - cz
    d5 = abx * cpx + aby * cpy + abz * cpz
    d6 = acx * cpx + acy * cpy + acz * cpz
    if d6 >= 0.0 and d5 <= d6:
        return c

    vb = d5 * d2 - d1 * d6
    if vb <= 0.0 and d2 >= 0.0 and d6 <= 0.0:
        w = d2 / (d2 - d6)
        return (ax + acx * w, ay + acy * w, az + acz * w)

    va = d3 * d6 - d5 * d4
    if va <= 0.0 and (d4 - d3) >= 0.0 and (d5 - d6) >= 0.0:
        w = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        return (bx + (cx - bx) * w, by + (cy - by) * w, bz + (cz - bz) * w)

    denom = 1.0 / (va + vb + vc)
    v = vb * denom
    w = vc * denom
    return (ax + (abx * v + acx * w), ay + (aby * v + acy * w), az + (abz * v + acz * w))


def sweep_unit_sphere_triangle(source: Vec3, vel: Vec3, tri: Triangle, *,
                               limit: float = 1.0) -> SweepHit | None:
    """First contact time of a unit sphere at *source* moving by *vel*.

    Returns ``None`` when the triangle is not reached within the frame
    (t in [0, 1]).  A start already closer than one unit to the triangle
    that closes in on it (``(source - nearest) . vel < 0``) reports t = 0
    with the nearest surface point as the contact, so the caller never
    crashes on a bad input; such starts are the response algorithm's job
    to avoid.  One that moves away, sideways or not at all is tested like
    any other start: its distance from the triangle, a convex set, cannot
    fall, so a sphere resting at one radius whose distance rounds below it
    can still leave.

    With a horizon *limit* below 1 the call may also return ``None`` for a
    triangle first reached at ``t >= limit``, but never for one reached
    earlier, and it returns no result other than the unbounded call's (see
    the module docstring).
    """
    nearest = closest_point_on_triangle(source, tri)
    sx, sy, sz = source
    vx, vy, vz = vel
    dx, dy, dz = sx - nearest[0], sy - nearest[1], sz - nearest[2]
    gap = math.sqrt(dx * dx + dy * dy + dz * dz)
    closing = dx * vx + dy * vy + dz * vz
    if gap < 1.0 and closing < 0.0:
        return SweepHit(0.0, nearest)

    vel_sq = vx * vx + vy * vy + vz * vz
    if vel_sq < 1e-24:
        return None

    a, b, c = tri.a, tri.b, tri.c
    ax, ay, az = a
    bx, by, bz = b
    cx, cy, cz = c
    # Reach cull on the distance's tangent at the start up to t = limit,
    # gap + t * closing / gap, or gap for motion that does not close in;
    # gap >= 1 here whenever closing < 0.  1 - cos^2 stands for the squared
    # sine: it rounds to about 1e-16 on the thinnest slivers, where the
    # margin is still far wider than their error.
    clear = gap - 1.0
    if closing < 0.0:
        clear += limit * closing / gap
    if clear > 0.0:
        abx, aby, abz = bx - ax, by - ay, bz - az
        acx, acy, acz = cx - ax, cy - ay, cz - az
        ab2 = abx * abx + aby * aby + abz * abz
        ac2 = acx * acx + acy * acy + acz * acz
        abac = abx * acx + aby * acy + abz * acz
        if clear * (ab2 * ac2 - abac * abac) > REACH_MARGIN * ab2 * ac2 * math.sqrt(
                1.0 + vel_sq + sx * sx + sy * sy + sz * sz + ax * ax + ay * ay + az * az
                + ab2 + ac2):
            return None

    # The start's offset from each vertex, shared by all three sub-tests.
    mxa, mya, mza = sx - ax, sy - ay, sz - az
    mxb, myb, mzb = sx - bx, sy - by, sz - bz
    mxc, myc, mzc = sx - cx, sy - cy, sz - cz

    # Every accepted t lies in [0, 1], so any t beats this.
    best_t = 2.0
    best_point = None
    # A start that the early-out above sees as clear can still round to just
    # inside one feature's shell, which puts that feature's entering root
    # slightly below 0.  Motion that closes in on the feature then touches
    # at t = 0; rejecting the root would let the sphere pass through.

    # Face: the center's plane distance is linear in t, so contact with the
    # face interior can only happen where it reaches the level on the side
    # the center comes from; edges/vertices cover everything outside the face.
    nx, ny, nz = tri.normal
    nv = nx * vx + ny * vy + nz * vz
    if nv != 0.0:
        d0 = nx * mxa + ny * mya + nz * mza
        level = 1.0 if nv < 0.0 else -1.0
        t = (level - d0) / nv
        if t < 0.0 and level * d0 > 0.0:
            t = 0.0  # inside the slab on the side it comes from
        if 0.0 <= t <= 1.0:
            p = (sx + vx * t - nx * level, sy + vy * t - ny * level,
                 sz + vz * t - nz * level)
            if point_in_triangle(p, tri):
                best_t = t
                best_point = p
    # nv == 0 while overlapping the plane slab: moving parallel, the face
    # can never be newly touched; only vertices and edges apply.

    # Vertices: |source + vel*t - v| == 1.  Each vertex's m.v and m.m - 1
    # are the edge tests' too.
    mva = vx * mxa + vy * mya + vz * mza
    mvb = vx * mxb + vy * myb + vz * mzb
    mvc = vx * mxc + vy * myc + vz * mzc
    mma = mxa * mxa + mya * mya + mza * mza - 1.0
    mmb = mxb * mxb + myb * myb + mzb * mzb - 1.0
    mmc = mxc * mxc + myc * myc + mzc * mzc - 1.0
    for v, mv, mm in ((a, mva, mma), (b, mvb, mmb), (c, mvc, mmc)):
        qb = 2.0 * mv
        # The discriminant as robust_quadratic_roots forms it: a miss skips the call.
        if qb * qb - 4.0 * vel_sq * mm < 0.0:
            continue
        t = robust_quadratic_roots(vel_sq, qb, mm)[0]
        if t < 0.0 and mm < 0.0 and qb < 0.0:
            t = 0.0
        if 0.0 <= t <= 1.0 and t < best_t:
            best_t = t
            best_point = v

    # Edges: distance one from the infinite edge line, with the closest
    # point inside the segment.  Where the line's shell is entered outside
    # the segment, an end vertex is touched before the segment can be.
    for px, py, pz, ex, ey, ez, mx, my, mz, mv, mm in (
            (ax, ay, az, bx - ax, by - ay, bz - az, mxa, mya, mza, mva, mma),
            (bx, by, bz, cx - bx, cy - by, cz - bz, mxb, myb, mzb, mvb, mmb),
            (cx, cy, cz, ax - cx, ay - cy, az - cz, mxc, myc, mzc, mvc, mmc)):
        ee = ex * ex + ey * ey + ez * ez
        ev = ex * vx + ey * vy + ez * vz
        em = ex * mx + ey * my + ez * mz
        qa = ee * vel_sq - ev * ev
        if qa == 0.0:
            continue  # moving parallel to the edge line: constant distance
        qb = 2.0 * (ee * mv - em * ev)
        qc = ee * mm - em * em
        if qb * qb - 4.0 * qa * qc < 0.0:
            continue
        t = robust_quadratic_roots(qa, qb, qc)[0]
        if t < 0.0 and qc < 0.0 and qb < 0.0:
            t = 0.0
        if 0.0 <= t <= 1.0 and t < best_t:
            f = (em + ev * t) / ee
            if 0.0 <= f <= 1.0:
                best_t = t
                best_point = (px + ex * f, py + ey * f, pz + ez * f)

    if best_point is None:
        return None
    return SweepHit(best_t, best_point)


def check_collision(world, source: Vec3, vel: Vec3) -> SweepHit | None:
    """Earliest contact over all broadphase candidates of *world*.

    *world* is anything with a ``candidates(start, end)`` method (a
    ``World`` or an ``EllipsoidWorldView``) returning ``(index, Triangle)``
    pairs in ascending index order.  It is handed the sweep's two
    endpoints, and may leave out any triangle the sweep provably cannot
    touch, but no other.  Ties at identical t go to the smaller index,
    which iteration order plus the strict comparison provides.  Each
    narrowphase call is bounded by the earliest contact found so far: a
    later candidate can only win with a t below it, and the horizon keeps
    every such contact.
    """
    end = add(source, vel)
    best: SweepHit | None = None
    best_index = -1
    limit = 1.0
    for index, tri in world.candidates(source, end):
        # A global lookup on every call, so a wrapper bound to the module
        # name sees every narrowphase call; the horizon goes by keyword, so
        # the call keeps three positional arguments.
        hit = sweep_unit_sphere_triangle(source, vel, tri, limit=limit)
        if hit is not None and (best is None or hit.t < best.t):
            best = hit
            best_index = index
            limit = hit.t
    if best is None:
        return None
    return SweepHit(best.t, best.contact_point, best_index)
