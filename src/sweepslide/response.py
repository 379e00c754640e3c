"""Iterative collide-and-slide response with a hard three-iteration bound.

Per frame the sphere advances to just short of the first contact, then
loses one degree of freedom per contact: iteration one constrains motion
to a sliding plane, iteration two to the crease line of two planes, and a
third contact stops it outright -- three contacts use up all three degrees
of freedom, so no velocity-magnitude escape hatch is needed.

The loop carries position, velocity, and destination as three separate
values.  The destination is never recomputed as ``pos + vel`` once it has
been projected: if ``a + b`` rounded to ``c``, there is no guarantee
``c - b`` gives back ``a``, and exactly that kind of re-derivation is what
lets a sphere creep into the mesh.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Plane,
    Vec3,
    add,
    check_motion,
    check_stand_off,
    cross,
    dot,
    norm,
    normalize,
    scale,
    signed_plane_distance,
    sub,
)
from .detect import check_collision

__all__ = [
    "ResponseConfig",
    "FrameResult",
    "near_and_touch_points",
    "sliding_plane",
    "project_dest_one_plane",
    "crease_response",
    "sphere_sweep",
    "PARALLEL_PLANE_EPS",
    "MIN_VELOCITY",
]

# Two sliding planes whose normals' cross product is shorter than this are
# treated as the same directional constraint.
PARALLEL_PLANE_EPS = 1e-6

# A divide-by-zero guard in front of the normalization of the remaining
# velocity, not a behavioral early-out: it fires only below any physically
# meaningful motion.
MIN_VELOCITY = 1e-9


@dataclass(frozen=True)
class ResponseConfig:
    """Tuning of the response step, in unit-sphere space.

    ``very_close_dist`` is the stand-off tolerance: the sphere stops that
    far short of contacts and destinations are pushed that far off sliding
    planes.
    """

    very_close_dist: float = 0.005

    def __post_init__(self) -> None:
        check_stand_off("very_close_dist", self.very_close_dist)


@dataclass(frozen=True)
class FrameResult:
    """Outcome of one response frame.

    ``iterations`` counts detection calls that found a hit.  ``planes``
    holds the active sliding-plane constraints at exit (at most two) and
    ``final_vel`` the remaining velocity, kept for instrumentation.
    """

    final_pos: Vec3
    iterations: int
    planes: tuple[Plane, ...] = ()
    contact_indices: tuple[int, ...] = ()
    final_vel: Vec3 = (0.0, 0.0, 0.0)


def near_and_touch_points(source: Vec3, vel: Vec3, t: float,
                          cfg: ResponseConfig) -> tuple[Vec3, Vec3]:
    """Touch point (center at first contact) and near point (where it stops).

    The near point sits ``very_close_dist`` short of the touch point along
    the velocity, clamped so it is never behind the source: a contact
    closer than the tolerance yields zero advancement, not a backward step.
    """
    touch = add(source, scale(vel, t))
    travelled = norm(vel) * t
    short = max(travelled - cfg.very_close_dist, 0.0)
    if short == 0.0:
        return touch, source
    near = add(source, scale(normalize(vel), short))
    return touch, near


def sliding_plane(touch: Vec3, contact: Vec3) -> Plane:
    """Plane tangent to the sphere at *contact* when centered at *touch*.

    The normal points from the contact point to the touch point; since the
    two are one unit apart at contact, the sphere sits on the positive
    side at distance one.
    """
    return Plane(origin=contact, normal=normalize(sub(touch, contact)))


def project_dest_one_plane(dest: Vec3, plane: Plane, cfg: ResponseConfig) -> Vec3:
    """Move *dest* along the plane normal to a stand-off of ``1 + tolerance``.

    The long radius keeps the projected destination from actually touching
    the sliding plane; the result's signed plane distance is exactly the
    long radius.
    """
    long_radius = 1.0 + cfg.very_close_dist
    return sub(dest, scale(plane.normal, signed_plane_distance(plane, dest) - long_radius))


def crease_response(dest: Vec3, near: Vec3, p1: Plane, p2: Plane) -> tuple[Vec3, Vec3]:
    """Confine the remaining motion to the crease line of two planes.

    The crease direction is the normalized cross product of the plane
    normals; the remaining displacement ``dest - near`` is projected onto
    it.  Returns ``(new_vel, new_dest)``.  Callers must reject
    near-parallel planes first.
    """
    crease = normalize(cross(p1.normal, p2.normal))
    along = dot(sub(dest, near), crease)
    new_vel = scale(crease, along)
    return new_vel, add(near, new_vel)


def sphere_sweep(world, pos: Vec3, vel: Vec3,
                 cfg: ResponseConfig = ResponseConfig()) -> FrameResult:
    """Move a unit sphere through *world* by *vel*, sliding on contact.

    *world* is a :class:`~sweepslide.world.World` or an
    :class:`~sweepslide.ellipsoid.EllipsoidWorldView`; ``pos`` must start
    non-penetrating.  Non-finite motion raises ``ValueError`` (see
    :func:`~sweepslide.core.check_motion`).  Pure function of its
    arguments, safe to run concurrently against a shared world.
    """
    check_motion(pos, vel)
    # dest is authoritative once projected; vel and dest are both kept up to
    # date rather than re-derived from one another mid-frame.
    dest = add(pos, vel)
    first_plane: Plane | None = None
    planes: tuple[Plane, ...] = ()
    contacts: list[int] = []
    iterations = 0

    for i in range(3):
        if norm(vel) <= MIN_VELOCITY:
            break  # nothing meaningful left to move; pos is already safe
        hit = check_collision(world, pos, vel)
        if hit is None:
            pos = dest  # the carried target, not pos + vel
            break
        iterations += 1
        contacts.append(hit.triangle_index)
        touch, near = near_and_touch_points(pos, vel, hit.t, cfg)
        pos = near

        if i == 2:
            break  # a third contact leaves no freedom; pos is at its near point
        plane = sliding_plane(touch, hit.contact_point)
        if i == 1 and norm(cross(first_plane.normal, plane.normal)) > PARALLEL_PLANE_EPS:
            planes = (first_plane, plane)
            vel, dest = crease_response(dest, near, first_plane, plane)
        else:
            # The first contact, or a second with the same directional
            # constraint (includes re-hitting the first plane): the newest
            # contact becomes authoritative and the one-plane projection is
            # (re)done, avoiding a zero crease.
            first_plane = plane
            planes = (plane,)
            dest = project_dest_one_plane(dest, plane, cfg)
            vel = sub(dest, pos)

    return FrameResult(
        final_pos=pos,
        iterations=iterations,
        planes=planes,
        contact_indices=tuple(contacts),
        final_vel=vel,
    )
