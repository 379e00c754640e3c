"""The original recursive collide-and-slide response, kept bug-for-bug.

This variant exists so its two failure modes stay reproducible next to the
improved algorithm: corner jitter (each recursion forgets the previous
sliding plane, so two-plane corners keep kicking the sphere away) and
acute-corner freezing (the velocity ping-pongs between two nearly parallel
constraints, shrinking only slightly per recursion, until a depth cap or
the small-velocity early-out fires).

It is written as an explicit loop with a depth counter -- semantics
identical to the original tail recursion, but instrumentable.  Do not fix
behavior here; that is what :mod:`sweepslide.response` is for.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Plane,
    Vec3,
    add,
    check_motion,
    check_stand_off,
    norm,
    normalize,
    scale,
    signed_plane_distance,
    sub,
)
from .detect import check_collision
from .response import FrameResult, ResponseConfig

__all__ = ["LegacyConfig", "collide_with_world_legacy"]


@dataclass(frozen=True)
class LegacyConfig:
    """Stand-off tolerance and recursion cap of the legacy response.

    Raise ``max_recursion`` (e.g. to 1000) to demonstrate the acute-corner
    freeze; the default cap of 5 is the classic worst case.
    """

    very_close_dist: float = ResponseConfig.very_close_dist
    max_recursion: int = 5

    def __post_init__(self) -> None:
        if self.max_recursion < 1:
            raise ValueError(f"max_recursion must be >= 1: {self.max_recursion!r}")
        check_stand_off("very_close_dist", self.very_close_dist)


def collide_with_world_legacy(world, pos: Vec3, vel: Vec3,
                              cfg: LegacyConfig = LegacyConfig()) -> FrameResult:
    """One frame of the legacy response.

    ``iterations`` counts recursion rounds that found a collision; the
    depth cap guarantees return.  The nearest-contact distance is the
    distance the center travels to contact, ``|vel| * t``.  Non-finite
    motion raises ``ValueError``, as in the improved response.
    """
    check_motion(pos, vel)
    very_close = cfg.very_close_dist
    planes: list[Plane] = []
    contacts: list[int] = []
    iterations = 0

    for _depth in range(cfg.max_recursion):
        hit = check_collision(world, pos, vel)
        if hit is None:
            return FrameResult(add(pos, vel), iterations, tuple(planes),
                               tuple(contacts), vel)
        iterations += 1
        contacts.append(hit.triangle_index)

        dest = add(pos, vel)
        new_base = pos
        intersection = hit.contact_point
        nearest = norm(vel) * hit.t

        # Advance only when not already very close; when advancing, stop
        # short of contact and pull the intersection point back the same
        # amount so the plane normal below still spans exactly one unit.
        if nearest >= very_close:
            direction = normalize(vel)
            new_base = add(pos, scale(direction, nearest - very_close))
            intersection = sub(intersection, scale(direction, very_close))

        plane = Plane(origin=intersection,
                      normal=normalize(sub(new_base, intersection)))
        planes.append(plane)

        # The destination is dropped straight onto the sliding plane, with
        # no long-radius stand-off: the plane itself was already offset by
        # the pull-back above.  The projected point would bisect the
        # sphere, but it is never moved to; only the direction it yields
        # matters.
        new_dest = sub(dest, scale(plane.normal, signed_plane_distance(plane, dest)))
        new_vel = sub(new_dest, intersection)

        if norm(new_vel) < very_close:
            return FrameResult(new_base, iterations, tuple(planes),
                               tuple(contacts), new_vel)
        pos, vel = new_base, new_vel

    return FrameResult(pos, iterations, tuple(planes), tuple(contacts), vel)
