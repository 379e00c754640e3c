"""Axis-aligned ellipsoid support via the unit-sphere space trick.

Dividing every coordinate by the ellipsoid's semi-axes turns the ellipsoid
into a unit sphere; the whole sweep pipeline then runs in that scaled
space and the final position is multiplied back.  Only diagonal scaling is
supported, which keeps the transform exactly invertible componentwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Triangle, Vec3
from .world import MAX_TRIANGLE_EXTENT, World

__all__ = [
    "EllipsoidRadii",
    "to_sphere_space",
    "from_sphere_space",
    "triangle_to_sphere_space",
    "EllipsoidWorldView",
]


@dataclass(frozen=True)
class EllipsoidRadii:
    """World-space semi-axes of the moving ellipsoid."""

    rx: float
    ry: float
    rz: float

    def __post_init__(self) -> None:
        for r in (self.rx, self.ry, self.rz):
            if not (r > 0.0 and math.isfinite(r)):
                raise ValueError(f"ellipsoid radii must be positive and finite: {self!r}")

    def as_tuple(self) -> Vec3:
        return (self.rx, self.ry, self.rz)

    @property
    def is_unit(self) -> bool:
        return self.rx == 1.0 and self.ry == 1.0 and self.rz == 1.0


def to_sphere_space(v: Vec3, radii: EllipsoidRadii) -> Vec3:
    """Componentwise division; applies to positions and velocities alike."""
    return (v[0] / radii.rx, v[1] / radii.ry, v[2] / radii.rz)


def from_sphere_space(v: Vec3, radii: EllipsoidRadii) -> Vec3:
    """Inverse of :func:`to_sphere_space`, exact up to one rounding each way."""
    return (v[0] * radii.rx, v[1] * radii.ry, v[2] * radii.rz)


def triangle_to_sphere_space(tri: Triangle, radii: EllipsoidRadii) -> Triangle:
    """Scale the vertices; the normal is recomputed by the constructor.

    A scaled normal is generally not normal to the scaled plane, so
    reusing the old one would be wrong.
    """
    return Triangle(
        to_sphere_space(tri.a, radii),
        to_sphere_space(tri.b, radii),
        to_sphere_space(tri.c, radii),
    )


class EllipsoidWorldView:
    """Sphere-space window onto a world-space :class:`World`.

    Sweeps arrive in sphere space.  The world filters them with its own
    arrays (the box in world space, the plane slab in sphere space), and
    only the surviving triangles are scaled, on demand.  The underlying
    world stays untouched, so one world can be shared by entities with
    different radii; entities that sweep concurrently should each use their
    own view (the transform cache is not locked).  Radii that widen a triangle's box past
    ``MAX_TRIANGLE_EXTENT`` in sphere space raise ``ValueError`` here.
    """

    __slots__ = ("world", "radii", "_cache")

    def __init__(self, world: World, radii: EllipsoidRadii):
        if not all(e <= MAX_TRIANGLE_EXTENT * r for e, r in zip(world._extent, radii.as_tuple())):
            raise ValueError(f"radii {radii.as_tuple()!r} widen a triangle of the world past "
                             f"MAX_TRIANGLE_EXTENT ({MAX_TRIANGLE_EXTENT!r}) in sphere space: "
                             f"its widest box sides are {world._extent!r}")
        self.world = world
        self.radii = radii
        self._cache: dict[int, Triangle] = {}

    def candidates(self, start: Vec3, end: Vec3) -> list[tuple[int, Triangle]]:
        if self.radii.is_unit:
            return self.world.candidates(start, end)
        cache = self._cache
        out = []
        for index in self.world.sweep_indices(start, end, self.radii.as_tuple()):
            tri = cache.get(index)
            if tri is None:
                tri = triangle_to_sphere_space(self.world.triangles[index], self.radii)
                cache[index] = tri
            out.append((index, tri))
        return out
