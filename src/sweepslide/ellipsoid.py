"""Axis-aligned ellipsoid support via the unit-sphere space trick.

Dividing every coordinate by the ellipsoid's semi-axes turns the ellipsoid
into a unit sphere; the whole sweep pipeline then runs in that scaled
space and the final position is multiplied back.  Only diagonal scaling is
supported, which keeps the transform exactly invertible componentwise.
A world scales each triangle at most once per radii class: the views of
one world with equal radii share one store of sphere-space triangles,
which lives as long as any of them does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Triangle, Vec3, triangle_normals
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


class _SphereTriangles(dict):
    """One world's sphere-space triangles for one radii class, by triangle index."""

    __slots__ = ("__weakref__",)


def _sphere_triangles(world: World, radii: EllipsoidRadii,
                      scaled: np.ndarray | None = None) -> _SphereTriangles:
    """The store *world* keeps for *radii*, made (and the radii checked) if no view holds it.

    Raises ``ValueError`` when the radii widen a triangle's box past
    ``MAX_TRIANGLE_EXTENT`` or flatten a triangle (one
    :func:`triangle_to_sphere_space` would reject) in sphere space.  The
    flattening check reads *scaled*, ``world.vertices`` divided by the
    radii, when the caller already has it.
    """
    key = radii.as_tuple()
    store = world._sphere_space.get(key)
    if store is not None:
        return store
    if not all(e <= MAX_TRIANGLE_EXTENT * r for e, r in zip(world._extent, key)):
        raise ValueError(f"radii {key!r} widen a triangle of the world past "
                         f"MAX_TRIANGLE_EXTENT ({MAX_TRIANGLE_EXTENT!r}) in sphere space: "
                         f"its widest box sides are {world._extent!r}")
    if scaled is None:
        # triangle_normals takes a row whose division overflowed as non-finite.
        with np.errstate(all="ignore"):
            scaled = world.vertices / np.array(key)
    flattened = np.flatnonzero(~triangle_normals(scaled)[1])
    if flattened.size:
        raise ValueError(f"radii {key!r} flatten {flattened.size} triangle(s) in sphere space "
                         f"(collinear, non-finite or out of range), the first at index "
                         f"{flattened[0]}")
    store = world._sphere_space[key] = _SphereTriangles()
    return store


class EllipsoidWorldView:
    """Sphere-space window onto a world-space :class:`World`.

    Sweeps arrive in sphere space.  The world filters them with its own
    arrays (the box in world space, the plane slab in sphere space), and
    only the surviving triangles are scaled, on demand, into a store the
    world keeps per radii tuple.  Every view of that world with those radii
    shares the store, so a triangle is scaled once however many entities
    of one size sweep it; the store lives while any of its views does, so
    memory is bounded by one sphere-space copy of the world per radii class
    alive.  The underlying world stays untouched, so one world can be
    shared by entities with different radii.  Views may sweep concurrently:
    two may both scale a triangle the store lacks, and either copy is the
    same.  The first view of a radii class checks them against every
    triangle: radii that widen a triangle's box past
    ``MAX_TRIANGLE_EXTENT`` or flatten a triangle in sphere space raise
    ``ValueError`` here, naming the radii (and for flattening, the count and
    the first index), not mid-frame.
    """

    __slots__ = ("world", "radii", "_triangles")

    def __init__(self, world: World, radii: EllipsoidRadii):
        self.world = world
        self.radii = radii
        # None for the unit sphere, which reads the world's own triangles.
        self._triangles = None if radii.is_unit else _sphere_triangles(world, radii)

    def candidates(self, start: Vec3, end: Vec3) -> list[tuple[int, Triangle]]:
        store = self._triangles
        if store is None:
            return self.world.candidates(start, end)
        radii = self.radii
        triangles = self.world.triangles
        out = []
        for index in self.world.sweep_indices(start, end, radii.as_tuple()):
            tri = store.get(index)
            if tri is None:
                # Looked up in this module each time, so a rebinding of it sees every transform.
                tri = store[index] = triangle_to_sphere_space(triangles[index], radii)
            out.append((index, tri))
        return out
