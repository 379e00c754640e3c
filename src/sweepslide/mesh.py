"""Triangle sources: a minimal Wavefront OBJ reader and built-in meshes.

The OBJ subset is deliberately small: ``v x y z`` vertices and ``f i j k...``
faces (1-based; negative indices count back from the last vertex read so
far; polygons are fanned from the first vertex).  Face entries may carry
``/texture/normal`` suffixes, which are ignored.  Every other record type
is skipped, and so is a UTF-8 byte-order mark.  Collinear faces are
dropped instead of failing the whole load; a non-finite vertex coordinate
is an error.
"""

from __future__ import annotations

import inspect
import math
import random
from functools import partial

from .core import DegenerateTriangleError, Triangle, Vec3, as_type

__all__ = ["MeshParseError", "load_obj_mesh", "builtin_mesh", "BUILTIN_MESHES"]


class MeshParseError(ValueError):
    """An OBJ record could not be parsed; the message carries file:line."""


def _resolve_index(raw: int, count: int, path: str, lineno: int) -> int:
    if raw == 0:
        raise MeshParseError(f"{path}:{lineno}: face index 0 is invalid (indices are 1-based)")
    index = raw - 1 if raw > 0 else count + raw
    if not (0 <= index < count):
        raise MeshParseError(f"{path}:{lineno}: face index {raw} out of range (have {count} vertices)")
    return index


def load_obj_mesh(path: str) -> list[Triangle]:
    """Read the OBJ subset above from *path*.

    Raises :class:`MeshParseError` with a line number on malformed records
    and ``OSError`` when the file is missing.
    """
    vertices: list[Vec3] = []
    triangles: list[Triangle] = []

    # utf-8-sig: a byte-order mark would otherwise glue itself to the first record type.
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            kind = tokens[0]  # a comment's first token is never "v" or "f"
            if kind == "v":
                if len(tokens) < 4:
                    raise MeshParseError(f"{path}:{lineno}: vertex needs 3 coordinates")
                try:
                    vertex = (float(tokens[1]), float(tokens[2]), float(tokens[3]))
                except ValueError as exc:
                    raise MeshParseError(f"{path}:{lineno}: bad vertex coordinate: {exc}") from exc
                if not all(map(math.isfinite, vertex)):
                    raise MeshParseError(f"{path}:{lineno}: non-finite vertex {vertex!r}")
                vertices.append(vertex)
            elif kind == "f":
                if len(tokens) < 4:
                    raise MeshParseError(f"{path}:{lineno}: face needs at least 3 vertices")
                try:
                    if "/" in line:
                        raw = [int(tok.split("/")[0]) for tok in tokens[1:]]
                    else:
                        raw = list(map(int, tokens[1:]))
                except ValueError as exc:
                    raise MeshParseError(f"{path}:{lineno}: bad face index: {exc}") from exc
                count = len(vertices)
                if 0 in raw or min(raw) < -count or max(raw) > count:
                    for r in raw:  # raises on the first bad index
                        _resolve_index(r, count, path, lineno)
                idx = [r - 1 if r > 0 else count + r for r in raw]
                first = vertices[idx[0]]
                for k in range(1, len(idx) - 1):  # fan from the first vertex
                    try:
                        triangles.append(Triangle(first, vertices[idx[k]], vertices[idx[k + 1]]))
                    except DegenerateTriangleError:
                        pass
            # all other record types (vn, vt, g, o, s, usemtl, mtllib, #, ...) ignored

    return triangles


def _floor_mesh(size: float = 200.0) -> list[Triangle]:
    h = size / 2.0
    return [
        Triangle((-h, -h, 0.0), (h, -h, 0.0), (h, h, 0.0)),
        Triangle((-h, -h, 0.0), (h, h, 0.0), (-h, h, 0.0)),
    ]


def _corner_mesh(angle: float, extent: float = 120.0) -> list[Triangle]:
    """Two large triangles sharing the y-axis edge at the given dihedral angle.

    One face lies in z = 0 reaching toward +x; the other leaves the shared
    edge in the direction ``(cos(angle), 0, sin(angle))``.  Angles below 90
    degrees form a pincer that narrows toward the edge; above 90 a valley.
    """
    if not (0.0 < angle < 180.0):
        raise ValueError(f"corner angle must be in (0, 180) degrees, got {angle!r}")
    rad = math.radians(angle)
    e = extent
    flat = Triangle((0.0, -e, 0.0), (e, 0.0, 0.0), (0.0, e, 0.0))
    tilted = Triangle((0.0, -e, 0.0), (0.0, e, 0.0),
                      (e * math.cos(rad), 0.0, e * math.sin(rad)))
    return [flat, tilted]


def _box_room_mesh(size: float = 20.0) -> list[Triangle]:
    """A closed cube with all faces wound to face inward."""
    h = size / 2.0
    # Corner naming: p<x><y><z> with m = -h, p = +h.
    mmm = (-h, -h, -h); pmm = (h, -h, -h); mpm = (-h, h, -h); ppm = (h, h, -h)
    mmp = (-h, -h, h); pmp = (h, -h, h); mpp = (-h, h, h); ppp = (h, h, h)
    quads = [
        (mmm, pmm, ppm, mpm),  # floor (z = -h), normal up
        (mmp, mpp, ppp, pmp),  # ceiling, normal down
        (mmm, mpm, mpp, mmp),  # x = -h wall, normal +x
        (pmm, pmp, ppp, ppm),  # x = +h wall, normal -x
        (mmm, mmp, pmp, pmm),  # y = -h wall, normal +y
        (mpm, ppm, ppp, mpp),  # y = +h wall, normal -y
    ]
    tris: list[Triangle] = []
    for a, b, c, d in quads:
        tris.append(Triangle(a, b, c))
        tris.append(Triangle(a, c, d))
    return tris


def _random_soup_mesh(n: int = 50, seed: int = 0, extent: float = 10.0) -> list[Triangle]:
    """Deterministic jumble of *n* triangles inside ``[-extent, extent]^3``."""
    rng = random.Random(seed)
    edge = max(extent / 4.0, 0.5)
    tris: list[Triangle] = []
    rejected = 0
    while len(tris) < n:
        base = (rng.uniform(-extent, extent), rng.uniform(-extent, extent),
                rng.uniform(-extent, extent))
        u = (rng.uniform(-edge, edge), rng.uniform(-edge, edge), rng.uniform(-edge, edge))
        v = (rng.uniform(-edge, edge), rng.uniform(-edge, edge), rng.uniform(-edge, edge))
        try:
            tris.append(Triangle(base, (base[0] + u[0], base[1] + u[1], base[2] + u[2]),
                                 (base[0] + v[0], base[1] + v[1], base[2] + v[2])))
        except DegenerateTriangleError:
            # Rare, unless the extent is so large that every square overflows.
            rejected += 1
            if rejected > n + 100:
                raise ValueError(f"random_soup extent {extent!r} yields no triangles") from None
    return tris


# Each kind's parameters and their defaults are its generator's signature.
BUILTIN_MESHES = {
    "floor": _floor_mesh,
    "obtuse_corner": partial(_corner_mesh, angle=135.0),
    "acute_corner": partial(_corner_mesh, angle=5.0),
    "crease": partial(_corner_mesh, angle=90.0),
    "box_room": _box_room_mesh,
    "random_soup": _random_soup_mesh,
}


def builtin_mesh(kind: str, **params) -> list[Triangle]:
    """Generate one of the named built-in meshes.

    Known kinds: ``floor(size)``, ``obtuse_corner(angle, extent)``,
    ``acute_corner(angle, extent)``, ``crease(angle, extent)``,
    ``box_room(size)``, ``random_soup(n, seed, extent)``.  Generation is
    deterministic for identical parameters.
    """
    try:
        generator = BUILTIN_MESHES[kind]
    except (KeyError, TypeError):
        raise ValueError(f"unknown builtin mesh {kind!r}; known: {sorted(BUILTIN_MESHES)}") from None
    parameters = inspect.signature(generator).parameters
    unknown = set(params) - set(parameters)
    if unknown:
        raise ValueError(f"unknown parameters for {kind!r}: {sorted(unknown)}")
    # Every parameter's default is an int or a float.
    checked = {name: as_type(value, type(parameters[name].default),
                             f"parameter {name!r} of {kind!r}")
               for name, value in params.items()}
    return generator(**checked)
