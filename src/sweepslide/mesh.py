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
from itertools import compress

import numpy as np

from .core import DegenerateTriangleError, Triangle, as_type, triangle_normals

__all__ = ["MeshParseError", "load_obj_vertices", "load_obj_mesh", "builtin_mesh",
           "BUILTIN_MESHES"]

_KINDS = {"v": 1, "f": 2}


class MeshParseError(ValueError):
    """An OBJ record could not be parsed; the message carries file:line."""


def _first_error(path: str, lines: list[str]) -> MeshParseError | None:
    """The error of the first malformed record, walking the file line by line."""
    count = 0  # vertices read so far
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            continue
        kind = tokens[0]  # a comment's first token is never "v" or "f"
        if kind == "v":
            if len(tokens) < 4:
                return MeshParseError(f"{path}:{lineno}: vertex needs 3 coordinates")
            try:
                vertex = (float(tokens[1]), float(tokens[2]), float(tokens[3]))
            except ValueError as exc:
                return MeshParseError(f"{path}:{lineno}: bad vertex coordinate: {exc}")
            if not all(map(math.isfinite, vertex)):
                return MeshParseError(f"{path}:{lineno}: non-finite vertex {vertex!r}")
            count += 1
        elif kind == "f":
            if len(tokens) < 4:
                return MeshParseError(f"{path}:{lineno}: face needs at least 3 vertices")
            try:
                raw = [int(tok.partition("/")[0]) for tok in tokens[1:]]
            except ValueError as exc:
                return MeshParseError(f"{path}:{lineno}: bad face index: {exc}")
            for r in raw:  # the first bad index is named
                if r == 0:
                    return MeshParseError(
                        f"{path}:{lineno}: face index 0 is invalid (indices are 1-based)")
                if not -count <= r <= count:
                    return MeshParseError(
                        f"{path}:{lineno}: face index {r} out of range (have {count} vertices)")
        # all other record types (vn, vt, g, o, s, usemtl, mtllib, #, ...) ignored
    return None


def load_obj_vertices(path: str) -> np.ndarray:
    """Read the OBJ subset above from *path* as an ``(n, 3, 3)`` block of triangle corners.

    Row ``i`` is the ``i``-th triangle of the faces' fans in file order,
    collinear ones left out by :func:`~sweepslide.core.triangle_normals`,
    :class:`Triangle`'s own test.  Raises :class:`MeshParseError` naming
    the file and line of the first malformed record, and ``OSError`` when
    the file is missing.  The tokens are converted, and the records
    checked, all at once; only a malformed file is walked line by line,
    for its first error.
    """
    # utf-8-sig: a byte-order mark would otherwise glue itself to the first record type.
    with open(path, encoding="utf-8-sig") as fh:
        lines = fh.read().split("\n")
    # Each line as its token count times 4 plus its kind (1 vertex, 2 face,
    # 0 anything else); its token list is dropped at once.
    code = np.array([len(t) * 4 + _KINDS.get(t[0], 0) if (t := line.split()) else 0
                     for line in lines], dtype=np.int64)
    vertex, face = code % 4 == 1, code % 4 == 2
    vertex_size, face_size = code[vertex] // 4, code[face] // 4
    if vertex_size.min(initial=4) < 4 or face_size.min(initial=4) < 4:
        raise _first_error(path, lines)
    # The lines of each kind are split as one string: no list per line.
    vertices = " ".join(compress(lines, vertex.tolist())).split()
    faces = " ".join(compress(lines, face.tolist()))
    starts = np.cumsum(vertex_size) - vertex_size
    coords = np.array(vertices, dtype=object)[(starts[:, None] + (1, 2, 3)).ravel()].tolist()
    # Every token of a face but its first; of "i/t/n", what is before the slash.
    indices = np.delete(np.array(faces.split(), dtype=object),
                        np.cumsum(face_size) - face_size).tolist()
    if "/" in faces:
        indices = [word.partition("/")[0] for word in indices]
    try:
        points = np.array(list(map(float, coords)), dtype=np.float64).reshape(-1, 3)
        raw = np.array(indices, dtype=np.int64)  # int() of each string
    except (ValueError, OverflowError):  # not a number, or an index past int64
        raise _first_error(path, lines) from None
    sizes = face_size - 1
    # The vertices read before each face, for each of its indices.
    count = np.repeat(np.cumsum(vertex)[face], sizes)
    if not np.isfinite(points).all() or ((raw == 0) | (raw > count) | (raw < -count)).any():
        raise _first_error(path, lines)
    index = np.where(raw > 0, raw - 1, count + raw)
    # Fan each face from its first vertex: corners (0, k, k + 1), k = 1 .. size - 2.
    fans = sizes - 2
    first = np.repeat(np.cumsum(sizes) - sizes, fans)
    k = np.arange(len(first)) - np.repeat(np.cumsum(fans) - fans, fans) + 1
    corners = np.stack((index[first], index[first + k], index[first + k + 1]), axis=1)
    block = points[corners]
    return block[triangle_normals(block)[1]]


def load_obj_mesh(path: str) -> list[Triangle]:
    """The triangles of :func:`load_obj_vertices`, one :class:`Triangle` per row."""
    return [Triangle(tuple(a), tuple(b), tuple(c))
            for a, b, c in load_obj_vertices(path).tolist()]


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
