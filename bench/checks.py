"""Correctness checks that share no code with the library.

The point-triangle distance here projects the point onto the triangle's
plane, tests the projection with edge-side signs, and otherwise takes the
nearest of the three edge segments.  The library's own audit walks Voronoi
regions instead, so a fault in either one does not hide in the other.
"""

from __future__ import annotations

import math

import numpy as np

# An improved frame must end at least this close to one radius from the mesh.
MIN_CLEARANCE = 1.0 - 1e-6
# Starting positions are drawn until they clear the mesh by this much.
START_CLEARANCE = 1.000001
# Improved frames stop within this many iterations.
IMPROVED_MAX_ITERATIONS = 3


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def segment_distance(p, a, b) -> float:
    """Distance from *p* to the segment *ab*."""
    ab = _sub(b, a)
    length_sq = _dot(ab, ab)
    t = 0.0 if length_sq == 0.0 else min(1.0, max(0.0, _dot(_sub(p, a), ab) / length_sq))
    q = (a[0] + ab[0] * t, a[1] + ab[1] * t, a[2] + ab[2] * t)
    return math.dist(p, q)


def point_triangle_distance(p, a, b, c) -> float:
    """Distance from point *p* to the solid triangle *abc*."""
    n = _cross(_sub(b, a), _sub(c, a))
    nn = _dot(n, n)
    if nn > 0.0:
        s = _dot(n, _sub(p, a)) / nn
        q = (p[0] - n[0] * s, p[1] - n[1] * s, p[2] - n[2] * s)
        if (_dot(_cross(_sub(b, a), _sub(q, a)), n) >= 0.0
                and _dot(_cross(_sub(c, b), _sub(q, b)), n) >= 0.0
                and _dot(_cross(_sub(a, c), _sub(q, c)), n) >= 0.0):
            return abs(s) * math.sqrt(nn)
    return min(segment_distance(p, a, b), segment_distance(p, b, c), segment_distance(p, c, a))


class Mesh:
    """Triangle vertices as an ``(n, 3, 3)`` array with their boxes.

    :meth:`clearance` scans only the triangles whose box, grown by *reach*,
    holds the point: every other triangle is farther than *reach*.
    """

    def __init__(self, vertices):
        self.vertices = np.asarray(vertices, dtype=float).reshape(-1, 3, 3)
        self.lo = self.vertices.min(axis=1)
        self.hi = self.vertices.max(axis=1)

    def scaled(self, radii) -> "Mesh":
        """The mesh in the sphere space of an ellipsoid with semi-axes *radii*."""
        return Mesh(self.vertices / np.asarray(radii, dtype=float))

    def clearance(self, p, reach: float = 1.01) -> float:
        """Distance from *p* to the mesh, or ``inf`` when it exceeds *reach*."""
        point = np.asarray(p, dtype=float)
        near = np.nonzero(((self.lo - reach) <= point).all(axis=1)
                          & ((self.hi + reach) >= point).all(axis=1))[0]
        best = math.inf
        for i in near.tolist():
            a, b, c = self.vertices[i].tolist()
            best = min(best, point_triangle_distance(p, a, b, c))
        return best if best <= reach else math.inf

    def overlapping(self, lo, hi) -> np.ndarray:
        """Indices of the triangles whose box overlaps the box ``lo..hi``."""
        return np.nonzero((self.lo <= np.asarray(hi)).all(axis=1)
                          & (self.hi >= np.asarray(lo)).all(axis=1))[0]


def improved_frame_ok(result, mesh: Mesh) -> bool:
    """The improved guarantees for one frame, *mesh* being in sphere space."""
    p = result.final_pos
    return (result.iterations <= IMPROVED_MAX_ITERATIONS
            and all(math.isfinite(x) for x in p)
            and mesh.clearance(p) >= MIN_CLEARANCE)


def penetrates(position, mesh: Mesh) -> bool:
    """True when a sphere-space centre is closer than one radius to *mesh*."""
    return mesh.clearance(position) < MIN_CLEARANCE
