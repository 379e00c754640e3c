"""Scalar 3D primitives shared by every other module.

Vectors are plain ``(x, y, z)`` tuples of floats, so all values here are
immutable and every function is pure; the module is safe to use from any
number of concurrent callers.  All arithmetic is done in Python floats
(IEEE binary64) throughout the package -- precision is deliberately not
mixed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Vec3",
    "DegenerateVectorError",
    "DegenerateTriangleError",
    "Plane",
    "Triangle",
    "triangle_normals",
    "add",
    "sub",
    "scale",
    "dot",
    "cross",
    "norm",
    "distance",
    "normalize",
    "signed_plane_distance",
    "robust_quadratic_roots",
    "check_stand_off",
    "check_motion",
    "as_type",
]

Vec3 = tuple[float, float, float]

# Below this length a vector has no usable direction, and below this sine
# of the angle at its first vertex a triangle has no usable normal.
DEGENERATE_LENGTH = 1e-12
# How far a stored "unit" vector may drift from length 1.
UNIT_TOLERANCE = 1e-9
# The normal float range, outside which a triangle's squares lose their
# precision (see _usable_squares).
_FLOAT_MIN, _FLOAT_MAX = sys.float_info.min, sys.float_info.max


class DegenerateVectorError(ValueError):
    """A direction was requested from a (near-)zero vector."""


class DegenerateTriangleError(ValueError):
    """Triangle vertices are collinear or not finite; it has no usable normal."""


def add(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def sub(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def scale(v: Vec3, s: float) -> Vec3:
    return (v[0] * s, v[1] * s, v[2] * s)


def dot(a: Vec3, b: Vec3) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a: Vec3, b: Vec3) -> Vec3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def norm(v: Vec3) -> float:
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def distance(a: Vec3, b: Vec3) -> float:
    return norm(sub(a, b))


def check_stand_off(name: str, value: float) -> None:
    """Reject a stand-off tolerance outside ``0 < value < 0.1`` (NaN too)."""
    if not (0.0 < value < 0.1):
        raise ValueError(f"{name} must lie in (0, 0.1), got {value!r}")


def as_type(value, expected: type, what: str):
    """*value* as an *expected*, or ``ValueError`` naming *what*.

    An ``int`` or a ``str`` takes only its own type; a ``float`` takes an
    int or a float within the float range (not NaN).  A bool is no number.
    """
    allowed = (int, float) if expected is float else expected
    if (isinstance(value, bool) or not isinstance(value, allowed)
            or expected is float and not abs(value) <= sys.float_info.max):
        finite = " and finite" if expected is float else ""
        raise ValueError(f"{what} must be {expected.__name__}{finite}, got {value!r}")
    return expected(value)


def check_motion(pos: Vec3, vel: Vec3) -> None:
    """Reject a frame that no grid or quadratic can answer.

    The start must be finite and so must ``vel . vel``: a NaN or infinite
    velocity, or one so large that its square overflows, raises
    ``ValueError`` before any query is made.
    """
    if not (math.isfinite(pos[0]) and math.isfinite(pos[1]) and math.isfinite(pos[2])):
        raise ValueError(f"position must be finite, got {pos!r}")
    if not math.isfinite(dot(vel, vel)):
        raise ValueError(f"velocity must be finite and its squared length too, got {vel!r}")


def normalize(v: Vec3) -> Vec3:
    """Unit vector along *v*.

    Raises :class:`DegenerateVectorError` when ``|v| <= 1e-12``: callers
    must handle zero velocity explicitly instead of receiving garbage.
    """
    n = norm(v)
    if n <= DEGENERATE_LENGTH:
        raise DegenerateVectorError(f"cannot normalize near-zero vector {v!r}")
    return (v[0] / n, v[1] / n, v[2] / n)


@dataclass(frozen=True)
class Plane:
    """A plane given by any point on it and its unit normal."""

    origin: Vec3
    normal: Vec3

    def __post_init__(self) -> None:
        if abs(norm(self.normal) - 1.0) > UNIT_TOLERANCE:
            raise ValueError(f"plane normal is not unit length: {self.normal!r}")


def signed_plane_distance(plane: Plane, point: Vec3) -> float:
    """Distance from *point* to *plane*; positive on the normal side."""
    return dot(plane.normal, sub(point, plane.origin))


def _usable_squares(ab2, ac2, bc, normal) -> bool:
    """Whether a triangle whose squares leave the normal float range can still be used.

    Where ``|ab|^2 |ac|^2`` falls below the smallest normal float, the
    collinearity test compares with a rounded, or zero, bound: an edge's
    squared length can underflow to 0, which the narrowphase divides by,
    and ``|ab x ac|^2`` can lose the precision that makes the normal unit
    length.  Where ``|ab x ac|^2`` overflows, the normal comes out 0 or
    NaN.  Usable means three nonzero squared edge lengths and a normal
    within ``UNIT_TOLERANCE`` of unit length.  Elementwise, so that it
    serves :func:`triangle_normals` too.
    """
    bc2 = bc[0] * bc[0] + bc[1] * bc[1] + bc[2] * bc[2]
    length = np.sqrt(normal[0] * normal[0] + normal[1] * normal[1] + normal[2] * normal[2])
    return (ab2 > 0.0) & (ac2 > 0.0) & (bc2 > 0.0) & (abs(length - 1.0) <= UNIT_TOLERANCE)


@dataclass(frozen=True)
class Triangle:
    """A collision triangle with its unit normal cached at construction.

    Caching the normal once avoids per-query recomputation and the
    round-off drift that would come with it.  Construction rejects
    collinear vertices: the sine of the angle at ``a``,
    ``|ab x ac| / (|ab| |ac|)``, must exceed ``DEGENERATE_LENGTH``.  The
    test is relative, so scaling a triangle never makes it degenerate
    until its squares leave the float range; a non-finite vertex fails it
    too.  Where ``|ab|^2 |ac|^2`` is below the smallest normal float or
    ``|ab x ac|^2`` overflows, it also rejects a triangle with an edge whose
    squared length is 0 or a normal off unit length by more than
    ``UNIT_TOLERANCE`` (see :func:`_usable_squares`).
    """

    a: Vec3
    b: Vec3
    c: Vec3
    normal: Vec3 = field(init=False)

    def __post_init__(self) -> None:
        # sub, cross and dot written out in their own operation order.
        ax, ay, az = self.a
        abx, aby, abz = self.b[0] - ax, self.b[1] - ay, self.b[2] - az
        acx, acy, acz = self.c[0] - ax, self.c[1] - ay, self.c[2] - az
        nx = aby * acz - abz * acy
        ny = abz * acx - abx * acz
        nz = abx * acy - aby * acx
        nn = nx * nx + ny * ny + nz * nz
        ab2 = abx * abx + aby * aby + abz * abz
        ac2 = acx * acx + acy * acy + acz * acz
        bound = DEGENERATE_LENGTH * DEGENERATE_LENGTH * ab2 * ac2
        # Squares on both sides: no square root for the test.  Written as
        # "not above" so a NaN, from a non-finite vertex, is rejected too.
        if not nn > bound:
            raise DegenerateTriangleError(
                f"collinear or non-finite triangle vertices: {self.a!r}, {self.b!r}, {self.c!r}"
            )
        m = math.sqrt(nn)
        normal = (nx / m, ny / m, nz / m)
        if not (bound >= _FLOAT_MIN and nn <= _FLOAT_MAX) and not _usable_squares(
                ab2, ac2, (self.c[0] - self.b[0], self.c[1] - self.b[1], self.c[2] - self.b[2]),
                normal):
            raise DegenerateTriangleError(
                f"triangle whose squares leave the float range: {self.a!r}, {self.b!r}, "
                f"{self.c!r}"
            )
        object.__setattr__(self, "normal", normal)

    def vertices(self) -> tuple[Vec3, Vec3, Vec3]:
        return (self.a, self.b, self.c)


def triangle_normals(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:class:`Triangle`'s normal of each row ``(a, b, c)`` of an ``(n, 3, 3)`` block.

    Its own test and normal, elementwise and in its operation order, so
    row ``i`` is accepted exactly when ``Triangle(*vertices[i])`` would be,
    with the same normal, bit for bit.  Returns the ``(n, 3)`` normals and
    the boolean mask of accepted rows; a rejected row's normal is garbage.
    """
    (ax, ay, az), (bx, by, bz), (cx, cy, cz) = np.moveaxis(vertices, 0, -1)
    with np.errstate(all="ignore"):  # Python floats overflow to inf quietly too
        abx, aby, abz = bx - ax, by - ay, bz - az
        acx, acy, acz = cx - ax, cy - ay, cz - az
        nx = aby * acz - abz * acy
        ny = abz * acx - abx * acz
        nz = abx * acy - aby * acx
        nn = nx * nx + ny * ny + nz * nz
        ab2 = abx * abx + aby * aby + abz * abz
        ac2 = acx * acx + acy * acy + acz * acz
        bound = DEGENERATE_LENGTH * DEGENERATE_LENGTH * ab2 * ac2
        m = np.sqrt(nn)
        normal = (nx / m, ny / m, nz / m)
        ok = (nn > bound) & (((bound >= _FLOAT_MIN) & (nn <= _FLOAT_MAX))
                             | _usable_squares(ab2, ac2, (cx - bx, cy - by, cz - bz), normal))
        return np.stack(normal, axis=1), ok


def robust_quadratic_roots(a: float, b: float, c: float) -> tuple[float, float] | None:
    """Both real roots of ``a*t^2 + b*t + c = 0``, ascending, or ``None``.

    Uses ``q = -(b + sign(b) * sqrt(b^2 - 4ac)) / 2`` with roots ``q/a``
    and ``c/q`` so the smaller root is never formed by subtracting two
    nearly equal quantities.  ``c == 0`` is handled separately because
    there ``q`` may be zero; the roots are then exactly ``0`` and ``-b/a``.

    The caller must guarantee ``a != 0`` (treat near-linear equations as
    linear before calling).
    """
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return None
    if c == 0.0:
        r = -b / a
        return (r, 0.0) if r < 0.0 else (0.0, r)
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    if q == 0.0:
        # Reachable only when b and the discriminant both underflow to
        # zero with |c| subnormal; 0 is then a double root to within one
        # ulp of c.
        return (0.0, 0.0)
    r0 = q / a
    r1 = c / q
    return (r0, r1) if r0 <= r1 else (r1, r0)
