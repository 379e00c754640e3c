"""Uniform sparse-grid index over a static triangle soup.

Each triangle is registered in every grid cell its bounding box overlaps,
so a box query over the touched cells can never miss an overlapping
triangle.  The hash is sparse (a dict keyed by integer cell coordinates)
because worlds may be spatially large and mostly empty.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

from .core import Triangle, Vec3

__all__ = ["World", "build_world", "triangle_bounds", "DEFAULT_CELL_SIZE"]

# A few sphere radii per cell keeps candidate lists short for game-like
# meshes without exploding the number of cells a large triangle spans.
DEFAULT_CELL_SIZE = 4.0

Bounds = tuple[Vec3, Vec3]


def triangle_bounds(tri: Triangle) -> Bounds:
    ax, ay, az = tri.a
    bx, by, bz = tri.b
    cx, cy, cz = tri.c
    return (
        (min(ax, bx, cx), min(ay, by, cy), min(az, bz, cz)),
        (max(ax, bx, cx), max(ay, by, cy), max(az, bz, cz)),
    )


def _cell_range(bounds: Bounds, cell_size: float) -> tuple[range, range, range]:
    """The grid cells a box touches.

    Building and querying both map boxes to cells here: the grid is sound
    only because the two use the same mapping.
    """
    lo, hi = bounds
    # floor, not int(): truncation toward zero is wrong for negative
    # coordinates and would silently drop cells on that side.
    return (
        range(math.floor(lo[0] / cell_size), math.floor(hi[0] / cell_size) + 1),
        range(math.floor(lo[1] / cell_size), math.floor(hi[1] / cell_size) + 1),
        range(math.floor(lo[2] / cell_size), math.floor(hi[2] / cell_size) + 1),
    )


def _bounds_overlap(a: Bounds, b: Bounds) -> bool:
    return (
        a[0][0] <= b[1][0] and a[1][0] >= b[0][0]
        and a[0][1] <= b[1][1] and a[1][1] >= b[0][1]
        and a[0][2] <= b[1][2] and a[1][2] >= b[0][2]
    )


class World:
    """Immutable triangle soup plus its grid; build once, query anywhere."""

    __slots__ = ("triangles", "cell_size", "_cells")

    def __init__(self, triangles: tuple[Triangle, ...], cell_size: float,
                 cells: dict[tuple[int, int, int], list[int]]):
        self.triangles = triangles
        self.cell_size = cell_size
        self._cells = cells

    def query_candidates(self, bounds: Bounds) -> list[int]:
        """Indices of every triangle that might overlap *bounds*.

        Guaranteed a superset of the exact AABB-overlap set; deduplicated
        and ascending.
        """
        rx, ry, rz = _cell_range(bounds, self.cell_size)
        found: set[int] = set()
        # Python ints, not len(range): a long finite box has more cells
        # than len() can return.
        box_cells = (rx.stop - rx.start) * (ry.stop - ry.start) * (rz.stop - rz.start)
        if box_cells > len(self._cells):
            # Huge query box: walking the occupied cells is cheaper.
            for (ix, iy, iz), indices in self._cells.items():
                if ix in rx and iy in ry and iz in rz:
                    found.update(indices)
        else:
            cells = self._cells
            for ix in rx:
                for iy in ry:
                    for iz in rz:
                        bucket = cells.get((ix, iy, iz))
                        if bucket:
                            found.update(bucket)
        return sorted(found)

    def candidates(self, bounds: Bounds) -> Iterator[tuple[int, Triangle]]:
        """``(index, triangle)`` pairs for ``query_candidates(bounds)``."""
        triangles = self.triangles
        for index in self.query_candidates(bounds):
            yield index, triangles[index]

    def brute_force_indices(self, bounds: Bounds) -> list[int]:
        """Exact AABB-overlap scan of every triangle; the grid-free reference."""
        return [
            i for i, tri in enumerate(self.triangles)
            if _bounds_overlap(triangle_bounds(tri), bounds)
        ]


def build_world(triangles: Sequence[Triangle], cell_size: float = DEFAULT_CELL_SIZE) -> World:
    """Index *triangles* into a uniform grid.

    Deterministic for identical input order; rejects non-positive cell
    sizes.
    """
    if not (cell_size > 0.0):
        raise ValueError(f"cell_size must be positive, got {cell_size!r}")
    cells: dict[tuple[int, int, int], list[int]] = {}
    tris = tuple(triangles)
    for index, tri in enumerate(tris):
        rx, ry, rz = _cell_range(triangle_bounds(tri), cell_size)
        for ix in rx:
            for iy in ry:
                for iz in rz:
                    cells.setdefault((ix, iy, iz), []).append(index)
    # Appending in index order already leaves each bucket sorted ascending.
    return World(tris, cell_size, cells)
