"""Uniform sparse-grid index over a static triangle soup.

Each triangle is registered in every grid cell its bounding box overlaps,
so a box query over the touched cells can never miss an overlapping
triangle.  The hash is sparse (a dict keyed by integer cell coordinates)
because worlds may be spatially large and mostly empty.  Each world sizes
its own cells: ``CELL_SIZE``, doubled while its triangles would cover more
than ``MAX_CELLS_PER_TRIANGLE`` cells each on average.  A mesh of any size
builds; a triangle whose box is wider than ``MAX_TRIANGLE_EXTENT`` along an
axis is refused, because the narrowphase loses precision on it.

The world also keeps every triangle's box, plane and bounding sphere as
float64 arrays, so the grid's answer to a sweep can be cut down by sound
filters before any triangle reaches the scalar narrowphase, and its
vertices as one ``(n, 3, 3)`` float64 block for the exhaustive audit,
which reads no grid but shares the spheres' one implementation
(:func:`_bounding_spheres`).  An answer of at most
``SCALAR_FILTER_CANDIDATES`` triangles is filtered in one Python-float
loop over per-triangle rows, each made when first read, since numpy's cost
per call outweighs its cost per triangle there: an exact box test, a plane
slab and a capsule test against the triangle's sphere.  A longer answer is
box-tested with numpy over the arrays, then slab-tested in Python floats.
Both paths keep every triangle the sweep can touch; only the short one runs
the sphere test.  On the 20,000-triangle heightfield, whose answers take the
long path, that test took only 13 % of the narrowphase calls, and adding it
there lowered the frame rate by about 10 %.
A world can be built from such a block alone; it then makes each
:class:`Triangle` only when a sweep first reaches it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import chain

import numpy as np

from .core import Triangle, Vec3, triangle_normals

__all__ = ["World", "build_world"]

# A few sphere radii per cell keeps candidate lists short for game-like
# meshes.  It is the smallest cell a world gets.
CELL_SIZE = 4.0

# A world's cells double from CELL_SIZE while its triangles would cover
# more than this many cells each on average, so a mesh of a few large
# triangles fills a few cells, not thousands.  At 8, a 3,000-triangle soup
# with 16.8 cells per triangle moved to 8.0 cells and its sweeps ran 6 to
# 8 % slower; at 32 it keeps 4.0.
MAX_CELLS_PER_TRIANGLE = 32

# The widest box side a triangle may have, in sphere-space units.  The
# narrowphase's edge test cancels in ``ee*mm - em*em`` once an edge is long
# against the unit sphere.  It is the largest power of two at which the probe
# in tests/test_world.py passes: a floor that wide slides at z = 1 + epsilon
# with 1 iteration, and a two-triangle strip that long keeps 50 of 50 walkers
# moving.  At 2**23 the strip stops 2 of them, at 2**24 23, at 2**25 41.
MAX_TRIANGLE_EXTENT = 2.0 ** 22

# Padding, beyond the unit radius, of a sweep's box and of the plane slab
# it is filtered with.  Slack only adds candidates, never drops one.
SWEEP_BOX_SLACK = 1e-2

# A sweep whose two endpoints both lie farther than this from a triangle's
# plane, on the same side, cannot touch it: the plane distance is linear
# along the sweep.  The slack absorbs the rounding between the filter's
# arithmetic and the narrowphase's.
SLAB_MARGIN = 1.0 + SWEEP_BOX_SLACK

# A sweep's grid answer of at most this many triangles is filtered in one
# Python-float loop, box, slab and sphere (see World.sweep_indices), a longer
# one is box-tested with numpy and gets no sphere test.  On a
# 2-core host, over a 20,000-triangle heightfield's sweeps, the loop beat
# numpy up to about 50 triangles once its rows existed (10 against 15 us at
# 25 to 32), but each row costs about 1 us and 0.4 KB to make, and with
# fresh rows numpy won from 25 triangles up.  At 32, 99.5 % of the
# 40-triangle soups' queries and 80 % of a 3,000-triangle soup's take the
# loop, and the heightfield's (median 90 triangles) keep numpy.  The
# sphere test made the soups' sweeps faster (41 % fewer narrowphase calls)
# but the heightfield's slower, so it stays on this side of the cut.
SCALAR_FILTER_CANDIDATES = 32

Bounds = tuple[Vec3, Vec3]


def _cell_range(bounds: Bounds, size: float) -> tuple[range, range, range]:
    """The grid cells of edge *size* a box touches, for a query or a fill.

    The grid is sound only because fill and query agree on each cell:
    ``build_world``'s Python-int fill calls this function, and its sorted
    fill takes the same IEEE division and floor in numpy.
    """
    lo, hi = bounds
    # floor, not int(): truncation toward zero is wrong for negative
    # coordinates and would silently drop cells on that side.
    return (
        range(math.floor(lo[0] / size), math.floor(hi[0] / size) + 1),
        range(math.floor(lo[1] / size), math.floor(hi[1] / size) + 1),
        range(math.floor(lo[2] / size), math.floor(hi[2] / size) + 1),
    )


def _cell_entries(lo: np.ndarray, hi: np.ndarray, size: float) -> float:
    """How many grid entries boxes ``lo``-``hi`` fill at cell *size*.

    In float64, with the same division and floor as :func:`_cell_range`:
    exact up to 2**53 entries, and finite, as every box is at most
    ``MAX_TRIANGLE_EXTENT`` wide.
    """
    return float((np.floor(hi / size) - np.floor(lo / size) + 1.0).prod(axis=1).sum())


def _bounding_spheres(tris: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each triangle's centroid and its largest vertex distance from it.

    *tris* is an ``(n, 3, 3)`` vertex block; the centroids are a ``(3, n)``
    array, one row per axis.  The sweep filter and the audit both read
    these spheres.
    """
    a, b, c = tris.transpose(1, 2, 0).copy()
    centroids = (a + b + c) / 3

    def squared(vertex):
        d = vertex - centroids
        d *= d
        return d[0] + d[1] + d[2]

    return centroids, np.sqrt(np.maximum(np.maximum(squared(a), squared(b)), squared(c)))


def _overlap_column(bounds: Bounds) -> np.ndarray:
    """A query box as the column ``(hi, -lo)``: see :class:`World`."""
    lo, hi = bounds
    return np.array((*hi, -lo[0], -lo[1], -lo[2]))[:, None]


class _LazyTriangles(Sequence):
    """The rows of a vertex block as :class:`Triangle` objects, each made when first read."""

    __slots__ = ("_vertices", "_made")

    def __init__(self, vertices: np.ndarray):
        self._vertices = vertices
        self._made: list[Triangle | None] = [None] * len(vertices)

    def __len__(self) -> int:
        return len(self._made)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self._made)))]
        tri = self._made[index]
        if tri is None:
            a, b, c = self._vertices[index].tolist()
            tri = self._made[index] = Triangle(tuple(a), tuple(b), tuple(c))
        return tri

    def __iter__(self):
        return map(self.__getitem__, range(len(self._made)))


class World:
    """Immutable triangle soup plus its grid; build once, query anywhere.

    Column ``i`` of ``_boxes`` is triangle ``i``'s box as ``(lo, -hi)``,
    so one ``<=`` against ``(hi, -lo)`` of a query box is the inclusive
    overlap test.  Column ``i`` of ``_planes`` is ``(n, -n.a)``, so
    ``(p, 1)`` times it is the signed distance of ``p`` from the plane.
    Column ``i`` of ``_spheres`` is the centre and radius of a sphere that
    holds triangle ``i`` (:func:`_bounding_spheres`).  Row ``i`` of
    ``vertices`` is triangle ``i``'s ``(a, b, c)``.  Entry ``i`` of
    ``_rows`` is ``None`` or triangle ``i``'s box, plane and sphere as
    Python floats (see ``_row``).  ``_extent`` is the widest box side of
    any triangle along each axis.
    """

    __slots__ = ("triangles", "vertices", "_cell_size", "_cells", "_boxes", "_planes",
                 "_spheres", "_rows", "_extent")

    def __init__(self, triangles: Sequence[Triangle], vertices: np.ndarray, cell_size: float,
                 cells: dict[tuple[int, int, int], list[int]],
                 boxes: np.ndarray, planes: np.ndarray, spheres: np.ndarray, extent: Vec3):
        self.triangles = triangles
        self.vertices = vertices
        self._cell_size = cell_size
        self._cells = cells
        self._boxes = boxes
        self._planes = planes
        self._spheres = spheres
        self._extent = extent
        # Each triangle's _row, made when the scalar filter first reads it.
        # Concurrent sweeps may both make one; either copy is the same.
        self._rows: list[tuple[float, ...] | None] = [None] * boxes.shape[1]

    @property
    def cell_size(self) -> float:
        """The edge of this world's grid cells, derived from its mesh."""
        return self._cell_size

    def query_candidates(self, bounds: Bounds) -> list[int]:
        """Indices of every triangle that might overlap *bounds*.

        Guaranteed a superset of the exact AABB-overlap set; deduplicated
        and ascending.
        """
        rx, ry, rz = _cell_range(bounds, self._cell_size)
        # Python ints, not len(range): a long finite box has more cells
        # than len() can return.
        box_cells = (rx.stop - rx.start) * (ry.stop - ry.start) * (rz.stop - rz.start)
        if box_cells > len(self._cells):
            # Huge query box: the exact scan is cheaper than its cells.
            return self.brute_force_indices(bounds)
        cells = self._cells
        found: set[int] = set()
        for ix in rx:
            for iy in ry:
                for iz in rz:
                    bucket = cells.get((ix, iy, iz))
                    if bucket:
                        found.update(bucket)
        return sorted(found)

    def sweep_indices(self, start: Vec3, end: Vec3, radii: Vec3 | None = None) -> list[int]:
        """Ascending indices of the triangles a sweep from *start* to *end* may touch.

        The unit sphere's sweep box is the endpoints' box padded by
        ``1 + SWEEP_BOX_SLACK``.  Of ``query_candidates(box)`` this keeps
        the triangles whose box overlaps it (inclusive) and drops those
        whose plane both endpoints clear by more than ``SLAB_MARGIN`` on the
        same side.  With *radii*, *start* and *end* are in the sphere space
        of an ellipsoid with those semi-axes: the box is scaled back to
        world space (positive radii keep min and max in order), and there
        the plane ``n.x = n.a`` is ``(n*r).p = n.a``, so the margin is
        scaled by ``|n*r|``.

        A grid answer of at most ``SCALAR_FILTER_CANDIDATES`` triangles is
        filtered in one Python loop over per-triangle rows, which also
        drops a triangle when the closest point of the segment to its
        sphere's centre lies farther than the radius plus ``SLAB_MARGIN``
        (times the largest of *radii*, in world space): the triangle lies
        in its sphere, and the swept sphere (an ellipsoid within a ball of
        its largest radius) only reaches that far.  A longer answer is
        box-tested with numpy over the world's arrays, with the same
        inclusive comparisons, then slab-tested in Python floats
        (:func:`_slab_filter`).
        """
        pad = 1.0 + SWEEP_BOX_SLACK
        lo = (min(start[0], end[0]) - pad, min(start[1], end[1]) - pad,
              min(start[2], end[2]) - pad)
        hi = (max(start[0], end[0]) + pad, max(start[1], end[1]) + pad,
              max(start[2], end[2]) + pad)
        reach = SLAB_MARGIN
        if radii is not None:
            rx, ry, rz = radii
            lo = (lo[0] * rx, lo[1] * ry, lo[2] * rz)
            hi = (hi[0] * rx, hi[1] * ry, hi[2] * rz)
            start = (start[0] * rx, start[1] * ry, start[2] * rz)
            end = (end[0] * rx, end[1] * ry, end[2] * rz)
            reach = SLAB_MARGIN * max(radii)
        found = self.query_candidates((lo, hi))
        if len(found) > SCALAR_FILTER_CANDIDATES:
            found = np.fromiter(found, dtype=np.intp, count=len(found))
            found = found[(self._boxes.take(found, axis=1) <= _overlap_column((lo, hi))).all(axis=0)]
            return _slab_filter(zip(found.tolist(), *self._planes.take(found, axis=1).tolist()),
                                start, end, radii)
        lx, ly, lz = lo
        hx, hy, hz = hi
        sx, sy, sz = start
        ex, ey, ez = end
        dx, dy, dz = ex - sx, ey - sy, ez - sz
        dd = dx * dx + dy * dy + dz * dz
        margin = SLAB_MARGIN
        rows = self._rows
        kept = []
        for index in found:
            row = rows[index]
            if row is None:
                row = rows[index] = self._row(index)
            x0, y0, z0, x1, y1, z1, nx, ny, nz, d, cx, cy, cz, r = row
            if not (x0 <= hx and y0 <= hy and z0 <= hz and x1 >= lx and y1 >= ly and z1 >= lz):
                continue
            if radii is not None:
                wx, wy, wz = nx * rx, ny * ry, nz * rz
                margin = SLAB_MARGIN * math.sqrt(wx * wx + wy * wy + wz * wz)
            # The slab test of _slab_filter.
            d0 = nx * sx + ny * sy + nz * sz + d
            d1 = nx * ex + ny * ey + nz * ez + d
            if not ((d0 <= margin or d1 <= margin) and (d0 >= -margin or d1 >= -margin)):
                continue
            # From the segment's closest point, start + t * (end - start), to the centre.
            px, py, pz = cx - sx, cy - sy, cz - sz
            t = px * dx + py * dy + pz * dz
            if t <= 0.0:
                t = 0.0
            elif t >= dd:
                t = 1.0
            else:
                t /= dd
            px -= t * dx
            py -= t * dy
            pz -= t * dz
            r += reach
            if px * px + py * py + pz * pz <= r * r:
                kept.append(index)
        return kept

    def _row(self, index: int) -> tuple[float, ...]:
        """Triangle *index*'s box, plane and sphere as floats: ``(lo, hi, n, -n.a, c, r)``."""
        x0, y0, z0, x1, y1, z1 = self._boxes[:, index].tolist()
        return (x0, y0, z0, -x1, -y1, -z1, *self._planes[:, index].tolist(),
                *self._spheres[:, index].tolist())

    def candidates(self, start: Vec3, end: Vec3) -> list[tuple[int, Triangle]]:
        """``(index, triangle)`` pairs for ``sweep_indices(start, end)``."""
        triangles = self.triangles
        return [(index, triangles[index]) for index in self.sweep_indices(start, end)]

    def brute_force_indices(self, bounds: Bounds) -> list[int]:
        """Exact AABB-overlap scan of every triangle; the grid-free reference."""
        return np.flatnonzero((self._boxes <= _overlap_column(bounds)).all(axis=0)).tolist()


def _slab_filter(planes, start: Vec3, end: Vec3, radii: Vec3 | None) -> list[int]:
    """The indices of ``(index, nx, ny, nz, d)`` *planes* whose slab the sweep meets.

    The sweep is dropped from a plane only when both endpoints (in world
    space) lie farther than the margin from it on the same side.  Every
    distance is ``((nx*x + ny*y) + nz*z) + d`` in Python floats.
    """
    sx, sy, sz = start
    ex, ey, ez = end
    margin = SLAB_MARGIN
    kept = []
    for index, nx, ny, nz, d in planes:
        if radii is not None:
            wx, wy, wz = nx * radii[0], ny * radii[1], nz * radii[2]
            margin = SLAB_MARGIN * math.sqrt(wx * wx + wy * wy + wz * wz)
        d0 = nx * sx + ny * sy + nz * sz + d
        d1 = nx * ex + ny * ey + nz * ez + d
        # min(d0, d1) <= margin and max(d0, d1) >= -margin: the distances
        # are finite, as the world's planes and the sweep are.
        if (d0 <= margin or d1 <= margin) and (d0 >= -margin or d1 >= -margin):
            kept.append(index)
    return kept


def _sorted_cells(lo: np.ndarray, hi: np.ndarray, size: float) -> dict | None:
    """The grid of boxes ``lo``-``hi`` at cell *size*, from one numpy sort.

    Each (cell, triangle) entry is one int64, the cell's packed key times
    the triangle count plus the triangle's index, so one sort orders the
    entries by cell and each cell's triangles ascending, and each bucket
    is a slice of one list.  ``None`` when an entry would not fit.
    """
    first, last = np.floor(lo / size), np.floor(hi / size)
    if not max(np.abs(first).max(initial=0.0), np.abs(last).max(initial=0.0)) < 2.0 ** 62:
        return None
    first, last = first.astype(np.int64), last.astype(np.int64)
    count = len(first)
    base = first.min(axis=0)
    sx, sy, sz = (last.max(axis=0) - base + 1).tolist()
    if sx * sy * sz * count >= 2 ** 63:
        return None
    ext = last - first + 1
    per = ext[:, 0] * ext[:, 1] * ext[:, 2]
    # Each triangle's box is walked in z, then y, then x from its first cell.
    owner = np.repeat(np.arange(count), per)
    step = np.arange(len(owner)) - np.repeat(np.cumsum(per) - per, per)
    rel = first - base
    entry = ((rel[:, 0] * sy + rel[:, 1]) * sz + rel[:, 2])[owner]
    along = ext[owner, 2]
    entry += step % along
    step //= along
    along = ext[owner, 1]
    entry += step % along * sz
    entry += step // along * (sy * sz)
    entry *= count
    entry += owner
    del owner, step, along
    entry.sort()
    # The buckets share one int object per triangle, as the Python fill's do.
    members = np.array(range(count), dtype=object)[entry % count].tolist()
    entry //= count
    starts = np.flatnonzero(np.concatenate(((True,), entry[1:] != entry[:-1])))
    key = entry[starts]
    del entry
    xs = (key // (sy * sz) + base[0]).tolist()
    ys = (key // sz % sy + base[1]).tolist()
    zs = (key % sz + base[2]).tolist()
    bounds = starts.tolist()
    bounds.append(len(members))
    return {cell: members[b0:b1] for cell, b0, b1 in zip(zip(xs, ys, zs), bounds, bounds[1:])}


def build_world(triangles: Sequence[Triangle] | np.ndarray) -> World:
    """Index *triangles* into a uniform grid sized for them.

    *triangles* is a sequence of :class:`Triangle` or an ``(n, 3, 3)``
    block of their vertices, as ``World.vertices`` holds them.  A block's
    rows must pass :class:`Triangle`'s own test (``ValueError`` naming the
    first that does not), and its ``Triangle`` objects are made only when
    a sweep or a reader of ``World.triangles`` first reaches them; a
    sequence is kept as given.

    The cells start at ``CELL_SIZE`` and double while the triangles would
    cover more than ``MAX_CELLS_PER_TRIANGLE`` cells each on average.
    Deterministic for identical input order; a triangle whose box is wider
    than ``MAX_TRIANGLE_EXTENT`` along an axis raises ``ValueError`` naming
    the first such row, before anything is built.
    """
    if isinstance(triangles, np.ndarray):
        if triangles.ndim != 3 or triangles.shape[1:] != (3, 3):
            raise ValueError(f"a vertex block has shape (n, 3, 3), got {triangles.shape}")
        vertices = np.array(triangles, dtype=np.float64, order="C")
        normal, accepted = triangle_normals(vertices)
        if not accepted.all():
            index = int(np.argmin(accepted))
            raise ValueError(f"row {index} of the vertex block is no triangle (collinear, "
                             f"non-finite or out-of-range vertices): {vertices[index].tolist()!r}")
        tris = _LazyTriangles(vertices)
    else:
        tris = tuple(triangles)
        count = len(tris)
        # One flat pass over the triangles' a, b, c and normal.
        flat = np.fromiter(chain.from_iterable(chain(t.a, t.b, t.c, t.normal) for t in tris),
                           dtype=np.float64, count=12 * count).reshape(count, 4, 3)
        vertices = flat[:, :3].copy()
        normal = flat[:, 3]
    vertices.flags.writeable = False  # public, and the audit trusts it
    count = len(vertices)
    a, b, c = vertices[:, 0], vertices[:, 1], vertices[:, 2]
    # Over the corners two at a time: a reduction along the middle axis is slower.
    lo = np.minimum(np.minimum(a, b), c)
    hi = np.maximum(np.maximum(a, b), c)
    narrow = (hi <= lo + MAX_TRIANGLE_EXTENT).all(axis=1)
    if not narrow.all():
        index = int(np.argmin(narrow))
        raise ValueError(f"row {index} of the mesh is wider than MAX_TRIANGLE_EXTENT "
                         f"({MAX_TRIANGLE_EXTENT!r}) along an axis: its box is "
                         f"{lo[index].tolist()!r} to {hi[index].tolist()!r}")
    offset = normal[:, 0] * a[:, 0] + normal[:, 1] * a[:, 1] + normal[:, 2] * a[:, 2]
    centroids, radii = _bounding_spheres(vertices)
    size = CELL_SIZE
    entries = _cell_entries(lo, hi, size)
    while entries > MAX_CELLS_PER_TRIANGLE * count:
        size *= 2.0
        entries = _cell_entries(lo, hi, size)
    # An empty mesh skips the sort, whose minimum has no identity.
    cells = _sorted_cells(lo, hi, size) if count else {}
    if cells is None:
        # Cells or packed entries beyond int64: Python ints, cell by cell.
        cells = {}
        for index, box in enumerate(zip(lo.tolist(), hi.tolist())):
            rx, ry, rz = _cell_range(box, size)
            for ix in rx:
                for iy in ry:
                    for iz in rz:
                        cells.setdefault((ix, iy, iz), []).append(index)
        # Appending in index order already leaves each bucket sorted ascending.
    return World(tris, vertices, size, cells, np.hstack((lo, -hi)).T.copy(),
                 np.column_stack((normal, -offset)).T.copy(), np.vstack((centroids, radii)),
                 tuple((hi - lo).max(axis=0, initial=0.0).tolist()))
