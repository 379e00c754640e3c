import math
import random
import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweepslide.core import DegenerateTriangleError, Triangle
from sweepslide.mesh import builtin_mesh
from sweepslide.response import sphere_sweep
from sweepslide.scenario import builtin_scenario, mesh_distances
from sweepslide import world as world_module
from sweepslide.world import (
    CELL_SIZE,
    MAX_CELLS_PER_TRIANGLE,
    MAX_TRIANGLE_EXTENT,
    SCALAR_FILTER_CANDIDATES,
    SCAN_WORLD_TRIANGLES,
    SLAB_MARGIN,
    SWEEP_BOX_SLACK,
    World,
    _bounding_spheres,
    build_world,
)


def _scan_off():
    """A patch that keeps every ``sweep_indices`` call on the grid."""
    return mock.patch.object(world_module, "SCAN_WORLD_TRIANGLES", -1)


def _scan_on():
    """A patch that sends every ``sweep_indices`` call through the scan."""
    return mock.patch.object(world_module, "SCAN_WORLD_TRIANGLES", sys.maxsize)


def test_rejects_a_grid_too_large_to_build():
    # A floor of size 1e10, whose grid at 4.0 would hold 1.25e19 entries:
    # its triangles are too wide for the narrowphase, and no cell is made.
    with pytest.raises(ValueError, match=r"^row 0 of the mesh is wider than MAX_TRIANGLE_EXTENT "
                                         r"\(4194304\.0\) along an axis: its box is "
                                         r"\[-5000000000\.0, -5000000000\.0, 0\.0\] to "):
        build_world(builtin_mesh("floor", size=1e10))


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_the_extent_bound_is_per_triangle(axis):
    # Any number of triangles as wide as the bound build, far from the
    # origin too; one a hair wider along any axis is refused by its row.
    def wide(width, shift=0.0):
        ends = [[shift] * 3, [shift] * 3, [shift + 1.0] * 3]
        ends[1][axis] += width
        ends[2][axis] = shift
        return Triangle(*map(tuple, ends))

    fits = [wide(MAX_TRIANGLE_EXTENT), wide(MAX_TRIANGLE_EXTENT, -1.5e6)] * 4
    assert len(build_world(fits).triangles) == 8
    over = wide(math.nextafter(MAX_TRIANGLE_EXTENT, math.inf))
    for mesh in (fits[:3] + [over] + fits[3:], _block(fits[:3] + [over])):
        with pytest.raises(ValueError, match=r"^row 3 of the mesh is wider than"):
            build_world(mesh)


def test_an_entry_count_past_the_float_range_is_refused():
    # Its per-axis cell counts would multiply past the float range; the
    # triangle is far wider than the bound, and numpy warns of nothing.
    huge = Triangle((2e103, 2e103, 0.0), (0.0, 0.0, 3e103), (2e103, 2e103, 4.6e-8))
    for mesh in ([huge], np.array([huge.vertices()])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^row 0 of the mesh is wider than"):
                build_world(mesh)


def _probe_walkers(world, width, seed=0):
    """50 walkers spread along a strip *width* long, sliding for 10 frames:
    the frames that do not keep 90 % of their commanded horizontal motion,
    take a third contact or end closer than one radius."""
    rng = random.Random(seed)
    bad = []
    for k in range(50):
        pos = (width * (k + 0.5) / 50, rng.uniform(0.25, 0.75), 1.0 + rng.uniform(0.0, 0.5))
        vel = (rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.4), rng.uniform(-0.04, 0.04),
               -rng.uniform(0.05, 0.5))
        for frame in range(10):
            res = sphere_sweep(world, pos, vel)
            moved = math.hypot(res.final_pos[0] - pos[0], res.final_pos[1] - pos[1])
            clearance = mesh_distances([res.final_pos], world.vertices)[0]
            slid = moved >= 0.9 * math.hypot(vel[0], vel[1])
            if res.iterations > 2 or not slid or clearance < 1.0 - 1e-6:
                bad.append((k, frame))
            pos = res.final_pos
    return bad


@pytest.mark.parametrize("width", [
    MAX_TRIANGLE_EXTENT,
    # The narrowphase's edge test cancels here (ROADMAP item 5); once that
    # is fixed this passes and the bound can be raised.
    pytest.param(2.0 * MAX_TRIANGLE_EXTENT, marks=pytest.mark.xfail(strict=True)),
], ids=["bound", "twice"])
def test_the_bound_is_where_the_sphere_still_slides(width, monkeypatch):
    monkeypatch.setattr(world_module, "MAX_TRIANGLE_EXTENT", width)
    # A floor that wide: the sphere slides at 1 + epsilon with one contact a frame.
    world = build_world(builtin_mesh("floor", size=width))
    pos = (3.0, 2.0, 2.0)
    for _ in range(10):
        res = sphere_sweep(world, pos, (0.3, 0.1, -0.5))
        assert res.iterations <= 1
        pos = res.final_pos
    assert pos == pytest.approx((6.0, 3.0, 1.005), abs=1e-9)
    # A two-triangle strip one unit wide whose edges are that long.
    a, b, c, d = (0.0, 0.0, 0.0), (width, 0.0, 0.0), (width, 1.0, 0.0), (0.0, 1.0, 0.0)
    assert _probe_walkers(build_world([Triangle(a, b, c), Triangle(a, c, d)]), width) == []


@pytest.mark.parametrize("tris", [
    builtin_mesh("random_soup", n=64, seed=3, extent=9.0),
    builtin_mesh("box_room"),
    [],
], ids=["soup", "box_room", "empty"])
def test_vertices_are_the_corners_bit_for_bit(tris):
    vertices = build_world(tris).vertices
    want = np.array([[t.a, t.b, t.c] for t in tris], dtype=np.float64).reshape(-1, 3, 3)
    assert vertices.shape == (len(tris), 3, 3) and vertices.dtype == np.float64
    assert vertices.flags.c_contiguous and not vertices.flags.writeable
    assert vertices.tobytes() == want.tobytes()


def test_empty_world_returns_nothing():
    world = build_world([])
    assert world.query_candidates(((-100,) * 3, (100,) * 3)) == []


def test_triangle_spanning_two_cells():
    tri = Triangle((0.8, 0.8, 0.8), (6.0, 1.2, 0.8), (3.2, 3.6, 1.6))
    world = build_world([tri])
    # visible from a box confined to either cell
    assert world.query_candidates(((0.0, 0.0, 0.0), (3.6, 3.6, 3.6))) == [0]
    assert world.query_candidates(((4.4, 0.0, 0.0), (7.6, 3.6, 3.6))) == [0]


def test_query_misses_far_box():
    tri = Triangle((0.0, 0.0, 0.0), (4.0, 0.0, 0.0), (0.0, 4.0, 0.0))
    world = build_world([tri])
    assert world.query_candidates(((200.0, 200.0, 200.0), (208.0, 208.0, 208.0))) == []


def test_whole_world_box_returns_all():
    tris = builtin_mesh("random_soup", n=64, seed=3, extent=9.0)
    world = build_world(tris)
    assert world.query_candidates(((-20.0,) * 3, (20.0,) * 3)) == list(range(64))


def test_self_query_completeness():
    tris = builtin_mesh("random_soup", n=1000, seed=5, extent=30.0)
    world = build_world(tris)
    for i, tri in enumerate(tris):
        corners = list(zip(tri.a, tri.b, tri.c))
        box = (tuple(map(min, corners)), tuple(map(max, corners)))
        assert i in world.query_candidates(box)


def test_superset_of_brute_force_overlap():
    rng = random.Random(11)
    tris = builtin_mesh("random_soup", n=200, seed=8, extent=15.0)
    world = build_world(tris)
    for _ in range(400):
        center = [rng.uniform(-16, 16) for _ in range(3)]
        half = [rng.uniform(0.1, 6.0) for _ in range(3)]
        bounds = (
            (center[0] - half[0], center[1] - half[1], center[2] - half[2]),
            (center[0] + half[0], center[1] + half[1], center[2] + half[2]),
        )
        got = world.query_candidates(bounds)
        exact = world.brute_force_indices(bounds)
        assert set(exact) <= set(got)
        assert got == sorted(set(got))


def test_huge_box_query_is_the_exact_scan():
    # A box with more cells than the grid holds is answered by the exact
    # scan, so even a box 1e20 wide costs one pass over the triangles.
    rng = random.Random(4)
    world = build_world(builtin_mesh("random_soup", n=200, seed=8, extent=15.0))
    occupied = len(world._cells)
    boxes = [((-1e20, -1e20, -1e20), (1e20, 1e20, 1e20)),
             ((-1e20, 0.0, 0.0), (1e20, 1.0, 1.0)),
             ((-3.0, -1e20, 2.5), (-2.0, 1e20, 3.0))]
    for _ in range(50):
        lo = [rng.uniform(-20, 20) for _ in range(3)]
        boxes.append((tuple(lo), tuple(v + rng.uniform(45, 80) for v in lo)))
    for lo, hi in boxes:
        cells = math.prod(math.floor(h / world.cell_size) - math.floor(v / world.cell_size) + 1
                          for v, h in zip(lo, hi))
        assert cells > occupied
        assert world.query_candidates((lo, hi)) == world.brute_force_indices((lo, hi))
    # Not a trivial case: the thin slab holds some of the triangles, not all.
    assert 0 < len(world.brute_force_indices(boxes[1])) < 200


def test_negative_coordinates_not_dropped():
    # Cells on the negative side must use floored coordinates; truncation
    # toward zero would merge cells -1 and 0.
    tri = Triangle((-20.0, -20.0, -20.0), (-18.0, -20.0, -20.0), (-20.0, -18.0, -20.0))
    world = build_world([tri])
    assert world.query_candidates(((-20.8, -20.8, -20.8), (-19.2, -19.2, -19.2))) == [0]


def test_build_is_deterministic():
    tris = builtin_mesh("random_soup", n=100, seed=2, extent=10.0)
    w1 = build_world(tris)
    w2 = build_world(tris)
    box = ((-11.0,) * 3, (11.0,) * 3)
    assert w1.query_candidates(box) == w2.query_candidates(box)


def test_box_tests_are_inclusive():
    # A box that only touches the triangle's box still overlaps it.
    tri = Triangle((0.0, 0.0, 0.0), (4.0, 0.0, 0.0), (0.0, 4.0, 0.0))
    world = build_world([tri])
    touching = ((4.0, 4.0, 0.0), (12.0, 12.0, 8.0))
    assert world.brute_force_indices(touching) == [0]
    assert world.brute_force_indices(((4.0 + 1e-12, 0.0, 0.0), (12.0, 12.0, 8.0))) == []


@pytest.mark.parametrize("limit", [-1, SCALAR_FILTER_CANDIDATES])
def test_sweep_box_tests_are_inclusive(limit, monkeypatch):
    # A sweep whose padded box only touches the triangle's box at x = 4,
    # crossing its plane inside the slab, on the numpy path and on the
    # Python-float path.  The triangle's sphere (centre (8/3, 0, 0), radius
    # 3.28) reaches past x = 4, so the sphere test keeps it and only the box
    # test decides.
    world = build_world([Triangle((0.0, 0.0, 0.0), (4.0, -3.0, 0.0), (4.0, 3.0, 0.0))])
    monkeypatch.setattr(world_module, "SCALAR_FILTER_CANDIDATES", limit)
    start, end = (5.01, 0.0, -0.5), (5.01, 0.0, 0.5)
    assert start[0] - (1.0 + SWEEP_BOX_SLACK) == 4.0
    assert world.sweep_indices(start, end) == [0]
    assert world.sweep_indices((5.02, 0.0, -0.5), (5.02, 0.0, 0.5)) == []


def test_cells_beyond_int64_are_exact():
    # Cell coordinates past 2**63 are still exact Python ints, as in queries.
    # The far triangle spans one cell along x, so the cells stay at 4.0 and
    # its x cell is 2.5e19.
    far = 1e20
    tri = Triangle((far, 0.0, 0.0), (far, 1.0, 0.0), (far, 0.0, 1.0))
    world = build_world([tri, Triangle((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))])
    assert world.cell_size == CELL_SIZE and far / CELL_SIZE > 2.0 ** 63
    assert world.query_candidates(((far - 1.0, -1.0, -1.0), (far + 1.0, 2.0, 1.0))) == [0]
    assert world.query_candidates(((-1.0, -1.0, -1.0), (2.0, 2.0, 1.0))) == [1]


# --- the cell size each world derives from its mesh ---

def _fixed_grid(tris, size=CELL_SIZE):
    """The grid of *size* cells, built one triangle and one cell at a time."""
    cells = {}
    for index, tri in enumerate(tris):
        corners = list(zip(tri.a, tri.b, tri.c))
        lo = [math.floor(min(c) / size) for c in corners]
        hi = [math.floor(max(c) / size) for c in corners]
        for ix in range(lo[0], hi[0] + 1):
            for iy in range(lo[1], hi[1] + 1):
                for iz in range(lo[2], hi[2] + 1):
                    cells.setdefault((ix, iy, iz), []).append(index)
    return cells


def _heightfield(grid, seed):
    rng = random.Random(seed)
    h = [[rng.uniform(-1.5, 1.5) for _ in range(grid + 1)] for _ in range(grid + 1)]
    tris = []
    for i in range(grid):
        for j in range(grid):
            a, b = (float(i), float(j), h[i][j]), (i + 1.0, float(j), h[i + 1][j])
            c, d = (i + 1.0, j + 1.0, h[i + 1][j + 1]), (float(i), j + 1.0, h[i][j + 1])
            tris += [Triangle(a, b, c), Triangle(a, c, d)]
    return tris


@pytest.mark.parametrize("tris", [
    builtin_mesh("random_soup", n=40, seed=5, extent=8.0),
    builtin_mesh("random_soup", n=3000, seed=7, extent=30.0),
    _heightfield(12, seed=3),
], ids=["soup_40", "soup_3000", "heightfield"])
def test_bench_shaped_meshes_keep_the_fixed_grid(tris):
    world = build_world(tris)
    assert world.cell_size == CELL_SIZE
    assert world._cells == _fixed_grid(tris)


@pytest.mark.parametrize("kind, size", [
    ("floor", 64.0), ("obtuse_corner", 64.0), ("acute_corner", 32.0), ("crease", 64.0),
    ("box_room", 8.0),
])
def test_large_triangles_get_larger_cells(kind, size):
    tris = builtin_scenario(kind).mesh.load()
    world = build_world(tris)
    assert world.cell_size == size
    assert world._cells == _fixed_grid(tris, size)
    entries = sum(len(bucket) for bucket in world._cells.values())
    assert entries <= MAX_CELLS_PER_TRIANGLE * len(tris)
    # One doubling fewer would be over the average.
    assert sum(map(len, _fixed_grid(tris, size / 2).values())) > MAX_CELLS_PER_TRIANGLE * len(tris)


def test_a_long_strip_fills_a_few_cells():
    # Edges 3e6 long: 1,500,002 entries at 4.0, a few dozen once sized.
    a, b, c, d = (0.0, 0.0, 0.0), (3e6, 0.0, 0.0), (3e6, 1.0, 0.0), (0.0, 1.0, 0.0)
    world = build_world([Triangle(a, b, c), Triangle(a, c, d)])
    assert sum(len(bucket) for bucket in world._cells.values()) <= 2 * MAX_CELLS_PER_TRIANGLE
    assert world.sweep_indices((2e6, 0.5, 1.5), (2e6, 0.5, 0.5)) == [0, 1]
    assert world.sweep_indices((2e6, 0.5, 3.0), (2e6 + 1.0, 0.5, 3.0)) == []


def _exact_scan(world, start, end, radii=None, spheres=True):
    """``sweep_indices``' filters applied to every triangle, with no grid.

    Each plane distance is ``((nx*x + ny*y) + nz*z) + d`` and each margin
    ``SLAB_MARGIN * |n*r|``, elementwise in that order.  With *spheres*
    (the short path's filter), a triangle is also dropped when the
    segment's closest point to its sphere's centre lies farther than
    ``radius + SLAB_MARGIN * max(radii)``, in the same operation order.
    """
    pad = 1.0 + SWEEP_BOX_SLACK
    lo = tuple(min(s, e) - pad for s, e in zip(start, end))
    hi = tuple(max(s, e) + pad for s, e in zip(start, end))
    nx, ny, nz, d = world._planes
    margin = SLAB_MARGIN
    if radii is not None:
        lo, hi, start, end = (tuple(v * r for v, r in zip(p, radii)) for p in (lo, hi, start, end))
        wx, wy, wz = nx * radii[0], ny * radii[1], nz * radii[2]
        margin = SLAB_MARGIN * np.sqrt(wx * wx + wy * wy + wz * wz)
    d0 = nx * start[0] + ny * start[1] + nz * start[2] + d
    d1 = nx * end[0] + ny * end[1] + nz * end[2] + d
    keep = (np.minimum(d0, d1) <= margin) & (np.maximum(d0, d1) >= -margin)
    if spheres:
        (cx, cy, cz), r = _bounding_spheres(world.vertices)
        dx, dy, dz = end[0] - start[0], end[1] - start[1], end[2] - start[2]
        dd = dx * dx + dy * dy + dz * dz
        px, py, pz = cx - start[0], cy - start[1], cz - start[2]
        along = px * dx + py * dy + pz * dz
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(along <= 0.0, 0.0, np.where(along >= dd, 1.0, along / dd))
        px, py, pz = px - t * dx, py - t * dy, pz - t * dz
        bound = r + SLAB_MARGIN * (1.0 if radii is None else max(radii))
        keep &= px * px + py * py + pz * pz <= bound * bound
    return [i for i in world.brute_force_indices((lo, hi)) if keep[i]]


def _default_path(world, start, end, radii=None):
    """``_exact_scan`` of the path ``sweep_indices`` takes: the Python-float
    one when the world is small enough to scan every row, or when the grid
    answers the sweep's box with few enough triangles."""
    pad = 1.0 + SWEEP_BOX_SLACK
    box = [tuple(min(s, e) - pad for s, e in zip(start, end)),
           tuple(max(s, e) + pad for s, e in zip(start, end))]
    if radii is not None:
        box = [tuple(v * r for v, r in zip(p, radii)) for p in box]
    short = (len(world.vertices) <= world_module.SCAN_WORLD_TRIANGLES
             or len(world.query_candidates(box)) <= world_module.SCALAR_FILTER_CANDIDATES)
    return _exact_scan(world, start, end, radii, spheres=short)


@st.composite
def _one_cell_sweeps(draw):
    """A world whose triangles all lie in one grid cell, and sweeps whose
    grid answer is that cell: every one of its triangles, however many."""
    count = draw(st.sampled_from((1, 2, SCALAR_FILTER_CANDIDATES - 1, SCALAR_FILTER_CANDIDATES,
                                  SCALAR_FILTER_CANDIDATES + 1, 2 * SCALAR_FILTER_CANDIDATES)))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    tris = []
    while len(tris) < count:
        try:
            tris.append(Triangle(*(tuple(rng.uniform(0.05, 3.95) for _ in range(3))
                                   for _ in range(3))))
        except DegenerateTriangleError:
            pass
    radii = draw(st.none() | st.tuples(*[st.floats(0.2, 5.0)] * 3))
    sweeps = []
    for _ in range(8):
        # A world-space start in the cell keeps the cell in the sweep's box.
        start = tuple(rng.uniform(0.0, 4.0) for _ in range(3))
        if radii is not None:
            start = tuple(v / r for v, r in zip(start, radii))
        sweeps.append((start, tuple(v + rng.uniform(-1.5, 1.5) for v in start)))
    return tris, radii, sweeps


@given(_one_cell_sweeps())
@settings(max_examples=150, deadline=None)
def test_both_filter_paths_are_the_exact_scan(case):
    tris, radii, sweeps = case
    world = build_world(tris)
    assert len(world._cells) == 1
    for start, end in sweeps:
        # The numpy path keeps box and slab; the Python-float path also
        # runs the sphere test.
        numpy_path = _exact_scan(world, start, end, radii, spheres=False)
        float_path = _exact_scan(world, start, end, radii)
        assert set(float_path) <= set(numpy_path)
        # The path the world picks for this grid answer, then each path:
        # the grid's two, and the scan of every row.
        assert world.sweep_indices(start, end, radii) == _default_path(world, start, end, radii)
        for limit, want in ((-1, numpy_path), (len(tris), float_path)):
            with _scan_off(), mock.patch.object(world_module, "SCALAR_FILTER_CANDIDATES", limit):
                assert world.sweep_indices(start, end, radii) == want, limit
        with _scan_on(), mock.patch.object(world_module, "SCALAR_FILTER_CANDIDATES", -1):
            assert world.sweep_indices(start, end, radii) == float_path


@st.composite
def _scan_sweeps(draw):
    """A soup of up to a few hundred triangles over one to many cells, radii
    (or ``None``), and sweeps from short to across the whole soup."""
    count = draw(st.sampled_from((1, 17, 40, 150, 400)))
    extent = draw(st.sampled_from((2.0, 8.0, 30.0)))
    tris = builtin_mesh("random_soup", n=count, seed=draw(st.integers(0, 999)), extent=extent)
    radii = draw(st.none() | st.tuples(*[st.floats(0.2, 5.0)] * 3))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    sweeps = []
    for _ in range(8):
        start = tuple(rng.uniform(-extent, extent) for _ in range(3))
        reach = rng.choice((1.0, 2.0 * extent))
        end = tuple(v + rng.uniform(-reach, reach) for v in start)
        if radii is not None:
            start, end = (tuple(v / r for v, r in zip(p, radii)) for p in (start, end))
        sweeps.append((start, end))
    return tris, radii, sweeps


@given(_scan_sweeps())
@settings(max_examples=60, deadline=None)
def test_a_scanned_sweep_is_the_exact_scan(case):
    tris, radii, sweeps = case
    world = build_world(tris)
    for start, end in sweeps:
        want = _exact_scan(world, start, end, radii)
        with _scan_on():
            assert world.sweep_indices(start, end, radii) == want
        assert world.sweep_indices(start, end, radii) == _default_path(world, start, end, radii)


def _grid_queries(world, start, end):
    """``world.sweep_indices(start, end)`` and how many grid queries it made."""
    queries = []
    original = World.query_candidates

    def counted(self, bounds):
        queries.append(bounds)
        return original(self, bounds)

    with mock.patch.object(World, "query_candidates", counted):
        return world.sweep_indices(start, end), len(queries)


def test_only_a_world_within_the_cap_is_scanned():
    # The world's size alone picks the path: a zero-length sweep, a short
    # one and one across the whole soup each make no grid query on a world
    # at the cap, and one on a world of one more triangle.
    sweeps = [((1.0, 2.0, 3.0), (1.0, 2.0, 3.0)), ((1.0, 2.0, 3.0), (1.5, 1.6, 2.7)),
              ((-20.0, -20.0, -20.0), (20.0, 20.0, 20.0))]
    for count, queries in ((SCAN_WORLD_TRIANGLES, 0), (SCAN_WORLD_TRIANGLES + 1, 1)):
        world = build_world(builtin_mesh("random_soup", n=count, seed=3, extent=16.0))
        for start, end in sweeps:
            assert _grid_queries(world, start, end) == (_default_path(world, start, end), queries)


def test_a_long_sweep_over_a_large_world_never_scans():
    # The 20,000 triangles of a 100 x 100 heightfield of unit quads, and a
    # sweep along its diagonal whose box spans 25 x 25 x 2 cells: however
    # long the sweep, a world past the cap takes the grid.
    i, j = np.meshgrid(np.arange(101.0), np.arange(101.0), indexing="ij")
    z = np.sin(0.31 * i) * np.cos(0.23 * j) + 0.8 * np.sin(0.11 * (i + j))
    corner = np.stack((i, j, z), axis=-1)
    a, b, c, d = corner[:-1, :-1], corner[1:, :-1], corner[1:, 1:], corner[:-1, 1:]
    world = build_world(np.stack((np.stack((a, b, c), axis=2), np.stack((a, c, d), axis=2)),
                                 axis=2).reshape(-1, 3, 3))
    assert len(world.vertices) == 20_000 > SCAN_WORLD_TRIANGLES
    start, end = (5.0, 5.0, 4.0), (95.0, 95.0, 3.0)
    found, queries = _grid_queries(world, start, end)
    assert queries == 1 and found == _exact_scan(world, start, end, spheres=False)
    assert world._rows.count(None) == 20_000
    with mock.patch.object(world_module, "SCAN_WORLD_TRIANGLES", sys.maxsize):
        assert _grid_queries(world, start, end)[1] == 0


def test_the_broadphase_check_sweeps_through_the_grid():
    # verify's broadphase-soundness check compares check_collision over a
    # 500-triangle soup with a scan of every triangle; a sweep that skipped
    # the grid would leave the grid out of that comparison.
    from sweepslide import verify

    calls = {"sweeps": 0, "queries": 0}
    sweep, query = World.sweep_indices, World.query_candidates

    def counted_sweep(self, *args):
        calls["sweeps"] += 1
        return sweep(self, *args)

    def counted_query(self, bounds):
        calls["queries"] += 1
        return query(self, bounds)

    with mock.patch.multiple(World, sweep_indices=counted_sweep, query_candidates=counted_query):
        assert verify.check_broadphase().passed
    assert calls == {"sweeps": verify.ORACLE_TRIALS, "queries": verify.ORACLE_TRIALS}


def test_scalar_rows_are_made_once_when_first_read():
    world = build_world(builtin_mesh("random_soup", n=200, seed=4, extent=15.0))
    assert world._rows == [None] * 200
    # Across triangle 0 through its centroid, from one side to the other.
    centroid = world.vertices[0].mean(axis=0)
    normal = np.array(world.triangles[0].normal)
    start, end = tuple((centroid + normal).tolist()), tuple((centroid - normal).tolist())
    # The numpy path reads no row.
    with _scan_off(), mock.patch.object(world_module, "SCALAR_FILTER_CANDIDATES", -1):
        found = world.sweep_indices(start, end)
    assert world._rows == [None] * 200
    # The grid's short answer makes the rows it reads.
    with _scan_off():
        assert world.sweep_indices(start, end) == found
    made = [i for i, row in enumerate(world._rows) if row is not None]
    assert found and set(found) <= set(made)
    assert len(made) <= SCALAR_FILTER_CANDIDATES
    row = world._rows[made[0]]
    with _scan_off():
        assert world.sweep_indices(start, end) == found and world._rows[made[0]] is row
    vertices = world.vertices[made[0]]
    lo, hi = vertices.min(axis=0), vertices.max(axis=0)
    centroid = (vertices[0] + vertices[1] + vertices[2]) / 3
    radius = np.sqrt(((vertices - centroid) ** 2).sum(axis=1)).max()
    assert len(row) == 14
    assert row[:10] == (*lo.tolist(), *hi.tolist(), *world._planes[:, made[0]].tolist())
    assert row[10:] == (*centroid.tolist(), radius)
    # A scan makes every other row and keeps the ones already made.
    with _scan_on():
        assert world.sweep_indices(start, end) == found
    assert None not in world._rows and world._rows[made[0]] is row


@st.composite
def _far_and_sliver_blocks(draw):
    """Vertex blocks of triangles near the origin or up to 1e12 from it,
    half of them slivers whose third vertex lies 1e-3 to 1e-11 off the line
    through the other two."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    rows = []
    while len(rows) < 40:
        offset = [rng.choice((0.0, 7.5, -3e4, 1e8, -1e12)) for _ in range(3)]
        a = [o + rng.uniform(-5.0, 5.0) for o in offset]
        b = [v + rng.uniform(-5.0, 5.0) for v in a]
        if rng.random() < 0.5:
            c = [v + rng.uniform(-5.0, 5.0) for v in a]
        else:
            f, off = rng.uniform(-1.0, 2.0), 10.0 ** -rng.randint(3, 11)
            c = [p + f * (q - p) + off * rng.gauss(0.0, 1.0) for p, q in zip(a, b)]
        try:
            Triangle(tuple(a), tuple(b), tuple(c))
        except DegenerateTriangleError:
            continue
        rows.append((a, b, c))
    return np.array(rows)


@given(_far_and_sliver_blocks())
@settings(max_examples=50, deadline=None)
def test_a_row_sphere_has_the_bits_of_the_bounding_spheres(block):
    world = build_world(block)
    centroids, radii = _bounding_spheres(world.vertices)
    want = np.vstack((centroids, radii)).T
    got = np.array([world._row(i)[10:] for i in range(len(block))])
    assert got.tobytes() == want.tobytes()


def test_concurrent_sweeps_fill_rows_benignly():
    # Threads sweeping one fresh world make its rows as they go, some
    # twice; every answer is still the one a serial sweep gives.
    tris = builtin_mesh("random_soup", n=400, seed=9, extent=12.0)
    rng = random.Random(6)
    sweeps = []
    for _ in range(300):
        start = tuple(rng.uniform(-12.0, 12.0) for _ in range(3))
        sweeps.append((start, tuple(v + rng.uniform(-2.0, 2.0) for v in start)))
    want = [build_world(tris).sweep_indices(s, e) for s, e in sweeps]
    world = build_world(tris)
    results = [None] * 4

    def work(k):
        order = list(range(len(sweeps)))
        random.Random(k).shuffle(order)
        results[k] = {i: world.sweep_indices(*sweeps[i]) for i in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got in results:
        assert [got[i] for i in range(len(sweeps))] == want


@st.composite
def _grown_worlds(draw):
    """A few triangles hundreds of units across among many small ones."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    tris = []
    for _ in range(draw(st.integers(1, 3))):
        # At least 25 x 50 x 10 cells of 4.0 each: the cells always grow.
        span = rng.uniform(200.0, 400.0)
        corner = [rng.uniform(-50.0, 50.0) for _ in range(3)]
        tris.append(Triangle(tuple(corner),
                             tuple(v + rng.uniform(0.5, 1.0) * span for v in corner),
                             (corner[0], corner[1] + span, corner[2] - rng.uniform(0.2, 1.0) * span)))
    tris += builtin_mesh("random_soup", n=draw(st.integers(0, 80)), seed=rng.randrange(1000),
                         extent=rng.uniform(5.0, 60.0))
    rng.shuffle(tris)
    return tris


@given(_grown_worlds(), st.data())
@settings(max_examples=50, deadline=None)
def test_grown_cells_answer_every_query(tris, data):
    world = build_world(tris)
    assert world.cell_size > CELL_SIZE
    for _ in range(10):
        tri = tris[data.draw(st.integers(0, len(tris) - 1))]
        near = st.floats(-6.0, 6.0, allow_nan=False)
        start = tuple(v + data.draw(near) for v in tri.a)
        end = tuple(v + data.draw(near) for v in start)
        half = [data.draw(st.floats(0.0, 8.0, allow_nan=False)) for _ in range(3)]
        box = (tuple(v - h for v, h in zip(start, half)), tuple(v + h for v, h in zip(start, half)))
        got = world.query_candidates(box)
        assert set(world.brute_force_indices(box)) <= set(got)
        assert world.sweep_indices(start, end) == _default_path(world, start, end)


# --- worlds built from a vertex block ---

def _block(tris):
    return np.array([t.vertices() for t in tris], dtype=np.float64).reshape(-1, 3, 3)


# A sliver Triangle accepts, because its test is relative: a 1e-32 edge
# beside a long one.
SLIVER = ((0.0, 0.0, 0.0), (0.0, 1.0, 1.0), (2.3640112368562358e-32, 0.0, 0.0))


@st.composite
def _soups(draw):
    """Soups near the origin or up to 1e8 from it, some large enough for
    the sorted fill, with slivers mixed in."""
    offset = draw(st.sampled_from((0.0, 1e4, -1e6, 1e8)))
    soup = builtin_mesh("random_soup", n=draw(st.sampled_from((0, 1, 7, 40, 400, 900))),
                        seed=draw(st.integers(0, 1000)), extent=draw(st.floats(2.0, 40.0)))
    tris = []
    for tri in soup:
        try:
            tris.append(Triangle(*(tuple(v + offset for v in p) for p in tri.vertices())))
        except DegenerateTriangleError:
            pass  # flattened by the offset's rounding
    for scale in draw(st.lists(st.floats(1e-3, 1e3), max_size=3)):
        tris.insert(draw(st.integers(0, len(tris))),
                    Triangle(*(tuple(v * scale for v in p) for p in SLIVER)))
    return tris


@given(_soups())
@settings(max_examples=40, deadline=None)
def test_a_block_builds_the_world_its_triangles_build(tris):
    got, want = build_world(_block(tris)), build_world(tris)
    for name in ("vertices", "_boxes", "_planes"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.cell_size == want.cell_size
    assert got._cells == want._cells == _fixed_grid(tris, want.cell_size)
    assert len(got.triangles) == len(tris)
    for i, row in enumerate(got.vertices.tolist()):
        made = Triangle(*map(tuple, row))
        assert got.triangles[i] == made == tris[i]  # the normal too
        assert got.triangles[i].normal == made.normal


@pytest.mark.parametrize("bad", [
    ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2.0, 2.0, 2.0)),
    ((1e8, 1e8, 1e8), (1e8, 1e8, 1e8), (1e8 + 1.0, 1e8, 1e8)),
    ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (math.nan, 0.0, 0.0)),
    ((0.0, 0.0, 0.0), (math.inf, 0.0, 0.0), (0.0, 1.0, 0.0)),
    ((0.0, 0.0, 0.0), (1e300, 0.0, 0.0), (0.0, 1e300, 0.0)),  # squares overflow
], ids=["collinear", "repeated", "nan", "inf", "overflow"])
def test_a_block_row_triangle_rejects_is_named(bad):
    with pytest.raises(DegenerateTriangleError):
        Triangle(*bad)
    block = _block(builtin_mesh("random_soup", n=6, seed=1))
    block = np.concatenate((block[:3], np.array([bad]), block[3:]))
    with pytest.raises(ValueError, match=r"^row 3 of the vertex block"):
        build_world(block)


@pytest.mark.parametrize("shape", [(4, 3), (4, 3, 2), (3, 3), (2, 3, 3, 1)])
def test_a_block_of_the_wrong_shape_is_rejected(shape):
    with pytest.raises(ValueError, match="shape"):
        build_world(np.zeros(shape))


def test_block_triangles_are_made_once_when_first_read():
    tris = builtin_mesh("random_soup", n=30, seed=2)
    block = _block(tris)
    world = build_world(block)
    block[:] = 0.0  # the world keeps its own copy
    made = world.triangles._made
    assert made.count(None) == 30
    found = world.candidates((0.0, 0.0, 12.0), (0.0, 0.0, -12.0))
    assert found and made.count(None) == 30 - len(found)
    assert [tri for _, tri in found] == [tris[i] for i, _ in found]
    assert world.triangles[3] is world.triangles[3]
    assert world.triangles[-1] == tris[-1]
    assert world.triangles[2:5] == tris[2:5]
    assert list(world.triangles) == tris
    assert made.count(None) == 0


def test_triangles_passed_in_are_kept():
    tris = builtin_mesh("random_soup", n=5, seed=2)
    world = build_world(tris)
    assert all(got is tri for got, tri in zip(world.triangles, tris, strict=True))


@pytest.mark.parametrize("tris, sorted_fill", [
    ([], None),
    (builtin_mesh("floor"), True),
    (builtin_mesh("random_soup", n=40, seed=5, extent=8.0), True),
    (builtin_mesh("random_soup", n=300, seed=4, extent=20.0), True),
    (_heightfield(12, seed=3), True),
    ([Triangle(*(tuple(v - 1e8 for v in p) for p in t.vertices()))
      for t in builtin_mesh("random_soup", n=50, seed=6, extent=5.0)], True),
    (builtin_mesh("box_room"), True),
    # Keys past int64: the cell coordinates themselves, or the packed
    # entry of cells spread 1e14 apart along every axis.
    ([Triangle((1e20, 0.0, 0.0), (1e20, 1.0, 0.0), (1e20, 0.0, 1.0)),
      Triangle((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))], False),
    ([Triangle((s, s, s), (s + 1.0, s, s), (s, s + 1.0, s)) for s in (-4e14, 4e14)], False),
], ids=["empty", "floor", "soup_40", "soup", "heightfield", "far-soup", "box_room",
        "beyond-int64", "wide-spread"])
def test_the_sorted_fill_is_the_python_fill(tris, sorted_fill):
    # build_world sorts every grid whose entries fit int64 and fills the
    # rest (sorted_fill False) with the Python loop; an empty mesh (None)
    # gets no cells and no sort.
    sort = world_module._sorted_cells
    with mock.patch.object(world_module, "_sorted_cells", wraps=sort) as spy:
        world = build_world(tris)
    assert world._cells == _fixed_grid(tris, world.cell_size)
    assert spy.call_count == (sorted_fill is not None)
    if sorted_fill is not None:
        lo, hi = world.vertices.min(axis=1), world.vertices.max(axis=1)
        assert (sort(lo, hi, world.cell_size) is not None) == sorted_fill
