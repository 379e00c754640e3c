import math
import random

import numpy as np
import pytest

from sweepslide.core import Triangle
from sweepslide.mesh import builtin_mesh
from sweepslide.world import CELL_SIZE, MAX_CELL_ENTRIES, SWEEP_BOX_SLACK, build_world


def test_rejects_a_grid_too_large_to_build():
    # floor of size 1e10: (2.5e9 + 1)**2 cells, refused before any is made.
    with pytest.raises(ValueError) as err:
        build_world(builtin_mesh("floor", size=1e10))
    message = str(err.value)
    assert "12500000010000000002" in message
    assert str(MAX_CELL_ENTRIES) in message
    assert "cell size 4.0" in message


def test_cell_entry_bound_counts_every_triangle():
    # Each triangle covers 1001 x 1001 cells, under the bound alone; four
    # of them together are past it.
    wide = Triangle((0.0, 0.0, 0.5), (4000.0, 0.0, 0.5), (0.0, 4000.0, 0.5))
    assert CELL_SIZE == 4.0
    assert 1001 * 1001 <= MAX_CELL_ENTRIES < 4 * 1001 * 1001
    with pytest.raises(ValueError, match="4008004 cell entries"):
        build_world([wide] * 4)


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
        cells = math.prod(math.floor(h / CELL_SIZE) - math.floor(v / CELL_SIZE) + 1
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
    # A sweep whose padded box only touches it, crossing its plane inside
    # the slab.
    start, end = (5.01, 5.01, 0.5), (5.01, 5.01, 1.5)
    assert start[0] - (1.0 + SWEEP_BOX_SLACK) == 4.0
    assert world.sweep_indices(start, end) == [0]
    assert world.sweep_indices((5.02, 5.02, 0.5), (5.02, 5.02, 1.5)) == []


def test_cells_beyond_int64_are_exact():
    # Cell coordinates past 2**63 are still exact Python ints, as in queries.
    far = 1e20
    tri = Triangle((far, 0.0, 0.0), (far * (1 + 1e-15), 0.0, 0.0), (far, 1.0, 0.0))
    world = build_world([tri, Triangle((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))])
    assert world.query_candidates(((far - 1.0, -1.0, -1.0), (far + 1.0, 2.0, 1.0))) == [0]
    assert world.query_candidates(((-1.0, -1.0, -1.0), (2.0, 2.0, 1.0))) == [1]
