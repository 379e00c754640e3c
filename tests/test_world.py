import random

import pytest

from sweepslide.core import Triangle
from sweepslide.mesh import builtin_mesh
from sweepslide.world import MAX_CELL_ENTRIES, build_world, triangle_bounds


def test_rejects_bad_cell_size():
    with pytest.raises(ValueError):
        build_world([], cell_size=0.0)
    with pytest.raises(ValueError):
        build_world([], cell_size=-1.0)


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
    wide = Triangle((0.0, 0.0, 0.5), (2000.0, 0.0, 0.5), (0.0, 2000.0, 0.5))
    assert 1001 * 1001 <= MAX_CELL_ENTRIES < 4 * 1001 * 1001
    with pytest.raises(ValueError, match="4008004 cell entries"):
        build_world([wide] * 4, cell_size=2.0)


def test_empty_world_returns_nothing():
    world = build_world([])
    assert world.query_candidates(((-100,) * 3, (100,) * 3)) == []


def test_triangle_spanning_two_cells():
    tri = Triangle((0.2, 0.2, 0.2), (1.5, 0.3, 0.2), (0.8, 0.9, 0.4))
    world = build_world([tri], cell_size=1.0)
    # visible from a box confined to either cell
    assert world.query_candidates(((0.0, 0.0, 0.0), (0.9, 0.9, 0.9))) == [0]
    assert world.query_candidates(((1.1, 0.0, 0.0), (1.9, 0.9, 0.9))) == [0]


def test_query_misses_far_box():
    tri = Triangle((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    world = build_world([tri], cell_size=1.0)
    assert world.query_candidates(((50.0, 50.0, 50.0), (52.0, 52.0, 52.0))) == []


def test_whole_world_box_returns_all():
    tris = builtin_mesh("random_soup", n=64, seed=3, extent=9.0)
    world = build_world(tris)
    assert world.query_candidates(((-20.0,) * 3, (20.0,) * 3)) == list(range(64))


def test_self_query_completeness():
    tris = builtin_mesh("random_soup", n=1000, seed=5, extent=30.0)
    world = build_world(tris)
    for i, tri in enumerate(tris):
        assert i in world.query_candidates(triangle_bounds(tri))


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


def test_negative_coordinates_not_dropped():
    # Cells on the negative side must use floored coordinates; truncation
    # toward zero would merge cells -1 and 0.
    tri = Triangle((-5.0, -5.0, -5.0), (-4.5, -5.0, -5.0), (-5.0, -4.5, -5.0))
    world = build_world([tri], cell_size=1.0)
    assert world.query_candidates(((-5.2, -5.2, -5.2), (-4.8, -4.8, -4.8))) == [0]


def test_build_is_deterministic():
    tris = builtin_mesh("random_soup", n=100, seed=2, extent=10.0)
    w1 = build_world(tris)
    w2 = build_world(tris)
    box = ((-11.0,) * 3, (11.0,) * 3)
    assert w1.query_candidates(box) == w2.query_candidates(box)


def test_box_tests_are_inclusive():
    # A box that only touches the triangle's box still overlaps it.
    tri = Triangle((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    world = build_world([tri], cell_size=1.0)
    touching = ((1.0, 1.0, 0.0), (3.0, 3.0, 2.0))
    assert world.brute_force_indices(touching) == [0]
    assert world.brute_force_indices(((1.0 + 1e-12, 0.0, 0.0), (3.0, 3.0, 2.0))) == []
    # A sweep whose box only touches it, crossing its plane inside the slab.
    assert world.sweep_indices(touching, (2.0, 2.0, 0.5), (2.0, 2.0, 1.5)) == [0]


def test_cells_beyond_int64_are_exact():
    # Cell coordinates past 2**63 are still exact Python ints, as in queries.
    far = 1e20
    tri = Triangle((far, 0.0, 0.0), (far * (1 + 1e-15), 0.0, 0.0), (far, 1.0, 0.0))
    world = build_world([tri, Triangle((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))])
    assert world.query_candidates(((far - 1.0, -1.0, -1.0), (far + 1.0, 2.0, 1.0))) == [0]
    assert world.query_candidates(((-1.0, -1.0, -1.0), (2.0, 2.0, 1.0))) == [1]
