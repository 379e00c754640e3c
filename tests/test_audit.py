"""The batched audit, ``mesh_distances``, against ``min_distance_to_mesh``.

Both must give the same float, bit for bit, for every point: the batched
audit only skips triangles that its bounding-sphere bounds prove cannot
hold the minimum.
"""

import numpy as np
import pytest

from sweepslide import scenario
from sweepslide.mesh import builtin_mesh
from sweepslide.scenario import mesh_distances, min_distance_to_mesh
from sweepslide.world import build_world

OFFSETS = (0.0, 1e4, 1e6, 1e8)


def _heightfield(size: int) -> np.ndarray:
    """``size`` x ``size`` unit quads, two triangles each, over bumpy heights."""
    x, y = np.meshgrid(np.arange(size + 1.0), np.arange(size + 1.0), indexing="ij")
    v = np.stack([x, y, np.sin(0.7 * x) * np.cos(0.5 * y) + 0.1 * x], axis=-1)
    p00, p10, p01, p11 = v[:-1, :-1], v[1:, :-1], v[:-1, 1:], v[1:, 1:]
    return np.concatenate([np.stack([p00, p10, p11], axis=-2).reshape(-1, 3, 3),
                           np.stack([p00, p11, p01], axis=-2).reshape(-1, 3, 3)])


SOUP = build_world(builtin_mesh("random_soup", n=3000, seed=7, extent=30.0)).vertices
HEIGHTFIELD = _heightfield(12)


def _mismatches(points, tris) -> int:
    """Points whose batched distance differs in any bit from the scan's."""
    points = np.asarray(points, dtype=float)
    got = mesh_distances(points, tris)
    want = np.array([min_distance_to_mesh(p, tris) for p in points])
    assert got.shape == want.shape == (len(points),)
    return int((got.view(np.uint64) != want.view(np.uint64)).sum())


def _ray_points(tris: np.ndarray, rng, count: int) -> np.ndarray:
    """Points beyond a vertex on the ray from the centroid through it.

    There the lower bound ``|p - c| - r`` is the vertex distance itself
    when that vertex is the farthest from the centroid.
    """
    t = tris[rng.integers(0, len(tris), count)]
    c = t.mean(axis=1)
    v = t[np.arange(count), rng.integers(0, 3, count)]
    u = (v - c) / np.linalg.norm(v - c, axis=1)[:, None]
    return v + u * rng.uniform(0.0, 2.0, count)[:, None]


def _probe_points(tris: np.ndarray, rng, count: int) -> np.ndarray:
    """Random points near the mesh, and points on vertices, edges, centroids and rays."""
    lo, hi = tris.min(axis=(0, 1)), tris.max(axis=(0, 1))
    pick = tris[rng.integers(0, len(tris), count)]
    return np.concatenate([
        rng.uniform(lo - 2.0, hi + 2.0, (count, 3)),
        pick[:, 0],
        (pick[:, 1] + pick[:, 2]) / 2.0,
        pick.mean(axis=1),
        _ray_points(tris, rng, count),
    ])


def _tight_cases(rng, offset: float, count: int):
    """A point whose nearest triangle's lower bound equals the smallest upper bound.

    Beyond the farthest vertex ``v`` of a random triangle, on its centroid
    ray, the lower bound is ``|p - v|``.  A second triangle, centred on
    ``v`` and square to the ray, has the upper bound ``|p - v|`` and the
    same distance.  Which of the two rounds lower is left to the rounding.
    """
    for _ in range(count):
        tri = rng.uniform(-1.0, 1.0, (3, 3))
        c = tri.mean(axis=0)
        v = tri[np.argmax(np.linalg.norm(tri - c, axis=1))]
        u = (v - c) / np.linalg.norm(v - c)
        e1 = np.cross(u, rng.normal(size=3))
        e1 *= rng.uniform(0.5, 2.0) / np.linalg.norm(e1)
        e2 = np.cross(u, e1) * rng.uniform(0.5, 2.0) / np.linalg.norm(e1)
        square = np.array([v + e1, v + e2, v - e1 - e2])
        p = v + u * rng.uniform(0.1, 3.0)
        yield p[None] + offset, np.array([tri, square]) + offset


@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("mesh", ["soup", "heightfield"])
def test_matches_the_full_scan(mesh, offset):
    tris = (SOUP if mesh == "soup" else HEIGHTFIELD) + offset
    assert _mismatches(_probe_points(tris, np.random.default_rng(3), 30), tris) == 0


@pytest.mark.parametrize("kind", ["floor", "obtuse_corner", "acute_corner", "crease",
                                  "box_room"])
def test_matches_on_builtin_meshes(kind):
    tris = build_world(builtin_mesh(kind)).vertices
    assert _mismatches(_probe_points(tris, np.random.default_rng(4), 40), tris) == 0


@pytest.mark.parametrize("offset", OFFSETS)
def test_matches_where_the_bound_is_tight(offset):
    rng = np.random.default_rng(5)
    assert sum(_mismatches(p, tris) for p, tris in _tight_cases(rng, offset, 100)) == 0


def test_empty_mesh_and_single_point():
    empty = np.zeros((0, 3, 3))
    assert mesh_distances([(0.0, 0.0, 0.0), (1.0, 2.0, 3.0)], empty).tolist() == [np.inf] * 2
    assert mesh_distances(np.zeros((0, 3)), SOUP).shape == (0,)
    assert _mismatches([(1.5, -2.0, 0.25)], SOUP) == 0


def test_nan_point_gives_nan():
    point = (np.nan, 0.0, 0.0)
    assert np.isnan(mesh_distances([point], SOUP)[0])
    assert np.isnan(min_distance_to_mesh(point, SOUP))


def test_points_split_across_blocks():
    per_block = scenario._BLOCK_ROWS // len(SOUP)
    points = _probe_points(SOUP, np.random.default_rng(6), 5)[:23]
    assert per_block > 1 and len(points) > per_block and len(points) % per_block
    assert _mismatches(points, SOUP) == 0


BIG = _heightfield(91)  # more triangles than _BLOCK_ROWS: one point per block


def test_mesh_larger_than_a_block():
    assert len(BIG) > scenario._BLOCK_ROWS
    points = _probe_points(BIG, np.random.default_rng(7), 2)
    assert _mismatches(points, BIG) == 0


def test_nan_point_inside_a_block():
    per_block = scenario._BLOCK_ROWS // len(SOUP)
    points = _probe_points(SOUP, np.random.default_rng(8), 2)[:per_block]
    points[2] = (1.0, np.nan, 2.0)
    got = mesh_distances(points, SOUP)
    want = np.array([min_distance_to_mesh(p, SOUP) for p in points])
    assert np.isnan(got[2]) and np.isnan(want[2])
    others = np.arange(len(points)) != 2
    assert (got[others].view(np.uint64) == want[others].view(np.uint64)).all()


@pytest.mark.parametrize("mesh", ["soup", "big"])
def test_points_far_outside_the_mesh(mesh):
    tris = SOUP if mesh == "soup" else BIG
    rng = np.random.default_rng(9)
    directions = rng.normal(size=(12, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    scales = np.repeat([1e3, 1e6, 1e9, 1e15], 3)[:, None]
    assert _mismatches(tris.mean(axis=(0, 1)) + directions * scales, tris) == 0


@pytest.mark.parametrize("pair_rows", [None, 64, 1])
@pytest.mark.parametrize("mesh", ["soup", "big"])
def test_pairs_are_evaluated_in_batches(monkeypatch, mesh, pair_rows):
    tris = SOUP if mesh == "soup" else BIG
    points = _probe_points(tris, np.random.default_rng(10), 8)
    want = np.array([min_distance_to_mesh(p, tris) for p in points])
    default = scenario._PAIR_ROWS
    pair_rows = pair_rows or default
    monkeypatch.setattr(scenario, "_PAIR_ROWS", pair_rows)

    calls, pairs = [], []
    voronoi, pruned = scenario._triangle_distances, scenario._pruned_pairs

    def counted_voronoi(p, t):
        calls.append(len(t))
        return voronoi(p, t)

    def counted_pruned(p, t):
        rows, cols = pruned(p, t)
        pairs.append(len(rows))
        return rows, cols

    monkeypatch.setattr(scenario, "_triangle_distances", counted_voronoi)
    monkeypatch.setattr(scenario, "_pruned_pairs", counted_pruned)
    got = mesh_distances(points, tris)
    assert (got.view(np.uint64) == want.view(np.uint64)).all()
    # Every pair once, in full batches but the last, across points and blocks.
    full, rest = divmod(pairs[0], pair_rows)
    assert calls == [pair_rows] * full + [rest] * (rest > 0)
    if pair_rows == default:
        assert len(calls) < len(points) / 4  # one call serves many points


# The cases above must catch a prune that drops a triangle it cannot rule out.

def test_cases_catch_a_prune_without_margin(monkeypatch):
    monkeypatch.setattr(scenario, "_PRUNE_MARGIN", 0.0)
    rng = np.random.default_rng(5)
    assert sum(_mismatches(p, tris) for offset in OFFSETS
               for p, tris in _tight_cases(rng, offset, 100)) > 0


def test_cases_catch_a_radius_from_one_vertex(monkeypatch):
    def one_vertex(tris):
        centroids = tris.mean(axis=1)
        return centroids, np.sqrt(((tris[:, 0] - centroids) ** 2).sum(axis=1))

    monkeypatch.setattr(scenario, "_bounding_spheres", one_vertex)
    assert _mismatches(_probe_points(SOUP, np.random.default_rng(3), 30), SOUP) > 0
