"""The batched audit, ``mesh_distances``, against a scan of every triangle.

Both must give the same float, bit for bit, for every point: the batched
audit only skips triangles that its bounding-sphere bounds prove cannot
hold the minimum.  A mesh of more than ``_BLOCK_ROWS`` triangles also goes
through the chunk level, whose pairs must be those of the triangle-level
bound over the whole mesh; ``chunked`` reruns cases with ``_BLOCK_ROWS``
made small, so that the chunk level meets them.
"""

import numpy as np
import pytest

from sweepslide import scenario
from sweepslide.mesh import builtin_mesh
from sweepslide.scenario import _triangle_distances, mesh_distances, min_distance_to_mesh
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
BIG = _heightfield(91)  # more triangles than _BLOCK_ROWS: chunked


def _scan(points, tris) -> np.ndarray:
    """Each point's distance to the nearest triangle, from every triangle."""
    return np.array([_triangle_distances(p, tris).min() for p in np.asarray(points, dtype=float)])


def _mismatches(points, tris) -> int:
    """Points whose batched distance differs in any bit from the scan's."""
    points = np.asarray(points, dtype=float)
    got = mesh_distances(points, tris)
    want = _scan(points, tris)
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


@pytest.fixture
def chunked(monkeypatch):
    """``_BLOCK_ROWS`` cut to 64, so that the chunk level meets meshes of more triangles."""
    monkeypatch.setattr(scenario, "_BLOCK_ROWS", 64)


def _padded(p, tris, rng):
    """*tris* and 94 small triangles 10 to 30 units from the point *p*: 96 in all."""
    directions = rng.normal(size=(94, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    centres = p + directions * rng.uniform(10.0, 30.0, (94, 1))
    return np.concatenate([tris, centres[:, None, :] + rng.uniform(-0.5, 0.5, (94, 3, 3))])


def _one_level_pairs(points, tris):
    """The triangle-level bound over every triangle, a point at a time: the pairs it keeps."""
    centroids = tris.mean(axis=1)
    radii = np.sqrt(((tris - centroids[:, None, :]) ** 2).sum(axis=2)).max(axis=1)
    extent = np.abs(tris).max()
    rows, cols = [], []
    for i, p in enumerate(points):
        d = p - centroids
        upper = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2])
        nearest = upper.min()
        limit = nearest + scenario._PRUNE_MARGIN * (nearest + np.abs(p).max() + extent)
        kept = np.flatnonzero(~(upper - radii > limit))
        rows.append(np.full(len(kept), i))
        cols.append(kept)
    return np.concatenate(rows), np.concatenate(cols)


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


def _tight_mismatches(offsets, padded: bool) -> int:
    """Mismatches over :func:`_tight_cases`, each padded past 64 triangles if *padded*."""
    rng = np.random.default_rng(5)
    return sum(_mismatches(p, _padded(p[0], tris, rng) if padded else tris)
               for offset in offsets for p, tris in _tight_cases(rng, offset, 100))


@pytest.mark.parametrize("offset", OFFSETS)
def test_matches_where_the_bound_is_tight(offset):
    assert _tight_mismatches([offset], padded=False) == 0


@pytest.mark.parametrize("offset", OFFSETS)
def test_chunked_matches_where_the_bound_is_tight(chunked, offset):
    assert _tight_mismatches([offset], padded=True) == 0


def test_a_small_audit_evaluates_every_pair():
    # 1 to 5 points, one of them NaN, on a 40-triangle soup: every distance
    # keeps the bits of a scan of every pair.
    soup = build_world(builtin_mesh("random_soup", n=40, seed=1000, extent=8.0)).vertices
    for offset in OFFSETS:
        tris = soup + offset
        points = _probe_points(tris, np.random.default_rng(12), 1)
        points[1] = (np.nan, 0.0, 0.0)
        for count in range(1, len(points) + 1):
            got = mesh_distances(points[:count], tris)
            want = _scan(points[:count], tris)
            assert (got.view(np.uint64) == want.view(np.uint64)).all()


def test_empty_mesh_and_single_point():
    empty = np.zeros((0, 3, 3))
    assert mesh_distances([(0.0, 0.0, 0.0), (1.0, 2.0, 3.0)], empty).tolist() == [np.inf] * 2
    assert min_distance_to_mesh((0.0, 0.0, 0.0), empty) == np.inf
    assert mesh_distances(np.zeros((0, 3)), SOUP).shape == (0,)
    assert _mismatches([(1.5, -2.0, 0.25)], SOUP) == 0
    assert min_distance_to_mesh((1.5, -2.0, 0.25), SOUP) == _scan([(1.5, -2.0, 0.25)], SOUP)[0]


def _nan_point(tris):
    point = (np.nan, 0.0, 0.0)
    assert np.isnan(mesh_distances([point], tris)[0])
    assert np.isnan(min_distance_to_mesh(point, tris))


def test_nan_point_gives_nan():
    _nan_point(SOUP)


@pytest.mark.parametrize("mesh", ["soup", "big"])
def test_chunked_nan_point_gives_nan(chunked, mesh):
    _nan_point(SOUP if mesh == "soup" else BIG)


def test_points_split_across_blocks():
    per_block = scenario._BLOCK_ROWS // len(SOUP)
    points = _probe_points(SOUP, np.random.default_rng(6), 5)[:23]
    assert per_block > 1 and len(points) > per_block and len(points) % per_block
    assert _mismatches(points, SOUP) == 0


def test_mesh_larger_than_a_block():
    assert len(BIG) > scenario._BLOCK_ROWS
    points = _probe_points(BIG, np.random.default_rng(7), 2)
    assert _mismatches(points, BIG) == 0


def _nan_point_among(count: int):
    points = _probe_points(SOUP, np.random.default_rng(8), 2)[:count]
    points[2] = (1.0, np.nan, 2.0)
    got = mesh_distances(points, SOUP)
    want = _scan(points, SOUP)
    assert np.isnan(got[2]) and np.isnan(want[2])
    others = np.arange(len(points)) != 2
    assert (got[others].view(np.uint64) == want[others].view(np.uint64)).all()


def test_nan_point_inside_a_block():
    _nan_point_among(scenario._BLOCK_ROWS // len(SOUP))


def test_chunked_nan_point_inside_a_block(chunked):
    _nan_point_among(8)


def _far_mismatches(tris) -> int:
    rng = np.random.default_rng(9)
    directions = rng.normal(size=(12, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    scales = np.repeat([1e3, 1e6, 1e9, 1e15], 3)[:, None]
    return _mismatches(tris.mean(axis=(0, 1)) + directions * scales, tris)


@pytest.mark.parametrize("mesh", ["soup", "big"])
def test_points_far_outside_the_mesh(mesh):
    assert _far_mismatches(SOUP if mesh == "soup" else BIG) == 0


@pytest.mark.parametrize("mesh", ["soup", "big"])
def test_chunked_points_far_outside_the_mesh(chunked, mesh):
    assert _far_mismatches(SOUP if mesh == "soup" else BIG) == 0


def _batches(monkeypatch, tris, pair_rows):
    points = _probe_points(tris, np.random.default_rng(10), 8)
    want = _scan(points, tris)
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


@pytest.mark.parametrize("pair_rows", [None, 64, 1])
@pytest.mark.parametrize("mesh", ["soup", "big"])
def test_pairs_are_evaluated_in_batches(monkeypatch, mesh, pair_rows):
    _batches(monkeypatch, SOUP if mesh == "soup" else BIG, pair_rows)


@pytest.mark.parametrize("pair_rows", [None, 64, 1])
@pytest.mark.parametrize("mesh", ["soup", "big"])
def test_chunked_pairs_are_evaluated_in_batches(monkeypatch, chunked, mesh, pair_rows):
    _batches(monkeypatch, SOUP if mesh == "soup" else BIG, pair_rows)


# --- the chunk level ---

@pytest.mark.parametrize("mesh, offset", [("big", 0.0), ("big", 1e8), ("soup", 0.0),
                                          ("soup", 1e6), ("heightfield", 1e4)])
def test_chunk_level_keeps_the_pairs_of_one_level(monkeypatch, mesh, offset):
    if mesh != "big":
        monkeypatch.setattr(scenario, "_BLOCK_ROWS", 64)
    tris = {"big": BIG, "soup": SOUP, "heightfield": HEIGHTFIELD}[mesh] + offset
    assert len(tris) > scenario._BLOCK_ROWS
    points = _probe_points(tris, np.random.default_rng(11), 4)
    read = []  # point-triangle rows the triangle level reads
    kept_pairs = scenario._kept_pairs

    def counted(block, centroids, radii, extent):
        read.append(len(block) * len(radii))
        return kept_pairs(block, centroids, radii, extent)

    monkeypatch.setattr(scenario, "_kept_pairs", counted)
    rows, cols = scenario._pruned_pairs(points, tris)
    want_rows, want_cols = _one_level_pairs(points, tris)
    assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
    assert sum(read) < len(points) * len(tris)


def _copies(offset: float):
    """32 copies each of a small triangle ``S`` and a large one ``T``, and a point.

    From the point, S's bounding sphere (radius 0.01) is 5 units away and
    T's lower bound ``|p - c| - r`` is 5.1.  That is above the least
    ``|p - C| + R`` over the runs, S's 5.01, but within the triangle
    level's margin of 1e-9 times the size of the coordinates: 0.2 at an
    offset of 1e8.  Each run is the copies of one triangle.
    """
    star = np.array([(0.0, -1.0, 0.0), (0.75 ** 0.5, 0.5, 0.0), (-(0.75 ** 0.5), 0.5, 0.0)])
    small = (5.0, 0.0, 0.0) + 0.01 * star[:, [2, 0, 1]]
    large = (0.0, 8.0, 0.0) + 2.9 * star
    tris = np.concatenate([np.repeat(small[None], 32, axis=0), np.repeat(large[None], 32, axis=0)])
    return np.full((1, 3), offset), tris + offset


def test_chunk_level_keeps_a_run_within_its_margin(monkeypatch):
    monkeypatch.setattr(scenario, "_BLOCK_ROWS", 32)
    point, tris = _copies(1e8)
    rows, cols = scenario._pruned_pairs(point, tris)
    want_rows, want_cols = _one_level_pairs(point, tris)
    assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
    assert set(range(32, 64)) <= set(cols.tolist())  # T's copies are kept
    # Without its margin, the run test would drop T's run.
    _, centres, reach = scenario._runs(*scenario._bounding_spheres(tris))
    d = np.linalg.norm(point.T - centres, axis=0)
    assert (d - reach).max() > (d + reach).min()
    assert _mismatches(point, tris) == 0


# The cases above must catch a prune that drops a triangle it cannot rule out.

def test_cases_catch_a_prune_without_margin(monkeypatch):
    monkeypatch.setattr(scenario, "_PRUNE_MARGIN", 0.0)
    assert _tight_mismatches(OFFSETS, padded=False) > 0


def test_chunked_cases_catch_a_prune_without_margin(monkeypatch, chunked):
    monkeypatch.setattr(scenario, "_PRUNE_MARGIN", 0.0)
    assert _tight_mismatches(OFFSETS, padded=True) > 0


def test_cases_catch_a_radius_from_one_vertex(monkeypatch):
    def one_vertex(tris):
        centroids = tris.mean(axis=1)
        return centroids.T.copy(), np.sqrt(((tris[:, 0] - centroids) ** 2).sum(axis=1))

    monkeypatch.setattr(scenario, "_bounding_spheres", one_vertex)
    assert _mismatches(_probe_points(SOUP, np.random.default_rng(3), 30), SOUP) > 0
