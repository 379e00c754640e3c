"""Scripted multi-frame scenarios, trajectory records, and report output.

A scenario drives one of the response algorithms frame by frame through a
mesh: positions and velocities are scaled into unit-sphere space, the
response runs there, and the resulting center is scaled back for
reporting.  Every frame also logs its exact center-to-mesh distance, so
the broadphase path is audited by something that never uses it.  The
audit runs once per scenario, after every stream's frames, on all of
their end positions together (:func:`mesh_distances`), and the start
check is its one-point case (:func:`min_distance_to_mesh`).  Bounding
spheres, from :func:`world._bounding_spheres` as in the sweep filter,
prune the triangles that cannot be nearest, and the Voronoi evaluation
runs on the surviving point-triangle pairs, batched across points, so
each distance is that of a scan of every triangle, bit for bit.  A few
points on a small mesh (``_SCAN_PAIRS``) skip the prune and evaluate
every pair.

A mesh of more than ``_BLOCK_ROWS`` (16,384) triangles gets a chunk level
first: sorted by the grid cell of their centroids, its triangles are cut
into runs of ``_RUN`` (32), each bounded by one sphere, and a point's
triangle-level bound reads only the runs that can hold its nearest
triangle.  On the benchmark's 20,000-triangle terrain that took the
walker's start check from 7.4 to 2.6 ms and its end audit of 80 points
from 19.7 to 5.4 ms (in-process medians; 2 cores, Python 3.11, numpy
2.4).  A smaller mesh runs the triangle level alone: forced onto a
40-triangle soup, the chunk level took its ``run_scenario`` from 1.2 to
2.6 ms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from io import StringIO
from typing import Union

import numpy as np

from .core import Triangle, Vec3, as_type, check_stand_off, distance, dot, triangle_normals
from .ellipsoid import EllipsoidRadii, EllipsoidWorldView, from_sphere_space, to_sphere_space
from .legacy import LegacyConfig, collide_with_world_legacy
from .mesh import builtin_mesh, load_obj_mesh, load_obj_vertices
from .response import ResponseConfig, sphere_sweep
from .world import World, _bounding_spheres, build_world

__all__ = [
    "Scenario",
    "TrajectoryRecord",
    "MeshSource",
    "load_scenario",
    "builtin_scenario",
    "run_scenario",
    "report",
    "summarize",
    "min_distance_to_mesh",
    "mesh_distances",
    "REPORT_COLUMNS",
    "ALGORITHMS",
]

ALGORITHMS = ("improved", "legacy")
REPORT_COLUMNS = ("frame", "x", "y", "z", "iterations", "min_mesh_distance",
                  "displacement", "planes_hit")

VelocityProgram = Union[Vec3, list[Vec3]]


@dataclass(frozen=True)
class MeshSource:
    """Either a file path or a builtin generator id plus parameters."""

    path: str | None = None
    builtin: str | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if (self.path is None) == (self.builtin is None):
            raise ValueError("mesh source needs exactly one of 'path' or 'builtin'")

    def load(self) -> list[Triangle]:
        if self.path is not None:
            return load_obj_mesh(self.path)
        return builtin_mesh(self.builtin, **self.params)

    def build(self) -> World:
        """The mesh's world; a file goes to the grid as one vertex block, with no Triangle per face."""
        if self.path is not None:
            return build_world(load_obj_vertices(self.path))
        return build_world(self.load())


@dataclass(frozen=True)
class Scenario:
    name: str
    mesh: MeshSource
    start: Vec3
    velocity: VelocityProgram
    frames: int = 30
    radii: EllipsoidRadii = EllipsoidRadii(1.0, 1.0, 1.0)
    algorithm: str = "improved"  # improved | legacy | both
    epsilon: float = ResponseConfig.very_close_dist
    legacy_max_recursion: int = LegacyConfig.max_recursion

    def __post_init__(self) -> None:
        if self.frames < 1:
            raise ValueError(f"frames must be >= 1, got {self.frames!r}")
        check_stand_off("epsilon", self.epsilon)
        if self.algorithm not in (*ALGORITHMS, "both"):
            raise ValueError(f"algorithm must be improved, legacy, or both: {self.algorithm!r}")

    def velocity_for_frame(self, frame: int) -> Vec3:
        if isinstance(self.velocity, list):
            return self.velocity[frame] if frame < len(self.velocity) else (0.0, 0.0, 0.0)
        return self.velocity


@dataclass(frozen=True)
class TrajectoryRecord:
    """One frame of output.

    ``position`` and ``displacement`` are world space; ``min_mesh_distance``
    is the exact sphere-space center-to-mesh distance (where radius 1 is
    meaningful), computed without the broadphase.
    """

    frame: int
    position: Vec3
    iterations: int
    min_mesh_distance: float
    displacement: float
    planes_hit: int


def _vec(value, what: str) -> Vec3:
    if not (isinstance(value, (list, tuple)) and len(value) == 3):
        raise ValueError(f"{what} must be a 3-element list, got {value!r}")
    return tuple(as_type(c, float, what) for c in value)


# Top-level keys of a scenario file; "seed" is accepted and ignored.
_OPTIONAL = {"frames": int, "algorithm": str, "epsilon": float, "legacy_max_recursion": int}
_KEYS = {"name", "mesh", "start", "velocity", "radii", "seed", *_OPTIONAL}


def load_scenario(path: str) -> Scenario:
    """Read a scenario from a JSON file (schema documented in the README)."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    return scenario_from_dict(raw)


def scenario_from_dict(raw: dict) -> Scenario:
    """Build a scenario from the file schema; absent keys keep ``Scenario``'s defaults."""
    if not isinstance(raw, dict):
        raise ValueError(f"a scenario must be a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - _KEYS
    if unknown:
        raise ValueError(f"unknown scenario keys {sorted(unknown)}; known: {sorted(_KEYS)}")
    mesh_raw = raw.get("mesh")
    if not isinstance(mesh_raw, dict):
        raise ValueError("scenario 'mesh' must be an object with 'path' or 'builtin'")
    if "path" in mesh_raw:
        extra = set(mesh_raw) - {"path"}
        if extra:
            raise ValueError(f"a mesh with 'path' takes no other key, got {sorted(extra)}")
        mesh = MeshSource(path=as_type(mesh_raw["path"], str, "mesh 'path'"))
    else:
        params = {k: v for k, v in mesh_raw.items() if k != "builtin"}
        mesh = MeshSource(builtin=mesh_raw.get("builtin"), params=params)

    velocity_raw = raw.get("velocity")
    velocity: VelocityProgram
    if isinstance(velocity_raw, list) and velocity_raw and isinstance(velocity_raw[0], (list, tuple)):
        velocity = [_vec(v, "velocity entry") for v in velocity_raw]
    else:
        velocity = _vec(velocity_raw, "velocity")

    given = {key: as_type(raw[key], cast, key) for key, cast in _OPTIONAL.items() if key in raw}
    if "radii" in raw:
        given["radii"] = EllipsoidRadii(*_vec(raw["radii"], "radii"))

    return Scenario(
        name=as_type(raw.get("name", "scenario"), str, "name"),
        mesh=mesh,
        start=_vec(raw.get("start"), "start"),
        velocity=velocity,
        **given,
    )


# Canned scenarios around the builtin meshes, in the scenario-file schema.
# Starting points and velocities are chosen so each mesh exhibits the
# behavior it exists for: settling on the floor, lock-up vs jitter in the
# obtuse corner, the iteration blow-up in the acute pincer, clean sliding
# along the crease.
_BUILTIN_SCENARIOS = {
    "floor": {"mesh": {"builtin": "floor"}, "start": [0.0, 0.0, 3.0],
              "velocity": [0.0, 0.0, -3.0], "frames": 5},
    "obtuse_corner": {"mesh": {"builtin": "obtuse_corner"}, "start": [2.5, 0.0, 3.5],
                      "velocity": [-1.2, 0.0, -1.6], "frames": 30},
    "acute_corner": {"mesh": {"builtin": "acute_corner"},
                     "start": [24.0 * math.cos(math.radians(2.5)), 0.0,
                               24.0 * math.sin(math.radians(2.5))],
                     "velocity": [-3.0, 0.0, 0.0], "frames": 1,
                     "legacy_max_recursion": 1000},
    "crease": {"mesh": {"builtin": "crease", "angle": 120.0}, "start": [2.0, 0.0, 2.0],
               "velocity": [-1.5, 1.0, -1.0], "frames": 12},
    "box_room": {"mesh": {"builtin": "box_room"}, "start": [0.0, 0.0, 0.0],
                 "velocity": [1.3, 0.7, -1.9], "frames": 30},
    "random_soup": {"mesh": {"builtin": "random_soup"}, "start": [0.0, 0.0, 14.0],
                    "velocity": [0.4, -0.3, -2.5], "frames": 20},
}


def builtin_scenario(kind: str, *, angle: float | None = None, frames: int | None = None,
                     algorithm: str | None = None, epsilon: float | None = None,
                     seed: int | None = None) -> Scenario:
    """A ready-to-run scenario around one of the builtin meshes.

    An argument left at ``None`` keeps the preset.  ``angle`` and ``seed``
    are mesh parameters: a mesh without them fails to load.
    """
    try:
        preset = _BUILTIN_SCENARIOS[kind]
    except KeyError:
        raise ValueError(f"no builtin scenario {kind!r}; known: {sorted(_BUILTIN_SCENARIOS)}") from None
    raw = {**preset, "name": kind, "mesh": dict(preset["mesh"])}
    for key, value in (("frames", frames), ("algorithm", algorithm), ("epsilon", epsilon)):
        if value is not None:
            raw[key] = value
    for key, value in (("angle", angle), ("seed", seed)):
        if value is not None:
            raw["mesh"][key] = value
    return scenario_from_dict(raw)


# Points per block of the bounding-sphere prune are chosen so that a block
# has about this many point-triangle rows: the temporaries stay a few
# hundred KB.
_BLOCK_ROWS = 1 << 14
# Triangles per run of the chunk level, which a mesh of more than
# _BLOCK_ROWS triangles goes through: few enough that a run's sphere stays
# close around its members, enough that a point tests 32 times fewer spheres.
_RUN = 32
# Point-triangle pairs per call of the Voronoi evaluation, across points:
# few calls, and temporaries of a few tens of KB.
_PAIR_ROWS = 1 << 10
# At most this many point-triangle pairs are evaluated directly, every pair,
# with no bounds: below it the prune costs more than the pairs it skips.  On
# a 2-core host, over 12- to 100-triangle soups, the direct scan took 65 to
# 84 us up to 120 pairs, against 82 to 93 us pruned, and lost from 160
# pairs on (97 against 92 us); the start check on a 40-triangle soup went
# from 85 to 65 us.
_SCAN_PAIRS = 128
# Pruning slack, relative to the size of the coordinates.  The bounds and
# the Voronoi distances each round to within a few ulps of that size; the
# slack is millions of ulps, so no triangle that could hold the minimum is
# dropped.
_PRUNE_MARGIN = 1e-9


def _triangle_distances(p: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Exact distance from ``p`` (one point, or one per row) to each triangle.

    Vectorized Voronoi-region closest-point evaluation; every row is
    computed on its own, so a row's result does not depend on the others.
    """
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    bp = p - b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    cp = p - c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)

    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    def safe_div(num, den):
        return num / np.where(den == 0.0, 1.0, den)

    # Face case as the default, then overwrite in reverse priority order so
    # the first matching region of the scalar decision chain wins.
    denom = va + vb + vc
    v_face = safe_div(vb, denom)
    w_face = safe_div(vc, denom)
    closest = a + ab * v_face[:, None] + ac * w_face[:, None]

    w_bc = safe_div(d4 - d3, (d4 - d3) + (d5 - d6))
    on_bc = b + (c - b) * w_bc[:, None]
    mask = (va <= 0.0) & ((d4 - d3) >= 0.0) & ((d5 - d6) >= 0.0)
    closest = np.where(mask[:, None], on_bc, closest)

    w_ac = safe_div(d2, d2 - d6)
    on_ac = a + ac * w_ac[:, None]
    mask = (vb <= 0.0) & (d2 >= 0.0) & (d6 <= 0.0)
    closest = np.where(mask[:, None], on_ac, closest)

    mask = (d6 >= 0.0) & (d5 <= d6)
    closest = np.where(mask[:, None], c, closest)

    v_ab = safe_div(d1, d1 - d3)
    on_ab = a + ab * v_ab[:, None]
    mask = (vc <= 0.0) & (d1 >= 0.0) & (d3 <= 0.0)
    closest = np.where(mask[:, None], on_ab, closest)

    mask = (d3 >= 0.0) & (d4 <= d3)
    closest = np.where(mask[:, None], b, closest)

    mask = (d1 <= 0.0) & (d2 <= 0.0)
    closest = np.where(mask[:, None], a, closest)

    return np.sqrt(((p - closest) ** 2).sum(axis=1))


def min_distance_to_mesh(point: Vec3, tris: np.ndarray) -> float:
    """The one-point audit: :func:`mesh_distances` of *point* alone.

    Exact distance from *point* to the nearest triangle, ``inf`` for an
    empty mesh; used as the independent audit of whatever the broadphase
    path did.
    """
    return float(mesh_distances([point], tris)[0])


def _spread_bits(v: np.ndarray) -> np.ndarray:
    """The low 10 bits of each entry, moved to every third bit."""
    v = (v | (v << 16)) & 0x030000FF
    v = (v | (v << 8)) & 0x0300F00F
    v = (v | (v << 4)) & 0x030C30C3
    return (v | (v << 2)) & 0x09249249


def _runs(centroids: np.ndarray, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The chunk level: runs of ``_RUN`` triangles near each other, each in one sphere.

    The triangles are sorted by the cell of their centroid, in Z-order, in
    a grid of 1023 cubes along the widest side of the centroids' box, and
    that order is cut into runs.  Returns each run's members as a row of
    triangle indices (the last row filled up with the order's last), and
    its sphere's centre, one row per axis, and radius: the mean of its
    members' centroids and the largest ``|c - centre| + r`` over them, so
    that the sphere holds each member's bounding sphere.
    """
    lo = centroids.min(axis=1, keepdims=True)
    with np.errstate(all="ignore"):  # only the order depends on the cells
        span = max(float((centroids.max(axis=1, keepdims=True) - lo).max()),
                   np.finfo(float).tiny)
        cells = ((centroids - lo) / span * 1023.0).astype(np.int64)
    key = _spread_bits(cells[0]) | _spread_bits(cells[1]) << 1 | _spread_bits(cells[2]) << 2
    order = np.argsort(key, kind="stable")
    members = np.append(order, np.full(-len(order) % _RUN, order[-1]))
    starts = np.arange(0, len(members), _RUN)
    ordered = centroids[:, members]
    centres = np.add.reduceat(ordered, starts, axis=1) / _RUN
    d = ordered - np.repeat(centres, _RUN, axis=1)
    reach = np.maximum.reduceat(np.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
                                + radii[members], starts)
    return members.reshape(-1, _RUN), centres, reach


def _kept_pairs(block: np.ndarray, centroids: np.ndarray, radii: np.ndarray,
                extent: float) -> tuple[np.ndarray, np.ndarray]:
    """The triangle-level bound: the ``(row, column)`` pairs of *block* x the triangles it keeps.

    A triangle's distance from ``p`` lies between ``|p - c| - r`` and
    ``|p - c|``, so only a triangle whose lower bound reaches the smallest
    upper bound (plus a rounding margin) can hold the minimum.
    """
    dx = block[:, 0:1] - centroids[0]
    dy = block[:, 1:2] - centroids[1]
    dz = block[:, 2:3] - centroids[2]
    upper = np.sqrt(dx * dx + dy * dy + dz * dz)
    nearest = upper.min(axis=1)
    limit = nearest + _PRUNE_MARGIN * (nearest + np.abs(block).max(axis=1) + extent)
    # Written as "not above" so a NaN bound keeps its triangle and the
    # NaN reaches the result, as in the full scan.
    return np.nonzero(~(upper - radii > limit[:, None]))


def _sub_blocks(points: np.ndarray, centroids: np.ndarray, radii: np.ndarray, extent: float):
    """The chunk level's ``(lo, hi, triangles)`` for each sub-block of *points*.

    A point keeps the runs (:func:`_runs`) whose lower bound
    ``|p - C| - R`` reaches the least ``|p - C| + R``, plus a rounding
    margin; ``triangles`` holds, in ascending order, the members of every
    run that a point of ``points[lo:hi]`` keeps.  A sub-block is the
    longest stretch of points whose count times the members of their runs
    stays within ``_BLOCK_ROWS``, or one point.
    """
    members, centres, reach = _runs(centroids, radii)
    kept = np.zeros(len(radii), dtype=bool)
    step = max(1, _BLOCK_ROWS // len(reach))
    for lo in range(0, len(points), step):
        block = points[lo:lo + step]
        dx = block[:, 0:1] - centres[0]
        dy = block[:, 1:2] - centres[1]
        dz = block[:, 2:3] - centres[2]
        d = np.sqrt(dx * dx + dy * dy + dz * dz)
        least = (d + reach).min(axis=1)
        # Twice the triangle level's margin: a triangle kept at the edge of
        # its margin keeps its run through the rounding of the run bounds.
        limit = least + 2.0 * _PRUNE_MARGIN * (least + np.abs(block).max(axis=1) + extent)
        keep = ~(d - reach > limit[:, None])
        start = 0
        while start < len(block):
            union = np.logical_or.accumulate(keep[start:], axis=0)
            fits = np.arange(1, len(union) + 1) * union.sum(axis=1) * _RUN <= _BLOCK_ROWS
            stop = start + max(1, int(fits.sum()))
            kept[:] = False
            kept[members[union[stop - start - 1]]] = True
            yield lo + start, lo + stop, np.flatnonzero(kept)
            start = stop


def _pruned_pairs(points: np.ndarray, tris: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(point, triangle)`` index pairs that the bounds keep, as two arrays.

    Ordered by point, then by triangle, with at least one pair for every
    point.  The triangle-level bound (:func:`_kept_pairs`) is taken a
    block of points at a time.  A mesh of more than ``_BLOCK_ROWS``
    triangles first goes through the chunk level (:func:`_sub_blocks`),
    and the triangle level sees only the triangles of the runs it keeps.
    A run's sphere holds its members' spheres, so the run of the nearest
    centroid and the run of every triangle that the triangle level keeps
    pass: the pairs are those of the triangle level over the whole mesh.
    """
    centroids, radii = _bounding_spheres(tris)
    extent = np.abs(tris).max()
    if len(tris) <= _BLOCK_ROWS:
        step = max(1, _BLOCK_ROWS // len(tris))
        blocks = [(lo, lo + step, None) for lo in range(0, len(points), step)]
    else:
        blocks = _sub_blocks(points, centroids, radii, extent)
    rows, cols = [], []
    for lo, hi, ids in blocks:
        if ids is None:
            block_rows, block_cols = _kept_pairs(points[lo:hi], centroids, radii, extent)
        else:
            block_rows, block_cols = _kept_pairs(points[lo:hi], centroids[:, ids], radii[ids],
                                                 extent)
            block_cols = ids[block_cols]
        rows.append(block_rows + lo)
        cols.append(block_cols)
    return np.concatenate(rows), np.concatenate(cols)


def mesh_distances(points, tris: np.ndarray) -> np.ndarray:
    """Exact distance from each row of *points* to the nearest triangle of *tris*.

    Each is the minimum of the Voronoi evaluation over every triangle, bit
    for bit.  Up to ``_SCAN_PAIRS`` point-triangle pairs are all evaluated;
    past that the evaluation runs only on the pairs that the
    bounding-sphere bounds keep (:func:`_pruned_pairs`).  The pairs of all
    points are gathered and evaluated ``_PAIR_ROWS`` at a time, then
    reduced to each point's minimum.  ``inf`` for every point of an empty
    mesh.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    count = tris.shape[0]
    if count == 0 or len(points) == 0:
        return np.full(len(points), math.inf)
    if len(points) * count <= _SCAN_PAIRS:
        dist = _triangle_distances(np.repeat(points, count, axis=0),
                                   np.tile(tris, (len(points), 1, 1)))
        return dist.reshape(-1, count).min(axis=1)
    rows, cols = _pruned_pairs(points, tris)
    # Each row is evaluated on its own, so where the batches split the
    # pairs does not change a bit.
    dist = np.concatenate([
        _triangle_distances(points[rows[lo:lo + _PAIR_ROWS]], tris[cols[lo:lo + _PAIR_ROWS]])
        for lo in range(0, len(rows), _PAIR_ROWS)])
    return np.minimum.reduceat(dist, np.searchsorted(rows, np.arange(len(points))))


def _sphere_space_program(scenario: Scenario) -> tuple[Vec3, list[Vec3]]:
    """The start and each frame's velocity, divided by the radii.

    Raises ``ValueError`` naming the radii when one of them has no finite
    squared length there: a finite file value can still overflow when a
    radius is tiny, and no audit or sweep could answer it.
    """
    given = [scenario.start] + [scenario.velocity_for_frame(f) for f in range(scenario.frames)]
    scaled = [to_sphere_space(v, scenario.radii) for v in given]
    for k, v in enumerate(scaled):
        if not math.isfinite(dot(v, v)):
            what = "start" if k == 0 else f"velocity of frame {k - 1}"
            raise ValueError(
                f"scenario {scenario.name!r}: {what} {given[k]!r} divided by radii "
                f"{scenario.radii.as_tuple()!r} has no finite squared length"
            )
    return scaled[0], scaled[1:]


def run_scenario(scenario: Scenario) -> dict[str, list[TrajectoryRecord]]:
    """Run *scenario* and return one record stream per algorithm.

    The returned dict has one entry for ``improved`` or ``legacy`` runs and
    both entries for ``algorithm = "both"``; both streams see identical
    inputs.  Every stream's frames run first; then the end positions of
    all streams are audited in one :func:`mesh_distances` call, so the
    triangles' bounding spheres are built once per scenario.  Raises
    ``ValueError`` when the start position penetrates the mesh, when the
    start, a velocity or the mesh is out of range in sphere space, or when
    the radii flatten a triangle there or widen one past the view's bound,
    before any frame runs.
    """
    world = scenario.mesh.build()
    radii = scenario.radii
    start_s, velocities = _sphere_space_program(scenario)
    try:
        # A finite mesh divided by a tiny radius can leave coordinates whose
        # products overflow: the audit would read NaN and pass.
        with np.errstate(over="raise", invalid="raise"):
            sphere_tris = world.vertices / np.array(radii.as_tuple())[None, None, :]
            start_dist = min_distance_to_mesh(start_s, sphere_tris)
    except FloatingPointError:
        raise ValueError(
            f"scenario {scenario.name!r}: the mesh overflows once divided by radii "
            f"{radii.as_tuple()!r}"
        ) from None
    flattened = np.flatnonzero(~triangle_normals(sphere_tris)[1])
    if flattened.size:
        raise ValueError(
            f"scenario {scenario.name!r}: radii {radii.as_tuple()!r} flatten {flattened.size} "
            f"triangle(s) in sphere space (collinear, non-finite or out of range), the first "
            f"at index {flattened[0]}"
        )
    if start_dist < 1.0 - 1e-6:
        raise ValueError(
            f"scenario {scenario.name!r}: start position penetrates the mesh "
            f"(sphere-space distance {start_dist:.6f} < 1)"
        )

    algorithms = ALGORITHMS if scenario.algorithm == "both" else (scenario.algorithm,)
    improved_cfg = ResponseConfig(very_close_dist=scenario.epsilon)
    legacy_cfg = LegacyConfig(very_close_dist=scenario.epsilon,
                              max_recursion=scenario.legacy_max_recursion)

    # One view for both streams: they run in turn and share its scaled triangles.
    view = EllipsoidWorldView(world, radii)
    steps: dict[str, list] = {}
    for algo in algorithms:
        pos_sphere = start_s
        results = []
        for vel_sphere in velocities:
            if algo == "improved":
                result = sphere_sweep(view, pos_sphere, vel_sphere, improved_cfg)
            else:
                result = collide_with_world_legacy(view, pos_sphere, vel_sphere, legacy_cfg)
            results.append(result)
            pos_sphere = result.final_pos
        steps[algo] = results
    clearances = mesh_distances(
        [r.final_pos for results in steps.values() for r in results], sphere_tris).tolist()

    out: dict[str, list[TrajectoryRecord]] = {}
    for k, (algo, results) in enumerate(steps.items()):
        pos_world = scenario.start
        records: list[TrajectoryRecord] = []
        stream = clearances[k * len(velocities):]
        for frame, (result, clearance) in enumerate(zip(results, stream)):
            new_world = from_sphere_space(result.final_pos, radii)
            records.append(TrajectoryRecord(
                frame=frame,
                position=new_world,
                iterations=result.iterations,
                min_mesh_distance=clearance,
                displacement=distance(new_world, pos_world),
                planes_hit=len(result.planes),
            ))
            pos_world = new_world
        out[algo] = records
    return out


def report(records: list[TrajectoryRecord], fmt: str = "csv") -> str:
    """Render records as a CSV table or a JSON array with the same keys.

    Float fields use ``repr`` so identical runs produce byte-identical
    output.
    """
    # One value per REPORT_COLUMNS entry, in its order.
    rows = [(r.frame, *r.position, r.iterations, r.min_mesh_distance, r.displacement,
             r.planes_hit) for r in records]
    if fmt == "csv":
        buf = StringIO()
        buf.write(",".join(REPORT_COLUMNS) + "\n")
        for row in rows:
            buf.write(",".join(map(repr, row)) + "\n")
        return buf.getvalue()
    if fmt == "json":
        return json.dumps([dict(zip(REPORT_COLUMNS, row)) for row in rows], indent=2) + "\n"
    raise ValueError(f"unknown report format {fmt!r} (use 'csv' or 'json')")


def summarize(records: list[TrajectoryRecord], epsilon: float,
              commanded_speeds: list[float]) -> dict:
    """Aggregate figures for a record stream.

    ``jitter_count`` is the number of frames whose displacement exceeds the
    tolerance.  ``snag_count`` counts frames where motion was commanded
    (speed above ``10 * epsilon``) but the sphere barely moved (under a
    tenth of the commanded distance) -- the sticking-on-edges symptom;
    ``commanded_speeds`` holds one speed per frame.
    """
    return {
        "frames": len(records),
        "max_iterations": max((r.iterations for r in records), default=0),
        "min_mesh_distance": min((r.min_mesh_distance for r in records), default=None),
        "jitter_count": sum(1 for r in records if r.displacement > epsilon),
        "snag_count": sum(
            1 for r, speed in zip(records, commanded_speeds)
            if speed > 10.0 * epsilon and r.displacement < 0.1 * speed
        ),
    }
