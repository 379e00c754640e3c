"""Scripted multi-frame scenarios, trajectory records, and report output.

A scenario drives one of the response algorithms frame by frame through a
mesh: positions and velocities are scaled into unit-sphere space, the
response runs there, and the resulting center is scaled back for
reporting.  Every frame also logs its exact center-to-mesh distance, so
the broadphase path is audited by something that never uses it.  The
audit runs once per stream, on all of its end positions together
(:func:`mesh_distances`): bounding spheres prune the triangles that cannot
be nearest, and the same Voronoi evaluation as
:func:`min_distance_to_mesh` runs on the rest, so each distance is the
full scan's, bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from io import StringIO
from typing import Union

import numpy as np

from .core import Triangle, Vec3, check_stand_off, distance, dot
from .ellipsoid import EllipsoidRadii, EllipsoidWorldView, from_sphere_space, to_sphere_space
from .legacy import LegacyConfig, collide_with_world_legacy
from .mesh import builtin_mesh, load_obj_mesh
from .response import ResponseConfig, sphere_sweep
from .world import build_world

__all__ = [
    "Scenario",
    "TrajectoryRecord",
    "MeshSource",
    "load_scenario",
    "builtin_scenario",
    "run_scenario",
    "report",
    "summarize",
    "mesh_array",
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
            return load_obj_mesh(self.path).triangles
        return builtin_mesh(self.builtin, **self.params)


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


def _cast(value, cast, what: str):
    """``cast(value)``, with a wrong type reported as ``ValueError``."""
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be {cast.__name__}, got {value!r}") from None


def _vec(value, what: str) -> Vec3:
    if not (isinstance(value, (list, tuple)) and len(value) == 3):
        raise ValueError(f"{what} must be a 3-element list, got {value!r}")
    return (_cast(value[0], float, what), _cast(value[1], float, what),
            _cast(value[2], float, what))


def load_scenario(path: str) -> Scenario:
    """Read a scenario from a JSON file (schema documented in the README)."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    return scenario_from_dict(raw)


def scenario_from_dict(raw: dict) -> Scenario:
    """Build a scenario from the file schema; absent keys keep ``Scenario``'s defaults."""
    mesh_raw = raw.get("mesh")
    if not isinstance(mesh_raw, dict):
        raise ValueError("scenario 'mesh' must be an object with 'path' or 'builtin'")
    if "path" in mesh_raw:
        if not isinstance(mesh_raw["path"], str):
            raise ValueError(f"mesh 'path' must be a string, got {mesh_raw['path']!r}")
        mesh = MeshSource(path=mesh_raw["path"])
    else:
        params = {k: v for k, v in mesh_raw.items() if k != "builtin"}
        mesh = MeshSource(builtin=mesh_raw.get("builtin"), params=params)

    velocity_raw = raw.get("velocity")
    velocity: VelocityProgram
    if isinstance(velocity_raw, list) and velocity_raw and isinstance(velocity_raw[0], (list, tuple)):
        velocity = [_vec(v, "velocity entry") for v in velocity_raw]
    else:
        velocity = _vec(velocity_raw, "velocity")

    optional = {"frames": int, "algorithm": str, "epsilon": float, "legacy_max_recursion": int}
    given = {key: _cast(raw[key], cast, key) for key, cast in optional.items() if key in raw}
    if "radii" in raw:
        given["radii"] = EllipsoidRadii(*_vec(raw["radii"], "radii"))

    return Scenario(
        name=str(raw.get("name", "scenario")),
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


def mesh_array(triangles: list[Triangle]) -> np.ndarray:
    """Vertices as an ``(n, 3, 3)`` float array for the distance oracle."""
    if not triangles:
        return np.zeros((0, 3, 3))
    return np.array([[t.a, t.b, t.c] for t in triangles], dtype=float)


# Points per block of mesh_distances are chosen so that a block has about
# this many point-triangle rows: the temporaries stay a few hundred KB.
_BLOCK_ROWS = 1 << 14
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
    """Exact distance from *point* to the nearest triangle, all at once.

    Evaluates every triangle; used as the independent audit of whatever
    the broadphase path did.
    """
    if tris.shape[0] == 0:
        return math.inf
    return float(_triangle_distances(np.asarray(point, dtype=float), tris).min())


def _bounding_spheres(tris: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each triangle's centroid and its largest vertex distance from it."""
    centroids = tris.mean(axis=1)
    radii = np.sqrt(((tris - centroids[:, None, :]) ** 2).sum(axis=2)).max(axis=1)
    return centroids, radii


def mesh_distances(points, tris: np.ndarray) -> np.ndarray:
    """:func:`min_distance_to_mesh` of each row of *points*, bit for bit.

    A triangle's distance from ``p`` lies between ``|p - c| - r`` and
    ``|p - c|``, where ``c`` and ``r`` are its bounding sphere's centre and
    radius.  Only the triangles whose lower bound reaches the smallest
    upper bound (plus a rounding margin) can hold the minimum, so the
    Voronoi evaluation runs on those pairs alone, all of a block's pairs in
    one call.  ``inf`` for every point of an empty mesh.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    out = np.full(len(points), math.inf)
    n = tris.shape[0]
    if n == 0:
        return out
    centroids, radii = _bounding_spheres(tris)
    extent = np.abs(tris).max()
    step = max(1, _BLOCK_ROWS // n)
    for lo in range(0, len(points), step):
        block = points[lo:lo + step]
        diff = block[:, None, :] - centroids[None, :, :]
        upper = np.sqrt((diff * diff).sum(axis=2))
        nearest = upper.min(axis=1)
        limit = nearest + _PRUNE_MARGIN * (nearest + np.abs(block).max(axis=1) + extent)
        # Written as "not above" so a NaN bound keeps its triangle and the
        # NaN reaches the result, as in min_distance_to_mesh.
        rows, cols = np.nonzero(~(upper - radii > limit[:, None]))
        dist = _triangle_distances(block[rows], tris[cols])
        out[lo:lo + len(block)] = np.minimum.reduceat(
            dist, np.searchsorted(rows, np.arange(len(block))))
    return out


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
    inputs.  Each stream's end positions are audited together, after its
    frames, by :func:`mesh_distances`.  Raises ``ValueError`` when the
    start position penetrates the mesh, or when the start or a velocity is
    out of range in sphere space.
    """
    triangles = scenario.mesh.load()
    world = build_world(triangles)
    radii = scenario.radii
    start_s, velocities = _sphere_space_program(scenario)
    sphere_tris = mesh_array(triangles) / np.array(radii.as_tuple())[None, None, :]

    start_dist = min_distance_to_mesh(start_s, sphere_tris)
    if start_dist < 1.0 - 1e-6:
        raise ValueError(
            f"scenario {scenario.name!r}: start position penetrates the mesh "
            f"(sphere-space distance {start_dist:.6f} < 1)"
        )

    algorithms = ALGORITHMS if scenario.algorithm == "both" else (scenario.algorithm,)
    improved_cfg = ResponseConfig(very_close_dist=scenario.epsilon)
    legacy_cfg = LegacyConfig(very_close_dist=scenario.epsilon,
                              max_recursion=scenario.legacy_max_recursion)

    out: dict[str, list[TrajectoryRecord]] = {}
    for algo in algorithms:
        view = EllipsoidWorldView(world, radii)
        pos_sphere = start_s
        results = []
        for vel_sphere in velocities:
            if algo == "improved":
                result = sphere_sweep(view, pos_sphere, vel_sphere, improved_cfg)
            else:
                result = collide_with_world_legacy(view, pos_sphere, vel_sphere, legacy_cfg)
            results.append(result)
            pos_sphere = result.final_pos
        clearances = mesh_distances([r.final_pos for r in results], sphere_tris).tolist()

        pos_world = scenario.start
        records: list[TrajectoryRecord] = []
        for frame, (result, clearance) in enumerate(zip(results, clearances)):
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
