"""The benchmark's tracer still finds every library entry point it wraps.

``bench/spans.py`` swaps module functions and class methods for timed
wrappers by name, so renaming or re-signing one of them silently breaks
``bench/run.py --trace 1``.  This runs the three kinds of work the
benchmark traces, with and without the tracer, and checks that the hooks
fired, saw no broadphase miss, and changed no result.  It also checks
that the benchmark's worlds still fall on both sides of the world size at
which sweeps stop scanning and take the grid.
"""

import sys
from pathlib import Path
from unittest import mock

from sweepslide import (
    EllipsoidRadii,
    EllipsoidWorldView,
    MeshSource,
    Scenario,
    build_world,
    builtin_mesh,
    builtin_scenario,
    run_scenario,
    sphere_sweep,
)
from sweepslide.world import SCAN_WORLD_TRIANGLES, World

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import spans  # noqa: E402
import workloads  # noqa: E402

START, VELOCITY = (0.3, -0.2, 2.5), (1.5, 0.7, -3.0)
# A soup whose sweeps take the grid, so that the tracer's query hook fires.
GRID_SOUP = dict(n=200, seed=4, extent=15.0)


def _work():
    world = build_world(builtin_mesh("obtuse_corner"))
    # A world this small is scanned row by row; a short sweep over a
    # 200-triangle soup takes the grid, whose query the tracer wraps.
    soup = build_world(builtin_mesh("random_soup", **GRID_SOUP))
    scenario = builtin_scenario("obtuse_corner", frames=5, algorithm="both")
    return world, [
        sphere_sweep(world, START, VELOCITY),
        sphere_sweep(EllipsoidWorldView(world, EllipsoidRadii(2.0, 1.0, 0.5)), START, VELOCITY),
        sphere_sweep(soup, START, (0.5, 0.3, -0.4)),
        run_scenario(scenario),
    ]


def test_tracer_hooks_fire_and_change_nothing():
    _, plain = _work()
    tracer = spans.Tracer()
    with tracer.installed():
        world, traced = _work()
    assert tracer.problems == []
    calls = {name: count for name, (count, _, _) in tracer.by_name().items()}
    # scenario.audit wraps min_distance_to_mesh, the start check of run_scenario.
    for name in ("world.query", "detect.narrowphase", "ellipsoid.view", "scenario.audit"):
        assert calls.get(name, 0) > 0, name
    assert traced == plain
    assert sum(len(bucket) for bucket in world._cells.values()) > 0


def test_tracer_hooks_fire_on_a_world_read_from_an_obj_file(heightfield_obj):
    # run_scenario indexes an OBJ file's vertex block, so that world makes
    # its Triangles only when they are read: by a sweep, or by the query
    # hook, which checks every broadphase answer against all of them.
    path, _ = heightfield_obj(12)
    scenario = Scenario(name="walker", mesh=MeshSource(path=str(path)), start=(3.3, 4.1, 6.0),
                        velocity=(0.4, 0.2, -0.8), frames=10,
                        radii=EllipsoidRadii(0.8, 0.8, 1.8), algorithm="both")
    plain = run_scenario(scenario)
    tracer = spans.Tracer()
    with tracer.installed():
        traced = run_scenario(scenario)
        queried = [grid for grid, _ in tracer._boxes.values()]
    assert tracer.problems == []
    calls = {name: count for name, (count, _, _) in tracer.by_name().items()}
    for name in ("world.build", "world.query", "ellipsoid.view", "detect.narrowphase"):
        assert calls.get(name, 0) > 0, name
    assert len(queried) == 1 and not isinstance(queried[0].triangles, tuple)
    assert traced == plain
    assert min(r.min_mesh_distance for records in plain.values() for r in records) < 1.1


def test_the_transform_counter_sees_each_triangle_a_radii_class_scales_once():
    # The counter rebinds ellipsoid.triangle_to_sphere_space; views read it
    # from the module, so it sees every transform, and a second view of the
    # same radii sweeping the same frame finds every triangle scaled.
    world = build_world(builtin_mesh("random_soup", n=60, seed=5, extent=6.0))
    radii = EllipsoidRadii(2.0, 1.0, 0.5)
    tracer = spans.Tracer()
    with tracer.installed():
        views = [EllipsoidWorldView(world, radii) for _ in range(2)]
        frames = [sphere_sweep(view, START, VELOCITY) for view in views]
    assert tracer.problems == [] and frames[0] == frames[1]
    assert tracer.counts["ellipsoid.transforms"] == len(views[0]._triangles) > 0
    assert tracer.counts["ellipsoid.scaled_candidates"] > len(views[0]._triangles)


def _grid_queries(world) -> int:
    """How many grid queries one zero-length sweep over *world* makes."""
    queries = []
    query = World.query_candidates

    def counted(self, bounds):
        queries.append(bounds)
        return query(self, bounds)

    with mock.patch.object(World, "query_candidates", counted):
        world.sweep_indices(START, START)
    return len(queries)


def test_each_benchmark_world_falls_on_its_side_of_the_scan_cap():
    # The benchmark keeps worlds on both sides of SCAN_WORLD_TRIANGLES: the
    # fuzz soups and the builtin scenarios' meshes are scanned, and the
    # 3,000-triangle soup, the terrain and _work's soup take the grid.
    # (verify's broadphase soup is pinned to the grid in test_world.py.)
    fuzz, suite = workloads.SoupFuzz, workloads.ScenarioSuite
    scanned = [build_world(builtin_mesh("random_soup", n=fuzz.TRIANGLES, seed=fuzz.SOUP_SEED + w,
                                        extent=fuzz.EXTENT)) for w in range(fuzz.SOUPS)]
    scanned += [builtin_scenario(kind).mesh.build() for kind in suite.BUILTINS]
    for world in scanned:
        assert len(world.vertices) <= SCAN_WORLD_TRIANGLES and _grid_queries(world) == 0
    gridded = [MeshSource(builtin="random_soup", params=suite.DENSE).build(),
               build_world(builtin_mesh("random_soup", **GRID_SOUP))]
    for world in gridded:
        assert len(world.vertices) > SCAN_WORLD_TRIANGLES and _grid_queries(world) == 1
    assert 2 * workloads.TerrainCrowd.GRID ** 2 > SCAN_WORLD_TRIANGLES
