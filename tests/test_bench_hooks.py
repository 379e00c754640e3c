"""The benchmark's tracer still finds every library entry point it wraps.

``bench/spans.py`` swaps module functions and class methods for timed
wrappers by name, so renaming or re-signing one of them silently breaks
``bench/run.py --trace 1``.  This runs the three kinds of work the
benchmark traces, with and without the tracer, and checks that the hooks
fired, saw no broadphase miss, and changed no result.
"""

import sys
from pathlib import Path

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

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import spans  # noqa: E402

START, VELOCITY = (0.3, -0.2, 2.5), (1.5, 0.7, -3.0)


def _work():
    world = build_world(builtin_mesh("obtuse_corner"))
    scenario = builtin_scenario("obtuse_corner", frames=5, algorithm="both")
    return world, [
        sphere_sweep(world, START, VELOCITY),
        sphere_sweep(EllipsoidWorldView(world, EllipsoidRadii(2.0, 1.0, 0.5)), START, VELOCITY),
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
