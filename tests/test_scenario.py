import ast
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from sweepslide import scenario as scenario_module
from sweepslide.ellipsoid import EllipsoidRadii
from sweepslide.scenario import (
    REPORT_COLUMNS,
    MeshSource,
    _triangle_distances,
    Scenario,
    builtin_scenario,
    load_scenario,
    min_distance_to_mesh,
    report,
    run_scenario,
    scenario_from_dict,
    summarize,
)
from sweepslide.detect import closest_point_on_triangle
from sweepslide.core import distance
from sweepslide.mesh import builtin_mesh
from sweepslide.world import build_world


def _floor_scenario(**overrides):
    base = dict(
        name="floor-drop",
        mesh=MeshSource(builtin="floor"),
        start=(0.0, 0.0, 3.0),
        velocity=(0.0, 0.0, -3.0),
        frames=3,
        algorithm="improved",
    )
    base.update(overrides)
    return Scenario(**base)


def test_floor_scenario_final_height():
    records = run_scenario(_floor_scenario())["improved"]
    assert abs(records[-1].position[2] - 1.005) <= 1e-6
    assert all(r.min_mesh_distance >= 1.0 for r in records)


def test_floor_scenario_with_ellipsoid_radii():
    sc = _floor_scenario(radii=EllipsoidRadii(2.0, 1.0, 0.5), frames=2)
    records = run_scenario(sc)["improved"]
    assert abs(records[-1].position[2] - 1.005 * 0.5) <= 1e-6


@pytest.mark.parametrize("radii", [EllipsoidRadii(1.0, 1.0, 1.0), EllipsoidRadii(2.0, 1.0, 0.5)])
def test_the_mesh_is_divided_by_the_radii_once(monkeypatch, radii):
    # The audit and the view's radii check read one sphere-space block;
    # for unit radii it is the world's own.
    worlds, checked, audited = [], [], []
    sphere_triangles = scenario_module._sphere_triangles
    mesh_distances = scenario_module.mesh_distances

    def build(tris):
        worlds.append(build_world(tris))
        return worlds[-1]

    def check(world, radii, scaled=None):
        checked.append(scaled)
        return sphere_triangles(world, radii, scaled)

    def audit(points, tris):
        audited.append(tris)
        return mesh_distances(points, tris)

    monkeypatch.setattr(scenario_module, "build_world", build)
    monkeypatch.setattr(scenario_module, "_sphere_triangles", check)
    monkeypatch.setattr(scenario_module, "mesh_distances", audit)
    run_scenario(_floor_scenario(radii=radii, algorithm="both"))
    (world,) = worlds
    block = audited[0]
    assert len(audited) == 2 and audited[1] is block
    if radii.is_unit:
        assert block is world.vertices and checked == []
    else:
        assert len(checked) == 1 and checked[0] is block
        assert block.tobytes() == (world.vertices / np.array(radii.as_tuple())).tobytes()


def test_zero_velocity_program_never_moves():
    sc = _floor_scenario(velocity=(0.0, 0.0, 0.0), frames=4)
    records = run_scenario(sc)["improved"]
    assert all(r.displacement == 0.0 for r in records)
    assert all(r.iterations == 0 for r in records)


def test_velocity_list_program():
    sc = _floor_scenario(velocity=[(0.0, 0.0, -3.0), (1.0, 0.0, 0.0)], frames=2)
    records = run_scenario(sc)["improved"]
    assert abs(records[0].position[2] - 1.005) <= 1e-9
    assert records[1].position[0] > 0.5


def test_both_streams_identical_inputs():
    sc = _floor_scenario(algorithm="both")
    records = run_scenario(sc)
    assert set(records) == {"improved", "legacy"}
    assert len(records["improved"]) == len(records["legacy"]) == 3
    # single-plane case: the two algorithms land within a few tolerances
    assert distance(records["improved"][-1].position,
                    records["legacy"][-1].position) <= 0.05


def test_penetrating_start_rejected():
    sc = _floor_scenario(start=(0.0, 0.0, 0.5))
    with pytest.raises(ValueError, match="penetrates"):
        run_scenario(sc)


def test_min_mesh_distance_matches_scalar_oracle():
    tris = builtin_mesh("random_soup", n=30, seed=4, extent=5.0)
    arr = build_world(tris).vertices
    import random

    rng = random.Random(6)
    for _ in range(200):
        p = tuple(rng.uniform(-6, 6) for _ in range(3))
        fast = min_distance_to_mesh(p, arr)
        slow = min(distance(p, closest_point_on_triangle(p, t)) for t in tris)
        assert abs(fast - slow) <= 1e-9


# --- report output ---

def test_report_csv_columns_exact():
    records = run_scenario(_floor_scenario())["improved"]
    text = report(records, "csv")
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert len(lines) == 1 + len(records)
    first = lines[1].split(",")
    assert first[0] == "0"
    assert len(first) == len(REPORT_COLUMNS)


def test_report_empty_is_header_only():
    assert report([], "csv") == ",".join(REPORT_COLUMNS) + "\n"


def test_report_json_keys():
    records = run_scenario(_floor_scenario())["improved"]
    rows = json.loads(report(records, "json"))
    assert len(rows) == len(records)
    assert set(rows[0]) == set(REPORT_COLUMNS)


def test_report_unknown_format():
    with pytest.raises(ValueError):
        report([], "xml")


def test_report_deterministic_byte_identical():
    sc = builtin_scenario("random_soup", seed=42)
    a = report(run_scenario(sc)["improved"], "csv")
    b = report(run_scenario(sc)["improved"], "csv")
    assert a == b


def test_summarize_counts():
    records = run_scenario(_floor_scenario(frames=5))["improved"]
    speeds = [3.0] * 5
    summary = summarize(records, epsilon=0.005, commanded_speeds=speeds)
    assert summary["frames"] == 5
    assert summary["max_iterations"] >= 1
    assert summary["min_mesh_distance"] >= 1.0
    # frame 0 travels ~2, later frames settle: exactly one moving frame
    assert summary["jitter_count"] == 1
    # settled frames are commanded 3.0 but move < 0.3: counted as snagged/stopped
    assert summary["snag_count"] == 4


def test_summarize_empty():
    summary = summarize([], epsilon=0.005, commanded_speeds=[])
    assert summary == {
        "frames": 0,
        "max_iterations": 0,
        "min_mesh_distance": None,
        "jitter_count": 0,
        "snag_count": 0,
    }


# --- scenario files ---

def test_load_scenario_roundtrip(tmp_path):
    raw = {
        "name": "drop",
        "mesh": {"builtin": "floor", "size": 50.0},
        "start": [0.0, 0.0, 3.0],
        "velocity": [0.0, 0.0, -3.0],
        "frames": 2,
        "radii": [1.0, 1.0, 1.0],
        "algorithm": "improved",
        "epsilon": 0.005,
        "seed": 0,
    }
    path = tmp_path / "drop.json"
    path.write_text(json.dumps(raw))
    sc = load_scenario(str(path))
    assert sc.name == "drop"
    assert sc.mesh.builtin == "floor"
    assert sc.mesh.params == {"size": 50.0}
    records = run_scenario(sc)["improved"]
    assert abs(records[-1].position[2] - 1.005) <= 1e-6


def test_readme_scenario_example_runs(tmp_path):
    # The README's schema example is a scenario file this parser accepts.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    path = tmp_path / "example.json"
    path.write_text(example)
    sc = load_scenario(str(path))
    assert sc.frames == 12 and sc.epsilon == 0.005 and sc.legacy_max_recursion == 5
    records = run_scenario(sc)[sc.algorithm]
    assert len(records) == sc.frames
    assert min(r.min_mesh_distance for r in records) >= 1.0 - 1e-6


def test_readme_library_example_runs(capsys):
    # The README's library example prints the ellipsoid's world-space position.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = re.search(r"## Library example\n+```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(example, "README.md", "exec"), {})
    position = ast.literal_eval(capsys.readouterr().out)
    assert len(position) == 3 and all(math.isfinite(c) for c in position)


def test_scenario_from_dict_velocity_list():
    sc = scenario_from_dict({
        "name": "x",
        "mesh": {"builtin": "floor"},
        "start": [0, 0, 3],
        "velocity": [[0, 0, -1], [1, 0, 0]],
        "frames": 2,
    })
    assert sc.velocity_for_frame(0) == (0.0, 0.0, -1.0)
    assert sc.velocity_for_frame(1) == (1.0, 0.0, 0.0)
    assert sc.velocity_for_frame(5) == (0.0, 0.0, 0.0)  # past the program: rest


def test_scenario_validation():
    with pytest.raises(ValueError):
        _floor_scenario(frames=0)
    with pytest.raises(ValueError):
        _floor_scenario(epsilon=0.0)
    with pytest.raises(ValueError):
        _floor_scenario(algorithm="quantum")
    with pytest.raises(ValueError):
        MeshSource()
    with pytest.raises(ValueError):
        MeshSource(path="a.obj", builtin="floor")


def test_builtin_scenarios_all_run():
    for kind in ("floor", "obtuse_corner", "acute_corner", "crease", "box_room",
                 "random_soup"):
        sc = builtin_scenario(kind, frames=2)
        records = run_scenario(sc)
        assert len(records[sc.algorithm]) == 2
        for r in records[sc.algorithm]:
            assert r.min_mesh_distance >= 1.0 - 1e-6


@pytest.mark.parametrize("kind", ["floor", "obtuse_corner", "acute_corner", "crease",
                                  "box_room", "random_soup"])
def test_audit_equals_the_full_scan_of_the_mesh(kind):
    # Unit radii: sphere space is world space, so each record's distance is
    # the scan of every triangle of an array built from the triangles themselves.
    sc = builtin_scenario(kind, algorithm="both")
    assert sc.radii.is_unit
    tris = np.array([[t.a, t.b, t.c] for t in sc.mesh.load()])
    streams = run_scenario(sc)
    assert set(streams) == {"improved", "legacy"}
    for records in streams.values():
        for r in records:
            assert r.min_mesh_distance == _triangle_distances(np.array(r.position), tris).min()


def test_audit_equals_the_full_scan_on_a_large_obj_mesh(heightfield_obj):
    # 91 x 91 quads: 16,562 triangles, more than one prune block holds, so
    # each end position is a block of its own.
    path, corners = heightfield_obj(91)
    sc = Scenario(name="walker", mesh=MeshSource(path=str(path)), start=(45.3, 45.7, 8.0),
                  velocity=(0.4, 0.3, -0.6), frames=20, algorithm="both")
    tris = np.array(corners)
    assert len(tris) == 16_562
    streams = run_scenario(sc)
    assert set(streams) == {"improved", "legacy"}
    for records in streams.values():
        assert len(records) == 20
        assert min(r.min_mesh_distance for r in records) < 1.1  # it reached the ground
        for r in records:
            assert r.min_mesh_distance == _triangle_distances(np.array(r.position), tris).min()
