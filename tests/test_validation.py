"""Input checks shared by both responses, the configs and the scenario loader."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sweepslide
from sweepslide import scenario as scenario_module
from sweepslide.cli import main
from sweepslide.core import (
    UNIT_TOLERANCE,
    DegenerateTriangleError,
    Triangle,
    distance,
    dot,
    norm,
    sub,
    triangle_normals,
)
from sweepslide.detect import closest_point_on_triangle, sweep_unit_sphere_triangle
from sweepslide.ellipsoid import EllipsoidRadii, EllipsoidWorldView, triangle_to_sphere_space
from sweepslide.legacy import LegacyConfig, collide_with_world_legacy
from sweepslide.mesh import builtin_mesh
from sweepslide.response import ResponseConfig, sphere_sweep
from sweepslide.scenario import MeshSource, Scenario, min_distance_to_mesh, run_scenario
from sweepslide.world import build_world

RESPONSES = [sphere_sweep, collide_with_world_legacy]


def _floor_world():
    return build_world(builtin_mesh("floor"))


@pytest.mark.parametrize("respond", RESPONSES)
@pytest.mark.parametrize("pos, vel", [
    ((0.0, 0.0, 3.0), (math.nan, 0.0, -1.0)),
    ((0.0, 0.0, 3.0), (math.inf, 0.0, -1.0)),
    ((0.0, 0.0, 3.0), (1e300, 0.0, -1.0)),
    ((0.0, math.nan, 3.0), (0.0, 0.0, -1.0)),
])
def test_bad_motion_raises(respond, pos, vel):
    with pytest.raises(ValueError):
        respond(_floor_world(), pos, vel)


@pytest.mark.parametrize("respond", RESPONSES)
def test_huge_finite_velocity_returns_finite_position(respond):
    # The swept box spans ~2.5e19 grid cells, more than len() of a range allows.
    res = respond(_floor_world(), (0.0, 0.0, 3.0), (1e20, 0.0, -1.0))
    assert all(math.isfinite(c) for c in res.final_pos)


def test_tiny_triangle_seen_through_large_radii():
    # 1e-5 edges become 1e-7 in sphere space: still a triangle, not degenerate.
    tri = Triangle((0.0, 0.0, 0.0), (1e-5, 0.0, 0.0), (0.0, 1e-5, 0.0))
    radii = EllipsoidRadii(100.0, 100.0, 100.0)
    res = sphere_sweep(EllipsoidWorldView(build_world([tri]), radii),
                       (0.0, 0.0, 1.5), (0.0, 0.0, -1.0))
    assert all(math.isfinite(c) for c in res.final_pos)
    sphere_tris = np.array([tri.vertices()]) / 100.0
    assert min_distance_to_mesh(res.final_pos, sphere_tris) >= 1.0 - 1e-6


def test_cli_rejects_overflowing_velocity(tmp_path, capsys):
    path = tmp_path / "fast.json"
    path.write_text(json.dumps({
        "mesh": {"builtin": "floor"},
        "start": [0.0, 0.0, 3.0],
        "velocity": [1e300, 0.0, -1.0],
        "frames": 1,
    }))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("start, culprit", [
    ([0.0, 0.0, 3.0], "start"),
    ([0.0, 0.0, 3e-300], "velocity of frame 0"),
])
def test_cli_names_radii_that_overflow_sphere_space(tmp_path, capsys, start, culprit):
    # Finite file values that a radius of 1e-300 makes overflow in sphere space.
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({
        "mesh": {"builtin": "floor"},
        "start": start,
        "velocity": [0.0, 0.0, -1.0],
        "radii": [1.0, 1.0, 1e-300],
        "frames": 2,
    }))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert culprit in err and "1e-300" in err


def test_cli_rejects_radii_that_widen_a_triangle(tmp_path, capsys):
    # The 200-wide floor divided by 1e-5 is 2e7 wide in sphere space.
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"mesh": {"builtin": "floor"}, "start": [0.0, 0.0, 3.0],
                                "velocity": [0.0, 0.0, -1.0], "radii": [1e-5, 1.0, 1.0]}))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: radii (1e-05, 1.0, 1.0) widen a triangle")


@pytest.mark.parametrize("change", [
    {"frames": None},
    {"epsilon": [0.01]},
    {"start": [None, 0.0, 3.0]},
    {"mesh": {"builtin": "floor", "size": "big"}},
    {"mesh": {"builtin": "random_soup", "n": 2.5}},
    {"mesh": {"builtin": []}},
    {"mesh": {"path": 0}},
])
def test_cli_rejects_mistyped_scenario_file(tmp_path, capsys, change):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({
        "mesh": {"builtin": "floor"},
        "start": [0.0, 0.0, 3.0],
        "velocity": [0.0, 0.0, -1.0],
        **change,
    }))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_builtin_mesh_checks_parameter_types():
    with pytest.raises(ValueError, match="'size' of 'floor' must be float"):
        builtin_mesh("floor", size="big")
    with pytest.raises(ValueError, match="'seed' of 'random_soup' must be int"):
        builtin_mesh("random_soup", seed=1.5)
    # An int stands in for a float and gives the same mesh.
    assert builtin_mesh("floor", size=100) == builtin_mesh("floor", size=100.0)


def _scenario(epsilon):
    return Scenario(name="s", mesh=MeshSource(builtin="floor"), start=(0.0, 0.0, 3.0),
                    velocity=(0.0, 0.0, -1.0), epsilon=epsilon)


STAND_OFF_OWNERS = [
    lambda v: ResponseConfig(very_close_dist=v),
    lambda v: LegacyConfig(very_close_dist=v),
    _scenario,
]


@pytest.mark.parametrize("make", STAND_OFF_OWNERS)
@pytest.mark.parametrize("value", [0.0, -1.0, 0.1, 0.5, math.nan])
def test_stand_off_rejected(make, value):
    with pytest.raises(ValueError):
        make(value)


@pytest.mark.parametrize("make", STAND_OFF_OWNERS)
@pytest.mark.parametrize("value", [0.005, 0.099])
def test_stand_off_accepted(make, value):
    make(value)


def test_runs_without_mpmath():
    code = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "import sweepslide.cli\n"
        "from sweepslide.verify import check_quadratic_oracle\n"
        "assert check_quadratic_oracle().passed\n"
    )
    src = str(Path(sweepslide.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr


def _run_file(tmp_path, capsys, raw) -> str:
    """``sweepslide run`` on *raw* written as JSON: asserts exit 2, returns stderr."""
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("coordinate", ["inf", "nan"])
def test_cli_rejects_a_non_finite_obj_vertex(tmp_path, capsys, coordinate):
    obj = tmp_path / "bad.obj"
    obj.write_text(f"v 0 1 0\nv {coordinate} 0 0\nv 1 0 0\nf 1 2 3\n")
    err = _run_file(tmp_path, capsys, {"mesh": {"path": str(obj)}, "start": [0.0, 0.0, 3.0],
                                       "velocity": [0.0, 0.0, -1.0]})
    assert f"{obj}:2: non-finite vertex" in err


FLOOR_DROP = {"mesh": {"builtin": "floor"}, "start": [0.0, 0.0, 3.0], "velocity": [0.0, 0.0, -1.0]}


@pytest.mark.parametrize("change, message", [
    ({"frames": 2.9}, "frames must be int, got 2.9"),
    ({"frames": "3"}, "frames must be int, got '3'"),
    ({"legacy_max_recursion": 5.0}, "legacy_max_recursion must be int, got 5.0"),
    ({"start": ["1", 0, 3]}, "start must be float and finite, got '1'"),
    ({"velocity": [0, 0, True]}, "velocity must be float and finite, got True"),
    ({"algorithm": 1}, "algorithm must be str, got 1"),
    ({"epsilon": 10 ** 400}, "epsilon must be float and finite, got 1000"),
    # Python's json writes and reads Infinity.
    ({"mesh": {"builtin": "floor", "size": math.inf}},
     "'size' of 'floor' must be float and finite, got inf"),
    ({"frame": 10}, "unknown scenario keys ['frame']; known: ['algorithm', 'epsilon', "
                    "'frames', 'legacy_max_recursion', 'mesh', 'name', 'radii', 'seed', "
                    "'start', 'velocity']"),
    ({"name": None}, "name must be str, got None"),
    ({"name": 7}, "name must be str, got 7"),
    ({"mesh": {"path": "t.obj", "builtin": "floor", "size": 3}},
     "a mesh with 'path' takes no other key, got ['builtin', 'size']"),
    ({"mesh": {"path": "t.obj", "extent": 3}},
     "a mesh with 'path' takes no other key, got ['extent']"),
])
def test_cli_applies_one_type_rule_to_scenario_values(tmp_path, capsys, change, message):
    assert message in _run_file(tmp_path, capsys, {**FLOOR_DROP, **change})


def test_cli_rejects_a_scenario_that_is_not_an_object(tmp_path, capsys):
    assert "must be a JSON object, got list" in _run_file(tmp_path, capsys, [FLOOR_DROP])


# --- radii that flatten a triangle in sphere space ---

def _flat_triangle_scenario(tmp_path):
    # (2, 1, 0) divided by a y radius of 1e13 is (2, 1e-13, 0): the sphere
    # space triangle is collinear.
    obj = tmp_path / "tri.obj"
    obj.write_text("v 0 0 0\nv 1 0 0\nv 2 1 0\nf 1 2 3\n")
    return {"mesh": {"path": str(obj)}, "start": [1.0, 0.0, 1.8],
            "velocity": [0.0, 0.0, -1.0], "radii": [1.0, 1e13, 1.0], "frames": 2}


def test_cli_rejects_radii_that_flatten_a_triangle(tmp_path, capsys):
    err = _run_file(tmp_path, capsys, _flat_triangle_scenario(tmp_path))
    assert "radii (1.0, 10000000000000.0, 1.0) flatten 1 triangle(s)" in err
    assert "the first at index 0" in err


def test_flattening_radii_fail_before_the_first_frame(tmp_path, monkeypatch):
    def no_frame(*args):
        raise AssertionError("a frame ran")

    monkeypatch.setattr(scenario_module, "sphere_sweep", no_frame)
    monkeypatch.setattr(scenario_module, "collide_with_world_legacy", no_frame)
    raw = _flat_triangle_scenario(tmp_path)
    sc = Scenario(name="flat", mesh=MeshSource(path=raw["mesh"]["path"]), start=tuple(raw["start"]),
                  velocity=tuple(raw["velocity"]), radii=EllipsoidRadii(*raw["radii"]),
                  frames=2, algorithm="both")
    with pytest.raises(ValueError, match="the first at index 0") as err:
        run_scenario(sc)
    assert not isinstance(err.value, DegenerateTriangleError)


@given(st.sampled_from(["floor", "box_room", "crease", "acute_corner", "obtuse_corner"]),
       st.integers(0, 2), st.floats(10.0, 14.0))
@settings(max_examples=150, deadline=None)
def test_run_rejects_exactly_the_radii_the_view_cannot_scale(kind, axis, exponent):
    # Squashing one axis by 1e10 .. 1e14 crosses Triangle's threshold for
    # some triangles of each mesh and not for others.
    scale = [1.0, 1.0, 1.0]
    scale[axis] = 10.0 ** exponent
    radii = EllipsoidRadii(*scale)
    mesh = MeshSource(builtin=kind)
    flattened = []
    for index, tri in enumerate(mesh.load()):
        try:
            triangle_to_sphere_space(tri, radii)
        except DegenerateTriangleError:
            flattened.append(index)
    # Far outside every mesh in sphere space, standing still.
    sc = Scenario(name=kind, mesh=mesh, start=tuple(1e3 * r for r in scale),
                  velocity=(0.0, 0.0, 0.0), radii=radii, frames=1, algorithm="improved")
    if flattened:
        with pytest.raises(ValueError, match=f"flatten {len(flattened)} triangle\\(s\\) "
                                             f".*the first at index {flattened[0]}$"):
            run_scenario(sc)
    else:
        assert len(run_scenario(sc)["improved"]) == 1


# --- triangles whose squares leave the float range ---

# |ac| is about 1e-162: its square, and with it Triangle's collinearity
# bound, underflows to 0, and the normal of the subnormal |ab x ac|^2 is
# 0.938 long.  The edge test divides by that square.
UNDERFLOW = ((0.0, 0.0, 2.0), (0.0, 4.0, 0.0), (0.0, 1.0425192009783493e-162, 2.0))
UNDERFLOW_SWEEP = ((1.8760816057430587, 0.0, 2.0), (-0.9380408028715294, 4.0, -2.0))
FAR = ((50.0, 50.0, 0.0), (54.0, 50.0, 0.0), (50.0, 54.0, 0.0))


def test_a_triangle_whose_squares_underflow_is_rejected():
    with pytest.raises(DegenerateTriangleError, match="squares leave the float range"):
        Triangle(*UNDERFLOW)
    assert triangle_normals(np.array([UNDERFLOW]))[1].tolist() == [False]
    with pytest.raises(ValueError, match="row 1 of the vertex block is no triangle"):
        build_world(np.array([FAR, UNDERFLOW]))


def test_cli_runs_an_obj_mesh_with_a_triangle_whose_squares_underflow(tmp_path, capsys):
    obj = tmp_path / "sliver.obj"
    obj.write_text("".join(f"v {x!r} {y!r} {z!r}\n" for x, y, z in FAR + UNDERFLOW)
                   + "f 1 2 3\nf 4 5 6\n")
    path = tmp_path / "scene.json"
    start, vel = UNDERFLOW_SWEEP
    path.write_text(json.dumps({"mesh": {"path": str(obj)}, "start": list(start),
                                "velocity": list(vel), "frames": 1, "algorithm": "both"}))
    assert main(["run", str(path)]) == 0
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    assert out.count("\n0,") == 2  # one frame per algorithm


@st.composite
def _scaled_triangles(draw):
    """A random triangle, or one with a short edge ``ac``, scaled by a power of ten."""
    coord = st.floats(-4.0, 4.0)
    a, b, c = (draw(st.tuples(coord, coord, coord)) for _ in range(3))
    if draw(st.booleans()):
        shrink = 10.0 ** draw(st.integers(-170, 0))
        c = tuple(ai + (ci - ai) * shrink for ai, ci in zip(a, c))
    size = 10.0 ** draw(st.integers(-170, 150))
    return tuple(tuple(x * size for x in v) for v in (a, b, c)), size


@given(_scaled_triangles(), st.tuples(*[st.floats(-1.0, 1.0)] * 3), st.floats(0.0, 3.0),
       st.tuples(*[st.floats(0.0, 1.0)] * 3), st.floats(0.0, 2.0), st.booleans())
@settings(max_examples=1000, deadline=None)
def test_scaled_triangles_are_judged_alike_and_never_crash_a_sweep(
        triangle, direction, gap, weights, speed, far):
    vertices, size = triangle
    try:
        tri = Triangle(*vertices)
    except DegenerateTriangleError:
        tri = None
    normals, accepted = triangle_normals(np.array([vertices]))
    assert accepted.tolist() == [tri is not None]
    if tri is None:
        return
    assert tuple(normals[0].tolist()) == tri.normal
    assert abs(norm(tri.normal) - 1.0) <= UNIT_TOLERANCE
    edges = (sub(tri.b, tri.a), sub(tri.c, tri.b), sub(tri.a, tri.c))
    assert all(dot(e, e) > 0.0 for e in edges)
    # From a point off the centroid (one unit, or the triangle's size, per
    # unit of gap) towards a point of the triangle.
    centroid = tuple(sum(v[i] for v in vertices) / 3.0 for i in range(3))
    reach = gap * (size if far else 1.0)
    start = tuple(p + d * reach for p, d in zip(centroid, direction))
    total = sum(weights) or 1.0
    target = tuple(sum(w * v[i] for w, v in zip(weights, vertices)) / total for i in range(3))
    vel = tuple((t - s) * speed for t, s in zip(target, start))
    sweep_unit_sphere_triangle(start, vel, tri)
    # The response takes only starts clear of the mesh, as run_scenario does.
    if size <= 1.0 and not far and distance(start, closest_point_on_triangle(start, tri)) >= 1.0:
        sphere_sweep(build_world([tri]), start, vel)
