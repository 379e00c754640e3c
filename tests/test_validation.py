"""Input checks shared by both responses, the configs and the scenario loader."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import sweepslide
from sweepslide.cli import main
from sweepslide.core import Triangle
from sweepslide.ellipsoid import EllipsoidRadii, EllipsoidWorldView
from sweepslide.legacy import LegacyConfig, collide_with_world_legacy
from sweepslide.mesh import builtin_mesh
from sweepslide.response import ResponseConfig, sphere_sweep
from sweepslide.scenario import MeshSource, Scenario, mesh_array, min_distance_to_mesh
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
    sphere_tris = mesh_array([tri]) / 100.0
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
