import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import sweepslide
from sweepslide.cli import main
from sweepslide.scenario import REPORT_COLUMNS


def test_builtin_floor_csv_to_stdout(capsys):
    assert main(["builtin", "floor", "--frames", "2"]) == 0
    out = capsys.readouterr()
    lines = out.out.strip().split("\n")
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert len(lines) == 3
    assert "[floor/improved]" in out.err


def test_builtin_both_writes_two_files(tmp_path, capsys):
    out_path = tmp_path / "corner.csv"
    rc = main(["builtin", "obtuse_corner", "--frames", "3", "--algo", "both",
               "--out", str(out_path)])
    assert rc == 0
    improved = tmp_path / "corner.improved.csv"
    legacy = tmp_path / "corner.legacy.csv"
    assert improved.exists() and legacy.exists()
    assert improved.read_text().startswith(",".join(REPORT_COLUMNS))
    captured = capsys.readouterr()
    assert "[obtuse_corner/improved]" in captured.out
    assert "[obtuse_corner/legacy]" in captured.out


def test_builtin_json_format(capsys):
    assert main(["builtin", "floor", "--frames", "2", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2
    assert set(rows[0]) == set(REPORT_COLUMNS)


def test_run_scenario_file(tmp_path, capsys):
    scenario = {
        "name": "drop",
        "mesh": {"builtin": "floor"},
        "start": [0.0, 0.0, 3.0],
        "velocity": [0.0, 0.0, -3.0],
        "frames": 2,
    }
    path = tmp_path / "drop.json"
    path.write_text(json.dumps(scenario))
    out_path = tmp_path / "drop.csv"
    assert main(["run", str(path), "--out", str(out_path)]) == 0
    assert out_path.read_text().startswith(",".join(REPORT_COLUMNS))
    assert "[drop/improved]" in capsys.readouterr().out


def test_run_output_deterministic(tmp_path):
    scenario = {
        "name": "soup",
        "mesh": {"builtin": "random_soup", "n": 30, "seed": 9},
        "start": [0.0, 0.0, 14.0],
        "velocity": [0.3, -0.2, -2.0],
        "frames": 5,
    }
    path = tmp_path / "soup.json"
    path.write_text(json.dumps(scenario))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", str(path), "--out", str(a)]) == 0
    assert main(["run", str(path), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_unknown_builtin_errors(capsys):
    assert main(["builtin", "donut"]) == 2
    assert "no builtin scenario" in capsys.readouterr().err


def test_seed_is_a_mesh_parameter(capsys):
    # Only random_soup has a seed; elsewhere it fails like any unknown parameter.
    assert main(["builtin", "floor", "--seed", "3"]) == 2
    assert "unknown parameters for 'floor': ['seed']" in capsys.readouterr().err
    assert main(["builtin", "random_soup", "--seed", "3", "--frames", "1"]) == 0


def test_grid_too_large_to_build_errors(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"mesh": {"builtin": "floor", "size": 1e10},
                                "start": [0, 0, 3], "velocity": [0, 0, -1]}))
    assert main(["run", str(path)]) == 2
    assert "error: the grid would hold" in capsys.readouterr().err


def test_mesh_overflowing_in_sphere_space_errors(tmp_path, capsys):
    # The floor divided by a radius of 1e-300 is finite, but the audit's
    # products of its coordinates are not.
    path = tmp_path / "thin.json"
    path.write_text(json.dumps({"mesh": {"builtin": "floor"}, "start": [0, 0, 3],
                                "velocity": [0, 0, -1], "radii": [1e-300, 1, 1]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "mesh overflows" in err and "(1e-300, 1.0, 1.0)" in err


def test_missing_scenario_file_errors(capsys):
    assert main(["run", "/does/not/exist.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_subcommand_passes(verify_run):
    # The session's one verify run, which test_acceptance also reads.
    code, out = verify_run
    assert code == 0
    assert out.count("PASS") == 10
    assert "FAIL" not in out
    assert "10/10 checks passed" in out


def test_verify_without_trials_errors(capsys):
    # No fuzz frames would pass the corpus checks vacuously.
    for trials in ("0", "-3"):
        assert main(["verify", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: verify needs at least one trial, got {trials}\n"


def test_module_entry_point_smoke():
    # The child imports the same package as this process, installed or not.
    package_root = str(Path(sweepslide.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "sweepslide", "builtin", "floor", "--frames", "1"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith(",".join(REPORT_COLUMNS))
