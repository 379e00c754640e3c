import hashlib
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


# SHA-256 of each report `sweepslide builtin KIND --algo both --format FMT
# --out KIND.FMT` writes.  A change that moves any of them must say why.
BUILTIN_REPORT_DIGESTS = {
    "acute_corner.improved.csv": "445c9a0f2483515c686bcdb8f47ce659be750095e273166693f808f01fa1bf9b",
    "acute_corner.improved.json": "60e72052b98e8b9d7ade5c72d59cc861f0e2085399db29d16b20539632a97b33",
    "acute_corner.legacy.csv": "66ef034f77377f1286a7728fc8aedfa343e0925068a868b8b7eb598a1b1bba7a",
    "acute_corner.legacy.json": "aea45804b5de78f44f8dfc0550849b86b135eacb37a758c80cca838f11327cdc",
    "box_room.improved.csv": "015ce74e5dcb5406fc8222ef5a820906adcf836dab59a5cd910038ee3a486d79",
    "box_room.improved.json": "5b1fa515e76466fc70f11c4725a349c3b40a02664c905e0f2738a70b62410536",
    "box_room.legacy.csv": "b1f3ec3f222b9c46d10f0c9a9fa846eaadc20feaa1365963e031a7f68256a3c6",
    "box_room.legacy.json": "b79f38801bea7027ca3181ccfa7b817b707d53f978c5f8b9955f7270be50901b",
    "crease.improved.csv": "df993284aab1c2ba242e3c4bf28ecb4b4b7d70cdf1d9850273eb233babbe3bbf",
    "crease.improved.json": "7aaf2780ac27eb5faecdbc9dcfac277102c608b692a0610baf8c8e9c0fbbe0e9",
    "crease.legacy.csv": "d0fa8b68747db902a21c2fd1a2c06f82376471e57ff09924d73c53b682f78c7b",
    "crease.legacy.json": "cff30885e182170555400d03963d40b8df3515883791b90cb3472ab5306f6c68",
    "floor.improved.csv": "f6965130b2023b970db0123d8c3c107bb04e04757aa1723b25226ce7dbb88921",
    "floor.improved.json": "d588c37eacfaca049ac8800deca5dacf7c7de3e40bc8d7661af6a689a79cf449",
    "floor.legacy.csv": "f6965130b2023b970db0123d8c3c107bb04e04757aa1723b25226ce7dbb88921",
    "floor.legacy.json": "d588c37eacfaca049ac8800deca5dacf7c7de3e40bc8d7661af6a689a79cf449",
    "obtuse_corner.improved.csv": "365feba65dfbc70f05c6435bd4b572f675ca39a2a028bd0bd6bc4bc9163a25bf",
    "obtuse_corner.improved.json": "e252409f377b5b633af08244173eacee130ada917cab649c7a503714c1f845d0",
    "obtuse_corner.legacy.csv": "52e508d97454b06454ce989260f3d296ca3314f6c4f4172f5fb0454ee6a2ffdf",
    "obtuse_corner.legacy.json": "9b32a552c9a554fa5352347863032e6701bfaefa5d2d17b88ca0aae9401161de",
    "random_soup.improved.csv": "3f6446cbaf3763168f744611905142653e1700453eb2dd682ff3edaef68351cf",
    "random_soup.improved.json": "ff50265036f2dfd7f57309c4a041edc875408dfdf1f7ad29021838334b2fdc33",
    "random_soup.legacy.csv": "738b8912b79898227e0f36f5430c15102ed373d44154c0fde3edb46f3a38e3d2",
    "random_soup.legacy.json": "d1e8ab315fdd278a8dc69ce93f37a70925c49dc6c301068ec7df6a609e44eca4",
}


def test_builtin_reports_are_byte_identical(tmp_path):
    for kind in sorted({name.split(".")[0] for name in BUILTIN_REPORT_DIGESTS}):
        for fmt in ("csv", "json"):
            assert main(["builtin", kind, "--algo", "both", "--format", fmt,
                         "--out", str(tmp_path / f"{kind}.{fmt}")]) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert written == BUILTIN_REPORT_DIGESTS


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
    assert "error: row 0 of the mesh is wider than MAX_TRIANGLE_EXTENT" in capsys.readouterr().err


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
