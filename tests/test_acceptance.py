"""Acceptance suite: one test per criterion, each printing its PASS/FAIL line.

All ten read the same ``sweepslide verify`` run (10,000 fuzzed frames,
seed 2024), made once per session by the ``verify_run`` fixture in
``conftest.py``.  Run with ``pytest -s tests/test_acceptance.py`` to see
the per-criterion lines.
"""


def _report(verify_run, name: str):
    _, out = verify_run
    lines = [line for line in out.splitlines() if line.split(" ", 2)[1:2] == [f"{name}:"]]
    assert len(lines) == 1, out
    print(lines[0])
    assert lines[0].startswith("PASS "), lines[0]


def test_criterion_01_iteration_bounds(verify_run):
    _report(verify_run, "iteration-bounds")


def test_criterion_02_no_penetration(verify_run):
    _report(verify_run, "no-penetration")


def test_criterion_03_freeze_reproduction(verify_run):
    _report(verify_run, "freeze-reproduction")


def test_criterion_04_jitter_reproduction(verify_run):
    _report(verify_run, "jitter-reproduction")


def test_criterion_05_crease_confinement(verify_run):
    _report(verify_run, "crease-confinement")


def test_criterion_06_one_plane_projection(verify_run):
    _report(verify_run, "one-plane-projection")


def test_criterion_07_detection_oracle(verify_run):
    _report(verify_run, "detection-oracle")


def test_criterion_08_broadphase_soundness(verify_run):
    _report(verify_run, "broadphase-soundness")


def test_criterion_09_quadratic_robustness(verify_run):
    _report(verify_run, "quadratic-robustness")


def test_criterion_10_ellipsoid_roundtrip(verify_run):
    _report(verify_run, "ellipsoid-roundtrip")
