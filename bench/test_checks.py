"""Tests of the benchmark's own distance routine and frame checks.

    python3 -m pytest -q bench/test_checks.py
"""

import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import Mesh, improved_frame_ok, penetrates, point_triangle_distance  # noqa: E402

A, B, C = (0.0, 0.0, 0.0), (4.0, 0.0, 0.0), (0.0, 4.0, 0.0)


@pytest.mark.parametrize("point, expected", [
    ((1.0, 1.0, 2.0), 2.0),                # face, above
    ((1.0, 2.0, -3.0), 3.0),               # face, below
    ((2.0, -1.0, 1.0), math.sqrt(2.0)),    # edge AB
    ((3.0, 3.0, 0.0), math.sqrt(2.0)),     # edge BC, in the plane
    ((-1.0, 2.0, 0.0), 1.0),               # edge CA
    ((-1.0, -1.0, 0.0), math.sqrt(2.0)),   # vertex A
    ((5.0, -1.0, 1.0), math.sqrt(3.0)),    # vertex B
    ((0.0, 6.0, 0.0), 2.0),                # vertex C
    ((1.0, 1.0, 0.0), 0.0),                # on the face
])
def test_point_triangle_distance_regions(point, expected):
    assert point_triangle_distance(point, A, B, C) == pytest.approx(expected, abs=1e-12)
    # The winding of the triangle does not matter.
    assert point_triangle_distance(point, A, C, B) == pytest.approx(expected, abs=1e-12)


def test_clearance_takes_the_nearest_triangle_and_ignores_far_ones():
    mesh = Mesh([(A, B, C), ((0.0, 0.0, 5.0), (4.0, 0.0, 5.0), (0.0, 4.0, 5.0))])
    assert mesh.clearance((1.0, 1.0, 4.2)) == pytest.approx(0.8)
    assert mesh.clearance((1.0, 1.0, 2.5)) == math.inf  # both farther than the reach
    assert mesh.scaled((1.0, 1.0, 2.0)).clearance((1.0, 1.0, 2.0)) == pytest.approx(0.5)


def _frame(pos, iterations=1):
    return SimpleNamespace(final_pos=pos, iterations=iterations)


def test_improved_frame_checks():
    mesh = Mesh([(A, B, C)])
    assert improved_frame_ok(_frame((1.0, 1.0, 1.005), 3), mesh)
    assert improved_frame_ok(_frame((1.0, 1.0, 1.0 - 1e-7)), mesh)  # within the tolerance
    assert not improved_frame_ok(_frame((1.0, 1.0, 1.005), 4), mesh)
    assert not improved_frame_ok(_frame((1.0, math.nan, 1.005)), mesh)
    # A known penetrating position: half a radius above the face.
    assert not improved_frame_ok(_frame((1.0, 1.0, 0.5)), mesh)
    assert penetrates((1.0, 1.0, 0.5), mesh)
    assert not penetrates((1.0, 1.0, 1.005), mesh)
