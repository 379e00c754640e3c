"""Swept-sphere and ellipsoid collide-and-slide against static triangle meshes.

The library moves a unit sphere (or, via coordinate scaling, an
axis-aligned ellipsoid) through a triangle soup one frame at a time,
sliding along whatever it touches.  Two response algorithms are included:
:func:`sphere_sweep`, which remembers its sliding planes and provably stops
within three iterations without ever entering the mesh, and
:func:`collide_with_world_legacy`, the classic recursive formulation kept
around specifically because its corner jitter and acute-corner freeze are
worth reproducing and measuring.
"""

from .core import (
    DegenerateTriangleError,
    DegenerateVectorError,
    Plane,
    Triangle,
    Vec3,
    normalize,
    robust_quadratic_roots,
    signed_plane_distance,
)
from .detect import SweepHit, check_collision, sweep_unit_sphere_triangle
from .ellipsoid import (
    EllipsoidRadii,
    EllipsoidWorldView,
    from_sphere_space,
    to_sphere_space,
)
from .legacy import LegacyConfig, collide_with_world_legacy
from .mesh import MeshParseError, builtin_mesh, load_obj_mesh
from .response import FrameResult, ResponseConfig, sphere_sweep
from .scenario import (
    MeshSource,
    Scenario,
    TrajectoryRecord,
    builtin_scenario,
    load_scenario,
    report,
    run_scenario,
    summarize,
)
from .world import World, build_world

__version__ = "0.1.0"

__all__ = [
    "DegenerateTriangleError",
    "DegenerateVectorError",
    "EllipsoidRadii",
    "EllipsoidWorldView",
    "FrameResult",
    "LegacyConfig",
    "MeshParseError",
    "MeshSource",
    "Plane",
    "ResponseConfig",
    "Scenario",
    "SweepHit",
    "TrajectoryRecord",
    "Triangle",
    "Vec3",
    "World",
    "build_world",
    "builtin_mesh",
    "builtin_scenario",
    "check_collision",
    "collide_with_world_legacy",
    "from_sphere_space",
    "load_obj_mesh",
    "load_scenario",
    "normalize",
    "report",
    "robust_quadratic_roots",
    "run_scenario",
    "signed_plane_distance",
    "sphere_sweep",
    "summarize",
    "sweep_unit_sphere_triangle",
    "to_sphere_space",
]
