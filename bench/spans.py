"""Span tracing of the library's layers, wrapped from outside the library.

:class:`Tracer` swaps the public entry points of each module for wrappers
while it is installed, and puts the originals back when it is removed.
A span is a name, a start, an end and the index of its parent span; spans
stay in memory and are written out once, at the end.  The root span of each
tree is one request: a frame, or one ``run_scenario`` call.  Counts are
taken in the same wrappers, outside the timed part of each span.
"""

from __future__ import annotations

import cProfile
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import sweepslide as ss
from sweepslide import detect, ellipsoid, legacy, mesh, response, scenario, world

import workloads
from checks import Mesh

# core's arithmetic helpers, whose calls the profiled pass counts.
CORE_HELPERS = ("add", "sub", "scale", "dot", "cross", "norm", "norm_sq", "distance",
                "normalize", "signed_plane_distance")


class Tracer:
    """Spans and counters of one traced stretch of work."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]
        self._restore: list = []
        self.counts: dict[str, int] = {}
        self.problems: list[str] = []
        self._boxes: dict[int, tuple] = {}

    # --- recording -----------------------------------------------------

    def _call(self, name_id: int, fn, args, kwargs):
        index = len(self.parent)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(0)
        self.end.append(0)
        self._stack.append(index)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            self._stack.pop()
            self.start[index] = t0
            self.end[index] = t1

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _id(self, name: str) -> int:
        name_id = self.name_id.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        return name_id

    def _wrapper(self, name: str, fn, after=None, materialize=False):
        name_id = self._id(name)
        # The hooks' own time is a child span, so it is not counted as the
        # enclosing layer's self time.
        hook_id = self._id("trace.hooks")
        call = self._call
        if materialize:
            # Generators run to the end inside their span; every caller
            # consumes all candidates, so the results do not change.
            def target(*args, **kwargs):
                return list(fn(*args, **kwargs))
        else:
            target = fn

        def wrapper(*args, **kwargs):
            result = call(name_id, target, args, kwargs)
            if after is not None:
                call(hook_id, after, (args, result), {})
            return iter(result) if materialize else result

        return wrapper

    # --- installing ----------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Bind *replacement* wherever a library or benchmark module binds *original*."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "sweepslide" or mod_name.startswith("sweepslide.")
                                   or mod is workloads):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def _patch_function(self, original, name: str, **kw) -> None:
        self._rebind(original, self._wrapper(name, original, **kw))

    def _patch_counter(self, original, key: str) -> None:
        count = self._count

        def counted(*args, **kwargs):
            count(key)
            return original(*args, **kwargs)

        self._rebind(original, counted)

    def _patch_method(self, cls, attr: str, name: str, **kw) -> None:
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(name, original, **kw))

    @contextmanager
    def installed(self):
        self._patch_method(world.World, "query_candidates", "world.query", after=self._after_query)
        self._patch_method(world.World, "candidates", "world.candidates", materialize=True)
        self._patch_function(world.build_world, "world.build")
        self._patch_function(detect.check_collision, "detect.check_collision")
        self._patch_function(detect.sweep_unit_sphere_triangle, "detect.narrowphase",
                             after=self._after_narrowphase)
        self._patch_method(ellipsoid.EllipsoidWorldView, "candidates", "ellipsoid.view",
                           materialize=True, after=self._after_view)
        self._patch_counter(ellipsoid.triangle_to_sphere_space, "ellipsoid.transforms")
        self._patch_function(response.sphere_sweep, "response.sphere_sweep",
                             after=self._after_sweep)
        self._patch_function(legacy.collide_with_world_legacy, "legacy.collide",
                             after=self._after_legacy)
        self._patch_function(scenario.run_scenario, "scenario.run")
        self._patch_function(scenario.min_distance_to_mesh, "scenario.audit",
                             after=self._after_audit)
        self._patch_function(scenario.report, "scenario.report", after=self._after_report)
        self._patch_function(scenario.summarize, "scenario.summarize")
        self._patch_function(mesh.builtin_mesh, "mesh.builtin")
        self._patch_function(mesh.load_obj_mesh, "mesh.load_obj")
        self._patch_function(workloads.terrain_triangles, "mesh.terrain")
        try:
            yield self
        finally:
            for owner, attr, value in reversed(self._restore):
                setattr(owner, attr, value)
            self._restore.clear()
            self._boxes.clear()

    # --- counts taken at the layer boundaries --------------------------

    def _after_query(self, args, result) -> None:
        grid, (lo, hi) = args
        key = id(grid)
        if key not in self._boxes:
            # The world is kept so its id cannot be reused while traced.
            self._boxes[key] = (grid, Mesh([(t.a, t.b, t.c) for t in grid.triangles]))
        exact = self._boxes[key][1].overlapping(lo, hi)
        self._count("world.candidates", len(result))
        self._count("world.overlapping", len(exact))
        if not set(exact.tolist()) <= set(result):
            self.problems.append(f"broadphase query {lo}..{hi} missed overlapping triangles")

    def _after_narrowphase(self, args, result) -> None:
        source, vel, tri = args
        n, a = tri.normal, tri.a
        d0 = n[0] * (source[0] - a[0]) + n[1] * (source[1] - a[1]) + n[2] * (source[2] - a[2])
        d1 = d0 + n[0] * vel[0] + n[1] * vel[1] + n[2] * vel[2]
        self._count("detect.slab_rejectable", (d0 > 1.0 and d1 > 1.0) or (d0 < -1.0 and d1 < -1.0))
        self._count("detect.hits", result is not None)

    def _after_view(self, args, result) -> None:
        if not args[0].radii.is_unit:
            self._count("ellipsoid.scaled_candidates", len(result))

    def _after_sweep(self, args, result) -> None:
        _, pos, vel, cfg = (args + (ss.ResponseConfig(),))[:4]
        self._count("response.frames")
        self._count("response.iterations", result.iterations)
        self._count("response.frames_3_iterations", result.iterations == 3)
        # The README's snag proxy, in sphere space: motion was commanded
        # but the sphere moved less than a tenth of it.
        speed = _length(vel)
        moved = _length(tuple(p - q for p, q in zip(result.final_pos, pos)))
        self._count("response.snags", speed > 10.0 * cfg.very_close_dist and moved < 0.1 * speed)

    def _after_legacy(self, args, result) -> None:
        self._count("legacy.frames")
        self._count("legacy.iterations", result.iterations)

    def _after_audit(self, args, result) -> None:
        self._count("scenario.audit_triangles", args[1].shape[0])

    def _after_report(self, args, result) -> None:
        self._count("scenario.report_frames", len(args[0]))

    # --- results ---------------------------------------------------------

    def by_name(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: call count, total time and total self time, in seconds."""
        n = len(self.parent)
        start = np.frombuffer(self.start, dtype=np.int64)[:n]
        end = np.frombuffer(self.end, dtype=np.int64)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n]
        names = np.frombuffer(self.span_name, dtype=np.int32)[:n]
        duration = (end - start).astype(float)
        children = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(children, parent[has_parent], duration[has_parent])
        out = {}
        for i, name in enumerate(self.names):
            mask = names == i
            out[name] = (int(mask.sum()), duration[mask].sum() / 1e9,
                         (duration[mask] - children[mask]).sum() / 1e9)
        return out

    def save(self, path: Path) -> None:
        n = len(self.parent)
        np.savez_compressed(path, names=np.array(self.names),
                            name=np.frombuffer(self.span_name, dtype=np.int32)[:n],
                            start_ns=np.frombuffer(self.start, dtype=np.int64)[:n],
                            end_ns=np.frombuffer(self.end, dtype=np.int64)[:n],
                            parent=np.frombuffer(self.parent, dtype=np.int32)[:n])


def _length(v) -> float:
    return (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]) ** 0.5


def core_calls(fn) -> int:
    """Exact number of calls into core's arithmetic helpers while *fn* runs."""
    profile = cProfile.Profile()
    profile.runcall(fn)
    profile.create_stats()
    core_file = Path(ss.core.__file__).resolve()
    return sum(nc for (filename, _, func), (_, nc, *_) in profile.stats.items()
               if func in CORE_HELPERS and Path(filename).resolve() == core_file)
