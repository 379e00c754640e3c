"""The benchmark's workloads: inputs from a seed, set-up, and one round of each segment.

Every workload runs three segments, each in whole rounds of fixed work:

* improved -- ``sphere_sweep`` frames, each timed on its own;
* legacy -- ``collide_with_world_legacy`` on the same frames as improved
  (scenario_suite: the scenarios' own legacy runs, as ``run_scenario`` does);
* scenario -- ``run_scenario`` plus ``report`` and ``summarize``, the CLI's path.

Load is a closed loop: one caller steps frames back to back and each frame
waits for the one before.  The library sees only the generated inputs.
Views are made afresh before each round, so every round starts from the
same empty transform caches and repeats the same work.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import sweepslide as ss

from checks import START_CLEARANCE, Mesh, improved_frame_ok, penetrates

UNIT = (1.0, 1.0, 1.0)
LEGACY_CAP = 5


@dataclass
class Env:
    """What set-up builds: meshes, their worlds, and the entities' views.

    The views are built so that set-up time includes their construction;
    rounds build fresh ones, so each round starts with empty caches.
    """

    meshes: list
    worlds: list
    views: list = field(default_factory=list)


@dataclass
class Round:
    """One round of a segment: comparable outputs, frame count and wall time."""

    outputs: list
    frames: int
    seconds: float
    frame_us: array = field(default_factory=lambda: array("d"))


@dataclass
class Verdict:
    failed: int
    legacy_penetrations: int
    problems: list


def _timed(fn, world, pos, vel, cfg, times: array):
    t0 = perf_counter()
    result = fn(world, pos, vel, cfg)
    times.append((perf_counter() - t0) * 1e6)
    return result


def _scale(v, s):
    return (v[0] * s, v[1] * s, v[2] * s)


def _to_sphere(v, radii):
    return (v[0] / radii[0], v[1] / radii[1], v[2] / radii[2])


def _speed(v) -> float:
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def _random_unit(rng: random.Random):
    while True:
        v = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        n = _speed(v)
        if n > 1e-6:
            return _scale(v, 1.0 / n)


def _vertices(triangles):
    return [(t.a, t.b, t.c) for t in triangles]


def _clear_point(rng: random.Random, mesh: Mesh, lo, hi):
    while True:
        p = tuple(rng.uniform(lo[k], hi[k]) for k in range(3))
        if mesh.clearance(p) >= START_CLEARANCE:
            return p


class Workload:
    """Base class: subclasses fill the inputs that :meth:`check` walks over.

    ``improved_meshes`` and ``legacy_meshes`` hold, for each frame of a
    round in order, the mesh in that frame's sphere space; ``legacy_caps``
    the legacy recursion cap; ``scripts`` the scenarios with their
    commanded speeds and sphere-space meshes.
    """

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.seed = seed
        self.workdir = workdir
        self.scripts: list = []

    def setup(self) -> Env:
        raise NotImplementedError

    def prepare(self, env: Env) -> None:
        raise NotImplementedError

    def replay_from(self, improved_outputs: list) -> None:
        """Take the legacy segment's inputs from the reference improved round."""

    def improved(self, env: Env) -> Round:
        raise NotImplementedError

    def legacy(self, env: Env) -> Round:
        raise NotImplementedError

    def scenarios(self, env: Env) -> Round:
        run, report, summarize = ss.run_scenario, ss.report, ss.summarize
        outputs = []
        frames = 0
        t0 = perf_counter()
        for scenario, speeds, _ in self.scripts:
            for algo, records in run(scenario).items():
                outputs.append((scenario.name, algo, records, report(records, "csv"),
                                summarize(records, scenario.epsilon, speeds)))
                frames += len(records)
        return Round(outputs, frames, perf_counter() - t0)

    def behaviour_problems(self, scenario_outputs: list) -> list:
        return []

    def close(self) -> None:
        """Remove the files the inputs were written to."""

    def check(self, improved: Round, legacy: Round, scenarios: Round) -> Verdict:
        """Check one cycle's outputs against the improved and legacy guarantees."""
        failed = 0
        penetrations = 0
        for result, mesh in zip(improved.outputs, self.improved_meshes, strict=True):
            failed += not improved_frame_ok(result, mesh)
        for result, mesh, cap in zip(legacy.outputs, self.legacy_meshes, self.legacy_caps,
                                     strict=True):
            if result.iterations > cap:
                failed += 1
            elif penetrates(result.final_pos, mesh):
                penetrations += 1  # expected: legacy keeps its faults on purpose
        scripts = {scenario.name: (scenario, mesh) for scenario, _, mesh in self.scripts}
        for name, algo, records, _, _ in scenarios.outputs:
            scenario, mesh = scripts[name]
            radii = scenario.radii.as_tuple()
            for record in records:
                if algo == "improved":
                    result = _FrameView(_to_sphere(record.position, radii), record.iterations)
                    failed += not improved_frame_ok(result, mesh)
                else:
                    failed += record.iterations > scenario.legacy_max_recursion
        return Verdict(failed, penetrations, self.behaviour_problems(scenarios.outputs))


@dataclass(frozen=True)
class _FrameView:
    final_pos: tuple
    iterations: int


def _script(scenario, radii, mesh: Mesh):
    speeds = [_speed(scenario.velocity_for_frame(f)) for f in range(scenario.frames)]
    return scenario, speeds, mesh.scaled(radii)


class SoupFuzz(Workload):
    """The acceptance fuzz corpus: 10 random soups of 40 triangles each."""

    name = "soup_fuzz"
    SOUPS = 10
    TRIANGLES = 40
    EXTENT = 8.0
    SOUP_SEED = 1000  # the soups of the acceptance corpus
    FRAMES = 2000
    SCRIPT_FRAMES = 60

    def _soup_params(self, w: int) -> dict:
        return dict(n=self.TRIANGLES, seed=self.SOUP_SEED + w, extent=self.EXTENT)

    def setup(self) -> Env:
        meshes = [ss.builtin_mesh("random_soup", **self._soup_params(w)) for w in range(self.SOUPS)]
        return Env(meshes, [ss.build_world(m) for m in meshes])

    def prepare(self, env: Env) -> None:
        rng = self.rng
        box = ((-self.EXTENT,) * 3, (self.EXTENT,) * 3)
        meshes = [Mesh(_vertices(m)) for m in env.meshes]
        self.frames = []
        for i in range(self.FRAMES):
            w = i % self.SOUPS
            pos = _clear_point(rng, meshes[w], *box)
            if rng.random() < 0.5:
                # Aim at a random point of a random triangle.
                tri = env.meshes[w][rng.randrange(self.TRIANGLES)]
                weights = [rng.random() for _ in range(3)]
                total = sum(weights)
                target = tuple(sum(wt * v[axis] for wt, v in zip(weights, (tri.a, tri.b, tri.c)))
                               / total for axis in range(3))
                vel = _scale(tuple(t - p for t, p in zip(target, pos)), rng.uniform(0.5, 2.0))
            else:
                vel = _scale(_random_unit(rng), rng.uniform(0.0, 6.0))
            self.frames.append((w, pos, vel))
        self.improved_meshes = [meshes[w] for w, _, _ in self.frames]
        self.legacy_meshes = self.improved_meshes
        self.legacy_caps = [LEGACY_CAP] * self.FRAMES
        for w in range(self.SOUPS):
            scenario = ss.Scenario(
                name=f"soup{w}",
                mesh=ss.MeshSource(builtin="random_soup", params=self._soup_params(w)),
                start=_clear_point(rng, meshes[w], *box),
                velocity=[_scale(_random_unit(rng), rng.uniform(0.2, 2.0))
                          for _ in range(self.SCRIPT_FRAMES)],
                frames=self.SCRIPT_FRAMES,
                algorithm="both",
            )
            self.scripts.append(_script(scenario, UNIT, meshes[w]))

    def improved(self, env: Env) -> Round:
        sweep, cfg, worlds = ss.sphere_sweep, ss.ResponseConfig(), env.worlds
        times = array("d")
        t0 = perf_counter()
        outputs = [_timed(sweep, worlds[w], pos, vel, cfg, times) for w, pos, vel in self.frames]
        return Round(outputs, len(outputs), perf_counter() - t0, times)

    def legacy(self, env: Env) -> Round:
        collide, worlds = ss.collide_with_world_legacy, env.worlds
        cfg = ss.LegacyConfig(max_recursion=LEGACY_CAP)
        t0 = perf_counter()
        outputs = [collide(worlds[w], pos, vel, cfg) for w, pos, vel in self.frames]
        return Round(outputs, len(outputs), perf_counter() - t0)


def terrain_triangles(heights: list, grid: int) -> list:
    """Two triangles per unit quad of a ``grid`` x ``grid`` heightfield."""
    tris = []
    for i in range(grid):
        row, nxt = heights[i], heights[i + 1]
        for j in range(grid):
            a = (float(i), float(j), row[j])
            b = (i + 1.0, float(j), nxt[j])
            c = (i + 1.0, j + 1.0, nxt[j + 1])
            d = (float(i), j + 1.0, row[j + 1])
            tris.append(ss.Triangle(a, b, c))
            tris.append(ss.Triangle(a, c, d))
    return tris


def write_obj(path: Path, heights: list, grid: int) -> None:
    """The heightfield as an OBJ file whose faces match :func:`terrain_triangles`."""
    lines = [f"v {float(i)!r} {float(j)!r} {heights[i][j]!r}"
             for i in range(grid + 1) for j in range(grid + 1)]
    for i in range(grid):
        for j in range(grid):
            a, b = i * (grid + 1) + j + 1, (i + 1) * (grid + 1) + j + 1
            lines.append(f"f {a} {b} {b + 1}")
            lines.append(f"f {a} {b + 1} {a + 1}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TerrainCrowd(Workload):
    """A crowd of ellipsoids walking a tessellated heightfield under gravity."""

    name = "terrain_crowd"
    GRID = 100  # 20,000 triangles on unit quads
    ENTITIES = 256
    STEPS = 3  # crowd steps per round: 768 entity-frames
    WALK_FRAMES = 40  # frames of the scripted walker
    RADII = ((1.0, 1.0, 1.0), (0.6, 0.6, 1.0), (0.8, 0.8, 1.8), (1.5, 1.5, 1.2))
    GRAVITY = 0.25  # world units fallen per frame
    STANDOFF = 0.02  # sphere-space gap above the ground at the start
    MARGIN = 12.0

    # (amplitude, cycles along x, cycles along y) over the whole field; the
    # seed sets only the phases and the noise, so every seed has the same
    # slopes and roughness.
    WAVES = ((1.0, 1, 2), (0.8, 3, 1), (0.6, 2, 4), (0.4, 4, 3))
    NOISE = 0.2

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng, g = self.rng, self.GRID
        waves = [(amp, fx, fy, rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
                 for amp, fx, fy in self.WAVES]
        self.heights = [
            [sum(amp * math.sin(2 * math.pi * fx * i / g + px) * math.cos(2 * math.pi * fy * j / g + py)
                 for amp, fx, fy, px, py in waves) + rng.uniform(0.0, self.NOISE)
             for j in range(g + 1)]
            for i in range(g + 1)
        ]
        self.entity_radii = [self.RADII[e % len(self.RADII)] for e in range(self.ENTITIES)]

    def _surface(self, x: float, y: float) -> float:
        """Height of the terrain's triangle under ``(x, y)``."""
        i, j = int(x), int(y)
        fx, fy = x - i, y - j
        h = self.heights
        if fx >= fy:
            return h[i][j] + fx * (h[i + 1][j] - h[i][j]) + fy * (h[i + 1][j + 1] - h[i + 1][j])
        return h[i][j] + fy * (h[i][j + 1] - h[i][j]) + fx * (h[i + 1][j + 1] - h[i][j + 1])

    def setup(self) -> Env:
        tris = terrain_triangles(self.heights, self.GRID)
        world = ss.build_world(tris)
        views = [ss.EllipsoidWorldView(world, ss.EllipsoidRadii(*r)) for r in self.entity_radii]
        return Env([tris], [world], views)

    def _walker(self, rng, meshes, radii, frames):
        """A start standing on the ground and *frames* world-space walking velocities.

        The start height is found by bisection on the benchmark's own
        clearance, between the surface (inside) and a clear height above it.
        """
        lo, hi = self.MARGIN, self.GRID - self.MARGIN
        x, y = rng.uniform(lo, hi), rng.uniform(lo, hi)
        mesh = meshes[radii]

        def clear(z):
            return mesh.clearance(_to_sphere((x, y, z), radii)) >= START_CLEARANCE

        inside = self._surface(x, y)
        above = inside + radii[2] + 1.0
        while not clear(above):
            above += 0.5
        for _ in range(14):
            mid = 0.5 * (inside + above)
            inside, above = (inside, mid) if clear(mid) else (mid, above)
        z = above + self.STANDOFF * radii[2]
        while not clear(z):
            z += self.STANDOFF * radii[2]
        heading, turn = rng.uniform(0, 2 * math.pi), rng.uniform(-0.15, 0.15)
        speed = rng.uniform(0.15, 0.45)
        vels = [(speed * math.cos(heading + k * turn), speed * math.sin(heading + k * turn),
                 -self.GRAVITY) for k in range(frames)]
        return (x, y, z), vels

    def prepare(self, env: Env) -> None:
        rng = self.rng
        world_mesh = Mesh(_vertices(env.meshes[0]))
        meshes = {r: world_mesh.scaled(r) for r in self.RADII}
        starts, vels = [], []
        for radii in self.entity_radii:
            start, walk = self._walker(rng, meshes, radii, self.STEPS)
            starts.append(_to_sphere(start, radii))
            vels.append([_to_sphere(v, radii) for v in walk])
        self.starts = starts
        self.step_vels = [[vels[e][k] for e in range(self.ENTITIES)] for k in range(self.STEPS)]
        self.improved_meshes = [meshes[r] for _ in range(self.STEPS) for r in self.entity_radii]
        self.legacy_meshes = self.improved_meshes
        self.legacy_caps = [LEGACY_CAP] * len(self.legacy_meshes)

        radii = self.RADII[2]
        start, walk = self._walker(rng, meshes, radii, self.WALK_FRAMES)
        self.obj_path = self.workdir / f"terrain-{self.seed}.obj"
        write_obj(self.obj_path, self.heights, self.GRID)
        walker = ss.Scenario(name="walker", mesh=ss.MeshSource(path=str(self.obj_path)),
                             start=start, velocity=walk, frames=self.WALK_FRAMES,
                             radii=ss.EllipsoidRadii(*radii), algorithm="both")
        self.scripts.append(_script(walker, radii, world_mesh))

    def replay_from(self, improved_outputs: list) -> None:
        positions = list(self.starts)
        self.legacy_frames = []
        for k in range(self.STEPS):
            for e, vel in enumerate(self.step_vels[k]):
                self.legacy_frames.append((e, positions[e], vel))
                positions[e] = improved_outputs[k * self.ENTITIES + e].final_pos

    def _fresh_views(self, env: Env) -> list:
        return [ss.EllipsoidWorldView(env.worlds[0], ss.EllipsoidRadii(*r)) for r in self.entity_radii]

    def improved(self, env: Env) -> Round:
        sweep, cfg = ss.sphere_sweep, ss.ResponseConfig()
        views = self._fresh_views(env)
        positions = list(self.starts)
        outputs = []
        times = array("d")
        t0 = perf_counter()
        for vels in self.step_vels:
            for e, vel in enumerate(vels):
                result = _timed(sweep, views[e], positions[e], vel, cfg, times)
                positions[e] = result.final_pos
                outputs.append(result)
        return Round(outputs, len(outputs), perf_counter() - t0, times)

    def legacy(self, env: Env) -> Round:
        collide, cfg = ss.collide_with_world_legacy, ss.LegacyConfig(max_recursion=LEGACY_CAP)
        views = self._fresh_views(env)
        t0 = perf_counter()
        outputs = [collide(views[e], pos, vel, cfg) for e, pos, vel in self.legacy_frames]
        return Round(outputs, len(outputs), perf_counter() - t0)

    def close(self) -> None:
        self.obj_path.unlink(missing_ok=True)


class ScenarioSuite(Workload):
    """Every builtin scenario plus walkers in a fixed dense soup, both algorithms.

    The suite is a fixed script, like the builtin scenarios it runs: its
    inputs do not depend on the seed.  Seeded walker paths through the soup
    made the work of a run differ by about a tenth from seed to seed, more
    than the host's own noise, so the spread on this workload is the
    host's alone.
    """

    name = "scenario_suite"
    BUILTINS = ("floor", "obtuse_corner", "acute_corner", "crease", "box_room", "random_soup")
    DENSE = dict(n=3000, seed=7, extent=30.0)
    LOOPS = (((-4.0, 3.0, 2.0), 0.0), ((5.0, -4.0, -3.0), math.pi))  # (centre, phase)
    WALK_FRAMES = 100
    WALKER_RADII = (1.0, 1.0, 1.5)

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.builtins = [ss.builtin_scenario(k, algorithm="both") for k in self.BUILTINS]
        self.sources = [s.mesh for s in self.builtins] + [
            ss.MeshSource(builtin="random_soup", params=self.DENSE)]

    def setup(self) -> Env:
        meshes = [source.load() for source in self.sources]
        worlds = [ss.build_world(m) for m in meshes]
        radii = [s.radii for s in self.builtins] + [ss.EllipsoidRadii(*self.WALKER_RADII)]
        views = [ss.EllipsoidWorldView(w, r) for w, r in zip(worlds, radii) for _ in range(2)]
        return Env(meshes, worlds, views)

    def _walker(self, rng, k: int, sphere_mesh: Mesh):
        """Walker *k* loops round a fixed centre of the soup."""
        radii = self.WALKER_RADII
        centre, phase = self.LOOPS[k]
        while True:
            start = tuple(c + rng.uniform(-1.0, 1.0) for c in centre)
            if sphere_mesh.clearance(_to_sphere(start, radii)) >= START_CLEARANCE:
                break
        # A wobbly loop of about six units' radius keeps the walker inside the soup.
        vels = []
        for f in range(self.WALK_FRAMES):
            angle = phase + 2 * math.pi * f / 40
            wobble = _scale(_random_unit(rng), 0.2)
            vels.append((math.cos(angle) + wobble[0], math.sin(angle) + wobble[1],
                         0.3 * math.sin(2 * angle) + wobble[2]))
        return ss.Scenario(name=f"dense_soup{k}", mesh=self.sources[-1], start=start,
                           velocity=vels, frames=self.WALK_FRAMES,
                           radii=ss.EllipsoidRadii(*radii), algorithm="both")

    def prepare(self, env: Env) -> None:
        meshes = [Mesh(_vertices(m)) for m in env.meshes]
        dense = meshes[-1].scaled(self.WALKER_RADII)
        rng = random.Random(f"{self.name}:walkers")
        walkers = [self._walker(rng, k, dense) for k in range(len(self.LOOPS))]
        self.all = self.builtins + walkers
        mesh_index = list(range(len(self.builtins))) + [len(self.sources) - 1] * len(walkers)
        self.scripts = []
        self.runs = []  # (world index, radii, sphere start, sphere velocities, epsilon, cap)
        self.improved_meshes = []
        self.legacy_caps = []
        for scenario, i in zip(self.all, mesh_index):
            r = scenario.radii.as_tuple()
            self.scripts.append(_script(scenario, r, meshes[i]))
            vels = [_to_sphere(scenario.velocity_for_frame(f), r) for f in range(scenario.frames)]
            self.runs.append((i, r, _to_sphere(scenario.start, r), vels, scenario.epsilon,
                              scenario.legacy_max_recursion))
            self.improved_meshes += [self.scripts[-1][2]] * len(vels)
            self.legacy_caps += [scenario.legacy_max_recursion] * len(vels)
        self.legacy_meshes = self.improved_meshes

    def improved(self, env: Env) -> Round:
        sweep = ss.sphere_sweep
        outputs = []
        times = array("d")
        views = [ss.EllipsoidWorldView(env.worlds[i], ss.EllipsoidRadii(*r)) for i, r, *_ in self.runs]
        t0 = perf_counter()
        for view, (_, _, pos, vels, eps, _) in zip(views, self.runs):
            cfg = ss.ResponseConfig(very_close_dist=eps)
            for vel in vels:
                result = _timed(sweep, view, pos, vel, cfg, times)
                pos = result.final_pos
                outputs.append(result)
        return Round(outputs, len(outputs), perf_counter() - t0, times)

    def legacy(self, env: Env) -> Round:
        collide = ss.collide_with_world_legacy
        outputs = []
        views = [ss.EllipsoidWorldView(env.worlds[i], ss.EllipsoidRadii(*r)) for i, r, *_ in self.runs]
        t0 = perf_counter()
        for view, (_, _, pos, vels, eps, cap) in zip(views, self.runs):
            cfg = ss.LegacyConfig(very_close_dist=eps, max_recursion=cap)
            for vel in vels:
                result = collide(view, pos, vel, cfg)
                pos = result.final_pos
                outputs.append(result)
        return Round(outputs, len(outputs), perf_counter() - t0)

    def behaviour_problems(self, scenario_outputs: list) -> list:
        """The classic failure modes must reproduce, and the fix must hold."""
        runs = {(name, algo): records for name, algo, records, _, _ in scenario_outputs}
        eps = {s.name: s.epsilon for s in self.all}
        problems = []
        freeze = runs["acute_corner", "legacy"][0].iterations
        if freeze < 100:
            problems.append(f"legacy acute_corner took {freeze} iterations, expected >= 100")
        legacy_moving = sum(r.displacement > eps["obtuse_corner"]
                            for r in runs["obtuse_corner", "legacy"][-20:])
        improved_moving = sum(r.displacement >= eps["obtuse_corner"]
                              for r in runs["obtuse_corner", "improved"][-20:])
        if legacy_moving < 10 or improved_moving:
            problems.append(f"obtuse_corner last 20 frames: legacy moved on {legacy_moving} "
                            f"(need >= 10), improved on {improved_moving} (need 0)")
        floor_z = runs["floor", "improved"][-1].position[2]
        if abs(floor_z - (1.0 + eps["floor"])) > 1e-9:
            problems.append(f"floor ended at z={floor_z!r}, expected 1 + epsilon")
        return problems

    def check(self, improved: Round, legacy: Round, scenarios: Round) -> Verdict:
        verdict = super().check(improved, legacy, scenarios)
        # The direct segments step the same frames as run_scenario: same bits.
        radii = {s.name: s.radii.as_tuple() for s in self.all}
        for algo, direct in (("improved", improved.outputs), ("legacy", legacy.outputs)):
            offset = 0
            for name, run_algo, records, _, _ in scenarios.outputs:
                if run_algo != algo:
                    continue
                r = radii[name]
                stepped = [((p[0] * r[0], p[1] * r[1], p[2] * r[2]), result.iterations)
                           for result in direct[offset:offset + len(records)]
                           for p in (result.final_pos,)]
                offset += len(records)
                if stepped != [(record.position, record.iterations) for record in records]:
                    verdict.problems.append(f"{name}/{algo}: direct stepping differs "
                                            "from run_scenario")
        return verdict


WORKLOADS = {w.name: w for w in (SoupFuzz, TerrainCrowd, ScenarioSuite)}
