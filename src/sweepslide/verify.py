"""Self-contained acceptance checks, runnable via ``sweepslide verify``.

Each check pits a production code path against an independent reference:
swept contact times against bisection on the exhaustive distance function,
the grid broadphase against a scan of every triangle, the quadratic solver
against 50-digit arithmetic, and the two response algorithms against the
behavioral bounds they are supposed to (or supposed not to) satisfy.
"""

from __future__ import annotations

import dataclasses
import math
import random
import time
from dataclasses import dataclass
from decimal import Decimal, localcontext

from .core import (
    Plane,
    Triangle,
    Vec3,
    add,
    distance,
    dot,
    norm,
    robust_quadratic_roots,
    scale,
    signed_plane_distance,
    sub,
)
from .detect import check_collision, closest_point_on_triangle, sweep_unit_sphere_triangle
from .ellipsoid import EllipsoidRadii, from_sphere_space, to_sphere_space
from .legacy import LegacyConfig, collide_with_world_legacy
from .mesh import builtin_mesh
from .response import MIN_VELOCITY, ResponseConfig, project_dest_one_plane, sphere_sweep
from .scenario import builtin_scenario, mesh_distances, min_distance_to_mesh, run_scenario
from .world import World, build_world

__all__ = ["CheckResult", "run_all"]

ORACLE_TRIALS = 1000
# The fuzz corpus's soups lie in [-FUZZ_EXTENT, FUZZ_EXTENT]^3.
FUZZ_EXTENT = 8.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_unit(rng: random.Random) -> Vec3:
    while True:
        v = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        n = norm(v)
        if n > 1e-6:
            return (v[0] / n, v[1] / n, v[2] / n)


def _clear_start(rng: random.Random, world: World, extent: float) -> Vec3:
    """A uniform point of ``[-extent, extent]^3`` at least one radius from every triangle."""
    while True:
        pos = (rng.uniform(-extent, extent), rng.uniform(-extent, extent),
               rng.uniform(-extent, extent))
        if min_distance_to_mesh(pos, world.vertices) >= 1.000001:
            return pos


# --- criteria 1 and 2: iteration bounds and non-penetration on one corpus ---

def _run_fuzz_corpus(trials: int, seed: int):
    rng = random.Random(seed)
    worlds = [build_world(builtin_mesh("random_soup", n=40, seed=1000 + i, extent=FUZZ_EXTENT))
              for i in range(10)]
    improved_cfg = ResponseConfig()
    legacy_cfg = LegacyConfig(max_recursion=5)

    improved_max_iter = 0
    legacy_max_iter = 0
    improved_violations = 0
    legacy_violations = 0
    worst_clearance = math.inf
    # End positions per soup, audited together after the frames.
    improved_ends: list[list[Vec3]] = [[] for _ in worlds]
    legacy_ends: list[list[Vec3]] = [[] for _ in worlds]

    start = time.perf_counter()
    for i in range(trials):
        k = i % len(worlds)
        world = worlds[k]
        pos = _clear_start(rng, world, FUZZ_EXTENT)
        if rng.random() < 0.5:
            # Aim at a random triangle so contact-heavy paths stay exercised.
            tri = world.triangles[rng.randrange(len(world.triangles))]
            corners = (tri.a, tri.b, tri.c)
            w = [rng.random() for _ in range(3)]
            s = w[0] + w[1] + w[2]
            target = tuple(
                sum(w[k] * corners[k][axis] for k in range(3)) / s for axis in range(3)
            )
            vel = scale(sub(target, pos), rng.uniform(0.5, 2.0))
        else:
            vel = scale(_random_unit(rng), rng.uniform(0.0, 6.0))

        res = sphere_sweep(world, pos, vel, improved_cfg)
        improved_max_iter = max(improved_max_iter, res.iterations)
        improved_ends[k].append(res.final_pos)

        leg = collide_with_world_legacy(world, pos, vel, legacy_cfg)
        legacy_max_iter = max(legacy_max_iter, leg.iterations)
        legacy_ends[k].append(leg.final_pos)

    for world, improved, legacy in zip(worlds, improved_ends, legacy_ends):
        clearance = mesh_distances(improved + legacy, world.vertices)
        violated = clearance < 1.0 - 1e-6
        n = len(improved)
        worst_clearance = min([worst_clearance, *clearance[:n].tolist()])
        improved_violations += int(violated[:n].sum())
        legacy_violations += int(violated[n:].sum())
    elapsed = time.perf_counter() - start
    return dict(
        trials=trials,
        elapsed=elapsed,
        improved_max_iter=improved_max_iter,
        legacy_max_iter=legacy_max_iter,
        improved_violations=improved_violations,
        legacy_violations=legacy_violations,
        worst_clearance=worst_clearance,
    )


def check_iteration_bounds(fuzz: dict) -> CheckResult:
    ok = (fuzz["improved_max_iter"] <= 3 and fuzz["legacy_max_iter"] <= 5
          and fuzz["elapsed"] <= 60.0)
    return CheckResult(
        "iteration-bounds",
        ok,
        f"{fuzz['trials']} frames: improved max {fuzz['improved_max_iter']} iterations "
        f"(bound 3), legacy max {fuzz['legacy_max_iter']} (bound 5), "
        f"{fuzz['elapsed']:.1f}s (bound 60s)",
    )


def check_no_penetration(fuzz: dict) -> CheckResult:
    ok = fuzz["improved_violations"] == 0
    return CheckResult(
        "no-penetration",
        ok,
        f"improved violations {fuzz['improved_violations']}/{fuzz['trials']} "
        f"(worst clearance {fuzz['worst_clearance']:.9f}); "
        f"legacy violations measured: {fuzz['legacy_violations']}",
    )


# --- criterion 3: acute-corner freeze ---

def check_freeze() -> CheckResult:
    scenario = builtin_scenario("acute_corner", algorithm="both", frames=1)
    start = time.perf_counter()
    records = run_scenario(scenario)
    elapsed = time.perf_counter() - start
    legacy_iters = records["legacy"][0].iterations
    improved_iters = records["improved"][0].iterations
    ok = legacy_iters >= 100 and improved_iters <= 3 and elapsed <= 1.0
    return CheckResult(
        "freeze-reproduction",
        ok,
        f"acute corner 5 deg: legacy {legacy_iters} iterations (>= 100), "
        f"improved {improved_iters} (<= 3), {elapsed:.2f}s (bound 1s)",
    )


# --- criterion 4: obtuse-corner jitter ---

def check_jitter() -> CheckResult:
    scenario = builtin_scenario("obtuse_corner", algorithm="both")
    start = time.perf_counter()
    records = run_scenario(scenario)
    elapsed = time.perf_counter() - start
    eps = scenario.epsilon
    legacy_tail = records["legacy"][-20:]
    improved_tail = records["improved"][-20:]
    legacy_moving = sum(1 for r in legacy_tail if r.displacement > eps)
    improved_moving = sum(1 for r in improved_tail if r.displacement >= eps)
    ok = legacy_moving >= 10 and improved_moving == 0 and elapsed <= 1.0
    return CheckResult(
        "jitter-reproduction",
        ok,
        f"final 20 frames: legacy displacement > eps on {legacy_moving} (need >= 10), "
        f"improved on {improved_moving} (need 0), {elapsed:.2f}s (bound 1s)",
    )


# --- criterion 5: crease confinement ---

def check_crease_confinement() -> CheckResult:
    scenario = builtin_scenario("crease")
    world = build_world(scenario.mesh.load())
    cfg = ResponseConfig(very_close_dist=scenario.epsilon)
    rad = math.radians(scenario.mesh.params["angle"])
    plane_a = Plane((0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    plane_b = Plane((0.0, 0.0, 0.0), (math.sin(rad), 0.0, -math.cos(rad)))

    pos = scenario.start
    vel_checks = []
    dists = []
    locked = False
    for frame in range(scenario.frames):
        res = sphere_sweep(world, pos, scenario.velocity_for_frame(frame), cfg)
        pos = res.final_pos
        if len(res.planes) == 2:
            locked = True
            speed = norm(res.final_vel)
            if speed > MIN_VELOCITY:
                n1, n2 = res.planes[0].normal, res.planes[1].normal
                vel_checks.append(max(abs(dot(res.final_vel, n1)),
                                      abs(dot(res.final_vel, n2))) / speed)
        if locked:
            dists.append((signed_plane_distance(plane_a, pos),
                          signed_plane_distance(plane_b, pos)))

    if not vel_checks or len(dists) < 2:
        return CheckResult("crease-confinement", False,
                           "scenario never reached the two-plane state")
    worst_component = max(vel_checks)
    da0, db0 = dists[0]
    drift = max(max(abs(da - da0), abs(db - db0)) for da, db in dists)
    ok = worst_component <= 1e-9 and drift <= 2.0 * cfg.very_close_dist
    return CheckResult(
        "crease-confinement",
        ok,
        f"velocity component along plane normals <= {worst_component:.3e} "
        f"(bound 1e-9), plane-distance drift {drift:.6f} over {len(dists)} frames "
        f"(bound {2 * cfg.very_close_dist})",
    )


# --- criterion 6: one-plane projection stand-off ---

def check_one_plane_projection() -> CheckResult:
    rng = random.Random(7)
    cfg = ResponseConfig()
    long_radius = 1.0 + cfg.very_close_dist
    worst = 0.0
    for _ in range(ORACLE_TRIALS):
        plane = Plane(
            (rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-10, 10)),
            _random_unit(rng),
        )
        dest = (rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-10, 10))
        moved = project_dest_one_plane(dest, plane, cfg)
        worst = max(worst, abs(signed_plane_distance(plane, moved) - long_radius))
    return CheckResult(
        "one-plane-projection",
        worst <= 1e-9,
        f"{ORACLE_TRIALS} random pairs, worst stand-off error {worst:.3e} (bound 1e-9)",
    )


# --- criterion 7: detection vs bisection oracle ---

def _random_hit_case(rng: random.Random):
    while True:
        base = (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3))
        try:
            tri = Triangle(
                base,
                add(base, (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))),
                add(base, (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))),
            )
        except ValueError:
            continue
        # Aim at a point on the triangle: mostly the interior, sometimes an
        # edge neighborhood so vertex/edge contacts are exercised too.
        if rng.random() < 0.7:
            u = rng.uniform(0.1, 0.8)
            v = rng.uniform(0.1, 0.9 - u)
            target = add(tri.a, add(scale(sub(tri.b, tri.a), u), scale(sub(tri.c, tri.a), v)))
        else:
            u = rng.uniform(0.0, 1.0)
            edge = rng.choice(((tri.a, tri.b), (tri.b, tri.c), (tri.c, tri.a)))
            target = add(edge[0], scale(sub(edge[1], edge[0]), u))
            target = add(target, scale(_random_unit(rng), rng.uniform(0.0, 0.3)))
        offset = scale(_random_unit(rng), rng.uniform(1.8, 3.5))
        source = add(target, offset)
        if distance(source, closest_point_on_triangle(source, tri)) < 1.2:
            continue
        vel = scale(sub(target, source), rng.uniform(1.2, 2.0))
        return source, vel, tri


def _bisect_first_contact(source: Vec3, vel: Vec3, tri: Triangle) -> float | None:
    """First t with center-to-triangle distance <= 1, by march + bisection.

    Completely independent of the swept test: it only evaluates the
    closest-point distance along the path.
    """

    def gap(t: float) -> float:
        center = add(source, scale(vel, t))
        return distance(center, closest_point_on_triangle(center, tri)) - 1.0

    prev_t = 0.0
    prev_g = gap(0.0)
    if prev_g <= 0.0:
        return 0.0
    samples = 4096
    for k in range(1, samples + 1):
        t = k / samples
        g = gap(t)
        if g <= 0.0:
            lo, hi = prev_t, t
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                if gap(mid) <= 0.0:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)
        prev_t, prev_g = t, g
    return None


def check_detection_oracle() -> CheckResult:
    rng = random.Random(11)
    worst_dt = 0.0
    worst_tangency = 0.0
    compared = 0
    attempts = 0
    while compared < ORACLE_TRIALS and attempts < ORACLE_TRIALS * 20:
        attempts += 1
        source, vel, tri = _random_hit_case(rng)
        hit = sweep_unit_sphere_triangle(source, vel, tri)
        if hit is None:
            continue
        oracle_t = _bisect_first_contact(source, vel, tri)
        if oracle_t is None:
            continue  # grazing dip narrower than the march; ill-conditioned
        compared += 1
        worst_dt = max(worst_dt, abs(hit.t - oracle_t))
        center = add(source, scale(vel, hit.t))
        worst_tangency = max(worst_tangency, abs(distance(center, hit.contact_point) - 1.0))
    ok = compared >= ORACLE_TRIALS and worst_dt <= 1e-5 and worst_tangency <= 1e-6
    return CheckResult(
        "detection-oracle",
        ok,
        f"{compared} hitting sweeps: worst |t - t_bisection| {worst_dt:.2e} (bound 1e-5), "
        f"worst tangency error {worst_tangency:.2e} (bound 1e-6)",
    )


# --- criterion 8: broadphase soundness ---

def check_broadphase() -> CheckResult:
    rng = random.Random(13)
    extent = 12.0
    tris = builtin_mesh("random_soup", n=500, seed=99, extent=extent)
    world = build_world(tris)
    mismatches = 0
    hits = 0
    for _ in range(ORACLE_TRIALS):
        pos = _clear_start(rng, world, extent)
        vel = scale(_random_unit(rng), rng.uniform(0.0, 5.0))
        grid_hit = check_collision(world, pos, vel)
        brute_best = None
        for index, tri in enumerate(tris):
            h = sweep_unit_sphere_triangle(pos, vel, tri)
            if h is not None and (brute_best is None or h.t < brute_best[0]):
                brute_best = (h.t, index)
        if grid_hit is None:
            if brute_best is not None:
                mismatches += 1
        else:
            hits += 1
            if brute_best is None or grid_hit.t != brute_best[0] \
                    or grid_hit.triangle_index != brute_best[1]:
                mismatches += 1
    return CheckResult(
        "broadphase-soundness",
        mismatches == 0,
        f"{ORACLE_TRIALS} queries over a 500-triangle soup ({hits} hits): "
        f"{mismatches} grid/brute-force mismatches",
    )


# --- criterion 9: quadratic solver vs extended precision ---

def check_quadratic_oracle() -> CheckResult:
    rng = random.Random(17)
    trials = 2000
    worst = 0.0
    checked = 0
    with localcontext() as ctx:
        ctx.prec = 50
        for _ in range(trials):
            a = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
            b = 10.0 ** rng.uniform(2.0, 12.0) * rng.choice((-1.0, 1.0))
            c = rng.uniform(0.5, 2.0) / a  # keeps a*c near one
            roots = robust_quadratic_roots(a, b, c)
            if roots is None:
                continue
            checked += 1
            ma, mb, mc = Decimal(a), Decimal(b), Decimal(c)
            disc = (mb * mb - 4 * ma * mc).sqrt()
            exact = sorted([(-mb + disc) / (2 * ma), (-mb - disc) / (2 * ma)],
                           key=abs)
            small_exact = exact[0]
            small_ours = min(roots, key=abs)
            rel = abs((Decimal(small_ours) - small_exact) / small_exact)
            worst = max(worst, float(rel))
    ok = checked == trials and worst <= 1e-10
    return CheckResult(
        "quadratic-robustness",
        ok,
        f"{checked} cancellation-prone triples (|b| up to 1e12, a*c ~ 1): "
        f"worst small-root relative error {worst:.2e} (bound 1e-10)",
    )


# --- criterion 10: ellipsoid round trip ---

def check_ellipsoid_roundtrip() -> CheckResult:
    radii = EllipsoidRadii(2.0, 1.0, 0.5)
    scenario = dataclasses.replace(builtin_scenario("floor", frames=2),
                                   name="ellipsoid-floor", radii=radii)
    records = run_scenario(scenario)["improved"]
    expected = (1.0 + scenario.epsilon) * radii.rz
    height_err = abs(records[-1].position[2] - expected)

    rng = random.Random(23)
    worst_rel = 0.0
    for _ in range(500):
        v = (rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-50, 50))
        back = from_sphere_space(to_sphere_space(v, radii), radii)
        for orig, rt in zip(v, back):
            denom = max(abs(orig), 1e-300)
            worst_rel = max(worst_rel, abs(rt - orig) / denom)
    ok = height_err <= 1e-6 and worst_rel <= 1e-12
    return CheckResult(
        "ellipsoid-roundtrip",
        ok,
        f"floor drop with radii (2,1,0.5) ends {height_err:.2e} from (1+eps)*rz "
        f"(bound 1e-6); round-trip relative error {worst_rel:.2e} (bound 1e-12)",
    )


def run_all(trials: int = 10000, seed: int = 2024) -> list[CheckResult]:
    """Run every acceptance check, printing one PASS/FAIL line per criterion.

    *trials* is the fuzz corpus's frame count; fewer than one would pass
    the corpus checks on no frames, so it raises ``ValueError``.
    """
    if trials < 1:
        raise ValueError(f"verify needs at least one trial, got {trials}")
    fuzz = _run_fuzz_corpus(trials, seed)
    results = [
        check_iteration_bounds(fuzz),
        check_no_penetration(fuzz),
        check_freeze(),
        check_jitter(),
        check_crease_confinement(),
        check_one_plane_projection(),
        check_detection_oracle(),
        check_broadphase(),
        check_quadratic_oracle(),
        check_ellipsoid_roundtrip(),
    ]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    return results

