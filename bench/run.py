"""Frame benchmark of sweepslide: one workload per process, one JSON line at the end.

Run from the repository root:

    python3 bench/run.py --workload soup_fuzz --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --seed 1        # every workload, each in its own process

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with nothing
wrapped, its timings scaled to the reference host speed (``hostspeed.py``).
``--trace 1`` runs one cycle untraced and the same cycle traced,
checks that the two agree bit for bit, and reports the per-layer metrics.
The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def _load_library() -> None:
    """Import sweepslide from this checkout's ``src``, single-threaded."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # must precede the first numpy import
    src = ROOT / "src"
    if not (src / "sweepslide" / "__init__.py").is_file():
        sys.exit(f"error: no sweepslide source under {src}")
    sys.path[:0] = [str(src), str(BENCH)]
    import sweepslide

    if Path(sweepslide.__file__).resolve().parent != src / "sweepslide":
        sys.exit(f"error: sweepslide was imported from {sweepslide.__file__}, not {src}")


def _cycle(wl, env, first: bool = False, before=lambda: None) -> tuple:
    """One round of each segment, calling *before* ahead of each round.

    The first cycle also gives the legacy segment its inputs, when it
    replays the improved frames.
    """
    before()
    improved = wl.improved(env)
    if first:
        wl.replay_from(improved.outputs)
    before()
    legacy = wl.legacy(env)
    before()
    return improved, legacy, wl.scenarios(env)


def _mismatches(rounds, reference, what: str) -> list:
    return [f"{what}: {segment} outputs differ from the reference cycle"
            for segment, got, want in zip(("improved", "legacy", "scenario"), rounds, reference)
            if got.outputs != want.outputs]


def _frames(rounds) -> int:
    return sum(r.frames for r in rounds)


def untraced(wl, seconds: float) -> dict:
    """Whole cycles until *seconds* have passed; the first cycle is the checked reference.

    Set-up runs once before the inputs are made and again before every
    later cycle, so its samples meet the same host conditions as the frames.
    """
    from hostspeed import HostSpeed

    host = HostSpeed()
    setup_s = []

    def timed_setup():
        host.sample()
        t0 = perf_counter()
        env = wl.setup()
        setup_s.append(perf_counter() - t0)
        return env

    env = timed_setup()
    wl.prepare(env)
    reference = None
    problems = []
    rates = ([], [], [])
    frame_us = array("d")
    cycles = 0
    deadline = perf_counter() + seconds
    while True:
        if cycles:
            env = None  # free the previous set-up before timing the next
            env = timed_setup()
        rounds = _cycle(wl, env, first=reference is None, before=host.sample)
        cycles += 1
        if reference is None:
            reference = rounds
        else:
            problems += _mismatches(rounds, reference, f"cycle {cycles}")
        for rate, r in zip(rates, rounds):
            rate.append(r.frames / r.seconds)
        frame_us.extend(rounds[0].frame_us)
        if perf_counter() >= deadline:
            break
    verdict = wl.check(*reference)
    problems = verdict.problems + problems

    # Timings as measured, then scaled to the reference host speed.
    cuts = statistics.quantiles(frame_us, n=100)
    raw = {
        "improved_frames_per_s": (statistics.median(rates[0]), "frames/s"),
        "improved_frame_us_p50": (cuts[49], "us"),
        "improved_frame_us_p99": (cuts[98], "us"),
        "legacy_frames_per_s": (statistics.median(rates[1]), "frames/s"),
        "scenario_frames_per_s": (statistics.median(rates[2]), "frames/s"),
        "setup_s": (statistics.median(setup_s), "s"),
    }
    speed = host.factor()
    metrics = {name: (value / speed if unit == "frames/s" else value * speed, unit)
               for name, (value, unit) in raw.items()}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    notes = [
        f"{cycles} timed cycles; per cycle "
        f"{reference[0].frames} improved, {reference[1].frames} legacy, "
        f"{reference[2].frames} scenario frames",
        f"improved frame times: {len(frame_us)} samples",
        f"set-up: median of {len(setup_s)} samples",
        f"legacy frames ending inside the mesh (expected): {verdict.legacy_penetrations} per cycle",
        f"host speed {speed:.4f} x reference, from {len(host.samples)} samples; as measured: "
        + ", ".join(f"{name} = {value:.6g} {unit}" for name, (value, unit) in raw.items()),
    ]
    return dict(problems=problems, attempted=cycles * _frames(reference),
                failed=cycles * verdict.failed, metrics=metrics, notes=notes)


def traced(wl) -> dict:
    """One reference cycle, the same cycle untraced and traced, and a profiled round.

    The work is fixed, not timed, so the counts repeat exactly run to run.
    """
    from spans import Tracer, core_calls

    setup_tracer = Tracer()
    with setup_tracer.installed():
        env = wl.setup()
    wl.prepare(env)
    reference = _cycle(wl, env, first=True)
    verdict = wl.check(*reference)

    t0 = perf_counter()
    plain = _cycle(wl, env)
    plain_s = perf_counter() - t0
    tracer = Tracer()
    with tracer.installed():
        t0 = perf_counter()
        rounds = _cycle(wl, env)
        traced_s = perf_counter() - t0
    profiled = []
    vector_calls = core_calls(lambda: profiled.append(wl.improved(env)))

    problems = list(verdict.problems) + tracer.problems
    problems += _mismatches(plain, reference, "untraced cycle")
    problems += _mismatches(rounds, reference, "traced cycle")
    problems += _mismatches(profiled, reference[:1], "profiled round")
    OUT.mkdir(exist_ok=True)
    setup_tracer.save(OUT / f"trace-{wl.name}-{wl.seed}-setup.npz")
    tracer.save(OUT / f"trace-{wl.name}-{wl.seed}-cycle.npz")

    metrics = layer_metrics(setup_tracer, tracer, env)
    metrics["core.vector_calls_per_frame"] = (vector_calls / profiled[0].frames, "count")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s - 1.0, "ratio")
    notes = [f"untraced cycle {plain_s:.3f} s, traced cycle {traced_s:.3f} s",
             f"{len(tracer.parent)} spans in the traced cycle"]
    # The profiled round re-runs improved frames only to count calls; it
    # is compared with the reference but not counted as attempted work.
    return dict(problems=problems, attempted=3 * _frames(reference), failed=3 * verdict.failed,
                metrics=metrics, notes=notes)


def layer_metrics(setup_tracer, tracer, env) -> dict:
    setup, spans, counts = setup_tracer.by_name(), tracer.by_name(), tracer.counts

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def count(key):
        return counts.get(key, 0)

    def per(num, den):
        return num / den if den else 0.0

    def mean_us(name, self_time=False):
        n, total, own = spans.get(name, (0, 0.0, 0.0))
        return per((own if self_time else total) * 1e6, n)

    frames, legacy_frames = count("response.frames"), count("legacy.frames")
    report_s = spans.get("scenario.report", (0, 0.0))[1] + spans.get("scenario.summarize", (0, 0.0))[1]
    return {
        "world.query_calls": (calls("world.query"), "count"),
        "world.query_us": (mean_us("world.query"), "us"),
        "world.candidates_per_query": (per(count("world.candidates"), calls("world.query")), "count"),
        "world.candidate_overlap_ratio": (per(count("world.overlapping"), count("world.candidates")),
                                          "ratio"),
        "world.build_s": (setup.get("world.build", (0, 0.0))[1], "s"),
        "world.cell_entries": (sum(len(b) for w in env.worlds for b in w._cells.values()), "count"),
        "detect.check_collision_calls": (calls("detect.check_collision"), "count"),
        "detect.check_collision_self_us": (mean_us("detect.check_collision", True), "us"),
        "detect.narrowphase_calls": (calls("detect.narrowphase"), "count"),
        "detect.narrowphase_us": (mean_us("detect.narrowphase"), "us"),
        "detect.narrowphase_hit_ratio": (per(count("detect.hits"), calls("detect.narrowphase")),
                                         "ratio"),
        "detect.slab_rejectable_ratio": (per(count("detect.slab_rejectable"),
                                             calls("detect.narrowphase")), "ratio"),
        "ellipsoid.view_self_us": (mean_us("ellipsoid.view", True), "us"),
        "ellipsoid.transforms": (count("ellipsoid.transforms"), "count"),
        "ellipsoid.cache_hit_ratio": (per(count("ellipsoid.scaled_candidates")
                                          - count("ellipsoid.transforms"),
                                          count("ellipsoid.scaled_candidates")), "ratio"),
        "response.self_us_per_frame": (per(spans.get("response.sphere_sweep", (0, 0.0, 0.0))[2] * 1e6,
                                           frames), "us"),
        "response.iterations_per_frame": (per(count("response.iterations"), frames), "count"),
        "response.frames_3_iterations": (count("response.frames_3_iterations"), "count"),
        "response.snag_frames": (count("response.snags"), "count"),
        "legacy.self_us_per_frame": (per(spans.get("legacy.collide", (0, 0.0, 0.0))[2] * 1e6,
                                         legacy_frames), "us"),
        "legacy.iterations_per_frame": (per(count("legacy.iterations"), legacy_frames), "count"),
        "scenario.audit_calls": (calls("scenario.audit"), "count"),
        "scenario.audit_us": (mean_us("scenario.audit"), "us"),
        "scenario.audit_triangles": (count("scenario.audit_triangles"), "count"),
        "scenario.report_us_per_frame": (per(report_s * 1e6, count("scenario.report_frames")), "us"),
        "mesh.generate_s": (sum(total for name, (_, total, _) in setup.items()
                                if name.startswith("mesh.")), "s"),
    }


def run_all(args, names: list) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for name in names:
        print(f"# workload {name}", flush=True)
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], check=False)
        status = status or done.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        sys.exit(f"error: {spec_path} is missing")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names, default=None,
                        help="one workload; without it every workload runs in its own process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args, names)

    _load_library()
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, OUT)
    try:
        result = traced(wl) if args.trace else untraced(wl, args.seconds)
    finally:
        wl.close()

    expected = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    produced = {name: unit for name, (_, unit) in result["metrics"].items()}
    if produced != expected:
        sys.exit(f"error: metrics {sorted(produced.items())} do not match BENCHMARK.json "
                 f"{sorted(expected.items())}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in result["notes"]:
        print(f"  {note}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    for problem in result["problems"]:
        print(f"  PROBLEM {problem}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
