"""Command-line harness: run scenario files, canned scenarios, or the checks.

Tables go to ``--out`` (or stdout); the summary block goes to stdout, or to
stderr when the table already occupies stdout, so piped CSV stays clean.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core import norm
from .scenario import (
    ALGORITHMS,
    Scenario,
    builtin_scenario,
    load_scenario,
    report,
    run_scenario,
    summarize,
)
from .verify import run_all

__all__ = ["main"]


def _emit(scenario: Scenario, out_path: str | None, fmt: str) -> None:
    results = run_scenario(scenario)
    speeds = [norm(scenario.velocity_for_frame(f)) for f in range(scenario.frames)]
    summary_stream = sys.stdout if out_path else sys.stderr

    for algo, records in results.items():
        table = report(records, fmt)
        if out_path:
            path = Path(out_path)
            if len(results) > 1:
                path = path.with_name(f"{path.stem}.{algo}{path.suffix}")
            path.write_text(table, encoding="utf-8")
            print(f"wrote {len(records)} frames to {path}", file=summary_stream)
        else:
            if len(results) > 1:
                print(f"# algorithm: {algo}")
            sys.stdout.write(table)
        summary = summarize(records, scenario.epsilon, speeds)
        pieces = ", ".join(f"{k}={v}" for k, v in summary.items())
        print(f"[{scenario.name}/{algo}] {pieces}", file=summary_stream)


def _cmd_run(args) -> int:
    _emit(load_scenario(args.scenario), args.out, args.format)
    return 0


def _cmd_builtin(args) -> int:
    scenario = builtin_scenario(
        args.kind,
        angle=args.angle,
        frames=args.frames,
        algorithm=args.algo,
        epsilon=args.epsilon,
        seed=args.seed,
    )
    _emit(scenario, args.out, args.format)
    return 0


def _cmd_verify(args) -> int:
    results = run_all(trials=args.trials, seed=args.seed)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sweepslide",
        description="Swept-sphere collide-and-slide scenario runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario JSON file")
    p_run.add_argument("scenario", help="path to a scenario .json file")
    p_run.add_argument("--out", default=None, help="write the table here instead of stdout")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.set_defaults(func=_cmd_run)

    p_builtin = sub.add_parser("builtin", help="run a canned scenario around a builtin mesh")
    p_builtin.add_argument("kind", help="floor | obtuse_corner | acute_corner | crease | "
                                        "box_room | random_soup")
    p_builtin.add_argument("--angle", type=float, default=None,
                           help="dihedral angle in degrees for the corner/crease meshes")
    p_builtin.add_argument("--frames", type=int, default=None)
    # Flags left out keep the preset's values.
    p_builtin.add_argument("--algo", choices=(*ALGORITHMS, "both"))
    p_builtin.add_argument("--epsilon", type=float)
    p_builtin.add_argument("--seed", type=int, help="seed of the random_soup mesh")
    p_builtin.add_argument("--out", default=None)
    p_builtin.add_argument("--format", choices=("csv", "json"), default="csv")
    p_builtin.set_defaults(func=_cmd_builtin)

    p_verify = sub.add_parser("verify", help="run the full acceptance check suite")
    p_verify.add_argument("--trials", type=int, default=10000,
                          help="fuzzed frames for the iteration/penetration checks")
    p_verify.add_argument("--seed", type=int, default=2024)
    p_verify.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
