"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload fig6-cold --seed 1234 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 35 --trace 1

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` traces the set-up and one extra rotation and prints the
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
README.md for the workloads and metrics.
"""

import time

# Taken before anything else is imported: set-up time starts here.
STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("fig6-cold", "campaign-resume")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1234, help="trace seed (default 1234)")
    parser.add_argument("--seconds", type=float, default=35.0, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="set up once and print the set-up time"
    )
    parser.add_argument(
        "--tiny", action="store_true", help="a tiny size of every workload (self-test)"
    )
    return parser


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so each set-up starts cold."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        command = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed)]
        command += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        command += ["--tiny"] if args.tiny else []
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import bench

    if args.setup_only:
        print(json.dumps(bench.setup_only(args.workload, args.seed, args.tiny, STARTED)))
        return 0
    report = bench.run(
        args.workload, args.seed, args.seconds, bool(args.trace), started=STARTED, tiny=args.tiny
    )
    print(
        f"perfbench {args.workload}: trace seed {args.seed}, trace {args.trace}. "
        "The model is unvalidated, so no accuracy figure is given."
    )
    for name, (value, unit) in report.metrics.items():
        print(f"  {name:34s} {value:>16.6g} {unit}")
    print(
        f"  {'failed_frac':34s} {report.failed / report.attempted:>16.6g} ratio"
        f"  ({report.failed} of {report.attempted} results failed)"
    )
    pinned = "checked against its pin" if report.pinned else "not pinned for this seed and size"
    print(f"  combined digest {report.combined_digest} ({pinned})")
    for problem in report.problems:
        print(f"  FAILED: {problem}")
    print(f"  environment {json.dumps(report.environment, sort_keys=True)}")
    print(json.dumps(report.result_line()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
