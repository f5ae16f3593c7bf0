"""Wall-clock benchmark of the catalog.

Run from the repository root::

    python3 perfbench/run.py --workload query-hot --seed 1 --seconds 10 --trace 0

``--workload`` is one of ``query-hot``, ``rest-browse``, ``govern-write``
and ``query-contend`` (see ``perfbench/README.md``), or ``all`` to run
each in turn. ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
measures the per-layer ledger instead, and ``--ledger`` also prints it as
a table. Each workload runs in a process of its own, started with a fixed
hash seed so that two runs at one ``--seed`` do the same work. Every
metric is printed with its name and unit; the last line of standard
output is the result as one JSON object. The exit code is 0 only when
every answer check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOAD_NAMES = ("query-hot", "rest-browse", "govern-write", "query-contend")
#: a run is set up and measured well inside this
CHILD_TIMEOUT_S = 170


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ledger", action="store_true",
                        help="with --trace 1, print the per-layer ledger table")
    return parser.parse_args(argv)


def _child(args: argparse.Namespace, workload: str) -> int:
    """Run one workload in a fresh interpreter with a fixed hash seed."""
    argv = ["--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.ledger:
        argv.append("--ledger")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        return subprocess.run([sys.executable, os.path.abspath(__file__), *argv],
                              env=env, timeout=CHILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1


def _print_table(result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{name:<42} {metric['value']:>14.4f} {metric['unit']}")
    report = result["report"]
    if report.get("first_failure"):
        print(report["first_failure"], file=sys.stderr)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no catalog sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all" or os.environ.get("PYTHONHASHSEED") != "0":
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        codes = [_child(args, name) for name in names]
        return max(codes)
    sys.path.insert(0, SRC)
    from bench import run

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']} speed={result['report']['speed']:.3f} "
          "(reference seconds per wall second)")
    _print_table(result)
    if args.ledger and "table" in result["report"]:
        print(result["report"]["table"])
    line = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
