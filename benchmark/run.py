"""Command line of the benchmark.

Run from the root of a checkout::

    python3 -m benchmark.run --workload serve-zipf --seed 1 --seconds 10 --trace 0

Prints every metric as ``workload metric value unit`` and, as the last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (which also writes ``.bench_trace/trace-<workload>.json``).
Without ``--workload`` every workload runs, each in its own fresh process.
Exits non-zero when any answer was wrong or the run could not start.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

from benchmark import runner
from benchmark.workloads import REFERENCE_SECONDS, WORKLOADS

#: Root of the checkout; the program under test lives in ``ROOT/src``.
ROOT = Path(__file__).resolve().parent.parent

#: Longest a child process may run for one workload.
CHILD_TIMEOUT_S = 900


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 -m benchmark.run", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument("--seconds", type=int, default=REFERENCE_SECONDS,
                        help="run length the amount of work is sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--json", dest="json_path", help="also write all results here")
    return parser.parse_args(argv)


def _print_result(result: dict) -> None:
    name = result["workload"]
    for metric, entry in result["metrics"].items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
    for metric, value in result["extras"].items():
        print(f"{name} {metric} {value:.6g}")
    for problem in result["problems"]:
        print(f"{name} PROBLEM {problem}")


def _run_children(names: List[str], args: argparse.Namespace) -> dict:
    """Run each workload in a fresh interpreter, one at a time; forward their
    lines and combine their summaries (metrics named ``workload.metric``)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        command = [
            sys.executable, "-m", "benchmark.run", "--workload", name, "--seed",
            str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        child = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
        lines = child.stdout.strip().splitlines()
        if not lines:
            raise RuntimeError(f"workload {name} printed nothing (exit {child.returncode})")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"benchmark: the program is missing ({source / 'repro'} not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))

    names = args.workload or list(WORKLOADS)
    if len(names) == 1:
        result = runner.run_workload(names[0], args.seed, args.seconds,
                                     trace=bool(args.trace),
                                     trace_dir=str(ROOT / ".bench_trace"))
        _print_result(result)
        last = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        result = last = _run_children(names, args)
    if args.json_path:
        with open(args.json_path, "w") as handle:
            json.dump(dict(result, seed=args.seed, seconds=args.seconds), handle, indent=1)
    print(json.dumps(last))
    return 0 if last["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
