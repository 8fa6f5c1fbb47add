"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replay-burst --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without tracing
the metrics are the end-to-end ones; ``--trace 1`` prints the per-layer
ledger instead and writes every span to ``.bench_build/perfbench/``.
The program under test is imported from ``src/``; without it the command
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Workload name -> module implementing ``run(seed, seconds, trace)``.
WORKLOADS = {
    "replay-burst": "replay_burst",
    "serve-steady": "serve_steady",
    "serve-loop": "serve_loop",
    "cluster-steady": "cluster_steady",
    "soak-day": "soak_day",
}

#: A run that has not finished by then is abandoned (exit status 3).
DEADLINE_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def write_spans(spans, workload, seed) -> Path:
    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"spans-{workload}-{seed}.jsonl"
    with open(path, "w") as fh:
        for name, start, end, parent, request in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "request": request}))
            fh.write("\n")
    return path


def _deadline(signum, frame):
    raise TimeoutError(f"run exceeded {DEADLINE_S}s")


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from harness import host_fingerprint
    from metrics import END_TO_END, PER_LAYER, render

    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    host = host_fingerprint()
    print("host " + json.dumps(host, sort_keys=True), flush=True)
    module = importlib.import_module(WORKLOADS[args.workload])
    outcome = module.run(args.seed, args.seconds, bool(args.trace))
    signal.alarm(0)

    for line in outcome.notes:
        print(line)
    for name, problem in sorted(outcome.checks.items()):
        print(f"check {name}: {'ok' if problem is None else 'FAILED: ' + problem}")
    if args.trace:
        print(f"spans written to {write_spans(outcome.spans, args.workload, args.seed)}")
        values = dict.fromkeys(PER_LAYER, 0.0)
        values.update(outcome.layers)
        values["host.calibration_ms"] = host["calibration_ms"]
        if "failed_frac" not in outcome.layers:
            values["failed_frac"] = outcome.failed / max(outcome.attempted, 1)
        metrics = render(values, PER_LAYER)
    else:
        metrics = render(outcome.end_to_end, END_TO_END)
    correct = outcome.correct
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
