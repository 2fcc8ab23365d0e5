"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload analyze-cache --seed 2024 --seconds 20 --trace 0

Run from the root of a checkout.  Workloads:

* ``analyze-cache``: dcache on aurora; the hardware cache simulation
  dominates a pass.
* ``analyze-linalg``: branch and cpu_flops on aurora, gpu_flops on
  frontier; composition and certification dominate a pass.
* ``serve-read``: keyed ``GET /v1/metric`` reads from 2 closed-loop
  client threads against a 2-worker, 2-shard supervised tier.
* ``serve-write``: the same, with one request in ten an analysis of a
  never-seen seed (a pipeline run in a worker and a durable publish).

With ``--trace 0`` the run reports the end-to-end metrics, measured
with tracing off; with ``--trace 1`` it reports per-layer metrics from a
separate traced run that times each layer's public calls from here.
Every answer is checked (see ``perfbench.common.Gate``); the last line
of standard output is the JSON result, and the exit code is 1 when any
answer was wrong.  ``--write-pins`` regenerates ``perfbench/digests.json``
and is for a change that moves analysis digests on purpose.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINS = Path(__file__).resolve().parent / "digests.json"
WORKLOADS = ("analyze-cache", "analyze-linalg", "serve-read", "serve-write")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_pins:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def stop_resource_tracker() -> None:
    """Stop the resource-tracker process that the spawn start method
    starts beside the tier's first worker, and wait for it to end.

    Left alone it outlives this process: it exits only once its pipe
    from this process closes, after this process is gone.  The exit-time
    finalizers run first, because they unregister semaphores with the
    tracker and would start a new one after it was stopped.
    """
    from multiprocessing import resource_tracker, util

    gc.collect()
    util._run_finalizers(0)
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import workloads

    if args.write_pins:
        workloads.write_pins(PINS)
        print(f"pinned analysis digests written to {PINS}")
        return 0
    try:
        report = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), PINS)
    finally:
        stop_resource_tracker()
    for line in report.lines:
        print(line)
    print(
        json.dumps(
            {
                "correct": report.gate.correct,
                "attempted": report.gate.attempted,
                "failed": report.gate.failed,
                "metrics": report.metrics,
            }
        )
    )
    return 0 if report.gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())
