"""Benchmark runner for the Lumos reproduction.

Runs one workload of ``BENCHMARK.json`` against the repository's own
``src/`` tree and prints a table of its metrics, then, as the last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``::

    python3 perfbench/run.py --workload predict-cold --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; operation
latencies are reported as multiples of a fixed reference computation
timed between operations (unit ``ref``), and in milliseconds with
``--trace 1``.
``--trace 1`` runs the workload untraced and then traced over the same
operations, and reports the per-layer metrics.  The seed generates every
input, so one seed repeats a run's inputs exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src"
DEFAULT_SEED = 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed: emulator noise and request arrivals")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if not (SOURCES / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SOURCES}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCES))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(choose from {', '.join(workloads.WORKLOADS)})")
    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    try:
        report = workloads.run(args.workload, seed=args.seed, seconds=args.seconds,
                               trace=bool(args.trace), workdir=workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, (value, unit) in report.metrics.items():
        samples = report.samples.get(name)
        note = "" if samples is None else f"  (n={samples})"
        print(f"  {name:30s} {value:14.4f} {unit}{note}")
    for target in report.absent:
        print(f"  absent layer function: {target}")
    for failure in report.failures:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps(report.to_json()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
