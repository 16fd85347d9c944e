"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mth-analytic --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` is the separate traced run that reports the per-layer metrics.
Every metric is printed with its unit and sample count; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Workloads are described in ``RATIONALE.md``.

The program is imported from ``src/`` of the checkout: no build step.  A
directory without it is refused with a non-zero exit status.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("mth-analytic", "mth-analytic-2shard", "tenant-reads", "tenant-rw")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src/`` and this directory on the import path."""
    source = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        raise SystemExit(
            f"perfbench: no program to measure: {source}/repro is missing "
            f"(run from the root of a checkout)"
        )
    sys.path.insert(0, source)
    sys.path.insert(0, HERE)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    import_program()
    from metrics import report_lines, result_line

    if args.workload.startswith("mth-analytic"):
        import analytic

        result = analytic.run(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        import serving

        result = serving.run(args.workload, args.seed, args.seconds, bool(args.trace))
    if not result.valid:
        for line in report_lines(result, bool(args.trace)):
            print(line, file=sys.stderr)
        print("perfbench: invalid run: the load generator fell behind", file=sys.stderr)
        return 3
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for line in report_lines(result, bool(args.trace)):
        print(line)
    print(result_line(result, bool(args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
