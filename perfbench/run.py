"""
The ulamcodes benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload decode-rs1024 --seed 1 --seconds 20 --trace 0

Run from the repository root (the library is imported from ./src). It
prints each metric as "name value unit", then one JSON line with the
run's instance, metadata, sample counts and output digest, and last one
JSON line {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer split
from a traced run. Workloads and metrics are listed in BENCHMARK.json
and described in perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True
LIBRARY = Path(__file__).resolve().parent.parent / "src" / "ulamcodes"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    if not (LIBRARY / "__init__.py").is_file():
        print(f"error: library source not found at {LIBRARY}", file=sys.stderr)
        return 2

    import harness
    import tracing

    if Path(harness.uc.__file__).resolve().parent != LIBRARY:
        print(f"error: imported ulamcodes from {harness.uc.__file__}, not {LIBRARY}", file=sys.stderr)
        return 2
    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(harness.WORKLOADS)}")
    run = tracing.run_traced if args.trace else harness.run_untraced
    out = run(workload, args.seed, args.seconds)
    for name, (value, unit) in out["metrics"].items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps(out["detail"], sort_keys=True))
    print(
        json.dumps(
            {
                "correct": out["correct"],
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in out["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
