"""
Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 10 --out spread.json
    python3 perfbench/spread.py --seeds 10 --against perfbench/spread_baseline.json

Runs perfbench/run.py once per workload and seed 1..--seeds, one run
at a time, from the repository root. For every metric it reports the
median and the first and third quartiles (statistics.quantiles(values,
n=4)) of the values, and the spread: (q3 - q1) / median. Every
end-to-end metric is steady when its spread is below a third of its
bound in BENCHMARK.json. With --against, each median is also compared
with the one in an earlier report: it must not be worse by more than
the bound; and every seed both reports ran must have the same output
digest. Exits 1 when any run is incorrect or any check fails.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])
    return {"seed": seed, "wall_s": round(wall, 3), "result": result, "digest": detail["digest"]}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the report here as JSON")
    parser.add_argument("--against", type=Path, help="earlier report to compare medians with")
    args = parser.parse_args(argv)
    if args.seeds < 3:
        parser.error("--seeds must be >= 3 for quartiles")

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    earlier = json.loads(args.against.read_text())["workloads"] if args.against else {}
    report = {
        **harness.run_metadata(),
        "seconds": args.seconds,
        "trace": args.trace,
        "runs_per_workload": args.seeds,
        "seeds": list(range(1, args.seeds + 1)),
        "workloads": {},
    }
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        runs = [run_once(name, s, args.seconds, args.trace) for s in report["seeds"]]
        incorrect = [r["seed"] for r in runs if not r["result"]["correct"]]
        ok = ok and not incorrect
        entry = {
            "incorrect_seeds": incorrect,
            "wall_s_max": max(r["wall_s"] for r in runs),
            "digests": {r["seed"]: r["digest"] for r in runs},
            "metrics": {},
        }
        print(f"{name}: {len(runs)} runs, slowest {entry['wall_s_max']} s, incorrect seeds {incorrect}")
        if name in earlier:
            before = earlier[name]["digests"]
            changed = [s for s, d in entry["digests"].items() if str(s) in before and before[str(s)] != d]
            entry["digest_changed_seeds"] = changed
            ok = ok and not changed
            print(f"  output digests differ from the earlier report on seeds {changed}")
        for m in metrics:
            stats = summarize([r["result"]["metrics"][m["name"]]["value"] for r in runs])
            line = f"  {m['name']:34} median {stats['median']:.6g} {m['unit']:6} spread {stats['spread'] or 0:.4f}"
            if "bound" in m:
                stats["bound"] = m["bound"]
                stats["steady"] = (stats["spread"] or 0) < m["bound"] / 3
                line += f" bound {m['bound']} {'steady' if stats['steady'] else 'NOT STEADY'}"
                ok = ok and stats["steady"]
                before = earlier.get(name, {}).get("metrics", {}).get(m["name"])
                if before:
                    change = stats["median"] / before["median"] - 1
                    worse = change if m["better"] == "lower" else -change
                    stats["change_vs_earlier"] = change
                    stats["within_bound_vs_earlier"] = worse <= m["bound"]
                    line += f" vs earlier {change:+.4f}"
                    line += "" if stats["within_bound_vs_earlier"] else " WORSE THAN BOUND"
                    ok = ok and stats["within_bound_vs_earlier"]
            entry["metrics"][m["name"]] = stats
            print(line)
        report["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
