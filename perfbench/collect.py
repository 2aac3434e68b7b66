"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --workloads stream tune --seeds 1-10 [--trace 1] [--out FILE]

Runs ``run.py`` once per (workload, seed), one after another, and prints
each metric's median, quartiles (``statistics.quantiles(values, n=4)``) and
spread, the quartile distance as a share of the median, which is what the
bounds in BENCHMARK.json are compared against. ``--out`` also writes every
raw result line and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=True, cwd=HERE.parent)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarise(results: list[dict]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary[name] = {
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "unit": results[0]["metrics"][name]["unit"],
        }
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in BENCHMARK["workloads"]])
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    p.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, help="write raw results and the summary here")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    report = {
        "host": {"cpus": len(os.sched_getaffinity(0)), "machine": platform.machine(),
                 "python": platform.python_version()},
        "seconds": args.seconds, "trace": args.trace, "seeds": args.seeds, "workloads": {},
    }
    ok = True
    for workload in args.workloads:
        results = [run_once(workload, s, args.seconds, args.trace) for s in args.seeds]
        summary = summarise(results)
        report["workloads"][workload] = {"summary": summary, "results": results}
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        ok &= correct and failed == 0
        print(f"{workload}: {len(results)} runs, correct {correct}, failed calls {failed}")
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and s["spread"] >= bound / 3:
                flag = f"  spread over a third of bound {bound}"
            print(f"  {name:<40} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.4f} {s['unit']}{flag}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
