"""Run the benchmark over several seeds and summarize each end-to-end metric.

    python3 perfbench/sweep.py --workloads consistency,online --seeds 1-10 --out summary.json

Runs are sequential, one process at a time.  For every workload and metric the
summary holds the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread: the interquartile distance as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = BENCHMARK["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list[dict]) -> dict:
    out = {"runs": len(results),
           "all_correct": all(r["correct"] and r["failed"] == 0 for r in results)}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = quantiles(values, n=4)
        out[name] = {"values": values, "median": median(values), "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median(values),
                     "unit": results[0]["metrics"][name]["unit"]}
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    seeds = seed_list(args.seeds)
    summary = {"seeds": seeds, "seconds": args.seconds,
               "machine": f"{platform.machine()}, Python {platform.python_version()}",
               "workloads": {}}
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    for workload in args.workloads.split(","):
        results = [run_once(workload, s, args.seconds) for s in seeds]
        summary["workloads"][workload] = s = summarize(results)
        for name, bound in bounds.items():
            flag = "" if s[name]["spread"] < bound / 3 else "  (spread above a third of the bound)"
            print(f"{workload:12s} {name:18s} median {s[name]['median']:.6g} {s[name]['unit']}"
                  f"  spread {s[name]['spread']:.4f}  bound {bound}{flag}", flush=True)
    text = json.dumps(summary, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
