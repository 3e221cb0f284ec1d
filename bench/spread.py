"""Run bench/run.py over several seeds and summarize each metric.

    python3 bench/spread.py --workload cloud-csn --seeds 1-10 --seconds 50 [--trace 1]

Runs one seed after another from the repository root and prints, per
metric, the median, the first and third quartiles (statistics.quantiles,
n=4) and the spread (Q3 - Q1) / median, then the same as one JSON line.
Metrics of the result line come first, then the ones run.py only prints.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "n": len(values)}


def summarize_runs(rows: list[dict]) -> dict:
    out = {}
    for name in rows[0]:
        vals = [r[name] for r in rows]
        out[name] = summarize(vals) if len(vals) > 1 else {"median": vals[0]}
        s = out[name]
        if "spread" in s:
            print(f"{name:28s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.4f}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    runs, printed = [], []
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=root, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        fails = [ln for ln in proc.stdout.splitlines() if ln.startswith("FAIL")]
        print(f"seed {seed}: correct={doc['correct']} attempted={doc['attempted']} "
              f"failed={doc['failed']}", *fails, sep="\n  ", flush=True)
        runs.append({k: v["value"] for k, v in doc["metrics"].items()})
        printed.append({name: float(value) for name, eq, value, _ in
                        (ln.split() for ln in proc.stdout.splitlines() if ln.count(" ") == 3)
                        if eq == "=" and name not in doc["metrics"]})
    summary = {key: summarize_runs(rows) for key, rows in
               (("metrics", runs), ("printed", printed))}
    print(json.dumps({"workload": args.workload, "seeds": args.seeds,
                      "seconds": args.seconds, "trace": args.trace, **summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
