#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarizes each metric.

    python3 perfbench/campaign.py --seeds 1-10 --seconds 20 \
        --out perfbench/results/seed.json

For every workload: one `run.py --trace 0` run per seed, then the median,
quartiles (statistics.quantiles, n=4) and spread (interquartile distance
over the median) of every end-to-end metric, checked against a third of
the metric's bound in BENCHMARK.json; and one `run.py --trace 1` run
(first seed) for the per-layer table. Exit status 1 when a run failed, was
incorrect, or a spread other than setup_s reached a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-10", type=seed_list)
    ap.add_argument("--seconds", default=spec["run_seconds"], type=int)
    ap.add_argument("--no-trace", action="store_true",
                    help="skip the per-layer run")
    ap.add_argument("--out", help="write the summary as JSON here")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    summary = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        results = [run(workload, s, args.seconds, 0) for s in args.seeds]
        if any(r is None or not r["correct"] or r["failed"] for r in results):
            print(f"{workload}: a run failed or was incorrect")
            ok = False
            continue
        entry = {"end_to_end": {}}
        print(f"{workload} (seeds {args.seeds[0]}..{args.seeds[-1]})")
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in results])
            s["unit"] = results[0]["metrics"][name]["unit"]
            steady = name == "setup_s" or s["spread"] < bound / 3
            ok = ok and steady
            entry["end_to_end"][name] = s
            print(f"  {name:16s} median {s['median']:<14.6g} spread "
                  f"{s['spread']:.3f} (bound {bound})"
                  f"{'' if steady else '  NOT STEADY'}")
        if not args.no_trace:
            traced = run(workload, args.seeds[0], args.seconds, 1)
            if traced is None or not traced["correct"]:
                print(f"  per-layer run failed or was incorrect")
                ok = False
            else:
                entry["per_layer_seed"] = args.seeds[0]
                entry["per_layer"] = {k: v["value"] for k, v in
                                      traced["metrics"].items()}
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
