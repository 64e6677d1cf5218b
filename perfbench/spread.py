#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end
metric's median and quartile spread (distance between the first and
third quartile as a share of the median), next to its bound.

Run from the repository root:

    python3 perfbench/spread.py --workloads field_cold,serve_mixed --seeds 1-10 \
        --out perfbench/results/spread.json

Each run's full record (provenance included) is kept in the output.

Two such outputs of the same commit can be compared: for every
workload and end-to-end metric this prints both medians, how much worse
the second is than the first as a share of the first, both spreads and
the bound, and exits 1 if a change or a spread other than setup_s's
exceeds the bound:

    python3 perfbench/spread.py --compare set1.json set2.json
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.time()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    elapsed = time.time() - t0
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1]), elapsed


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(paths):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    sets = []
    for path in paths:
        with open(path) as f:
            sets.append(json.load(f))
    ok = True
    print(f"{'workload':12s} {'metric':20s} {'median 1':>12s} {'median 2':>12s} "
          f"{'worse':>7s} {'spread 1':>8s} {'spread 2':>8s} bound")
    for workload in sets[0]["workloads"]:
        rows = [s["workloads"][workload]["metrics"] for s in sets]
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a, b = rows[0][name], rows[1][name]
            worse = (b["median"] - a["median"]) / a["median"]
            if m["better"] == "higher":
                worse = -worse
            bad = worse > bound or (name != "setup_s" and max(a["spread"], b["spread"]) > bound)
            ok = ok and not bad
            print(f"{workload:12s} {name:20s} {a['median']:12.6g} {b['median']:12.6g} "
                  f"{worse:7.3f} {a['spread']:8.4f} {b['spread']:8.4f} {bound}{'  FAIL' if bad else ''}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--compare", nargs=2, metavar="SET")
    ap.add_argument("--workloads")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    if args.compare:
        sys.exit(compare(args.compare))
    if not args.workloads:
        ap.error("--workloads or --compare is required")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"seeds": args.seeds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        records, results, walls = [], [], []
        for seed in parse_seeds(args.seeds):
            rec, res, elapsed = run_once(spec, workload, seed, args.trace)
            records.append(rec)
            results.append(res)
            walls.append(elapsed)
            print(f"{workload} seed {seed}: {elapsed:.1f}s correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
        rows = {}
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            row = {"median": statistics.median(vals), "unit": results[0]["metrics"][name]["unit"]}
            if len(vals) >= 2 and statistics.median(vals) != 0:
                row["spread"] = spread(vals)
            if name in bounds:
                row["bound"] = bounds[name]
            rows[name] = row
            flag = ""
            if "bound" in row and "spread" in row:
                flag = "ok" if row["spread"] < row["bound"] / 3 else (
                    "WIDE" if row["spread"] >= row["bound"] else "over-third")
            print(f"  {name:34s} median {row['median']:14.6g} {row['unit']:6s} "
                  f"spread {row.get('spread', float('nan')):7.4f} bound {row.get('bound', '-')} {flag}")
        summary["workloads"][workload] = {
            "metrics": rows,
            "all_correct": all(r["correct"] and r["failed"] == 0 for r in results),
            "run_seconds_wall": walls,
            "records": records,
        }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
