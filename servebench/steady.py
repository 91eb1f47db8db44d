#!/usr/bin/env python3
"""Steadiness check for the served-traffic benchmark.

Runs two sets of repeated runs per workload, alternating which set goes
first, each run with its own seed. Prints every end-to-end metric's median
and quartiles per set, and says for every metric on every workload whether
the two sets agree within the bound in BENCHMARK.json:

  * the spread of each set (interquartile range / median) is within the
    bound. Set-up time is the exception: its spread is printed but not
    judged, because it is a one-off cost of thread starts and a socket
    bind, and only a shift in its median is a finding;
  * the two sets' medians differ by no more than the bound, in either
    direction: |median B - median A| / median A;
  * the share of failed operations is exactly the same in both sets.

Run from the repository root:

    python3 servebench/steady.py                      # 10 runs per set, every workload
    python3 servebench/steady.py --runs 5 --workloads hot-counters

Exits 1 if any metric disagrees or a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed ({proc.returncode}): {' '.join(cmd)}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", default="BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--seconds", type=int, default=None, help="override run_seconds")
    ap.add_argument("--out", default="", help="write every run's result here as JSON")
    args = ap.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = args.seconds or bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]
    metrics = bench["end_to_end"]

    runs = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for w in workloads:
            for s in order:
                seed = (1 if s == "A" else 1001) + i
                r = run_once(command, w, seed, seconds, 0)
                r["seed"] = seed
                runs[w][s].append(r)
                print(f"{w} set {s} seed {seed}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']} "
                      f"({r['elapsed_s']:.1f} s)", flush=True)

    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)

    ok = True
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<16} {'set':<3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for s in ("A", "B"):
            bad = [r for r in runs[w][s] if not r["correct"]]
            if bad:
                ok = False
                print(f"  set {s}: {len(bad)} runs reported correct=false")
        shares = {s: sorted({r["failed"] / r["attempted"] for r in runs[w][s]})
                  for s in ("A", "B")}
        if shares["A"] != shares["B"] or len(shares["A"]) != 1:
            ok = False
            print(f"  failed shares differ: {shares}")
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            stats = {}
            for s in ("A", "B"):
                vals = [r["metrics"][name]["value"] for r in runs[w][s]]
                stats[s] = summary(vals)
            med_a, med_b = stats["A"][0], stats["B"][0]
            worse = (med_b - med_a) / med_a if lower else (med_a - med_b) / med_a
            verdicts = []
            if abs(worse) > bound:
                verdicts.append(f"medians differ by {abs(worse):.1%}")
            for s in ("A", "B"):
                if name != "setup_s" and stats[s][3] > bound:
                    verdicts.append(f"{s} spread over bound")
            if verdicts:
                ok = False
            for s in ("A", "B"):
                med, q1, q3, spread = stats[s]
                verdict = "" if s == "A" else ("; ".join(verdicts) or
                                               f"agree (B {-worse:+.1%} better)")
                if name == "setup_s" and s == "B":
                    verdict += "; spread not judged"

                print(f"  {name:<16} {s:<3} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                      f"{spread:>8.1%} {bound:>6.2f}  {verdict}")
    print("\nsteady: every end-to-end metric agrees within its bound" if ok
          else "\nNOT STEADY: see the verdicts above")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
