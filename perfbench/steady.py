#!/usr/bin/env python3
"""Steadiness check for the DLFS benchmark.

    python3 perfbench/steady.py [--workloads w1,w2] [--seeds 1,2] [--runs 3]
                                [--seconds S]

Runs every workload --runs times untraced and once traced on each of two
seeds (run from the root of a checkout; builds like run.py). Prints each
end-to-end metric's median, quartiles and spread (interquartile distance
over the median, pooled over all untraced runs) next to its bound from
BENCHMARK.json, plus the tracing overhead (traced against untraced
host_s). Exits non-zero if any simulated-time metric or count differs
between runs of one seed, between a traced and an untraced run of one
seed, or if any run reports a failed check.
"""

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402  (run.py next to this file)


def detail_of(lines):
    for line in reversed(lines):
        if line.startswith("perfbench-detail "):
            return json.loads(line[len("perfbench-detail "):])
    return None


def simulated(detail):
    """Every figure that must reproduce exactly for one seed."""
    host = set(detail["host_metrics"])
    out = {k: v for part in ("end_to_end", "per_layer")
           for k, v in detail[part].items() if k not in host}
    out["attempted_per_round"] = detail["attempted_per_round"]
    out["failed_per_round"] = detail["failed_per_round"]
    return out


def diff(a, b):
    return sorted(k for k in a if a[k] != b.get(k))


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1,2")
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    binary = bench.build()
    ok = True
    for w in args.workloads.split(","):
        values = {}
        traced_host, untraced_host = [], []
        for seed in seeds:
            reference = None
            for trace in [0] * args.runs + [1]:
                code, lines = bench.run_one(binary, w, seed, args.seconds,
                                            trace)
                result = bench.parse_result(lines)
                detail = detail_of(lines)
                if code != 0 or result is None or detail is None:
                    print("%s seed %d: no result (exit %d)" % (w, seed, code))
                    ok = False
                    continue
                if not result["correct"]:
                    print("%s seed %d: checks failed: %s"
                          % (w, seed, "; ".join(detail["problems"])))
                    ok = False
                sim = simulated(detail)
                if reference is None:
                    reference = sim
                elif diff(reference, sim):
                    print("%s seed %d: %s run differs in %s"
                          % (w, seed, "traced" if trace else "untraced",
                             ", ".join(diff(reference, sim))))
                    ok = False
                host_s = detail["end_to_end"]["host_s"]
                (traced_host if trace else untraced_host).append(host_s)
                if not trace:
                    for k, v in result["metrics"].items():
                        values.setdefault(k, []).append(v["value"])
        print("== %s (seeds %s, %d untraced runs each)"
              % (w, args.seeds, args.runs))
        print("%-26s %14s %14s %14s %8s %6s" % (
            "metric", "q1", "median", "q3", "spread", "bound"))
        for k, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(k)
            flag = "" if bound is None or spread <= bound / 3 else "  wide"
            print("%-26s %14.6g %14.6g %14.6g %8.4f %6s%s" % (
                k, q1, med, q3, spread,
                "-" if bound is None else "%.2f" % bound, flag))
        if traced_host and untraced_host:
            t, u = statistics.median(traced_host), statistics.median(
                untraced_host)
            print("tracing overhead: host_s %.4f traced vs %.4f untraced "
                  "(%+.1f%%)" % (t, u, 100 * (t - u) / u))
    print("steady: %s" % ("OK" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
