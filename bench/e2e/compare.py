#!/usr/bin/env python3
"""Replicated runs of the end-to-end benchmark and the rules that judge them.

  compare.py spread --checkout DIR --out FILE [--runs 10] [--seconds 10]
                    [--workloads a,b]
      Runs every workload --runs times in DIR, each with another seed, and
      prints each end-to-end metric's median, quartiles and spread (IQR as a
      share of the median) against its bound in BENCHMARK.json.

  compare.py pairs --parent DIR --change DIR --out FILE [--pairs 10]
                   [--seconds 10] [--workloads a,b]
      Runs alternating parent/change pairs (the side that goes first
      alternates; both sides of a pair share a seed), then reports.

  compare.py report FILE
      Applies the rule to the pairs in FILE, one row per workload and metric:
        gain        the change wins >= 9/10 of the pairs and the medians differ
                    by more than the parent's IQR
        regression  the change's median is worse than the parent's by more
                    than the metric's bound
        unresolved  the spread of either side exceeds the bound, unless every
                    change run beats every parent run
        same        otherwise
      and checks that the failed share did not rise.

Every run appends one JSON line {"side", "workload", "seed", "result"} to
FILE, so an interrupted session can be reported on or extended.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def load_benchmark(path):
    with open(os.path.join(path, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, bench, workload, seed, seconds):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} failed "
                           f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    print(f"{workload} seed {seed}: correct={result['correct']} "
          f"({time.monotonic() - start:.1f} s)", file=sys.stderr)
    return result


def append(path, record):
    with open(path, "a") as f:
        f.write(json.dumps(record) + "\n")


def read(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_values(records, side, workload, metric):
    return [r["result"]["metrics"][metric]["value"] for r in records
            if r["side"] == side and r["workload"] == workload
            and metric in r["result"]["metrics"]]


def failed_share(records, side, workload):
    attempted = sum(r["result"]["attempted"] for r in records
                    if r["side"] == side and r["workload"] == workload)
    failed = sum(r["result"]["failed"] for r in records
                 if r["side"] == side and r["workload"] == workload)
    return failed / attempted if attempted else 0.0


def cmd_spread(args):
    bench = load_benchmark(args.checkout)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        for k in range(args.runs):
            seed = args.first_seed + k
            result = run_once(args.checkout, bench, workload, seed,
                              args.seconds)
            append(args.out, {"side": "spread", "workload": workload,
                              "seed": seed, "result": result})
    records = read(args.out)
    ok = True
    print(f"{'workload':14} {'metric':18} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}")
    for workload in workloads:
        for m in bench["end_to_end"]:
            values = metric_values(records, "spread", workload, m["name"])
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if m["name"] != "setup_s" and spread > m["bound"] / 3:
                flag = "  > bound/3"
                ok = False
            print(f"{workload:14} {m['name']:18} {med:12.5g} {q1:12.5g} "
                  f"{q3:12.5g} {spread:8.3f} {m['bound']:6.2f}{flag}")
        incorrect = [r["seed"] for r in records if r["workload"] == workload
                     and r["side"] == "spread" and not r["result"]["correct"]]
        if incorrect:
            ok = False
            print(f"{workload}: incorrect output for seeds {incorrect}")
    return 0 if ok else 1


def cmd_pairs(args):
    bench = load_benchmark(args.change)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        for k in range(args.pairs):
            seed = args.first_seed + k
            order = [("parent", args.parent), ("change", args.change)]
            if k % 2:
                order.reverse()
            for side, checkout in order:
                result = run_once(checkout, bench, workload, seed,
                                  args.seconds)
                append(args.out, {"side": side, "workload": workload,
                                  "seed": seed, "result": result})
    return report(args.out, bench)


def better(metric, a, b):
    """True when value a is better than value b for this metric."""
    return a < b if metric["better"] == "lower" else a > b


def cmd_report(args):
    return report(args.file, load_benchmark(args.bench_dir))


def report(path, bench):
    records = read(path)
    workloads = sorted({r["workload"] for r in records})
    ok = True
    print(f"{'workload':14} {'metric':18} {'parent':>12} {'change':>12} "
          f"{'wins':>6} {'verdict':>11}")
    for workload in workloads:
        pairs = {}
        for r in records:
            if r["workload"] == workload and r["side"] in ("parent", "change"):
                pairs.setdefault(r["seed"], {})[r["side"]] = r
        complete = [p for p in pairs.values() if len(p) == 2]
        for m in bench["end_to_end"]:
            name = m["name"]
            parent = [p["parent"]["result"]["metrics"][name]["value"]
                      for p in complete]
            change = [p["change"]["result"]["metrics"][name]["value"]
                      for p in complete]
            if not parent:
                continue
            pq1, pmed, pq3 = quartiles(parent)
            cq1, cmed, cq3 = quartiles(change)
            wins = sum(better(m, c, p) for p, c in zip(parent, change))
            worse_by = ((cmed - pmed) / pmed if m["better"] == "lower"
                        else (pmed - cmed) / pmed) if pmed else 0.0
            spread = max((pq3 - pq1) / pmed if pmed else 0.0,
                         (cq3 - cq1) / cmed if cmed else 0.0)
            if (len(complete) >= 10 and wins >= 0.9 * len(complete)
                    and abs(cmed - pmed) > pq3 - pq1):
                verdict = "gain"
            elif worse_by > m["bound"]:
                verdict = "regression"
                ok = False
            elif spread > m["bound"] and not (
                    min(change) > max(parent) if m["better"] == "higher"
                    else max(change) < min(parent)):
                verdict = "unresolved"
            else:
                verdict = "same"
            print(f"{workload:14} {name:18} {pmed:12.5g} {cmed:12.5g} "
                  f"{wins:3d}/{len(complete):<2d} {verdict:>11}")
        before = failed_share(records, "parent", workload)
        after = failed_share(records, "change", workload)
        if after > before:
            ok = False
            print(f"{workload}: failed share rose {before:.4f} -> {after:.4f}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", required=True)
        p.add_argument("--seconds", type=int, default=10)
        p.add_argument("--first-seed", type=int, default=1)
        p.add_argument("--workloads", type=lambda s: s.split(","))

    spread = sub.add_parser("spread")
    spread.add_argument("--checkout", default=".")
    spread.add_argument("--runs", type=int, default=10)
    common(spread)
    spread.set_defaults(fn=cmd_spread)

    pairs = sub.add_parser("pairs")
    pairs.add_argument("--parent", required=True)
    pairs.add_argument("--change", required=True)
    pairs.add_argument("--pairs", type=int, default=10)
    common(pairs)
    pairs.set_defaults(fn=cmd_pairs)

    report_parser = sub.add_parser("report")
    report_parser.add_argument("file")
    report_parser.add_argument("--bench-dir", default=".",
                               help="checkout whose BENCHMARK.json has the bounds")
    report_parser.set_defaults(fn=cmd_report)

    args = parser.parse_args()
    sys.exit(args.fn(args))


if __name__ == "__main__":
    main()
