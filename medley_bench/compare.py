#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the BENCHMARK.json bounds.

    python3 medley_bench/compare.py BASE_DIR NEW_DIR [--bench BENCHMARK.json]

Each directory holds run JSONs written by run.py ({"host": ...,
"workloads": {name: {"correct", "attempted", "failed", "metrics"}}}); a
workload may appear in several files. Prints one row per workload x metric:
each side's median and quartiles, the change of the medians, and a verdict:

  unresolved  the run-to-run spread (IQR / median) of either side is wider
              than the metric's bound, and the runs of the two sides
              overlap
  REGRESSION  NEW's median is worse than BASE's by more than the bound
              (with a wide spread: and every NEW run is worse than every
              BASE run)
  gain        the pair rule holds: >= 10 pairs (runs paired in start
              order), NEW wins >= 9 in 10, and the medians differ by more
              than BASE's IQR
  ok          within the bound, no claimable gain

Per-layer metrics have no bound and are listed with "-". Exits 1 on a
regression, on any rise in error_rate (failed / attempted), on a run that
failed its correctness checks, on a workload of BASE with no run in NEW,
and on an end-to-end metric of BASE missing from any NEW run of its
workload (a crashed or silent workload must not pass).
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    """{workload: [result, ...]} in run start order, plus a failure list."""
    runs = []
    for path in glob.glob(os.path.join(directory, "*.json")):
        with open(path) as f:
            doc = json.load(f)
        start = doc.get("host", {}).get("started_unix", 0)
        for name, res in doc.get("workloads", {}).items():
            runs.append((start, path, name, res))
    out, bad = {}, []
    for _, path, name, res in sorted(runs):
        out.setdefault(name, []).append(res)
        if not res.get("correct", False):
            bad.append("%s: %s failed its checks" % (path, name))
    return out, bad


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, new, bound, better):
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    sign = 1 if better == "lower" else -1
    worse = sign * (nm - bm) / bm if bm else 0.0
    spread = max((b3 - b1) / bm if bm else 0.0, (n3 - n1) / nm if nm else 0.0)
    wins_all = all(sign * (n - b) < 0 for n in new for b in base)
    loses_all = all(sign * (n - b) > 0 for n in new for b in base)
    if spread > bound:
        if wins_all:
            return "better (every run)"
        return "REGRESSION" if loses_all and worse > bound else "unresolved"
    if worse > bound:
        return "REGRESSION"
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and worse < 0
            and abs(nm - bm) > b3 - b1):
        return "gain"
    return "ok"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--bench", default=os.path.join(os.path.dirname(HERE),
                                                    "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.bench) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer = {m["name"]: m for m in bench["per_layer"]}

    base, bad_base = load(args.base)
    new, bad_new = load(args.new)
    failed = bool(bad_base or bad_new)
    for line in bad_base + bad_new:
        print("CHECK FAILED", line)

    fmt = "%-12s %-30s %-34s %-34s %8s %6s  %s"
    print(fmt % ("workload", "metric", "base median [q1, q3]",
                 "new median [q1, q3]", "change", "bound", "verdict"))
    for w in sorted(set(base) & set(new)):
        rows = []
        names = set()
        for res in base[w] + new[w]:
            names.update(res["metrics"])
        for name in sorted(names, key=lambda n: (n not in e2e, n)):
            b = [r["metrics"][name]["value"] for r in base[w]
                 if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in new[w]
                 if name in r["metrics"]]
            if name in e2e and b and len(n) < len(new[w]):
                print("MISSING %s %s: in %d of %d new runs"
                      % (w, name, len(n), len(new[w])))
                failed = True
            if not b or not n:
                continue
            spec = e2e.get(name) or layer.get(name)
            bound = e2e[name]["bound"] if name in e2e else None
            v = (verdict(b, n, bound, spec["better"]) if bound is not None
                 else "-")
            failed |= v == "REGRESSION"
            rows.append((name, b, n, bound, v))

        def rate(results):
            att = sum(r["attempted"] for r in results)
            return sum(r["failed"] for r in results) / att if att else 0.0
        er_b, er_n = rate(base[w]), rate(new[w])
        er_v = "REGRESSION" if er_n > er_b else "ok"
        failed |= er_v == "REGRESSION"
        print(fmt % (w, "error_rate", "%.3g" % er_b, "%.3g" % er_n, "", "0",
                     er_v))
        for name, b, n, bound, v in rows:
            b1, bm, b3 = quartiles(b)
            n1, nm, n3 = quartiles(n)
            change = "%+.1f%%" % (100 * (nm - bm) / bm) if bm else "n/a"
            print(fmt % (w, name, "%.4g [%.4g, %.4g]" % (bm, b1, b3),
                         "%.4g [%.4g, %.4g]" % (nm, n1, n3), change,
                         "-" if bound is None else "%d%%" % (100 * bound), v))
    for w in sorted(set(new) - set(base)):
        print("%s: only in new" % w)
    for w in sorted(set(base) - set(new)):
        print("MISSING %s: in base, no run in new" % w)
        failed = True
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
