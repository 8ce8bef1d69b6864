#!/usr/bin/env python3
"""The benchmark's own checks.

    python3 perfbench/check.py tests         self-tests of the answer checks,
                                             and every metric of BENCHMARK.json
                                             in the output of every workload
    python3 perfbench/check.py sensitivity   predecode and block compiler off
                                             must move run_s on e7_loop and
                                             dbsearch_16x8 beyond its bound
    python3 perfbench/check.py spread --workload W [--runs N] [--seconds S]
                                             quartile spread of each end-to-end
                                             metric over N seeds, against bound/3
    python3 perfbench/check.py               tests, then sensitivity

Run from the repository root.  Exits non-zero when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build step)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bench(workload, seed, seconds, trace, extra=()):
    """Run one workload; returns the parsed result line."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartile_spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def check_tests():
    bdir = run.build()
    ok = subprocess.run([os.path.join(bdir, "perfbench_tests")]).returncode == 0
    s = spec()
    for w in s["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = bench(w["name"], 1, 1, trace)
            want = {m["name"]: m["unit"] for m in s[key]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            good = (got == want and r["correct"] and r["failed"] == 0
                    and r["attempted"] >= 1
                    and set(r) == {"correct", "attempted", "failed", "metrics"})
            print(f"{'ok  ' if good else 'FAIL'} {w['name']} trace {trace}: "
                  f"{len(got)} metrics, {r['attempted']} attempted, "
                  f"{r['failed']} failed")
            if got != want:
                print(f"     missing {sorted(set(want) - set(got))}, "
                      f"extra {sorted(set(got) - set(want))}")
            ok = ok and good
    return ok


def check_sensitivity(runs=3, seconds=5):
    bound = {m["name"]: m["bound"] for m in spec()["end_to_end"]}["run_s"]
    ok = True
    for w in ("e7_loop", "dbsearch_16x8"):
        fast, slow = [], []
        for seed in range(1, runs + 1):
            fast.append(bench(w, seed, seconds, 0)["metrics"]["run_s"]["value"])
            r = bench(w, seed, seconds, 0, ["--slow-cpu"])
            if not r["correct"] or r["failed"]:
                ok = False
            slow.append(r["metrics"]["run_s"]["value"])
        ratio = statistics.median(slow) / statistics.median(fast)
        moved = ratio - 1 > bound
        ok = ok and moved
        print(f"{'ok  ' if moved else 'FAIL'} {w}: run_s "
              f"{statistics.median(fast):.4f} s -> {statistics.median(slow):.4f} s "
              f"with predecode and blockc off ({ratio:.2f}x, bound {bound})")
    return ok


def check_spread(workload, runs, seconds):
    s = spec()
    results = [bench(workload, seed, seconds, 0) for seed in range(1, runs + 1)]
    ok = True
    for m in s["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        sp = quartile_spread(vals)
        steady = sp < m["bound"] / 3
        ok = ok and steady
        print(f"{'ok  ' if steady else 'WIDE'} {workload} {m['name']}: "
              f"median {statistics.median(vals):.6g} {m['unit']}, "
              f"spread {sp:.4f} (bound {m['bound']})")
    failed = {r["failed"] / r["attempted"] for r in results}
    print(f"     failed share {sorted(failed)}; all correct: "
          f"{all(r['correct'] for r in results)}")
    return ok and all(r["correct"] for r in results)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("what", nargs="?", default="all",
                   choices=["all", "tests", "sensitivity", "spread"])
    p.add_argument("--workload")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float,
                   default=spec()["run_seconds"])
    a = p.parse_args()
    if a.what == "spread":
        return 0 if check_spread(a.workload, a.runs, a.seconds) else 1
    ok = True
    if a.what in ("all", "tests"):
        ok = check_tests() and ok
    if a.what in ("all", "sensitivity"):
        ok = check_sensitivity() and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
