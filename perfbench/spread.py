#!/usr/bin/env python3
"""Run the benchmark on one workload over several seeds and report, per
end-to-end metric, the median and the quartile spread as a share of the
median, next to the bound BENCHMARK.json fixes. Run from the repository root:

    python3 perfbench/spread.py sim-n1024 --seeds 1-10

A spread at or below a third of the bound is steady enough to detect a
regression of the bound's size.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1-5", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, help="default: run_seconds")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        if not res["correct"]:
            sys.exit(f"seed {seed}: incorrect output: {res}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
              flush=True)

    print(f"{'metric':<18} {'median':>10} {'spread':>8} {'bound/3':>8}")
    for m in bench["end_to_end"]:
        vs = values[m["name"]]
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med
        flag = "" if spread <= m["bound"] / 3 else "  <- above a third of the bound"
        print(f"{m['name']:<18} {med:>10.4g} {spread:>8.3f} {m['bound'] / 3:>8.3f}{flag}")


if __name__ == "__main__":
    main()
