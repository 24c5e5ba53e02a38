#!/usr/bin/env python3
"""Steadiness check for the polystore benchmark.

Runs every workload repeatedly, alternating workloads (run i of each
workload before run i+1 of any), each run with its own seed, and prints for
every metric the median, the quartiles and the interquartile range as a
share of the median, next to the bound BENCHMARK.json gives it. Bounds are
set from these spreads, and this command re-checks them.

Run from the root of the repository:

    python3 polybench/steady.py                  # 10 runs per workload
    python3 polybench/steady.py --runs 5 --workloads wire-scan
    python3 polybench/steady.py --trace 1 --runs 3   # per-layer metrics

It builds the benchmark first, so no run includes compilation.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1])


def main() -> None:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--first-seed", type=int, default=1000)
    # the program also runs workloads BENCHMARK.json does not list
    ap.add_argument("--workloads", nargs="+", default=names)
    args = ap.parse_args()

    command = spec["command"]
    # build once, outside any measured run
    subprocess.run(["cargo", "build", "--quiet", "--offline", "--release",
                    "--manifest-path", "polybench/Cargo.toml"], cwd=ROOT, check=True)

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    values = {w: {} for w in args.workloads}
    shares = {w: [] for w in args.workloads}
    for i in range(args.runs):
        for w in args.workloads:
            seed = args.first_seed + i
            out = run_once(command, w, seed, spec["run_seconds"], args.trace)
            if not out["correct"]:
                raise SystemExit(f"{w} seed {seed}: incorrect answers")
            shares[w].append(out["failed"] / out["attempted"])
            for name, m in out["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"run {i + 1}/{args.runs} {w} seed {seed}: "
                  + ", ".join(f"{k}={v['value']:.6g}" for k, v in out["metrics"].items()),
                  flush=True)

    worst = 0.0
    print()
    print(f"{'workload':<14} {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'bound':>6}")
    for w in args.workloads:
        for name, vs in sorted(values[w].items()):
            med = statistics.median(vs)
            if len(vs) >= 2:
                q1, _, q3 = statistics.quantiles(vs, n=4)
            else:
                q1 = q3 = vs[0]
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                worst = max(worst, spread / bound)
                flag = "  ok" if spread < bound / 3 else ("  WIDE" if spread > bound else "  >1/3")
            print(f"{w:<14} {name:<28} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.2%} {bound if bound is not None else '':>6}{flag}")
        print(f"{w:<14} {'failed share':<28} {sorted(set(shares[w]))}")
    if not args.trace:
        print(f"\nlargest spread as a share of its bound: {worst:.2f}")


if __name__ == "__main__":
    main()
