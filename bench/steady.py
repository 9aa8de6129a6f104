"""Steadiness check: run each workload repeatedly and report the spread.

    python3 bench/steady.py                      # every workload, seeds 1..10
    python3 bench/steady.py --workload deform-march --runs 5 --first-seed 101
    python3 bench/steady.py --holdout 977        # adds one run on seed 977

Run from the repository root.  Each run is ``bench/run.py`` in its own
process, one after another, with ``run_seconds`` from BENCHMARK.json and a
new seed per run.  For every end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread (Q3 - Q1) /
median and that spread as a share of the metric's bound; ``setup_s`` is
shown but, having the largest bound, is judged on its median only.  It also
prints the share of failed operations, which must be the same in every
run.  Every run's result line is appended to ``.bench_run/steady.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_once(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    os.makedirs(os.path.join(ROOT, ".bench_run"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_run", "steady.jsonl"), "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"workload": workload, "seed": seed, "trace": trace, "result": result}) + "\n")
    return result


def summarize(spec: dict, workload: str, results: list[dict]) -> bool:
    """Print one line per metric; returns whether every spread is within
    its bound."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    print(f"\n{workload}: {len(results)} runs")
    print(f"  {'metric':14s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} {'spread':>8s} {'bound':>6s} {'of bound':>8s}")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / q2
        judged = name != "setup_s"
        ok = ok and (spread <= bound or not judged)
        flag = "" if not judged else ("  ok" if spread <= bound / 3 else ("  within bound" if spread <= bound else "  OVER"))
        print(f"  {name:14s} {q2:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.2%} {bound:6.2f} {spread / bound:8.0%}{flag}")
    shares = {(r["failed"], r["attempted"]) for r in results}
    failed_share = {f / a for f, a in shares}
    print(f"  failed share: {sorted(failed_share)}; correct in every run: {all(r['correct'] for r in results)}")
    return ok and len(failed_share) == 1 and all(r["correct"] for r in results)


def main() -> None:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, action="append", help="default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--holdout", type=int, default=None, help="one more run on this seed, checked and compared")
    ns = parser.parse_args()
    steady = True
    for workload in ns.workload or names:
        results = []
        for k in range(ns.runs):
            seed = ns.first_seed + k
            result = run_once(spec, workload, seed, ns.seconds, 0)
            print(f"  {workload} seed {seed}: " + ", ".join(f"{m}={v['value']:.5g}" for m, v in result["metrics"].items()), flush=True)
            results.append(result)
        steady = summarize(spec, workload, results) and steady
        if ns.holdout is not None:
            result = run_once(spec, workload, ns.holdout, ns.seconds, 0)
            medians = {m: statistics.median(r["metrics"][m]["value"] for r in results) for m in result["metrics"]}
            rel = ", ".join(f"{m}={v['value'] / medians[m]:.3f}x median" for m, v in result["metrics"].items())
            print(f"  hold-out seed {ns.holdout}: correct={result['correct']} failed={result['failed']}/{result['attempted']}; {rel}")
            steady = steady and result["correct"]
    print("\nsteady" if steady else "\nNOT steady")
    raise SystemExit(0 if steady else 1)


if __name__ == "__main__":
    main()
