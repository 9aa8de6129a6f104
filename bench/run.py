"""deforma benchmark: one workload, timed against a reference loop, checked.

    python3 bench/run.py --workload cohomology-sweep --seed 1 --seconds 40 --trace 0

Runs from the root of a checkout of the repository.  In one process and
one thread it imports ``deforma`` from ``src/``, writes the workload's
input files under ``.bench_run/``, and drives the CLI in-process through
``deforma.cli.run``, round after round, for about ``--seconds`` seconds.
After the timed part it checks every report against computations made
apart from the program (``checks.py``).  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer ones with
``--trace 1``.  Progress and failures go to stderr.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
from refloop import time_reference  # noqa: E402
from workloads import WORKLOADS, Generator  # noqa: E402

#: Set-ups before the first round; setup_s is the median of these and of
#: the one before each later round.
SETUPS = 5

#: Reference-loop time after each job, as a share of the job's time.
REF_SHARE = 0.1

#: Standard-library modules deforma imports.  They are imported before the
#: timed set-ups, so every set-up times the same thing: deforma's own
#: modules plus writing one round of input files.
STDLIB = ("argparse", "dataclasses", "fractions", "functools", "hashlib", "itertools", "json", "logging", "math", "re")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def require_sources() -> None:
    """Fail fast, without a result, where the program or the oracle is missing."""
    for rel in ("src/deforma/cli.py", "tests/ce_oracle.py"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            print(f"bench: {rel} not found under {ROOT}; run from a full checkout", file=sys.stderr)
            raise SystemExit(2)


def write_round(jobs, directory: str) -> None:
    """Write the round's input files and resolve each job's argv."""
    os.makedirs(directory)
    written, texts = {}, {}
    for job in jobs:
        for name, text in job.files.items():
            if name in written:
                if texts[name] != text:
                    raise AssertionError(f"two inputs of one round are both named {name}")
            else:
                texts[name] = text
                path = os.path.join(directory, name)
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                written[name] = path
        job.ctx["argv"] = [written[a[1:]] if a.startswith("@") else a for a in job.argv]
        roles = ("algebra", "alpha1")
        job.ctx["sha256"] = {
            role: checks.sha256_text(job.files[a[1:]]) for role, a in zip(roles, [x for x in job.argv if x.startswith("@")])
        }


def import_program():
    """Import deforma afresh and return ``deforma.cli.run``."""
    for name in [m for m in sys.modules if m == "deforma" or m.startswith("deforma.")]:
        del sys.modules[name]
    return importlib.import_module("deforma.cli").run


def set_up(jobs: list, directory: str):
    """One set-up: import deforma afresh and write one round of inputs.
    Returns ``deforma.cli.run`` and the seconds it took."""
    t0 = time.perf_counter()
    run = import_program()
    write_round(jobs, directory)
    return run, time.perf_counter() - t0


def measure(generator: Generator, workdir: str, seconds: float, tracer=None):
    """Set up, then run whole rounds until the next one would end after
    ``seconds``.

    Untraced, every round but the first is preceded by a fresh set-up, so
    the set-up samples are spread over the run like the jobs are; the
    first round is preceded by SETUPS of them.  Returns the set-up times
    and one record per round: the jobs, their seconds, the reference loop
    samples taken around them and the raw outputs.
    """
    sys.path.insert(0, os.path.join(ROOT, "src"))
    for name in STDLIB:
        importlib.import_module(name)
    jobs = generator.round(0)
    setups = []
    for k in range(SETUPS):
        run, spent = set_up(jobs, os.path.join(workdir, f"r0-{k}"))
        setups.append(spent)
    if tracer:
        tracer.install()
        run = sys.modules["deforma.cli"].run
    records = []
    begin = time.perf_counter()
    r = 0
    while True:
        if r:
            jobs = generator.round(r)
            directory = os.path.join(workdir, f"r{r}")
            if tracer:
                write_round(jobs, directory)
            else:
                run, spent = set_up(jobs, directory)
                setups.append(spent)
        # collect what earlier rounds and set-ups left (the modules of the
        # previous import), then keep the benchmark's own objects out of
        # the program's collections
        gc.unfreeze()
        gc.collect()
        gc.freeze()
        start = time.perf_counter()
        refs = [time_reference()]
        debt = 0.0
        times, outputs, calls = [], [], []
        for job in jobs:
            out, err = io.StringIO(), io.StringIO()
            before = dict(tracer.calls) if tracer else None
            t0 = time.perf_counter()
            try:
                code = run(job.ctx["argv"], stdout=out, stderr=err)
            except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
                code = None
                err.write(f"{type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - t0
            times.append(elapsed)
            # a CLI process exits after one job and never collects its
            # garbage; collecting here keeps that work out of the next job
            # and out of the reference samples
            gc.collect()
            # sample the reference loop in proportion to the time spent, so
            # the round's median reference is a time-weighted one
            debt += REF_SHARE * elapsed
            while debt > 0:
                refs.append(time_reference())
                debt -= refs[-1]
            outputs.append((code, out.getvalue(), err.getvalue()))
            if tracer:
                calls.append({k: v - before.get(k, 0) for k, v in tracer.calls.items() if v != before.get(k, 0)})
        refs.append(time_reference())
        records.append({"jobs": jobs, "times": times, "refs": refs, "outputs": outputs, "calls": calls})
        r += 1
        now = time.perf_counter()
        if now - begin + (now - start) > seconds:
            return setups, records


def check(records: list) -> tuple[bool, int]:
    """Check every report; returns (all correct, failed operations)."""
    env = checks.Environment(ROOT)
    correct, failed = True, 0
    for rec in records:
        reports = []
        for job, (code, out, err) in zip(rec["jobs"], rec["outputs"]):
            if code is None or not out:
                failed += 1
                print(f"bench: {job.label} failed: {err.strip()}", file=sys.stderr)
                reports.append(None)
                continue
            reports.append(json.loads(out))
        try:
            ok = [(j, rep) for j, rep in zip(rec["jobs"], reports) if rep is not None]
            checks.check_round([j for j, _ in ok], [rep for _, rep in ok], env)
        except checks.CheckFailed as exc:
            correct = False
            print(f"bench: check failed: {exc}", file=sys.stderr)
    return correct and failed == 0, failed


def end_to_end(records: list, setup_s: float, rss_mb: float) -> dict:
    walls, jobs = [], []
    for rec in records:
        ref = statistics.median(rec["refs"])
        walls.append(sum(rec["times"]) / ref)
        jobs.extend(t / ref for t in rec["times"])
    return {
        "wall_ref": {"value": statistics.median(walls), "unit": "ref"},
        "job_p50_ref": {"value": statistics.median(jobs), "unit": "ref"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def per_layer(tracer, wall_ref: float) -> dict:
    units = {"_calls": "count", "_s": "s", "orders": "count", "instances": "count", "cells": "count", "bits": "bits"}
    metrics = {}
    for name, value in tracer.per_layer().items():
        unit = next(u for suffix, u in units.items() if name.endswith(suffix))
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.wall_ref"] = {"value": wall_ref, "unit": "ref"}
    return metrics


def write_trace(path: str, tracer, records: list, summary: dict) -> None:
    jobs = [
        {"round": r, "job": job.label, "argv": job.argv, "seconds": t, "calls": calls}
        for r, rec in enumerate(records)
        for job, t, calls in zip(rec["jobs"], rec["times"], rec["calls"])
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"summary": summary, "functions": tracer.table(), "jobs": jobs}, handle, indent=1, default=str)
        handle.write("\n")


def main(argv=None) -> int:
    ns = parse_args(argv)
    require_sources()
    generator = Generator(ns.workload, ns.seed)
    scratch = os.path.join(ROOT, ".bench_run")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{ns.workload}-{ns.seed}-", dir=scratch)
    try:
        tracer = None
        if ns.trace:
            from tracing import Tracer

            tracer = Tracer()
        setups, records = measure(generator, workdir, ns.seconds, tracer)
        # peak memory of the measuring process, read before the checks
        # import sympy
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.uninstall()
        t_check = time.perf_counter()
        correct, failed = check(records)
        t_check = time.perf_counter() - t_check
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = end_to_end(records, statistics.median(setups), rss_mb)
    attempted = sum(len(rec["jobs"]) for rec in records)
    print(
        f"bench: {ns.workload} seed {ns.seed}: {len(records)} round(s), {attempted} jobs, checks {t_check:.1f}s, "
        + ", ".join(f"{k}={v['value']:.4g}" for k, v in metrics.items()),
        file=sys.stderr,
    )
    if tracer:
        metrics = per_layer(tracer, metrics["wall_ref"]["value"])
        path = os.path.join(scratch, f"trace-{ns.workload}-{ns.seed}.json")
        write_trace(path, tracer, records, metrics)
        print(f"bench: trace written to {os.path.relpath(path, ROOT)}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
