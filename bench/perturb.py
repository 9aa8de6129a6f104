"""Show that the checks catch wrong reports.

    python3 bench/perturb.py            # every workload, seed 1
    python3 bench/perturb.py --workload linfty-verify --seed 7

Run from the repository root.  It runs one round of each workload
in-process (untimed), checks the true reports, then feeds the checks one
perturbed report at a time and prints the failure each one raises.  It
exits 1 if the true reports fail or any perturbation goes unnoticed.
"""

from __future__ import annotations

import argparse
import copy
import io
import json
import os
import shutil
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
from run import write_round  # noqa: E402
from workloads import WORKLOADS, Generator  # noqa: E402


def _bump(value: str) -> str:
    return str(Fraction(value) + 1)


def _set_first_entry(cochain: dict, fn) -> None:
    key = sorted(cochain["entries"])[0]
    row = cochain["entries"][key]
    k = next(i for i, c in enumerate(row) if c != "0")
    row[k] = fn(row[k])


def _cohomology_cases():
    def dims(res):
        res["dim_h"] += 1
        res["dim_cocycles"] += 1

    def coefficient(res):
        _set_first_entry(res["representatives"][-1], _bump)

    def duplicate(res):
        res["representatives"][-1] = copy.deepcopy(res["representatives"][0])

    def upper(res):
        res["dim_coboundaries"] -= 1
        res["dim_cocycles"] -= 1

    big = lambda job: job.kind == "cohomology" and job.ctx["base"] in ("L5", "h5") and job.ctx["degree"] == 2  # noqa: E731
    return [
        ("dimensions off by one", big, dims),
        ("one representative coefficient changed", big, coefficient),
        ("a representative repeated", big, duplicate),
        ("dim Z and dim B off by one", lambda job: job.kind == "cohomology" and job.ctx["base"] == "L4" and job.ctx["degree"] == 3, upper),
    ]


def _deform_cases():
    def witness(res):
        _set_first_entry(res["orders"][0]["witness"], _bump)

    def class_zero(res):
        res["obstruction_class"] = ["0"] * len(res["obstruction_class"])

    def stop_early(res):
        res["order_reached"] -= 1
        res["obstructed_at"] = res["order_reached"] + 1
        res["orders"] = res["orders"][:-1] + [{"order": res["obstructed_at"], "status": "obstructed"}]
        res["obstruction_class"] = ["1"]

    def solve_obstructed(res):
        res["orders"][-1] = {"order": res["obstructed_at"], "status": "solved", "witness": {"degree": 2, "entries": {}}}
        res["order_reached"] = res["obstructed_at"]
        res["obstructed_at"] = None
        res["obstruction_class"] = None

    def label(name):
        return lambda job: job.kind == "deform" and job.label == f"deform({name})"

    return [
        ("a witness coefficient changed", label("L5-obstructed-5"), witness),
        ("obstruction class reported as zero", label("L5-obstructed-3"), class_zero),
        ("unobstructed march stopped one order early", label("h5-unobstructed"), stop_early),
        ("obstructed order reported as solved by zero", label("L4-obstructed-2"), solve_obstructed),
    ]


def _linfty_cases():
    def instances(res):
        res["relations"][1]["instances"] += 1

    def doubled_l3(res):
        key = next(k for k, v in sorted(res["l3_table"].items()) if v != "0")
        body = checks._parse_l3(res["l3_table"][key], len(res["l3_table"][key].split(",")))
        res["l3_table"][key] = "t^2 * [" + ",".join(str(2 * c) for c in body) + "]^*"

    def restriction(res):
        res["restriction"] = "mismatch"

    def homotopy(res):
        res["homotopy"]["checked"] -= 1

    def relation(res):
        res["relations"][0]["passed"] = False

    obstructed = lambda job: job.kind == "linfty" and job.label == "linfty(L4-obstructed)"  # noqa: E731
    return [
        ("an R2 instance count off by one", obstructed, instances),
        ("l3 with the doubled normalization", obstructed, doubled_l3),
        ("restriction reported as mismatch", obstructed, restriction),
        ("homotopy check count off by one", obstructed, homotopy),
        ("R1 reported as failed", obstructed, relation),
    ]


def _validate_case():
    def violation(res):
        res["jacobi_violations"] = [{"triple": [1, 2, 3], "value": "[0,0,1]"}]

    return ("a Jacobi violation reported", lambda job: job.kind == "validate", violation)


CASES = {
    "cohomology-sweep": _cohomology_cases,
    "deform-march": _deform_cases,
    "linfty-verify": _linfty_cases,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--seed", type=int, default=1)
    ns = parser.parse_args()
    from deforma.cli import run

    env = checks.Environment(ROOT)
    scratch = os.path.join(ROOT, ".bench_run")
    os.makedirs(scratch, exist_ok=True)
    all_caught = True
    for workload in ns.workload or WORKLOADS:
        workdir = tempfile.mkdtemp(prefix=f"perturb-{workload}-", dir=scratch)
        try:
            jobs = Generator(workload, ns.seed).round(0)
            write_round(jobs, os.path.join(workdir, "r0"))
            reports = []
            for job in jobs:
                out = io.StringIO()
                run(job.ctx["argv"], stdout=out, stderr=io.StringIO())
                reports.append(json.loads(out.getvalue()))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        checks.check_round(jobs, reports, env)
        print(f"{workload}: {len(jobs)} true reports pass")
        for desc, pick, mutate in [*CASES[workload](), _validate_case()]:
            k = next(i for i, job in enumerate(jobs) if pick(job))
            bad = copy.deepcopy(reports)
            mutate(bad[k]["result"])
            try:
                checks.check_round(jobs, bad, env)
            except checks.CheckFailed as exc:
                print(f"  caught  {desc}: {exc}")
            else:
                all_caught = False
                print(f"  MISSED  {desc}")
    raise SystemExit(0 if all_caught else 1)


if __name__ == "__main__":
    main()
