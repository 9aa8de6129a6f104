"""Correctness checks made apart from the program.

Every report is checked against the textbook oracle in
``tests/ce_oracle.py`` (the Chevalley-Eilenberg differential written from
its summation formula, and ``brute_compose``), against dimensions the
oracle computed with sympy (``oracle_dims.json``), and against identities
that any correct answer satisfies.  Nothing is compared with a saved copy
of the program's own output.  Independence is proved by ranks modulo a
prime: a rank mod p never exceeds the rank over Q, so a full rank mod p
proves full rank over Q.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
from fractions import Fraction
from itertools import combinations
from math import comb, lcm

import models

PRIME = (1 << 61) - 1
HERE = os.path.dirname(os.path.abspath(__file__))
DIMS_FILE = os.path.join(HERE, "oracle_dims.json")
_L3_TERM = re.compile(r"t\^2 \* \[([^\]]*)\]\^\*")


class CheckFailed(Exception):
    """A report disagrees with the independent computation."""


def load_oracle(root: str):
    """Import ``tests/ce_oracle.py`` (it imports sympy)."""
    tests = os.path.join(root, "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    import ce_oracle

    return ce_oracle


def load_dims() -> dict:
    """{algebra: {degree: (dim Z, dim B, dim H)}} from the oracle table."""
    with open(DIMS_FILE, encoding="utf-8") as handle:
        raw = json.load(handle)
    return {name: {int(p): tuple(v) for p, v in rows.items()} for name, rows in raw["dims"].items()}


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ------------------------------------------------------------ exact helpers


def rank_mod_p(rows: list[list[Fraction]]) -> int:
    """Rank of a rational matrix reduced modulo PRIME."""
    work = []
    for row in rows:
        out = []
        for v in row:
            den = v.denominator % PRIME
            if den == 0:
                raise CheckFailed("a denominator vanishes modulo the check prime")
            out.append(v.numerator * pow(den, -1, PRIME) % PRIME)
        work.append(out)
    rank = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][c], -1, PRIME)
        prow = [x * inv % PRIME for x in work[rank]]
        work[rank] = prow
        for i in range(rank + 1, len(work)):
            f = work[i][c]
            if f:
                work[i] = [(a - f * b) % PRIME for a, b in zip(work[i], prow)]
        rank += 1
    return rank


def flatten(dim: int, degree: int, cochain: dict) -> list[Fraction]:
    """Coordinates: increasing tuples in lexicographic order, target index
    innermost."""
    out = []
    zero = [Fraction(0)] * dim
    for tup in combinations(range(dim), degree):
        out.extend(cochain.get(tup, zero))
    return out


class Oracle:
    """The textbook computations for one algebra table."""

    def __init__(self, ce, dim: int, table: models.Table) -> None:
        self.ce = ce
        self.dim = dim
        self.table = table
        sparse = {pair: {k: c for k, c in enumerate(row) if c} for pair, row in table.items()}
        self.bracket = ce.make_bracket(dim, sparse)
        self._coboundaries: dict[int, list] = {}

    def d(self, degree: int, cochain: dict) -> dict:
        return self.ce.standard_d(self.dim, self.bracket, degree, cochain)

    def is_cocycle(self, degree: int, cochain: dict) -> bool:
        return not any(any(v) for v in self.d(degree, cochain).values())

    def all_cocycles(self, degree: int, cochains: list[dict]) -> bool:
        """Whether every cochain is a cocycle, from one call of the oracle.

        With D clearing all denominators, R_k = D r_k is integral, and so is
        d R_k (the structure constants are integers).  Each entry of d R_k
        is a sum of (p + 1) + p(p + 1)/2 terms, each at most dim * C * |R_k|
        in size (C the largest structure constant), so it is below M.  With
        B = 2M + 1, d(sum B^k R_k) = sum B^k d R_k vanishes exactly when
        every d R_k does: balanced base-B digits are unique.
        """
        if not cochains:
            return True
        require(all(c.denominator == 1 for row in self.table.values() for c in row), "structure constants are not integers")
        den = 1
        for cochain in cochains:
            for row in cochain.values():
                for c in row:
                    den = lcm(den, c.denominator)
        biggest = max((abs(c) for row in self.table.values() for c in row), default=0)
        terms = (degree + 1) + degree * (degree + 1) // 2
        size = max((abs(c) * den for cochain in cochains for row in cochain.values() for c in row), default=0)
        base = 2 * terms * self.dim * int(biggest) * int(size) + 3
        packed: dict = {}
        zero = [Fraction(0)] * self.dim
        for k, cochain in enumerate(cochains):
            weight = den * base**k
            for key, row in cochain.items():
                packed[key] = [a + weight * c for a, c in zip(packed.get(key, zero), row)]
        return self.is_cocycle(degree, packed)

    def coboundaries(self, degree: int) -> list[list[Fraction]]:
        """Spanning rows of B^degree: images of elementary cochains."""
        if degree not in self._coboundaries:
            dim, ce = self.dim, self.ce
            if degree == 1:
                rows = [
                    [c for x in range(dim) for c in self.bracket(ce.basis_vec(dim, j), ce.basis_vec(dim, x))]
                    for j in range(dim)
                ]
            else:
                rows = [
                    flatten(dim, degree, self.d(degree - 1, {tup: ce.basis_vec(dim, k)}))
                    for tup in combinations(range(dim), degree - 1)
                    for k in range(dim)
                ]
            self._coboundaries[degree] = rows
        return self._coboundaries[degree]

    def compose(self, f: dict, g: dict) -> dict:
        return self.ce.brute_compose(self.dim, f, g)


def _common(job, report: dict) -> dict:
    require(report.get("exit_code") == 0 and report.get("status") == "ok", f"{job.label}: exit {report.get('exit_code')}, status {report.get('status')}")
    require(report.get("command", [None])[1:] == job.ctx["argv"], f"{job.label}: report names another command")
    for role, digest in job.ctx["sha256"].items():
        require(report["inputs"][role]["sha256"] == digest, f"{job.label}: {role} digest differs from the file written")
    return report["result"]


# ------------------------------------------------------------------- checks


def check_validate(job, report: dict, env) -> None:
    res = _common(job, report)
    require(models.jacobi_holds(job.ctx["dim"], job.ctx["table"]), f"{job.label}: input fails Jacobi")
    require(res["jacobi_violations"] == [], f"{job.label}: violations reported for a Lie algebra")
    require(res["dim"] == job.ctx["dim"] and res["name"] == job.ctx["name"], f"{job.label}: dim or name changed")


def check_cohomology(job, report: dict, env) -> None:
    res = _common(job, report)
    ctx = job.ctx
    dim, p = ctx["dim"], ctx["degree"]
    z, b, h = env.dims[ctx["base"]][p]
    require(res["degree"] == p, f"{job.label}: degree {res['degree']}")
    # the oracle table is for the canonical basis: equality also proves the
    # dimensions are unchanged under the change of basis
    got = (res["dim_cocycles"], res["dim_coboundaries"], res["dim_h"])
    require(got == (z, b, h), f"{job.label}: (Z, B, H) = {got}, oracle {(z, b, h)}")
    reps = [models.parse_cochain_payload(f, dim) for f in res["representatives"]]
    require(len(reps) == h, f"{job.label}: {len(reps)} representatives for dim H = {h}")
    oracle = env.oracle_for(ctx)
    for k, rep in enumerate(reps):
        require(report_degree(rep, p), f"{job.label}: representative {k} has keys of the wrong length")
    require(oracle.all_cocycles(p, reps), f"{job.label}: a representative is not an oracle cocycle")
    bound = oracle.coboundaries(p)
    require(rank_mod_p(bound) == b, f"{job.label}: oracle B^{p} rank mod p is not {b}")
    rows = bound + [flatten(dim, p, rep) for rep in reps]
    require(rank_mod_p(rows) == b + h, f"{job.label}: representatives are dependent modulo coboundaries")


def report_degree(cochain: dict, degree: int) -> bool:
    return all(len(key) == degree and list(key) == sorted(set(key)) for key in cochain)


def check_cohomology_group(jobs_reports: list) -> None:
    """dim B^{p+1} = dim C^p - dim Z^p across the degrees asked of one file."""
    by_degree = {job.ctx["degree"]: (job, rep["result"]) for job, rep in jobs_reports}
    for p, (job, res) in by_degree.items():
        if p + 1 in by_degree:
            dim = job.ctx["dim"]
            upper = by_degree[p + 1][1]
            want = dim * comb(dim, p) - res["dim_cocycles"]
            require(upper["dim_coboundaries"] == want, f"{job.label}: dim B^{p + 1} = {upper['dim_coboundaries']}, C^{p} - Z^{p} = {want}")


def check_deform(job, report: dict, env) -> None:
    res = _common(job, report)
    ctx = job.ctx
    dim, top = ctx["dim"], ctx["max_order"]
    oracle = env.oracle_for(ctx)
    require(res["max_order"] == top, f"{job.label}: max_order {res['max_order']}")
    alphas = [ctx["table"], ctx["alpha1"]]
    solved = [row for row in res["orders"] if row["status"] == "solved"]
    require([row["order"] for row in solved] == list(range(2, res["order_reached"] + 1)), f"{job.label}: solved orders are not 2..order_reached")
    for row in solved:
        alphas.append(models.parse_cochain_payload(row["witness"], dim))
    zero = [Fraction(0)] * dim
    for n in range(1, res["order_reached"] + 1):
        total = {}
        for i in range(n + 1):
            for tup, v in oracle.compose(alphas[i], alphas[n - i]).items():
                total[tup] = [a + c for a, c in zip(total.get(tup, zero), v)]
        require(not any(any(v) for v in total.values()), f"{job.label}: order-{n} deformation equation fails")
    stop = res["obstructed_at"]
    planned = ctx["planned_stop"]
    if planned is None or planned > top:
        require(stop is None and res["order_reached"] == top, f"{job.label}: reached order {res['order_reached']}, obstructed at {stop}; should reach order {top}")
        return
    require(stop == planned and res["order_reached"] == stop - 1, f"{job.label}: obstructed at {stop}, designed {planned}")
    require(res["orders"][-1] == {"order": stop, "status": "obstructed"}, f"{job.label}: last order row is not the obstruction")
    rho = {}
    for i in range(1, stop):
        for tup, v in oracle.compose(alphas[i], alphas[stop - i]).items():
            rho[tup] = [a - c for a, c in zip(rho.get(tup, zero), v)]
    require(oracle.is_cocycle(3, rho), f"{job.label}: obstruction is not an oracle cocycle")
    z, b, h = env.dims[ctx["base"]][3]
    bound = oracle.coboundaries(3)
    require(rank_mod_p(bound) == b, f"{job.label}: oracle B^3 rank mod p is not {b}")
    require(rank_mod_p(bound + [flatten(dim, 3, rho)]) == b + 1, f"{job.label}: obstruction lies in the oracle's B^3")
    coords = [Fraction(c) for c in res["obstruction_class"]]
    require(len(coords) == h and any(coords), f"{job.label}: class coordinates {res['obstruction_class']}")


def _parse_l3(text: str, dim: int) -> list[Fraction]:
    if text == "0":
        return [Fraction(0)] * dim
    match = _L3_TERM.fullmatch(text)
    require(match is not None, f"l3 value {text!r} is not t^2 times a starred vector")
    return [Fraction(c) for c in match.group(1).split(",")]


def check_linfty(job, report: dict, env) -> None:
    res = _common(job, report)
    ctx = job.ctx
    d = ctx["dim"]
    T = res["truncation"]
    require(res["variant"] == ctx["variant"], f"{job.label}: variant {res['variant']}")
    homotopy = res["homotopy"]
    require(homotopy["passed"] and not homotopy["violations"], f"{job.label}: homotopy identity failed")
    require(homotopy["checked"] == 2 * T * d, f"{job.label}: homotopy checked {homotopy['checked']}, want 2*T*d = {2 * T * d}")
    want = {"R1": 24 * d**2, "R2": 80 * d**3, "R3": d**5, "R4": 15 * d**4}
    got = {check["name"]: check["instances"] for check in res["relations"]}
    require(got == want, f"{job.label}: relation instances {got}, want {want}")
    for check in res["relations"]:
        require(check["passed"] and not check["violations"], f"{job.label}: relation {check['name']} failed")
    oracle = env.oracle_for(ctx)
    square = oracle.compose(ctx["alpha1"], ctx["alpha1"])
    expected = {",".join(str(i + 1) for i in tup): [-c for c in square[tup]] for tup in combinations(range(d), 3)}
    require(set(res["l3_table"]) == set(expected), f"{job.label}: l3 table keys differ from the basis triples")
    for key, value in expected.items():
        require(_parse_l3(res["l3_table"][key], d) == value, f"{job.label}: l3{key} = {res['l3_table'][key]}, want -t^2 (a o a) = [{','.join(map(str, value))}]")
    if ctx["variant"] == "extended":
        require(res.get("restriction") == "match", f"{job.label}: restriction {res.get('restriction')}")
    else:
        require("restriction" not in res, f"{job.label}: strict report carries a restriction")


CHECKS = {
    "validate": check_validate,
    "cohomology": check_cohomology,
    "deform": check_deform,
    "linfty": check_linfty,
}


class Environment:
    """Oracle module, dimension table, and one Oracle per algebra table."""

    def __init__(self, root: str) -> None:
        self.ce = load_oracle(root)
        self.dims = load_dims()
        self._oracles: dict[str, Oracle] = {}

    def oracle_for(self, ctx: dict) -> Oracle:
        key = models.algebra_text("", ctx["dim"], ctx["table"])
        if key not in self._oracles:
            self._oracles[key] = Oracle(self.ce, ctx["dim"], ctx["table"])
        return self._oracles[key]


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_round(jobs: list, reports: list[dict], env: Environment) -> None:
    """Check every report of one round; raises CheckFailed on the first
    disagreement."""
    groups: dict[str, list] = {}
    for job, report in zip(jobs, reports):
        CHECKS[job.kind](job, report, env)
        if job.kind == "cohomology":
            groups.setdefault(job.argv[1], []).append((job, report))
    for members in groups.values():
        check_cohomology_group(members)
