"""The three workloads, as rounds of CLI jobs made from a seed.

A round is the workload's whole job list.  Every round draws fresh inputs
from ``(seed, workload, round)``, and the round number is part of each
algebra's name, so no input file repeats within one process: a cache that
outlived one ``run`` call would find nothing to reuse.  Each round also
carries a tail of small jobs of the other subcommands, so every layer is
reached in every workload and the median job is a small one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import models

WORKLOADS = ("cohomology-sweep", "deform-march", "linfty-verify")

#: H^3(L6) takes 5-14 s here and its cost moves by up to 1.6x with the
#: basis change; as one job it set the sweep's spread across seeds (15-21%)
#: and left room for two rounds a run, so the sweep stops at H^2 there.
SWEEP_TOP_DEGREE = {"L6": 2}
MAX_ORDER = 5

#: The heavy jobs of ``deform-march`` and ``linfty-verify``; the small
#: directions on abelian algebras only ride in the tails.
MARCH_KEYS = ("L4-obstructed-2", "L4-obstructed-3", "L4-unobstructed", "L5-obstructed-2", "L5-obstructed-3", "L5-obstructed-5", "h5-unobstructed")
LINFTY_KEYS = ("abelian3-obstructed", "heisenberg3-bracket", "L4-obstructed")


@dataclass
class Job:
    """One CLI call.  ``argv`` names input files as ``@name``; ``files``
    holds their text; ``ctx`` is what the checks need to know."""

    kind: str
    label: str
    argv: list[str]
    files: dict[str, str] = field(default_factory=dict)
    ctx: dict = field(default_factory=dict)


class Generator:
    """Makes the rounds of one workload from one seed."""

    def __init__(self, workload: str, seed: int) -> None:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.workload = workload
        self.seed = seed

    def round(self, r: int) -> list[Job]:
        rng = random.Random(f"{self.seed}/{self.workload}/{r}")
        make = {
            "cohomology-sweep": self._sweep,
            "deform-march": self._march,
            "linfty-verify": self._verify,
        }[self.workload]
        return make(rng, r)

    # ------------------------------------------------------------ job makers

    @staticmethod
    def _algebra_file(base: str, dim: int, table, r: int, changed: bool) -> tuple[str, str, dict]:
        name = f"{base}.r{r}"
        text = models.algebra_text(name, dim, table)
        ctx = {"base": base, "name": name, "dim": dim, "table": table, "changed": changed}
        return f"{name}.json", text, ctx

    def _cohomology(self, rng, r: int, base: str, degrees, validate: bool = False) -> list[Job]:
        _, dim, table = models.changed(base, rng)
        fname, text, ctx = self._algebra_file(base, dim, table, r, True)
        jobs = [
            Job("cohomology", f"H{p}({base})", ["cohomology", "@" + fname, "--degree", str(p)], {fname: text}, dict(ctx, degree=p))
            for p in degrees
        ]
        if validate:
            jobs.append(Job("validate", f"validate({base})", ["validate", "@" + fname], {fname: text}, ctx))
        return jobs

    def _with_direction(self, kind: str, rng, r: int, key: str, base: str, sparse: dict, extra: list[str], ctx_extra: dict) -> Job:
        _, dim, table = models.algebra(base)
        if not models.jacobi_holds(dim, table):
            raise AssertionError(f"{base} fails the Jacobi identity")
        _, text, ctx = self._algebra_file(base, dim, table, r, False)
        fname = f"{key}.r{r}.algebra.json"
        scale = models.seeded_scale(rng)
        alpha = models.direction(dim, sparse, scale)
        aname = f"{key}.r{r}.alpha1.json"
        files = {fname: text, aname: models.cochain_text(2, alpha)}
        argv = [kind, "@" + fname, "--alpha1", "@" + aname, *extra]
        return Job(kind, f"{kind}({key})", argv, files, dict(ctx, alpha1=alpha, scale=scale, **ctx_extra))

    def _deform(self, rng, r: int, key: str, max_order: int = MAX_ORDER) -> Job:
        base, sparse, stop = models.MARCH_DIRECTIONS[key]
        return self._with_direction(
            "deform", rng, r, key, base, sparse, ["--max-order", str(max_order)], {"planned_stop": stop, "max_order": max_order}
        )

    def _linfty_job(self, rng, r: int, key: str, variant: str) -> Job:
        base, sparse = models.LINFTY_DIRECTIONS[key]
        return self._with_direction("linfty", rng, r, key, base, sparse, ["--variant", variant], {"variant": variant})

    # -------------------------------------------------------------- workloads

    def _catalog(self, rng, r: int) -> list[Job]:
        """H^1..H^3 and validate of every small catalog algebra, each after
        a fresh basis change: the workloads' small jobs."""
        jobs = []
        for base, (dim, _) in models.CATALOG.items():
            jobs += self._cohomology(rng, r, base, range(1, min(dim, 3) + 1), validate=True)
        return jobs

    def _sweep(self, rng, r: int) -> list[Job]:
        heavy = []
        for base in ("L4", "L5", "L6", "h5"):
            _, dim, _ = models.algebra(base)
            top = SWEEP_TOP_DEGREE.get(base, min(dim, 3))
            heavy += self._cohomology(rng, r, base, range(1, top + 1), validate=True)
        small = self._catalog(rng, r)
        small.append(self._deform(rng, r, "abelian3-obstructed-2", max_order=3))
        small.append(self._linfty_job(rng, r, "abelian2-cocycle", "extended"))
        return interleave(heavy, small)

    def _march(self, rng, r: int) -> list[Job]:
        heavy = [self._deform(rng, r, key) for key in MARCH_KEYS]
        small = [job for base in ("L4", "L5", "h5") for job in self._cohomology(rng, r, base, (), validate=True)]
        small += self._catalog(rng, r)
        small.append(self._linfty_job(rng, r, "abelian2-cocycle", "extended"))
        return interleave(heavy, small)

    def _verify(self, rng, r: int) -> list[Job]:
        heavy = [self._linfty_job(rng, r, key, "extended") for key in LINFTY_KEYS]
        small = self._cohomology(rng, r, "L4", (), validate=True)
        small += self._catalog(rng, r)
        small.append(self._deform(rng, r, "abelian3-obstructed-2", max_order=3))
        return interleave(heavy, small)


def interleave(heavy: list[Job], small: list[Job]) -> list[Job]:
    """Spread the small jobs evenly between the heavy ones, so that they
    sample the host's speed across the whole round, like the heavy ones."""
    out = []
    for k, job in enumerate(heavy):
        out.append(job)
        out += small[len(small) * k // len(heavy) : len(small) * (k + 1) // len(heavy)]
    return out
