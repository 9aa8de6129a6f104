"""Command-line interface.

Four subcommands: ``validate`` (Jacobi check with a violation report),
``cohomology`` (exact dimensions and representatives in one degree),
``deform`` (order-by-order extension with obstruction data), ``linfty``
(construct the two-term structure and verify everything).

One canonical JSON report goes to stdout, single line, newline-terminated;
diagnostics go to stderr.  Exit codes: 0 success, 1 mathematical failure
(a violation or an unmet demand), 2 input error.  An obstruction found by
``deform`` is a finding, not a failure; ``--require-order`` turns it into
exit 1 for CI gating.  ``DEFORMA_TRUNCATION`` overrides the default
truncation when ``linfty`` is called without ``--truncation``.
"""

from __future__ import annotations

import argparse
import os
import sys

from .algebra_core import DEFAULT_TRUNCATION, Cochain, LieAlgebra
from .cohomology import cohomology
from .deformation import DeformationState, extend
from .errors import DeformaError, InputError, NotCocycleError
from .io_formats import (
    FormatError,
    canonical_json,
    cochain_payload,
    parse_algebra_text,
    parse_cochain_text,
    sha256_file,
)
from .linfty import (
    MIN_VERIFIABLE_TRUNCATION,
    LInftyStructure,
    restriction_matches,
)

TRUNCATION_ENV = "DEFORMA_TRUNCATION"


class _Exit(Exception):
    """Abort with a diagnostic and no report (input-error paths)."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deforma",
        description="Exact deformation-theory toolkit: validation, cohomology, "
        "order-by-order deformations, and two-term homotopy structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a structure-constant table")
    p.add_argument("algebra", help="algebra file (line-based JSON)")

    p = sub.add_parser("cohomology", help="exact cohomology in one degree")
    p.add_argument("algebra")
    p.add_argument("--degree", type=int, choices=(1, 2, 3), default=2)

    p = sub.add_parser("deform", help="extend a first-order deformation")
    p.add_argument("algebra")
    p.add_argument("--alpha1", required=True, help="degree-2 cochain file")
    p.add_argument("--max-order", type=int, default=5, dest="max_order")
    p.add_argument(
        "--require-order",
        action="store_true",
        dest="require_order",
        help="exit 1 unless the deformation reaches --max-order",
    )

    p = sub.add_parser("linfty", help="build and verify the two-term structure")
    p.add_argument("algebra")
    p.add_argument("--alpha1", required=True, help="degree-2 cochain file")
    p.add_argument("--variant", choices=("strict", "extended"), default="strict")
    p.add_argument("--truncation", type=int, default=None)

    return parser


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _Exit(2, f"cannot read {path}: {exc.strerror or exc}") from exc


def _load_algebra(path: str) -> tuple[LieAlgebra, dict]:
    text = _read_text(path)
    try:
        algebra = parse_algebra_text(text, source=path)
    except FormatError as exc:
        raise _Exit(2, str(exc)) from exc
    return algebra, {"path": path, "sha256": sha256_file(path)}


def _load_alpha1(path: str, dim: int) -> tuple[Cochain, dict]:
    text = _read_text(path)
    try:
        cochain = parse_cochain_text(text, dim, source=path)
    except FormatError as exc:
        raise _Exit(2, str(exc)) from exc
    if cochain.degree != 2:
        raise _Exit(2, f"{path}: alpha1 must be a degree-2 cochain, got degree {cochain.degree}")
    return cochain, {"path": path, "sha256": sha256_file(path)}


def _violation_rows(algebra: LieAlgebra) -> list[dict]:
    return [
        {"triple": [i + 1 for i in v.triple], "value": v.value.render()}
        for v in algebra.validate_jacobi()
    ]


def _invalid_algebra(rows: list[dict]):
    result = {"error": "algebra fails the Jacobi identity", "violations": rows}
    return result, 1, ["algebra fails the Jacobi identity"]


def cmd_validate(ns) -> tuple[dict, dict, int, list[str]]:
    algebra, frag = _load_algebra(ns.algebra)
    rows = _violation_rows(algebra)
    result = {
        "name": algebra.name,
        "dim": algebra.dim,
        "antisymmetry": "structural",
        "jacobi_violations": rows,
    }
    if rows:
        return {"algebra": frag}, result, 1, [f"jacobi identity fails at {len(rows)} basis triple(s)"]
    return {"algebra": frag}, result, 0, []


def cmd_cohomology(ns) -> tuple[dict, dict, int, list[str]]:
    algebra, frag = _load_algebra(ns.algebra)
    inputs = {"algebra": frag}
    rows = _violation_rows(algebra)
    if rows:
        return (inputs, *_invalid_algebra(rows))
    res = cohomology(algebra, ns.degree)
    result = {
        "degree": res.degree,
        "dim_cocycles": res.dim_cocycles,
        "dim_coboundaries": res.dim_coboundaries,
        "dim_h": res.dim_h,
        "representatives": [cochain_payload(f) for f in res.representatives],
    }
    return inputs, result, 0, []


def cmd_deform(ns) -> tuple[dict, dict, int, list[str]]:
    if ns.max_order < 1:
        raise _Exit(2, f"--max-order must be at least 1, got {ns.max_order}")
    algebra, frag_a = _load_algebra(ns.algebra)
    alpha1, frag_c = _load_alpha1(ns.alpha1, algebra.dim)
    inputs = {"algebra": frag_a, "alpha1": frag_c}
    rows = _violation_rows(algebra)
    if rows:
        return (inputs, *_invalid_algebra(rows))
    try:
        state = DeformationState.initial(algebra, alpha1)
    except NotCocycleError as exc:
        return inputs, {"error": str(exc)}, 1, [str(exc)]
    final = extend(state, ns.max_order)
    orders = [
        {"order": n, "status": "solved", "witness": cochain_payload(final.alpha(n))}
        for n in range(2, final.order_reached + 1)
    ]
    blocked = final.first_obstruction
    if blocked is not None:
        orders.append({"order": blocked.order, "status": "obstructed"})
    result = {
        "max_order": ns.max_order,
        "order_reached": final.order_reached,
        "orders": orders,
        "obstructed_at": None if blocked is None else blocked.order,
        "obstruction_class": None
        if blocked is None
        else [str(c) for c in blocked.class_coordinates],
    }
    if ns.require_order and final.order_reached < ns.max_order:
        return inputs, result, 1, [f"deformation obstructed at order {blocked.order}"]
    return inputs, result, 0, []


def _resolve_truncation(flag: int | None) -> int:
    if flag is not None:
        return flag
    raw = os.environ.get(TRUNCATION_ENV)
    if raw is None:
        return DEFAULT_TRUNCATION
    try:
        return int(raw)
    except ValueError:
        raise _Exit(2, f"{TRUNCATION_ENV} must be an integer, got {raw!r}") from None


def cmd_linfty(ns) -> tuple[dict, dict, int, list[str]]:
    truncation = _resolve_truncation(ns.truncation)
    if truncation < MIN_VERIFIABLE_TRUNCATION:
        raise _Exit(
            2, f"truncation must be at least {MIN_VERIFIABLE_TRUNCATION}, got {truncation}"
        )
    algebra, frag_a = _load_algebra(ns.algebra)
    alpha1, frag_c = _load_alpha1(ns.alpha1, algebra.dim)
    inputs = {"algebra": frag_a, "alpha1": frag_c}
    rows = _violation_rows(algebra)
    if rows:
        return (inputs, *_invalid_algebra(rows))
    try:
        strict = LInftyStructure(algebra, alpha1, truncation=truncation, variant="strict")
    except NotCocycleError as exc:
        return inputs, {"error": str(exc)}, 1, [str(exc)]
    homotopy = strict.verify_homotopy_identity()
    relations_strict = strict.verify_relations()
    passed = homotopy.passed and relations_strict.passed
    relations = relations_strict
    restriction = None
    if ns.variant == "extended":
        extended = LInftyStructure(
            algebra, alpha1, truncation=truncation, variant="extended"
        )
        relations = extended.verify_relations()
        match = restriction_matches(strict, extended)
        restriction = "match" if match else "mismatch"
        passed = passed and relations.passed and match

    result = {
        "variant": ns.variant,
        "truncation": truncation,
        "homotopy": {
            "checked": homotopy.checked,
            "passed": homotopy.passed,
            "violations": list(homotopy.violations),
        },
        "relations": [
            {
                "name": check.name,
                "description": check.description,
                "instances": check.instances,
                "passed": check.passed,
                "violations": [
                    {
                        "degrees": list(v.degrees),
                        "indices": [i + 1 for i in v.indices],
                        "shifts": list(v.shifts),
                        "defect": v.defect,
                    }
                    for v in check.violations
                ],
            }
            for check in relations.checks
        ],
        "l3_table": {
            ",".join(str(i + 1) for i in triple): value.render()
            for triple, value in strict.l3_table().items()
        },
    }
    if restriction is not None:
        result["restriction"] = restriction
    diags = [] if passed else ["structure verification failed"]
    return inputs, result, 0 if passed else 1, diags


_HANDLERS = {
    "validate": cmd_validate,
    "cohomology": cmd_cohomology,
    "deform": cmd_deform,
    "linfty": cmd_linfty,
}


def run(argv, stdout=None, stderr=None) -> int:
    """Parse argv (no program name), execute, write the report.  Returns the
    exit code instead of raising SystemExit so tests can call it directly."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        ns = build_parser().parse_args(list(argv))
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 2
    try:
        inputs, result, code, diags = _HANDLERS[ns.command](ns)
    except _Exit as stop:
        print(stop.message, file=err)
        return stop.code
    except InputError as exc:
        print(str(exc), file=err)
        return 2
    except DeformaError as exc:
        print(str(exc), file=err)
        return 1
    for line in diags:
        print(line, file=err)
    report = {
        "command": ["deforma", *argv],
        "exit_code": code,
        "inputs": inputs,
        "result": result,
        "status": "ok" if code == 0 else "failed",
    }
    out.write(canonical_json(report))
    return code


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))
