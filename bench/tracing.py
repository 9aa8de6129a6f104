"""Per-layer tracing from outside the program.

``Tracer.install()`` wraps the public functions of every ``deforma``
module (in every module namespace that imported them by name) and the
public methods of its classes, and records for each one the number of
calls, the self time (span minus the time of wrapped calls inside it) and
a tally of argument shapes.  Value types whose methods run millions of
times per job (``Vector``, ``TruncatedSeries``, ``GradedElement``, and the
coefficient-level helpers below) are left unwrapped: their time lands in
the self time of the wrapped caller, which keeps the traced run within a
small multiple of the untraced one.  Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

#: Classes whose methods are never wrapped: element arithmetic.
VALUE_TYPES = {"Vector", "TruncatedSeries", "GradedElement"}

#: Coefficient-level helpers called once per entry or per lookup.
HOT = {
    "algebra_core.rat",
    "algebra_core.epsilon",
    "algebra_core.LieAlgebra.bracket",
    "algebra_core.LieAlgebra.bracket_basis",
    "algebra_core.Cochain.value_on_basis",
    "algebra_core.Cochain.entries",
    "algebra_core.Cochain.is_zero",
    "algebra_core.Cochain.zero",
    "signs.perm_sign",
    "signs.koszul_sign",
    "io_formats.render_rational",
    "io_formats.parse_rational",
}

#: Elimination entry points: rows x columns is summed into linalg.cells.
ELIMINATION = {"linalg.rank", "linalg.rref"}

#: io_formats functions that write; every other one counts as parsing
#: (reading, hashing and decoding the input files).
RENDERING = ("render", "canonical", "cochain_payload", "vector_payload", "algebra_payload")


def _bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def _max_bits(rows) -> int:
    best = 0
    for row in rows:
        for v in row:
            if v:
                b = _bits(v)
                if b > best:
                    best = b
    return best


def _shape(arg):
    """A small, hashable summary of one argument."""
    if isinstance(arg, list):
        if arg and isinstance(arg[0], list):
            return ("matrix", len(arg), len(arg[0]))
        return ("list", len(arg))
    if isinstance(arg, (int, str, bool)) or arg is None:
        return arg
    dim = getattr(arg, "dim", None)
    degree = getattr(arg, "degree", None)
    if isinstance(dim, int):
        return (type(arg).__name__, dim, degree) if isinstance(degree, int) else (type(arg).__name__, dim)
    return type(arg).__name__


class Tracer:
    """Holds the span stack and the per-function tallies of one run."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.shapes: defaultdict = defaultdict(Counter)
        self.cells = 0
        self.max_entry_bits = 0
        self.instances = 0
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- wrapping

    def _wrap(self, key: str, fn):
        layer = key.split(".", 1)[0]
        stack = self._stack
        calls, self_s, total_s, shapes = self.calls, self.self_s, self.total_s, self.shapes
        perf = time.perf_counter
        elimination = key in ELIMINATION
        is_linalg = layer == "linalg"
        is_relations = key == "linfty.LInftyStructure.verify_relations"

        def traced(*args, **kwargs):
            outer_linalg = is_linalg and not (stack and stack[-1][1] == "linalg")
            if outer_linalg:
                self._note_linalg_args(args)
            if elimination:
                self.cells += len(args[0]) * args[1]
            shapes[key][tuple(_shape(a) for a in args[:3])] += 1
            frame = [0.0, layer]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                calls[key] += 1
                self_s[key] += dt - frame[0]
                total_s[key] += dt
                if stack:
                    stack[-1][0] += dt
            if outer_linalg and result is not None:
                self._note_linalg_result(key, result)
            if is_relations:
                self.instances += sum(check.instances for check in result.checks)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    def _note_linalg_args(self, args) -> None:
        matrices = [a for a in args if isinstance(a, list) and a and isinstance(a[0], list)]
        vectors = [a for a in args if isinstance(a, list) and a and not isinstance(a[0], list)]
        bits = max([_max_bits(m) for m in matrices] + [_max_bits([v]) for v in vectors] + [0])
        self.max_entry_bits = max(self.max_entry_bits, bits)

    def _note_linalg_result(self, key: str, result) -> None:
        if key == "linalg.rref":
            bits = _max_bits(result[0])
        elif key == "linalg.nullspace":
            bits = _max_bits(result)
        elif key == "linalg.solve":
            bits = _max_bits([result])
        else:
            return
        self.max_entry_bits = max(self.max_entry_bits, bits)

    def install(self) -> None:
        """Wrap everything once; ``uninstall`` restores the originals."""
        modules = {
            name.split(".", 1)[1]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("deforma.") and mod is not None and name != "deforma.__main__"
        }
        wrapped: dict[int, object] = {}
        for short, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    key = f"{short}.{name}"
                    if key not in HOT:
                        wrapped[id(obj)] = self._wrap(key, obj)
                elif inspect.isclass(obj) and name not in VALUE_TYPES:
                    self._wrap_methods(short, obj)
        # replace every binding of a wrapped function, including ones that
        # other modules (and the package itself) imported by name
        for mod in [sys.modules["deforma"], *modules.values()]:
            for name, obj in list(vars(mod).items()):
                replacement = wrapped.get(id(obj))
                if replacement is not None:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, replacement)

    def _wrap_methods(self, short: str, cls) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            key = f"{short}.{cls.__name__}.{name}"
            if key in HOT:
                continue
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(key, raw.__func__))
            elif isinstance(raw, staticmethod):
                replacement = staticmethod(self._wrap(key, raw.__func__))
            elif inspect.isfunction(raw):
                replacement = self._wrap(key, raw)
            else:
                continue
            self._patched.append((cls, name, raw))
            setattr(cls, name, replacement)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # ---------------------------------------------------------------- metrics

    def per_layer(self) -> dict[str, float]:
        """The per-layer metrics, by the names BENCHMARK.json lists."""
        c, s = self.calls, self.self_s
        io_keys = [k for k in self.calls if k.startswith("io_formats.")]
        render = [k for k in io_keys if k.split(".")[1].startswith(RENDERING)]
        parse = [k for k in io_keys if k not in render]
        return {
            "linalg.rank_calls": c["linalg.rank"],
            "linalg.rank_s": s["linalg.rank"],
            "linalg.rref_calls": c["linalg.rref"],
            "linalg.rref_s": s["linalg.rref"],
            "linalg.solve_calls": c["linalg.solve"],
            "linalg.nullspace_calls": c["linalg.nullspace"],
            "linalg.cells": self.cells,
            "linalg.max_entry_bits": self.max_entry_bits,
            "cohomology.differential_matrix_calls": c["cohomology.differential_matrix"],
            "cohomology.differential_matrix_s": s["cohomology.differential_matrix"],
            "cohomology.coboundary_space_calls": c["cohomology.coboundary_space"],
            "cohomology.cohomology_calls": c["cohomology.cohomology"],
            "cohomology.cohomology_s": s["cohomology.cohomology"],
            "cohomology.class_coordinates_s": s["cohomology.class_coordinates"],
            "cohomology.coboundary_solve_s": s["cohomology.coboundary_solve"],
            "cohomology.ce_differential_calls": c["cohomology.ce_differential"],
            "algebra_core.circle_calls": c["algebra_core.Cochain.circle"],
            "algebra_core.circle_s": s["algebra_core.Cochain.circle"],
            "algebra_core.validate_jacobi_s": s["algebra_core.LieAlgebra.validate_jacobi"],
            "deformation.orders": c["deformation.obstruction"],
            "deformation.obstruction_s": s["deformation.obstruction"],
            "deformation.residual_calls": c["deformation.residual"],
            "deformation.extend_s": s["deformation.extend"],
            "linfty.verify_relations_s": s["linfty.LInftyStructure.verify_relations"],
            "linfty.instances": self.instances,
            "linfty.l2_calls": c["linfty.LInftyStructure.l2"],
            "linfty.l2_s": s["linfty.LInftyStructure.l2"],
            "linfty.l3_calls": c["linfty.LInftyStructure.l3"],
            "linfty.homotopy_s": s["linfty.LInftyStructure.verify_homotopy_identity"],
            "linfty.restriction_s": s["linfty.restriction_matches"],
            "io_formats.parse_s": sum(s[k] for k in parse),
            "io_formats.render_s": sum(s[k] for k in render),
            "cli.run_calls": c["cli.run"],
            "cli.run_s": s["cli.run"],
        }

    def table(self) -> list[dict]:
        """Every wrapped function that ran, for the trace file."""
        rows = []
        for key in sorted(self.calls):
            rows.append(
                {
                    "function": key,
                    "calls": self.calls[key],
                    "self_s": self.self_s[key],
                    "total_s": self.total_s[key],
                    "shapes": [[list(k) if isinstance(k, tuple) else k, n] for k, n in self.shapes[key].most_common(8)],
                }
            )
        return rows
