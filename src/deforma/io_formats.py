"""File formats: line-based JSON with canonical ordering and rationals as
strings.

An algebra file is one JSON object {"brackets": {...}, "dim": n, "name": s}
whose bracket keys are 1-based increasing pairs "i,j" and whose values are
length-n arrays of rational strings ("p" or "p/q").  A cochain file is
{"degree": p, "entries": {...}} keyed by strictly increasing 1-based index
tuples "i1,...,ip".  Rationals travel as strings so no float ever enters
the pipeline; rendering always emits lowest terms with a positive
denominator, single-line JSON with sorted keys, newline-terminated.
Parsing a rendered file reproduces the value, and re-rendering reproduces
the bytes.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

from .algebra_core import Cochain, LieAlgebra, Vector
from .errors import InputError


class FormatError(InputError):
    """A file failed to parse; the message carries position information."""


_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def canonical_json(payload) -> str:
    """The one JSON encoding everything machine-readable uses."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def parse_rational(value, where: str) -> Fraction:
    if not isinstance(value, str):
        raise FormatError(f"{where}: rationals must be strings like \"3\" or \"-1/2\"")
    match = _RATIONAL_RE.fullmatch(value)
    if match is None:
        raise FormatError(f"{where}: malformed rational {value!r}")
    try:
        num, den = int(match.group(1)), int(match.group(2) or 1)
    except ValueError as exc:  # CPython's cap on int-string conversion
        raise FormatError(f"{where}: rational has more digits than the parser accepts") from exc
    if den == 0:
        raise FormatError(f"{where}: zero denominator in {value!r}")
    return Fraction(num, den)


def render_rational(value: Fraction) -> str:
    return str(Fraction(value))


def _parse_vector(value, dim: int, where: str) -> Vector:
    if not isinstance(value, list):
        raise FormatError(f"{where}: expected an array of {dim} rational strings")
    if len(value) != dim:
        raise FormatError(f"{where}: expected {dim} coefficients, got {len(value)}")
    return Vector(tuple(parse_rational(c, f"{where}[{k}]") for k, c in enumerate(value)))


def vector_payload(v: Vector) -> list[str]:
    return [render_rational(c) for c in v]


def _parse_key(key: str, count: int, dim: int, where: str) -> tuple[int, ...]:
    """A 1-based "i1,...,ip" key into a 0-based strictly increasing tuple."""
    parts = key.split(",")
    if len(parts) != count:
        raise FormatError(f"{where}: key {key!r} must list exactly {count} indices")
    indices = []
    for part in parts:
        if not re.fullmatch(r"[1-9][0-9]*", part):
            raise FormatError(f"{where}: key {key!r} holds a malformed index {part!r}")
        if len(part) > len(str(dim)) or int(part) > dim:
            raise FormatError(f"{where}: key {key!r} references index {part} beyond dim {dim}")
        indices.append(int(part) - 1)
    for a, b in zip(indices, indices[1:]):
        if a >= b:
            raise FormatError(f"{where}: key {key!r} must be strictly increasing")
    return tuple(indices)


def _render_key(indices: tuple[int, ...]) -> str:
    return ",".join(str(i + 1) for i in indices)


def _load_object(text: str, source: str) -> dict:
    def unique_keys(pairs: list) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise FormatError(f"{source}: duplicate key {key!r}")
            obj[key] = value
        return obj

    try:
        payload = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"{source}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except FormatError:
        raise
    except ValueError as exc:  # CPython's cap on int-string conversion
        raise FormatError(f"{source}: a JSON number has more digits than the parser accepts") from exc
    except RecursionError as exc:
        raise FormatError(f"{source}: JSON nests too deeply") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{source}: top level must be a JSON object")
    return payload


def _require_keys(payload: dict, keys: set[str], source: str) -> None:
    have = set(payload)
    missing = keys - have
    extra = have - keys
    if missing:
        raise FormatError(f"{source}: missing field(s) {sorted(missing)}")
    if extra:
        raise FormatError(f"{source}: unknown field(s) {sorted(extra)}")


def parse_algebra_text(text: str, source: str = "<algebra>") -> LieAlgebra:
    """Parse an algebra file.  Jacobi is NOT checked here; validation is a
    separate, reportable step."""
    payload = _load_object(text, source)
    _require_keys(payload, {"dim", "name", "brackets"}, source)
    dim = payload["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise FormatError(f"{source}: dim must be a positive integer")
    name = payload["name"]
    if not isinstance(name, str):
        raise FormatError(f"{source}: name must be a string")
    raw = payload["brackets"]
    if not isinstance(raw, dict):
        raise FormatError(f"{source}: brackets must be an object")
    table = {}
    for key, value in raw.items():
        where = f"{source}: brackets[{key!r}]"
        pair = _parse_key(key, 2, dim, where)
        table[pair] = _parse_vector(value, dim, where)
    return LieAlgebra(dim, table, name=name, check=False)


def algebra_payload(algebra: LieAlgebra) -> dict:
    return {
        "dim": algebra.dim,
        "name": algebra.name,
        "brackets": {
            _render_key(pair): vector_payload(value)
            for pair, value in sorted(algebra.brackets.items())
        },
    }


def render_algebra(algebra: LieAlgebra) -> str:
    return canonical_json(algebra_payload(algebra))


def parse_cochain_text(text: str, dim: int, source: str = "<cochain>") -> Cochain:
    """Parse a cochain file against a known ambient dimension."""
    payload = _load_object(text, source)
    _require_keys(payload, {"degree", "entries"}, source)
    degree = payload["degree"]
    if isinstance(degree, bool) or not isinstance(degree, int) or degree < 1:
        raise FormatError(f"{source}: degree must be a positive integer")
    if degree > dim:
        raise FormatError(f"{source}: degree {degree} exceeds dim {dim}")
    raw = payload["entries"]
    if not isinstance(raw, dict):
        raise FormatError(f"{source}: entries must be an object")
    table = {}
    for key, value in raw.items():
        where = f"{source}: entries[{key!r}]"
        indices = _parse_key(key, degree, dim, where)
        table[indices] = _parse_vector(value, dim, where)
    return Cochain(dim, degree, table)


def cochain_payload(cochain: Cochain) -> dict:
    return {
        "degree": cochain.degree,
        "entries": {
            _render_key(indices): vector_payload(value)
            for indices, value in sorted(cochain.entries())
        },
    }


def render_cochain(cochain: Cochain) -> str:
    return canonical_json(cochain_payload(cochain))
