"""Exact algebraic building blocks.

Rational coordinate vectors, Lie algebras given by sparse structure
constants, alternating multilinear cochains, and polynomials in a formal
parameter t truncated at a configurable order.  Everything is built on
:class:`fractions.Fraction`; the package never touches floating point, so
each identity checked downstream is exact rather than approximate.

Degree bookkeeping: the base space sits in homological degree 0 and its
shifted copy (series with ``starred=True``, basis written ``a^*``) in
degree 1.  :func:`epsilon` returns that tag.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Iterable, Iterator, Mapping

from .errors import InputError
from .signs import perm_sign, unshuffles

#: Default truncation order for t-series; high enough that every relation
#: checked by the verifier fits without losing coefficients.
DEFAULT_TRUNCATION = 6

_ZERO_VECTORS: dict[int, "Vector"] = {}


def rat(value: Fraction | int | str) -> Fraction:
    """Coerce to an exact rational.  Floats are rejected by design."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational: {value!r} ({exc})") from None
    raise InputError(f"not a rational: {value!r} (floats are not accepted)")


def epsilon(starred: bool) -> int:
    """Homological degree tag: 0 on the base space, 1 on the shifted copy."""
    return 1 if starred else 0


class Vector:
    """Coordinate vector over the fixed basis, with exact entries."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[Fraction | int | str]) -> None:
        self.coords = tuple(rat(c) for c in coords)

    @classmethod
    def _raw(cls, coords: tuple) -> "Vector":
        # internal arithmetic fast path: coords are known-good Fractions
        v = cls.__new__(cls)
        v.coords = coords
        return v

    @classmethod
    def zero(cls, dim: int) -> "Vector":
        cached = _ZERO_VECTORS.get(dim)
        if cached is None:
            cached = _ZERO_VECTORS[dim] = cls((0,) * dim)
        return cached

    @classmethod
    def basis(cls, dim: int, index: int) -> "Vector":
        if not 0 <= index < dim:
            raise InputError(f"basis index {index} out of range for dimension {dim}")
        return cls(tuple(1 if k == index else 0 for k in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def _check_dim(self, other: "Vector") -> None:
        if self.dim != other.dim:
            raise InputError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __getitem__(self, k: int) -> Fraction:
        return self.coords[k]

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coords)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vector) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __add__(self, other: "Vector") -> "Vector":
        self._check_dim(other)
        # values are immutable, so returning the other operand on a zero is safe
        if not any(self.coords):
            return other
        if not any(other.coords):
            return self
        return Vector._raw(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Vector") -> "Vector":
        self._check_dim(other)
        if not any(other.coords):
            return self
        if not any(self.coords):
            return -other
        return Vector._raw(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Vector":
        return Vector._raw(tuple(-a for a in self.coords))

    def __mul__(self, scalar: Fraction | int) -> "Vector":
        s = rat(scalar)
        return Vector._raw(tuple(a * s for a in self.coords))

    __rmul__ = __mul__

    def render(self) -> str:
        return "[" + ",".join(str(c) for c in self.coords) + "]"

    def __repr__(self) -> str:
        return f"Vector({self.render()})"


@dataclass(frozen=True)
class JacobiViolation:
    """One basis triple on which the Jacobiator fails, with its value."""

    triple: tuple[int, int, int]
    value: Vector


class LieAlgebra:
    """Lie algebra on basis e_0..e_{n-1} given by sparse structure constants.

    ``brackets`` maps 0-based index pairs ``(i, j)`` with ``i < j`` to the
    bracket value on ``(e_i, e_j)``; absent pairs are zero.  Antisymmetry is
    structural -- values for ``i > j`` are derived, never stored, so it
    cannot be violated.  The Jacobi identity is checked at construction
    unless ``check=False`` (the CLI uses that to produce violation reports
    instead of exceptions).
    """

    __slots__ = ("dim", "name", "_table", "_bracket_cochain", "_cochain_complex")

    def __init__(
        self,
        dim: int,
        brackets: Mapping[tuple[int, int], Vector | Iterable],
        name: str = "",
        check: bool = True,
    ) -> None:
        if dim < 1:
            raise InputError("algebra dimension must be at least 1")
        self.dim = int(dim)
        self.name = name
        table: dict[tuple[int, int], Vector] = {}
        for key, value in dict(brackets).items():
            i, j = key
            if not 0 <= i < j < dim:
                raise InputError(f"bracket key {key}: need 0 <= i < j < dim={dim}")
            vec = value if isinstance(value, Vector) else Vector(value)
            if vec.dim != dim:
                raise InputError(f"bracket value for {key} has dimension {vec.dim}, expected {dim}")
            if not vec.is_zero():
                table[(i, j)] = vec
        self._table = table
        self._bracket_cochain: Cochain | None = None
        # d_p, B^p and H^p, filled lazily by deforma.cohomology
        self._cochain_complex: dict = {}
        if check:
            bad = self.validate_jacobi()
            if bad:
                places = ", ".join(str(v.triple) for v in bad)
                raise InputError(f"structure constants violate the Jacobi identity at {places}")

    @property
    def brackets(self) -> dict[tuple[int, int], Vector]:
        """Copy of the sparse i < j structure-constant table."""
        return dict(self._table)

    def bracket_basis(self, i: int, j: int) -> Vector:
        """Bracket of two basis elements, extending the stored i < j table."""
        if i == j:
            return Vector.zero(self.dim)
        if i < j:
            return self._table.get((i, j), Vector.zero(self.dim))
        return -self.bracket_basis(j, i)

    def bracket(self, x: Vector, y: Vector) -> Vector:
        """Bilinear antisymmetric extension of the structure constants."""
        if x.dim != self.dim or y.dim != self.dim:
            raise InputError("vector dimension does not match the algebra")
        out = Vector.zero(self.dim)
        for (i, j), vec in self._table.items():
            c = x[i] * y[j] - x[j] * y[i]
            if c:
                out = out + c * vec
        return out

    def validate_jacobi(self) -> list[JacobiViolation]:
        """Evaluate the Jacobiator on every increasing basis triple.

        Empty list means the table is an honest Lie algebra.
        """
        out = []
        for i, j, k in combinations(range(self.dim), 3):
            ei = Vector.basis(self.dim, i)
            ej = Vector.basis(self.dim, j)
            ek = Vector.basis(self.dim, k)
            value = (
                self.bracket(self.bracket(ei, ej), ek)
                + self.bracket(self.bracket(ej, ek), ei)
                + self.bracket(self.bracket(ek, ei), ej)
            )
            if not value.is_zero():
                out.append(JacobiViolation((i, j, k), value))
        return out

    def bracket_cochain(self) -> "Cochain":
        """The bracket itself, packaged as a degree-2 cochain."""
        if self._bracket_cochain is None:
            self._bracket_cochain = Cochain(self.dim, 2, dict(self._table))
        return self._bracket_cochain

    def __repr__(self) -> str:
        label = self.name or "?"
        return f"LieAlgebra(dim={self.dim}, name={label!r})"


class Cochain:
    """Alternating multilinear map taking ``degree`` base-space arguments to
    the base space, stored sparsely on strictly increasing basis tuples."""

    __slots__ = ("dim", "degree", "_table", "_full")

    def __init__(
        self,
        dim: int,
        degree: int,
        table: Mapping[tuple[int, ...], Vector | Iterable] = (),
    ) -> None:
        if degree < 1:
            raise InputError("cochain degree must be at least 1")
        self.dim = int(dim)
        self.degree = int(degree)
        clean: dict[tuple[int, ...], Vector] = {}
        for key, value in dict(table).items():
            idx = tuple(int(t) for t in key)
            increasing = all(idx[a] < idx[a + 1] for a in range(len(idx) - 1))
            if len(idx) != degree or not increasing or not all(0 <= t < dim for t in idx):
                raise InputError(
                    f"cochain key {key!r}: need a strictly increasing tuple of "
                    f"{degree} indices below {dim}"
                )
            vec = value if isinstance(value, Vector) else Vector(value)
            if vec.dim != dim:
                raise InputError(f"cochain value for {key} has dimension {vec.dim}, expected {dim}")
            if not vec.is_zero():
                clean[idx] = vec
        self._table = clean
        self._full: dict[tuple[int, ...], Vector] | None = None

    @classmethod
    def zero(cls, dim: int, degree: int) -> "Cochain":
        return cls(dim, degree)

    def _lookup(self) -> dict[tuple[int, ...], Vector]:
        """Value on every permutation of every stored tuple, signs applied.

        Built lazily, once; tuples with repeated indices are simply absent,
        so a plain dict get with a zero default implements the alternating
        extension.
        """
        if self._full is None:
            full = {}
            for key, vec in self._table.items():
                neg = -vec
                for perm in permutations(range(self.degree)):
                    shuffled = tuple(key[t] for t in perm)
                    full[shuffled] = vec if perm_sign(perm) == 1 else neg
            self._full = full
        return self._full

    def entries(self) -> Iterator[tuple[tuple[int, ...], Vector]]:
        """Nonzero table rows in increasing tuple order."""
        for key in sorted(self._table):
            yield key, self._table[key]

    def is_zero(self) -> bool:
        return not self._table

    def value_on_basis(self, indices: tuple[int, ...]) -> Vector:
        """Alternating extension to arbitrary basis tuples.

        Repeated indices give zero; otherwise the stored value with the
        reordering parity applied.
        """
        if len(indices) != self.degree:
            raise InputError(f"expected {self.degree} indices, got {len(indices)}")
        key = indices if type(indices) is tuple else tuple(indices)
        value = self._lookup().get(key)
        return Vector.zero(self.dim) if value is None else value

    def __call__(self, *args: Vector) -> Vector:
        """Multilinear evaluation on arbitrary vectors."""
        if len(args) != self.degree:
            raise InputError(f"expected {self.degree} arguments, got {len(args)}")
        for a in args:
            if a.dim != self.dim:
                raise InputError("argument dimension does not match the cochain")
        lookup = self._lookup()
        out = Vector.zero(self.dim)
        supports = [[k for k in range(self.dim) if a[k]] for a in args]
        for combo in product(*supports):
            base = lookup.get(combo)
            if base is None:
                continue
            coeff = None
            for slot, idx in enumerate(combo):
                c = args[slot][idx]
                if c != 1:
                    coeff = c if coeff is None else coeff * c
            out = out + (base if coeff is None else coeff * base)
        return out

    def _check_compatible(self, other: "Cochain") -> None:
        if self.dim != other.dim or self.degree != other.degree:
            raise InputError("cochains have different dimension or degree")

    def __add__(self, other: "Cochain") -> "Cochain":
        self._check_compatible(other)
        table = dict(self._table)
        for key, vec in other._table.items():
            table[key] = table.get(key, Vector.zero(self.dim)) + vec
        return Cochain(self.dim, self.degree, table)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + (-other)

    def __neg__(self) -> "Cochain":
        return Cochain(self.dim, self.degree, {k: -v for k, v in self._table.items()})

    def __mul__(self, scalar: Fraction | int) -> "Cochain":
        s = rat(scalar)
        return Cochain(self.dim, self.degree, {k: s * v for k, v in self._table.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Cochain)
            and self.dim == other.dim
            and self.degree == other.degree
            and self._table == other._table
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.degree, tuple(sorted(self._table.items(), key=lambda t: t[0]))))

    def circle(self, other: "Cochain") -> "Cochain":
        """Insertion product: alternating sum over unshuffles of evaluating
        ``self`` on (``other`` of a leading block, remaining arguments).

        For two degree-2 cochains f, g this is the three-term sum
        f(g(x1,x2),x3) - f(g(x1,x3),x2) + f(g(x2,x3),x1) driving the
        deformation equations; the general form feeds the differential.
        """
        if self.dim != other.dim:
            raise InputError("cochains live over different dimensions")
        p, q = self.degree, other.degree
        out_degree = p + q - 1
        pattern = [(perm, perm_sign(perm)) for perm in unshuffles(q, p - 1)]
        basis = [Vector.basis(self.dim, k) for k in range(self.dim)]
        table: dict[tuple[int, ...], Vector] = {}
        for idx in combinations(range(self.dim), out_degree):
            total = Vector.zero(self.dim)
            for perm, sgn in pattern:
                inner = other.value_on_basis(tuple(idx[t] for t in perm[:q]))
                if inner.is_zero():
                    continue
                term = self(inner, *(basis[idx[t]] for t in perm[q:]))
                total = total + term if sgn == 1 else total - term
            if not total.is_zero():
                table[idx] = total
        return Cochain(self.dim, out_degree, table)

    def __repr__(self) -> str:
        rows = ", ".join(f"{k}->{v.render()}" for k, v in self.entries())
        return f"Cochain(dim={self.dim}, degree={self.degree}, {{{rows}}})"


class TruncatedSeries:
    """Polynomial in t with Vector coefficients, truncated beyond ``order``.

    Only the nonzero coefficients are stored, as a map from t-power to
    Vector; a missing power is a zero coefficient.  ``starred`` marks
    elements of the degree-1 shifted copy; starred and unstarred series
    never mix in arithmetic.  Coefficients past the truncation order are
    silently dropped: that is the whole point of the type.  Two series are
    equal iff flags, orders, dimensions and all nonzero coefficients agree.
    """

    __slots__ = ("dim", "order", "starred", "_terms")

    def __init__(
        self,
        dim: int,
        coeffs: Iterable[Vector | Iterable] = (),
        *,
        order: int = DEFAULT_TRUNCATION,
        starred: bool = False,
    ) -> None:
        if order < 3:
            raise InputError("truncation order must be at least 3")
        self.dim = int(dim)
        self.order = int(order)
        self.starred = bool(starred)
        terms: dict[int, Vector] = {}
        for k, c in enumerate(coeffs):
            if k > self.order:
                break
            vec = c if isinstance(c, Vector) else Vector(c)
            if vec.dim != self.dim:
                raise InputError(f"coefficient {k} has dimension {vec.dim}, expected {self.dim}")
            if not vec.is_zero():
                terms[k] = vec
        self._terms = terms

    @classmethod
    def _raw(
        cls, dim: int, terms: Iterable[tuple[int, Vector]], order: int, starred: bool
    ) -> "TruncatedSeries":
        # internal fast path: (power, coefficient) pairs with powers known to
        # be <= order; zero coefficients are dropped here
        s = cls.__new__(cls)
        s.dim = dim
        s.order = order
        s.starred = starred
        s._terms = {k: v for k, v in terms if not v.is_zero()}
        return s

    def _like(self, terms: Iterable[tuple[int, Vector]]) -> "TruncatedSeries":
        return TruncatedSeries._raw(self.dim, terms, self.order, self.starred)

    @classmethod
    def zero(
        cls, dim: int, *, order: int = DEFAULT_TRUNCATION, starred: bool = False
    ) -> "TruncatedSeries":
        return cls(dim, (), order=order, starred=starred)

    @classmethod
    def monomial(
        cls,
        vec: Vector,
        power: int,
        *,
        order: int = DEFAULT_TRUNCATION,
        starred: bool = False,
    ) -> "TruncatedSeries":
        """``vec * t**power`` (zero if the power exceeds the truncation)."""
        return cls(vec.dim, (vec,), order=order, starred=starred).shift(power)

    @property
    def epsilon(self) -> int:
        """Homological degree tag (0 unstarred, 1 starred)."""
        return epsilon(self.starred)

    def coefficient(self, k: int) -> Vector:
        if k < 0:
            raise InputError("t-power must be nonnegative")
        value = self._terms.get(k)
        return Vector.zero(self.dim) if value is None else value

    def is_zero(self) -> bool:
        return not self._terms

    def support(self) -> Iterator[tuple[int, Vector]]:
        """Pairs (power, coefficient) with nonzero coefficient, by increasing power."""
        return iter(sorted(self._terms.items()))

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.starred != other.starred:
            raise InputError("cannot mix starred and unstarred series")
        if self.order != other.order:
            raise InputError(f"truncation orders differ: {self.order} vs {other.order}")
        if self.dim != other.dim:
            raise InputError("series dimensions differ")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        zero = Vector.zero(self.dim)
        a, b = self._terms, other._terms
        return self._like((k, a.get(k, zero) + b.get(k, zero)) for k in a.keys() | b.keys())

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __neg__(self) -> "TruncatedSeries":
        return self._like((k, -v) for k, v in self._terms.items())

    def __mul__(self, scalar: Fraction | int) -> "TruncatedSeries":
        s = rat(scalar)
        return self._like((k, s * v) for k, v in self._terms.items())

    __rmul__ = __mul__

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by t**k, truncating whatever falls off the end."""
        if k < 0:
            raise InputError("t-power must be nonnegative")
        return self._like((p + k, v) for p, v in self._terms.items() if p + k <= self.order)

    def keep_below(self, k: int) -> "TruncatedSeries":
        """Zero out every coefficient at t-power >= k."""
        return self._like((p, v) for p, v in self._terms.items() if p < k)

    def drop_below(self, k: int) -> "TruncatedSeries":
        """Zero out every coefficient at t-power < k."""
        return self._like((p, v) for p, v in self._terms.items() if p >= k)

    def with_starred(self, starred: bool) -> "TruncatedSeries":
        """Same coefficients, the other copy of the space (a <-> a^*)."""
        return TruncatedSeries._raw(self.dim, self._terms.items(), self.order, starred)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.starred == other.starred
            and self.order == other.order
            and self.dim == other.dim
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.order, self.starred, frozenset(self._terms.items())))

    def render(self) -> str:
        star = "^*" if self.starred else ""
        parts = []
        for k, vec in self.support():
            body = vec.render() + star
            if k == 0:
                parts.append(body)
            elif k == 1:
                parts.append(f"t * {body}")
            else:
                parts.append(f"t^{k} * {body}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.render()}, order={self.order})"
