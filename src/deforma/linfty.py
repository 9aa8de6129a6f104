"""Two-term strong homotopy Lie structure carrying a deformation's first
obstruction.

Spaces
------
Degree 0 holds truncated t-series over the base space.  Degree 1 holds
starred series; the strict variant admits only coefficients from t^2 on
(that subspace is the complement of the low-order part), while the
extended variant lifts the restriction to all of the shifted copy.

Structure maps on generators (a, b, c in the base space, b0 the bracket,
b1 the chosen degree-2 cocycle):

    l1(a^* t^i) = a t^i                      and l1 = 0 in degree 0
    l2(a t^i, b t^j)   = t^(i+j) * (b0(a,b) + b1(a,b) t)
    l2(a^* t^i, b t^j) = t^(i+j) * (b0(a,b)^* + b1(a,b)^* t)
    l2(x, y) = -l2(y, x) for degree-0 x against degree-1 y,
    l2 = 0 on two degree-1 arguments (no degree-2 space exists),
    l3(a t^i, b t^j, c t^k) = - t^(i+j+k+2) * ((b1 ∘ b1)(a, b, c))^*

all extended t-linearly and truncated at the configured order.  The
contracting homotopy s kills the two lowest t-coefficients of a degree-0
element and sends the rest, negated and starred, to degree 1; together
with l1 it satisfies  projection - identity = l1 s + s l1.

The value of l3 is the one a derivation from the deformation equations
produces.  Some presentations prefer the symmetrized bracket b1∘b1 + b1∘b1
in the same slot, which is twice as large; setting ``remark_double=True``
reproduces that normalization.  The default stays with the derived value.

Relation checking
-----------------
``verify_relations`` checks the generalized Jacobi identities with 2, 3, 4
and 5 arguments (reported as R1, R2, R4 and R3 respectively -- R3 is the
statement that no l3-of-l3 term survives) using the sign convention from
:mod:`deforma.signs`.  The instance schedule is deterministic: every
combination of basis indices and degree patterns for the 2- and
3-argument identities, base-space tuples for the 4- and 5-argument ones.
t-linearity makes checking on bare generators sufficient, and to guard the
reduction itself the checker re-runs each instance with every per-slot
t-power shift of total weight <= 2 (the 5-argument family runs unshifted:
each of its terms vanishes for degree reasons before t enters).  The
default truncation 6 is the smallest order with one coefficient of margin
over the deepest term the schedule can produce; smaller truncations are
refused rather than silently checking less.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from .algebra_core import (
    DEFAULT_TRUNCATION,
    Cochain,
    LieAlgebra,
    TruncatedSeries,
    Vector,
)
from .cohomology import ce_differential
from .deformation import compose
from .errors import ConstructionError, InputError, NotCocycleError
from .signs import koszul_sign, perm_sign, relation_coefficient, unshuffles

VARIANTS = ("strict", "extended")


@lru_cache(maxsize=None)
def _unshuffle_patterns(i: int, j: int) -> tuple:
    """(permutation, permutation sign) pairs for the (i, j)-unshuffles."""
    return tuple((perm, perm_sign(perm)) for perm in unshuffles(i, j))


_koszul_cached = lru_cache(maxsize=None)(koszul_sign)

#: Truncation orders below this cannot host every term of the relation
#: schedule, so the verifier refuses them.
MIN_VERIFIABLE_TRUNCATION = 6

#: Largest total t-power shift the relation checker adds to one instance's
#: generators; ``restriction_matches`` compares the maps on the same powers.
_MAX_SHIFT = 2


class GradedElement:
    """Element of the two-term graded space: a degree-0 series plus a
    degree-1 (starred) series."""

    __slots__ = ("x0", "x1")

    def __init__(self, x0: TruncatedSeries, x1: TruncatedSeries) -> None:
        if x0.starred or not x1.starred:
            raise InputError("GradedElement takes (unstarred, starred) series in that order")
        if x0.dim != x1.dim or x0.order != x1.order:
            raise InputError("component series disagree on dimension or truncation")
        self.x0 = x0
        self.x1 = x1

    @classmethod
    def _raw(cls, x0: TruncatedSeries, x1: TruncatedSeries) -> "GradedElement":
        # internal fast path: components already validated by construction
        g = cls.__new__(cls)
        g.x0 = x0
        g.x1 = x1
        return g

    @classmethod
    def zero(cls, dim: int, order: int = DEFAULT_TRUNCATION) -> "GradedElement":
        return cls._raw(
            TruncatedSeries.zero(dim, order=order),
            TruncatedSeries.zero(dim, order=order, starred=True),
        )

    @classmethod
    def degree0(cls, series: TruncatedSeries) -> "GradedElement":
        return cls(series, TruncatedSeries.zero(series.dim, order=series.order, starred=True))

    @classmethod
    def degree1(cls, series: TruncatedSeries) -> "GradedElement":
        return cls(TruncatedSeries.zero(series.dim, order=series.order), series)

    @property
    def degree(self) -> int | None:
        """0 or 1 for homogeneous elements (zero counts as 0), None if mixed."""
        if self.x1.is_zero():
            return 0
        if self.x0.is_zero():
            return 1
        return None

    def is_zero(self) -> bool:
        return self.x0.is_zero() and self.x1.is_zero()

    def __add__(self, other: "GradedElement") -> "GradedElement":
        return GradedElement._raw(self.x0 + other.x0, self.x1 + other.x1)

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        return GradedElement._raw(self.x0 - other.x0, self.x1 - other.x1)

    def __neg__(self) -> "GradedElement":
        return GradedElement._raw(-self.x0, -self.x1)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GradedElement) and self.x0 == other.x0 and self.x1 == other.x1

    def __hash__(self) -> int:
        return hash((self.x0, self.x1))

    def render(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        if not self.x0.is_zero():
            parts.append(self.x0.render())
        if not self.x1.is_zero():
            parts.append(self.x1.render())
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"GradedElement({self.render()})"


@dataclass(frozen=True)
class HomotopyReport:
    checked: int
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class RelationViolation:
    relation: str
    degrees: tuple[int, ...]
    indices: tuple[int, ...]
    shifts: tuple[int, ...]
    defect: str
    terms: tuple[str, ...]


@dataclass(frozen=True)
class RelationCheck:
    name: str
    description: str
    instances: int
    violations: tuple[RelationViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class RelationReport:
    checks: tuple[RelationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def total_instances(self) -> int:
        return sum(c.instances for c in self.checks)


# (name, argument count, degree patterns or None for all-degree-0,
#  apply shift guard, description)
_SCHEDULE = (
    ("R1", 2, "mixed", True, "l1 is a derivation of l2"),
    ("R2", 3, "mixed", True, "Jacobi holds up to the l3 homotopy correction"),
    ("R3", 5, "zeros", False, "no l3-of-l3 term survives (vacuous by degree)"),
    ("R4", 4, "zeros", True, "l2 and l3 are compatible"),
)


class LInftyStructure:
    """The structure maps for one algebra and one degree-2 cocycle.

    ``variant`` selects the strict domain (degree-1 series supported from
    t^2 on) or the extended one (unrestricted).  ``remark_double`` switches
    l3 to the symmetrized normalization, twice the default.
    """

    def __init__(
        self,
        algebra: LieAlgebra,
        alpha1: Cochain,
        *,
        truncation: int = DEFAULT_TRUNCATION,
        variant: str = "strict",
        remark_double: bool = False,
        require_verifiable: bool = True,
    ) -> None:
        if variant not in VARIANTS:
            raise InputError(f"variant must be one of {VARIANTS}")
        if alpha1.degree != 2:
            raise InputError("the first-order term must be a degree-2 cochain")
        if alpha1.dim != algebra.dim:
            raise InputError("first-order term dimension does not match the algebra")
        if not ce_differential(algebra, alpha1).is_zero():
            raise NotCocycleError("alpha1 is not a cocycle")
        if truncation < 3:
            raise InputError("truncation order must be at least 3")
        if require_verifiable and truncation < MIN_VERIFIABLE_TRUNCATION:
            raise InputError(
                f"truncation {truncation} cannot host the relation checks; "
                f"need at least {MIN_VERIFIABLE_TRUNCATION} "
                "(pass require_verifiable=False to experiment anyway)"
            )
        self.algebra = algebra
        self.alpha1 = alpha1
        self.truncation = truncation
        self.variant = variant
        self.remark_double = remark_double
        self._square = compose(alpha1, alpha1)
        self._l3_scale = Fraction(-2 if remark_double else -1)

    # ---------------------------------------------------------------- elements

    def series(self, coeffs=(), *, starred: bool = False) -> TruncatedSeries:
        """A series over this structure's algebra at its truncation."""
        return TruncatedSeries(self.algebra.dim, coeffs, order=self.truncation, starred=starred)

    def basis_element(self, index: int, *, power: int = 0, starred: bool = False) -> GradedElement:
        """e_index * t**power as a homogeneous element."""
        mono = TruncatedSeries.monomial(
            Vector.basis(self.algebra.dim, index),
            power,
            order=self.truncation,
            starred=starred,
        )
        element = GradedElement.degree1(mono) if starred else GradedElement.degree0(mono)
        self._check_element(element)
        return element

    def _check_element(self, x: GradedElement) -> None:
        if x.x0.dim != self.algebra.dim:
            raise InputError("element dimension does not match the algebra")
        if x.x0.order != self.truncation:
            raise InputError("element truncation does not match the structure")
        if self.variant == "strict" and (
            not x.x1.coefficient(0).is_zero() or not x.x1.coefficient(1).is_zero()
        ):
            raise InputError("strict degree-1 elements must vanish below t^2")

    # ------------------------------------------------------------------- maps

    def l1(self, x: GradedElement) -> GradedElement:
        """Un-star the degree-1 part; degree 0 is annihilated."""
        self._check_element(x)
        return GradedElement._raw(
            x.x1.with_starred(False),
            TruncatedSeries.zero(self.algebra.dim, order=self.truncation, starred=True),
        )

    def homotopy_s(self, x: GradedElement) -> GradedElement:
        """Contracting homotopy on degree 0: vanish below t^2, negate and
        star the rest."""
        self._check_element(x)
        if not x.x1.is_zero():
            raise InputError("the homotopy applies to degree-0 elements only")
        return GradedElement.degree1(-x.x0.drop_below(2).with_starred(True))

    def _pair(self, p: TruncatedSeries, q: TruncatedSeries, starred: bool) -> TruncatedSeries:
        """Bilinear core of l2: both structure terms, t-shifted per support.

        ``p`` supplies the left argument (possibly from the shifted copy),
        ``q`` is always a degree-0 series.
        """
        T = self.truncation
        dim = self.algebra.dim
        zero = Vector.zero(dim)
        terms: dict[int, Vector] = {}
        for i, a in p.support():
            for j, b in q.support():
                if i + j > T:
                    continue
                terms[i + j] = terms.get(i + j, zero) + self.algebra.bracket(a, b)
                if i + j + 1 <= T:
                    terms[i + j + 1] = terms.get(i + j + 1, zero) + self.alpha1(a, b)
        return TruncatedSeries._raw(dim, terms.items(), T, starred)

    def l2(self, x: GradedElement, y: GradedElement) -> GradedElement:
        """Graded two-slot map; antisymmetric on degree 0, with the degree-0
        against degree-1 slot fixed by l2(x, y) = -l2(y, x)."""
        self._check_element(x)
        self._check_element(y)
        out0 = self._pair(x.x0, y.x0, starred=False)
        out1 = self._pair(x.x1.with_starred(False), y.x0, starred=True) - self._pair(
            y.x1.with_starred(False), x.x0, starred=True
        )
        return GradedElement._raw(out0, out1)

    def _l3_series(self, p: TruncatedSeries, q: TruncatedSeries, r: TruncatedSeries) -> TruncatedSeries:
        T = self.truncation
        dim = self.algebra.dim
        zero = Vector.zero(dim)
        terms: dict[int, Vector] = {}
        if not self._square.is_zero():
            for i, a in p.support():
                for j, b in q.support():
                    for k, c in r.support():
                        power = i + j + k + 2
                        if power <= T:
                            terms[power] = terms.get(power, zero) + self._square(a, b, c)
        scale = self._l3_scale
        return TruncatedSeries._raw(dim, ((k, scale * v) for k, v in terms.items()), T, True)

    def l3(self, x: GradedElement, y: GradedElement, z: GradedElement) -> GradedElement:
        """Three-slot map valued in degree 1; defined on degree-0 arguments.

        A starred argument is refused loudly: the map vanishes there for
        degree reasons, and silence would hide caller bugs.
        """
        for arg in (x, y, z):
            self._check_element(arg)
            if not arg.x1.is_zero():
                raise InputError("l3 takes degree-0 arguments only")
        return GradedElement.degree1(self._l3_series(x.x0, y.x0, z.x0))

    def _l3_graded(self, x: GradedElement, y: GradedElement, z: GradedElement) -> GradedElement:
        """Graded extension used by the relation checker: zero whenever any
        argument has a degree-1 part."""
        if not (x.x1.is_zero() and y.x1.is_zero() and z.x1.is_zero()):
            return GradedElement.zero(self.algebra.dim, self.truncation)
        return self.l3(x, y, z)

    def l3_table(self) -> dict[tuple[int, int, int], GradedElement]:
        """l3 on every increasing basis triple: the obstruction, tabulated."""
        out = {}
        for triple in combinations(range(self.algebra.dim), 3):
            args = [self.basis_element(i) for i in triple]
            out[triple] = self.l3(*args)
        return out

    # ------------------------------------------------------------ verification

    def verify_homotopy_identity(self) -> HomotopyReport:
        """Check projection - identity = l1 s + s l1 on the spanning set
        {a t^k} and {a^* t^k, k >= 2} for all basis a and k up to the
        truncation.  Strict variant only; the extended space has no
        preferred complement to project onto."""
        if self.variant != "strict":
            raise InputError("the homotopy identity belongs to the strict variant")
        violations = []
        checked = 0
        dim, T = self.algebra.dim, self.truncation
        for index in range(dim):
            for k in range(T + 1):
                x = self.basis_element(index, power=k)
                lhs = x.x0.keep_below(2) - x.x0
                rhs = self.l1(self.homotopy_s(x)).x0 + self.homotopy_s(self.l1(x)).x0
                checked += 1
                if lhs != rhs:
                    violations.append(
                        f"degree 0, e_{index + 1} t^{k}: {lhs.render()} != {rhs.render()}"
                    )
            for k in range(2, T + 1):
                x = self.basis_element(index, power=k, starred=True)
                lhs = -x.x1
                rhs = self.homotopy_s(self.l1(x)).x1
                checked += 1
                if lhs != rhs:
                    violations.append(
                        f"degree 1, e_{index + 1}^* t^{k}: {lhs.render()} != {rhs.render()}"
                    )
        return HomotopyReport(checked, tuple(violations))

    def _base_power(self, degree: int) -> int:
        if degree == 0:
            return 0
        return 2 if self.variant == "strict" else 0

    def _cached_basis_element(
        self,
        cache: dict[tuple[int, int, bool], GradedElement],
        index: int,
        power: int,
        starred: bool,
    ) -> GradedElement:
        key = (index, power, starred)
        element = cache.get(key)
        if element is None:
            element = cache[key] = self.basis_element(index, power=power, starred=starred)
        return element

    def _maps(self) -> dict:
        return {1: self.l1, 2: self.l2, 3: self._l3_graded}

    def _relation_blocks(self, n: int, degrees: tuple[int, ...]):
        """The (inner arity, outer arity, unshuffle, total sign) quadruples of
        the n-argument generalized Jacobi identity."""
        for i in (1, 2, 3):
            j = n + 1 - i
            if j not in (1, 2, 3):
                continue
            coeff = relation_coefficient(i, j)
            for perm, psign in _unshuffle_patterns(i, n - i):
                yield i, j, perm, coeff * psign * _koszul_cached(perm, degrees)

    def _jacobi_defect(
        self,
        args: tuple[GradedElement, ...],
        degrees: tuple[int, ...],
        keys: tuple,
        memo: dict,
    ) -> tuple[GradedElement, list]:
        """Sum of the signed terms, which must be zero, and every block with
        its signed term (None where the inner value vanished).

        ``keys``/``memo`` let the scheduler reuse inner evaluations across
        instances (the inner map sees the same generator tuples over and
        over).  Terms with a zero inner value are skipped: every map is
        multilinear, so the outer evaluation is zero too.
        """
        maps = self._maps()
        total = GradedElement.zero(self.algebra.dim, self.truncation)
        blocks = []
        for i, j, perm, sign in self._relation_blocks(len(args), degrees):
            mkey = (i, *(keys[t] for t in perm[:i]))
            inner = memo.get(mkey)
            if inner is None:
                inner = memo[mkey] = maps[i](*(args[t] for t in perm[:i]))
            term = None
            if not inner.is_zero():
                outer = maps[j](inner, *(args[t] for t in perm[i:]))
                term = outer if sign == 1 else -outer
                total = total + term
            blocks.append(((i, j, perm, sign), term))
        return total, blocks

    def verify_relations(self) -> RelationReport:
        """Run the full deterministic relation schedule; see the module
        docstring for what it covers."""
        if self.truncation < MIN_VERIFIABLE_TRUNCATION:
            raise InputError(
                f"relation checking needs truncation >= {MIN_VERIFIABLE_TRUNCATION}"
            )
        dim = self.algebra.dim
        checks = []
        for name, nargs, patterns, shifted, blurb in _SCHEDULE:
            if patterns == "mixed":
                degree_patterns = list(product((0, 1), repeat=nargs))
            else:
                degree_patterns = [(0,) * nargs]
            if shifted:
                shift_tuples = [
                    s
                    for s in product(range(_MAX_SHIFT + 1), repeat=nargs)
                    if sum(s) <= _MAX_SHIFT
                ]
            else:
                shift_tuples = [(0,) * nargs]
            instances = 0
            violations = []
            cache: dict[tuple[int, int, bool], GradedElement] = {}
            memo: dict = {}
            for degrees in degree_patterns:
                for indices in product(range(dim), repeat=nargs):
                    for shifts in shift_tuples:
                        keys = tuple(
                            (
                                indices[slot],
                                self._base_power(degrees[slot]) + shifts[slot],
                                bool(degrees[slot]),
                            )
                            for slot in range(nargs)
                        )
                        args = tuple(self._cached_basis_element(cache, *key) for key in keys)
                        defect, blocks = self._jacobi_defect(args, degrees, keys, memo)
                        instances += 1
                        if not defect.is_zero():
                            terms = tuple(
                                f"(i={i}, j={j}, perm={perm}, sign={sign:+d}): "
                                + ("0" if term is None else term.render())
                                for (i, j, perm, sign), term in blocks
                            )
                            violations.append(
                                RelationViolation(
                                    name, degrees, indices, shifts, defect.render(), terms
                                )
                            )
            checks.append(RelationCheck(name, blurb, instances, tuple(violations)))
        return RelationReport(tuple(checks))


def restriction_matches(strict: LInftyStructure, extended: LInftyStructure) -> bool:
    """Do the extended maps agree with the strict ones on the strict domain?

    Compared exactly on generators at each degree's base power plus up to
    ``_MAX_SHIFT``: l1 and the mixed l2 on starred powers, the degree-0 l2
    and l3 on unstarred ones.
    """
    if strict.variant != "strict" or extended.variant != "extended":
        raise InputError("pass the strict structure first, the extended one second")
    dim = strict.algebra.dim
    shifts = range(_MAX_SHIFT + 1)
    for i in range(dim):
        for p in shifts:
            xs = strict.basis_element(i, power=strict._base_power(1) + p, starred=True)
            if strict.l1(xs) != extended.l1(xs):
                return False
            for j in range(dim):
                for q in shifts:
                    y = strict.basis_element(j, power=strict._base_power(0) + q)
                    if strict.l2(xs, y) != extended.l2(xs, y):
                        return False
                    if strict.l2(y, xs) != extended.l2(y, xs):
                        return False
    for i in range(dim):
        for j in range(dim):
            for p in shifts:
                x = strict.basis_element(i, power=strict._base_power(0) + p)
                y = strict.basis_element(j)
                if strict.l2(x, y) != extended.l2(x, y):
                    return False
    for triple in combinations(range(dim), 3):
        args = [strict.basis_element(t) for t in triple]
        if strict.l3(*args) != extended.l3(*args):
            return False
    return True


def build_extended(strict: LInftyStructure) -> LInftyStructure:
    """Lift a strict structure to unrestricted degree-1 series.

    The strict relations are verified first, then the extended ones on the
    extended generator schedule, then agreement of the two map families on
    the strict domain.  Every failure raises ConstructionError: the lift
    always exists, so a failure can only mean an implementation bug.
    """
    if strict.variant != "strict":
        raise InputError("build_extended starts from a strict structure")
    if not strict.verify_relations().passed:
        raise ConstructionError("strict relations failed; refusing to extend")
    if not strict.verify_homotopy_identity().passed:
        raise ConstructionError("strict homotopy identity failed; refusing to extend")
    extended = LInftyStructure(
        strict.algebra,
        strict.alpha1,
        truncation=strict.truncation,
        variant="extended",
        remark_double=strict.remark_double,
    )
    if not extended.verify_relations().passed:
        raise ConstructionError("extended relations failed")
    if not restriction_matches(strict, extended):
        raise ConstructionError("extended maps disagree with the strict ones on the strict domain")
    return extended
