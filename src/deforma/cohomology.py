"""Cochain-space coordinates, the adjoint differential, and exact
cohomology in degrees 1 through 3.

Differential convention
-----------------------
For a degree-p cochain f the differential is the insertion-product bracket
with the algebra's own bracket cochain b:

    d f = b.circle(f) - (-1)**(p - 1) * f.circle(b)

In degree 2 this is literally ``b∘f + f∘b``, the combination that drives
the deformation equations; in degree 1 it expands to the familiar
``d f(x, y) = [f(x), y] + [x, f(y)] - f([x, y])``.  With this single
convention ``d∘d = 0`` holds on the nose in every supported degree (the
test suite asserts it exactly), which is the only property the downstream
constructions rely on.

All coordinatizations use :class:`CochainSpaceBasis`: elementary cochains
ordered by increasing index tuple (lexicographic), target basis index
innermost.  Kernels, image bases, solver witnesses and cohomology
representatives are all expressed in that ordering, so results are stable
across runs and platforms.

Each :class:`LieAlgebra` carries a memo, filled here on first use, that
holds its differential matrices, coboundary bases and per-degree
:class:`CohomologyResult`, so every function (and every order of a
deformation march) reuses one build.  The memo lives and dies with the
algebra; callers get copies of its lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .algebra_core import Cochain, LieAlgebra, Vector
from .errors import InputError
from .linalg import independent_subset, nullspace, solve

SUPPORTED_DEGREES = (1, 2, 3)


class CochainSpaceBasis:
    """Canonical ordering of the elementary degree-p cochains.

    Row ``(tuple, k)`` is the cochain sending the increasing basis tuple to
    ``e_k`` and every other tuple to zero.  The ordering is part of the
    package contract; changing it would silently change every report.
    """

    def __init__(self, dim: int, degree: int) -> None:
        if degree < 1:
            raise InputError("cochain degree must be at least 1")
        self.dim = dim
        self.degree = degree
        self.tuples = list(combinations(range(dim), degree))
        self.size = dim * len(self.tuples)
        self._offset = {t: n * dim for n, t in enumerate(self.tuples)}

    def to_coords(self, f: Cochain) -> list[Fraction]:
        if f.dim != self.dim or f.degree != self.degree:
            raise InputError("cochain does not live in this space")
        coords = [Fraction(0)] * self.size
        for key, vec in f.entries():
            base = self._offset[key]
            for k, c in enumerate(vec):
                coords[base + k] = c
        return coords

    def from_coords(self, coords: list[Fraction]) -> Cochain:
        if len(coords) != self.size:
            raise InputError(f"expected {self.size} coordinates, got {len(coords)}")
        table = {}
        for n, t in enumerate(self.tuples):
            vec = Vector(coords[n * self.dim : (n + 1) * self.dim])
            if not vec.is_zero():
                table[t] = vec
        return Cochain(self.dim, self.degree, table)


@dataclass(frozen=True)
class CohomologyResult:
    """Exact dimensions plus canonical class representatives."""

    degree: int
    dim_cocycles: int
    dim_coboundaries: int
    dim_h: int
    representatives: tuple[Cochain, ...]


def ce_differential(L: LieAlgebra, f: Cochain) -> Cochain:
    """Degree-raising adjoint differential for cochain degrees 1-3."""
    if f.degree not in SUPPORTED_DEGREES:
        raise InputError(f"differential supports degrees {SUPPORTED_DEGREES}, got {f.degree}")
    if f.dim != L.dim:
        raise InputError("cochain dimension does not match the algebra")
    b = L.bracket_cochain()
    left = b.circle(f)
    right = f.circle(b)
    return left + right if f.degree == 2 else left - right


def _differential(L: LieAlgebra, p: int) -> list[list[Fraction]]:
    """d_p in the canonical coordinates (rows target, columns source),
    built once per algebra.  d_0 is a |-> [a, .], whose image is the inner
    derivations; it stays private because the Cochain type starts at
    degree 1."""
    memo = L._cochain_complex
    if ("d", p) not in memo:
        n = L.dim
        if p == 0:
            columns = [[L.bracket_basis(a, x)[k] for x in range(n) for k in range(n)] for a in range(n)]
        else:
            dst = CochainSpaceBasis(n, p + 1)
            columns = [
                dst.to_coords(ce_differential(L, Cochain(n, p, {t: Vector.basis(n, k)})))
                for t in CochainSpaceBasis(n, p).tuples
                for k in range(n)
            ]
        memo[("d", p)] = [list(row) for row in zip(*columns)]
    return memo[("d", p)]


def differential_matrix(L: LieAlgebra, p: int) -> list[list[Fraction]]:
    """Matrix of the differential from degree p to degree p+1 in the
    canonical coordinates (rows target, columns source)."""
    if p not in SUPPORTED_DEGREES:
        raise InputError(f"differential supports degrees {SUPPORTED_DEGREES}, got {p}")
    return [row[:] for row in _differential(L, p)]


def cocycle_space(L: LieAlgebra, p: int) -> list[Cochain]:
    """Canonical basis of the degree-p cocycles (kernel of the differential)."""
    src = CochainSpaceBasis(L.dim, p)
    mat = differential_matrix(L, p)
    return [src.from_coords(v) for v in nullspace(mat, src.size)]


def coboundary_space(L: LieAlgebra, p: int) -> list[Cochain]:
    """Canonical basis of the degree-p coboundaries (image from below): the
    pivot columns of d_{p-1}."""
    if p not in SUPPORTED_DEGREES:
        raise InputError(f"coboundaries supported in degrees {SUPPORTED_DEGREES}, got {p}")
    memo = L._cochain_complex
    if ("B", p) not in memo:
        src = CochainSpaceBasis(L.dim, p)
        images = [list(col) for col in zip(*_differential(L, p - 1))]
        keep = independent_subset([], images, src.size)
        memo[("B", p)] = [src.from_coords(images[k]) for k in keep]
    return list(memo[("B", p)])


def coboundary_solve(L: LieAlgebra, target: Cochain) -> Cochain | None:
    """Some g with d g = target, or None when target is not a coboundary.

    The witness is canonical: deterministic elimination with free
    coordinates pinned to zero.  In particular target = 0 yields g = 0.
    """
    if target.degree not in (2, 3):
        raise InputError("solver targets live in degree 2 or 3")
    if target.dim != L.dim:
        raise InputError("target dimension does not match the algebra")
    p = target.degree - 1
    src = CochainSpaceBasis(L.dim, p)
    dst = CochainSpaceBasis(L.dim, p + 1)
    sol = solve(differential_matrix(L, p), dst.to_coords(target), src.size)
    return None if sol is None else src.from_coords(sol)


def cohomology(L: LieAlgebra, p: int) -> CohomologyResult:
    """Exact cohomology in degree p with canonical representatives.

    Representatives are kernel basis vectors completing the coboundary
    basis, scanned in canonical order, so no rational combination of them
    is a coboundary.
    """
    memo = L._cochain_complex
    if ("H", p) in memo:
        return memo[("H", p)]
    cocycles = cocycle_space(L, p)
    coboundaries = coboundary_space(L, p)
    basis = CochainSpaceBasis(L.dim, p)
    b_rows = [basis.to_coords(f) for f in coboundaries]
    z_rows = [basis.to_coords(f) for f in cocycles]
    reps = [cocycles[k] for k in independent_subset(b_rows, z_rows, basis.size)]
    if len(reps) != len(cocycles) - len(coboundaries):
        raise ArithmeticError("cohomology bookkeeping failed; coboundaries escape the kernel")
    result = memo[("H", p)] = CohomologyResult(
        degree=p,
        dim_cocycles=len(cocycles),
        dim_coboundaries=len(coboundaries),
        dim_h=len(cocycles) - len(coboundaries),
        representatives=tuple(reps),
    )
    return result


def class_coordinates(
    L: LieAlgebra, cocycle: Cochain, result: CohomologyResult | None = None
) -> list[Fraction]:
    """Coordinates of a cocycle's class in the canonical representatives.

    All zero means the cocycle is a coboundary.
    """
    if not ce_differential(L, cocycle).is_zero():
        raise InputError("class coordinates are only defined for cocycles")
    p = cocycle.degree
    if result is None:
        result = cohomology(L, p)
    basis = CochainSpaceBasis(L.dim, p)
    cob = coboundary_space(L, p)
    columns = [basis.to_coords(f) for f in cob]
    columns += [basis.to_coords(f) for f in result.representatives]
    mat = [[col[r] for col in columns] for r in range(basis.size)]
    sol = solve(mat, basis.to_coords(cocycle), len(columns))
    if sol is None:
        raise ArithmeticError("a cocycle failed to decompose over coboundaries + representatives")
    return sol[len(cob) :]
