"""Order-by-order deformation of a Lie bracket.

A deformation is a family alpha_0, alpha_1, alpha_2, ... of degree-2
cochains (alpha_0 the original bracket) subject to one equation per order:

    sum over i + j = n of alpha_i ∘ alpha_j = 0

with ∘ the three-term insertion composition.  Orders 0 and 1 say that
alpha_0 is a Lie bracket and alpha_1 a cocycle.  From order 2 on, the
equation rearranges to  d alpha_n = rho_n  where

    rho_n = -( sum over i + j = n, i, j > 0 of alpha_i ∘ alpha_j )

is built from the already-chosen terms.  rho_n is itself a cocycle, so the
only question is whether its degree-3 cohomology class vanishes; if it
does, the canonical solver hands back a witness alpha_n and the march
continues, and if not, the class is the obstruction and the deformation
stops dead at order n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra_core import Cochain, LieAlgebra
from .cohomology import ce_differential, class_coordinates, coboundary_solve
from .errors import InputError, NotCocycleError, StateError


def compose(f: Cochain, g: Cochain) -> Cochain:
    """Three-term insertion composition of two degree-2 cochains."""
    if f.degree != 2 or g.degree != 2:
        raise InputError("compose takes two degree-2 cochains")
    if f.dim != g.dim:
        raise InputError("cochains live over different dimensions")
    return f.circle(g)


def gbracket(f: Cochain, g: Cochain) -> Cochain:
    """Symmetrized composition; with the bracket cochain in one slot this is
    exactly the degree-2 differential."""
    return compose(f, g) + compose(g, f)


@dataclass(frozen=True)
class ObstructionReport:
    """The order-n obstruction cochain and its cohomological verdict.

    Invariant: ``is_coboundary``, ``witness is not None`` and
    ``all coordinates zero`` are the same statement.
    """

    order: int
    rho: Cochain
    is_coboundary: bool
    witness: Cochain | None
    class_coordinates: tuple[Fraction, ...]


@dataclass(frozen=True)
class DeformationState:
    """A deformation built out to some order, plus where it got stuck."""

    algebra: LieAlgebra
    alphas: tuple[Cochain, ...]
    order_reached: int
    first_obstruction: ObstructionReport | None = None

    @classmethod
    def initial(cls, algebra: LieAlgebra, alpha1: Cochain) -> "DeformationState":
        """State holding the bracket and a first-order term.

        The order-1 equation is checked up front: a non-cocycle first-order
        term is rejected, not silently carried along.
        """
        if alpha1.degree != 2:
            raise InputError("the first-order term must be a degree-2 cochain")
        if alpha1.dim != algebra.dim:
            raise InputError("first-order term dimension does not match the algebra")
        if not ce_differential(algebra, alpha1).is_zero():
            raise NotCocycleError("alpha1 is not a cocycle")
        return cls(algebra, (algebra.bracket_cochain(), alpha1), 1)

    def alpha(self, i: int) -> Cochain:
        """The order-i term; orders beyond the current family are zero."""
        if i < 0:
            raise InputError("deformation orders are nonnegative")
        if i < len(self.alphas):
            return self.alphas[i]
        return Cochain.zero(self.algebra.dim, 2)


def residual(state: DeformationState, n: int) -> Cochain:
    """Left side of the order-n equation; zero iff that order holds."""
    total = Cochain.zero(state.algebra.dim, 3)
    for i in range(n + 1):
        total = total + compose(state.alpha(i), state.alpha(n - i))
    return total


def obstruction(state: DeformationState, n: int) -> ObstructionReport:
    """Obstruction data at order n >= 2.

    Requires every lower order to hold already; a state that fails an
    earlier equation has no well-defined obstruction, so that is an error,
    not a report.
    """
    if n < 2:
        raise InputError("obstructions start at order 2")
    for m in range(1, n):
        if not residual(state, m).is_zero():
            raise StateError(f"order-{m} deformation equation already fails; no order-{n} obstruction")
    rho = Cochain.zero(state.algebra.dim, 3)
    for i in range(1, n):
        rho = rho - compose(state.alpha(i), state.alpha(n - i))
    if not ce_differential(state.algebra, rho).is_zero():
        raise ArithmeticError("obstruction cochain failed to be a cocycle")
    witness = coboundary_solve(state.algebra, rho)
    coords = tuple(class_coordinates(state.algebra, rho))
    is_cob = witness is not None
    if is_cob != all(c == 0 for c in coords):
        raise ArithmeticError("solver and class coordinates disagree on the obstruction")
    return ObstructionReport(n, rho, is_cob, witness, coords)


def extend(state: DeformationState, max_order: int) -> DeformationState:
    """Push the deformation up to max_order, one greedy solve per order.

    Each order takes the canonical solver witness with no backtracking; the
    first non-coboundary obstruction stops the march and is recorded.  The
    returned state always passes a full recheck of every established order.
    """
    if state.first_obstruction is not None:
        raise StateError("state is already obstructed; nothing to extend")
    alphas = list(state.alphas)
    reached = state.order_reached
    first = None
    for n in range(reached + 1, max_order + 1):
        work = DeformationState(state.algebra, tuple(alphas), n - 1)
        report = obstruction(work, n)
        if not report.is_coboundary:
            first = report
            break
        alphas.append(report.witness)
        reached = n
    final = DeformationState(state.algebra, tuple(alphas), reached, first)
    for m in range(reached + 1):
        if not residual(final, m).is_zero():
            raise ArithmeticError(f"post-hoc recheck failed at order {m}")
    return final
