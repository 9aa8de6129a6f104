"""Small catalog of Lie algebras and cochains used by the tests and the
command-line examples.

Structure constants are stored on increasing basis pairs only; the other
half follows by antisymmetry.  Indices are 0-based here (the text format
accepted by the CLI is 1-based, see :mod:`deforma.io_formats`).
"""

from __future__ import annotations

from .algebra_core import Cochain, LieAlgebra, Vector


def abelian(dim: int) -> LieAlgebra:
    """Everything commutes; every bilinear alternating map is a cocycle."""
    return LieAlgebra(dim, {}, name=f"abelian{dim}")


def nonabelian2() -> LieAlgebra:
    """The only nonabelian 2-dimensional algebra: [e1, e2] = e2."""
    return LieAlgebra(2, {(0, 1): Vector((0, 1))}, name="nonabelian2")


def heisenberg3() -> LieAlgebra:
    """[e1, e2] = e3, e3 central."""
    return LieAlgebra(3, {(0, 1): Vector((0, 0, 1))}, name="heisenberg3")


def sl2() -> LieAlgebra:
    """Basis (h, e, f): [h, e] = 2e, [h, f] = -2f, [e, f] = h.

    Semisimple, so both cohomology groups in low degree vanish and every
    deformation attempt integrates trivially.
    """
    return LieAlgebra(
        3,
        {
            (0, 1): Vector((0, 2, 0)),
            (0, 2): Vector((0, 0, -2)),
            (1, 2): Vector((1, 0, 0)),
        },
        name="sl2",
    )


def heisenberg_cochain() -> Cochain:
    """The bracket of heisenberg3 as a standalone degree-2 cochain."""
    return Cochain(3, 2, {(0, 1): Vector((0, 0, 1))})


def obstructed_cochain() -> Cochain:
    """A 2-cocycle on the abelian 3-dimensional algebra whose first
    deformation step cannot be completed: f(e1,e2) = e3, f(e1,e3) = e1.

    Its self-composition lands on -e3 at (e1,e2,e3), and on an abelian
    algebra nothing is a coboundary, so the obstruction class is nonzero.
    """
    return Cochain(
        3,
        2,
        {(0, 1): Vector((0, 0, 1)), (0, 2): Vector((1, 0, 0))},
    )


def unobstructed_cochain() -> Cochain:
    """A 2-cocycle on heisenberg3 that deforms to every order: the bracket
    itself.  Scaling the bracket is the textbook one-parameter deformation."""
    return heisenberg_cochain()


def suite_algebras() -> dict[str, LieAlgebra]:
    """The named algebras every invariant test runs over."""
    return {
        "abelian2": abelian(2),
        "abelian3": abelian(3),
        "nonabelian2": nonabelian2(),
        "heisenberg3": heisenberg3(),
        "sl2": sl2(),
    }


def suite_structures() -> list[tuple[str, LieAlgebra, Cochain]]:
    """(name, algebra, first-order cocycle) pairs covering the interesting
    combinations: abelian bases, a genuinely obstructed direction, brackets
    deformed along themselves, and the zero cochain."""
    return [
        ("abelian2+cocycle", abelian(2), Cochain(2, 2, {(0, 1): Vector((1, 0))})),
        ("abelian3+heis", abelian(3), heisenberg_cochain()),
        ("abelian3+obstructed", abelian(3), obstructed_cochain()),
        ("heis3+bracket", heisenberg3(), heisenberg3().bracket_cochain()),
        ("sl2+zero", sl2(), Cochain(3, 2, {})),
        ("nonabelian2+bracket", nonabelian2(), nonabelian2().bracket_cochain()),
    ]
