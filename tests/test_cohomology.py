"""Differential and cohomology against the independent textbook oracle.

Two cross-checks run here.  Dimension triples (cocycles, coboundaries,
cohomology) must match both the frozen table and a fresh sympy-rank
recomputation.  And the differential matrix itself must agree with the
classical adjoint-action formula up to the frozen per-degree sign; the two
routes share no code, so agreement pins the convention.
"""

from fractions import Fraction

import pytest

import ce_oracle as oracle
from deforma import (
    Cochain,
    InputError,
    LieAlgebra,
    Vector,
    ce_differential,
    class_coordinates,
    coboundary_solve,
    coboundary_space,
    cocycle_space,
    cohomology,
)
from deforma.cohomology import CochainSpaceBasis, differential_matrix
from deforma.catalog import abelian, heisenberg3
from deforma.deformation import compose

#: package differential vs textbook differential, entrywise, per cochain
#: degree; frozen from the pinning run (see decisions log)
ROUTE_SIGN = {1: 1, 2: -1, 3: 1}

#: dim-4 filiform algebra used only here, to make degree 3 non-vacuous
N4_TABLE = {(0, 1): {2: 1}, (0, 2): {3: 1}}
N4_FROZEN = {1: (7, 3, 4), 2: (15, 9, 6), 3: (14, 9, 5)}


def n4():
    return LieAlgebra(
        4,
        {(0, 1): Vector((0, 0, 1, 0)), (0, 2): Vector((0, 0, 0, 1))},
        name="n4",
    )


def elementary_cochains(dim, p):
    from itertools import combinations

    for idx in combinations(range(dim), p):
        for k in range(dim):
            yield Cochain(dim, p, {idx: Vector.basis(dim, k)})


def dims_triple(L, p):
    r = cohomology(L, p)
    return (r.dim_cocycles, r.dim_coboundaries, r.dim_h)


# ------------------------------------------------------------ frozen dims


def test_frozen_dimension_table(algebras):
    for name, L in algebras.items():
        for p, frozen in oracle.FROZEN_DIMS[name].items():
            assert dims_triple(L, p) == frozen, (name, p)


def test_oracle_still_reproduces_frozen_table():
    for name, (dim, table) in oracle.ALGEBRAS.items():
        for p, frozen in oracle.FROZEN_DIMS[name].items():
            assert oracle.dims(dim, table, p) == frozen, (name, p)


def test_filiform_dimensions_both_routes():
    L = n4()
    for p in (1, 2, 3):
        assert dims_triple(L, p) == N4_FROZEN[p]
        assert oracle.dims(4, N4_TABLE, p) == N4_FROZEN[p]


# -------------------------------------------------------- the differential


def test_d_squared_is_zero(algebras):
    for L in algebras.values():
        for p in (1, 2):
            for f in elementary_cochains(L.dim, p):
                assert ce_differential(L, ce_differential(L, f)).is_zero()


def test_d_squared_is_zero_on_filiform():
    L = n4()
    for p in (1, 2):
        for f in elementary_cochains(4, p):
            assert ce_differential(L, ce_differential(L, f)).is_zero()


def test_differential_matrix_matches_oracle_up_to_sign(algebras):
    cases = [(name, L, oracle.ALGEBRAS[name][1]) for name, L in algebras.items()]
    cases.append(("n4", n4(), N4_TABLE))
    for name, L, table in cases:
        for p in (1, 2, 3):
            pkg = differential_matrix(L, p)
            classic = oracle.d_matrix(L.dim, table, p)
            sign = ROUTE_SIGN[p]
            for r in range(classic.rows):
                for c in range(classic.cols):
                    assert pkg[r][c] == sign * Fraction(classic[r, c]), (name, p, r, c)


def test_degree2_differential_is_the_circle_combination(algebras, rng):
    # the definition the deformation ladder relies on: d f = b∘f + f∘b
    for L in algebras.values():
        b = L.bracket_cochain()
        for f in elementary_cochains(L.dim, 2):
            assert ce_differential(L, f) == compose(b, f) + compose(f, b)


def test_degree1_differential_formula():
    # identity map on heisenberg3: d(id)(x,y) = [x,y] + [x,y] - [x,y] = [x,y]
    L = heisenberg3()
    ident = Cochain(3, 1, {(k,): Vector.basis(3, k) for k in range(3)})
    d = ce_differential(L, ident)
    assert d == L.bracket_cochain()
    assert d.value_on_basis((0, 1)) == Vector((0, 0, 1))


def test_bracket_cochain_is_closed(algebras):
    # the order-0 deformation equation
    for L in algebras.values():
        assert ce_differential(L, L.bracket_cochain()).is_zero()


def test_differential_rejects_bad_input():
    L = heisenberg3()
    with pytest.raises(InputError):
        ce_differential(L, Cochain(4, 2, {}))
    with pytest.raises(InputError):
        ce_differential(n4(), Cochain(4, 4, {}))


# --------------------------------------------------------- spaces and ranks


def test_rank_nullity_bookkeeping(algebras):
    for L in algebras.values():
        for p in (1, 2, 3):
            basis = CochainSpaceBasis(L.dim, p)
            r = cohomology(L, p)
            from deforma.linalg import rank

            d_rank = rank(differential_matrix(L, p), basis.size)
            assert r.dim_cocycles + d_rank == basis.size
            assert r.dim_h == r.dim_cocycles - r.dim_coboundaries
            assert len(r.representatives) == r.dim_h


def test_spaces_really_are_cocycles_and_coboundaries(algebras):
    for L in algebras.values():
        for p in (2, 3):
            for z in cocycle_space(L, p):
                assert ce_differential(L, z).is_zero()
            for b in coboundary_space(L, p):
                # a coboundary is in particular a cocycle
                assert ce_differential(L, b).is_zero()
                assert coboundary_solve(L, b) is not None


def test_representatives_are_cocycles_with_unit_coordinates(algebras):
    for L in algebras.values():
        for p in (2, 3):
            result = cohomology(L, p)
            for i, rep in enumerate(result.representatives):
                assert ce_differential(L, rep).is_zero()
                coords = class_coordinates(L, rep, result)
                expected = [Fraction(0)] * result.dim_h
                expected[i] = Fraction(1)
                assert coords == expected


def test_class_coordinates_kill_coboundaries(algebras):
    for L in algebras.values():
        result = cohomology(L, 2)
        for b in coboundary_space(L, 2):
            assert all(c == 0 for c in class_coordinates(L, b, result))


def test_class_coordinates_reject_non_cocycle():
    L = heisenberg3()
    f = Cochain(3, 2, {(0, 2): Vector((1, 0, 0))})
    assert not ce_differential(L, f).is_zero()
    with pytest.raises(InputError):
        class_coordinates(L, f)


def test_per_algebra_memo_keeps_algebras_and_callers_apart():
    # same dimension, different brackets: answers computed in turn must be
    # those of a fresh algebra of the same kind, never the other one's
    twins = {"abelian3": lambda: abelian(3), "heisenberg3": heisenberg3}
    first = {name: make() for name, make in twins.items()}
    for p in (1, 2, 3):
        for name, L in first.items():
            fresh = twins[name]()
            assert cohomology(L, p) == cohomology(fresh, p)
            assert differential_matrix(L, p) == differential_matrix(fresh, p)
            assert coboundary_space(L, p) == coboundary_space(fresh, p)
    assert dims_triple(first["abelian3"], 2) == (9, 0, 9)
    assert dims_triple(first["heisenberg3"], 2) == (8, 3, 5)

    # lists handed out are the caller's to change
    L = first["heisenberg3"]
    for p in (1, 2):
        d = differential_matrix(L, p)
        expected = [row[:] for row in d]
        d[0][0] += 7
        d.append(d[0])
        assert differential_matrix(L, p) == expected
        for space in (coboundary_space, cocycle_space):
            got = space(L, p)
            expected = list(got)
            got.append(Cochain.zero(3, p))
            got.reverse()
            assert space(L, p) == expected
    assert cohomology(L, 2) == cohomology(heisenberg3(), 2)


# -------------------------------------------------------------- the solver


def test_coboundary_solve_generate_and_check(algebras, rng):
    for L in algebras.values():
        for p in (1, 2):
            for _ in range(5):
                g = Cochain(
                    L.dim,
                    p,
                    {
                        idx: Vector(
                            tuple(
                                Fraction(rng.randint(-3, 3)) for _ in range(L.dim)
                            )
                        )
                        for idx in CochainSpaceBasis(L.dim, p).tuples
                    },
                )
                target = ce_differential(L, g)
                w = coboundary_solve(L, target)
                assert w is not None
                assert ce_differential(L, w) == target


def test_coboundary_solve_zero_gives_zero():
    L = heisenberg3()
    w = coboundary_solve(L, Cochain.zero(3, 3))
    assert w is not None and w.is_zero()


def test_coboundary_solve_unsolvable_on_abelian():
    # abelian differential is zero, so no nonzero target is ever hit
    L = abelian(3)
    target = Cochain(3, 3, {(0, 1, 2): Vector((0, 0, 1))})
    assert coboundary_solve(L, target) is None


def test_coboundary_solve_rejects_degree_one_target():
    with pytest.raises(InputError):
        coboundary_solve(heisenberg3(), Cochain(3, 1, {}))
