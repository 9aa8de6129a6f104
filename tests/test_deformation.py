"""Insertion composition and the order-by-order deformation ladder."""

from fractions import Fraction

import pytest

import ce_oracle as oracle
from deforma import (
    Cochain,
    DeformationState,
    InputError,
    NotCocycleError,
    StateError,
    Vector,
    ce_differential,
    compose,
    extend,
    gbracket,
    obstruction,
    residual,
)
from deforma.catalog import (
    abelian,
    heisenberg3,
    heisenberg_cochain,
    obstructed_cochain,
    sl2,
    suite_structures,
)


def rand_cochain2(rng, dim):
    from itertools import combinations

    return Cochain(
        dim,
        2,
        {
            idx: Vector(tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim)))
            for idx in combinations(range(dim), 2)
        },
    )


# -------------------------------------------------------------- composition


def test_compose_matches_bruteforce_oracle(rng):
    for dim in (2, 3, 4):
        for _ in range(6):
            f = rand_cochain2(rng, dim)
            g = rand_cochain2(rng, dim)
            got = compose(f, g)
            f_table = {k: list(v) for k, v in f.entries()}
            g_table = {k: list(v) for k, v in g.entries()}
            want = oracle.brute_compose(dim, f_table, g_table)
            for key, coords in want.items():
                assert list(got.value_on_basis(key)) == coords


def test_obstructed_self_composition_frozen_value():
    f = obstructed_cochain()
    sq = compose(f, f)
    assert list(sq.value_on_basis((0, 1, 2))) == oracle.OBSTRUCTED_SELF_COMPOSE
    assert sq.value_on_basis((0, 1, 2)) == Vector((0, 0, -1))


def test_compose_is_bilinear(rng):
    dim = 3
    f, g, h = (rand_cochain2(rng, dim) for _ in range(3))
    c = Fraction(rng.randint(-4, 4))
    assert compose(f + c * g, h) == compose(f, h) + c * compose(g, h)
    assert compose(h, f + c * g) == compose(h, f) + c * compose(h, g)


def test_compose_output_is_alternating(rng):
    f = rand_cochain2(rng, 3)
    g = rand_cochain2(rng, 3)
    out = compose(f, g)
    assert out.degree == 3
    e = [Vector.basis(3, k) for k in range(3)]
    assert out(e[0], e[1], e[2]) == -out(e[1], e[0], e[2])
    assert out(e[0], e[0], e[2]).is_zero()


def test_gbracket_is_symmetric(rng):
    f = rand_cochain2(rng, 3)
    g = rand_cochain2(rng, 3)
    assert gbracket(f, g) == gbracket(g, f)


def test_gbracket_with_bracket_is_differential(algebras, rng):
    for L in algebras.values():
        f = rand_cochain2(rng, L.dim)
        assert gbracket(L.bracket_cochain(), f) == ce_differential(L, f)


def test_compose_degree_guard():
    with pytest.raises(InputError):
        compose(Cochain(3, 1, {}), Cochain(3, 2, {}))
    with pytest.raises(InputError):
        compose(Cochain(2, 2, {}), Cochain(3, 2, {}))


# ----------------------------------------------------------------- residual


def test_low_order_residuals_vanish(structure):
    name, L, alpha1 = structure
    state = DeformationState.initial(L, alpha1)
    assert residual(state, 0).is_zero()
    assert residual(state, 1).is_zero()


def test_rho2_is_a_cocycle_everywhere(structure):
    # the only property the solver step actually needs
    name, L, alpha1 = structure
    state = DeformationState.initial(L, alpha1)
    rho2 = -compose(alpha1, alpha1)
    assert ce_differential(L, rho2).is_zero()
    report = obstruction(state, 2)
    assert report.rho == rho2


def test_initial_rejects_non_cocycle():
    L = heisenberg3()
    bad = Cochain(3, 2, {(0, 2): Vector((1, 0, 0))})
    with pytest.raises(NotCocycleError, match="not a cocycle"):
        DeformationState.initial(L, bad)
    with pytest.raises(InputError):
        DeformationState.initial(L, Cochain(3, 3, {}))
    with pytest.raises(InputError):
        DeformationState.initial(L, Cochain(2, 2, {}))


def test_alpha_accessor_pads_with_zero():
    L = abelian(3)
    state = DeformationState.initial(L, heisenberg_cochain())
    assert state.alpha(0) == L.bracket_cochain()
    assert state.alpha(1) == heisenberg_cochain()
    assert state.alpha(7).is_zero()
    with pytest.raises(InputError):
        state.alpha(-1)


# -------------------------------------------------------------- obstruction


def test_obstruction_report_invariant(structure):
    name, L, alpha1 = structure
    state = DeformationState.initial(L, alpha1)
    report = obstruction(state, 2)
    zero_coords = all(c == 0 for c in report.class_coordinates)
    assert report.is_coboundary == (report.witness is not None) == zero_coords
    if report.witness is not None:
        assert ce_differential(L, report.witness) == report.rho


def test_obstructed_cochain_halts_at_order_two():
    L = abelian(3)
    state = extend(DeformationState.initial(L, obstructed_cochain()), 5)
    assert state.order_reached == 1
    report = state.first_obstruction
    assert report is not None
    assert report.order == 2
    assert not report.is_coboundary
    assert report.witness is None
    assert any(c != 0 for c in report.class_coordinates)
    # rho2 = -f∘f sends (e1,e2,e3) to +e3
    assert report.rho.value_on_basis((0, 1, 2)) == Vector((0, 0, 1))


def test_obstructed_class_coordinates_frozen():
    # H^3 of abelian Q^3 is 3-dimensional; the class lands on the third
    # canonical representative
    L = abelian(3)
    report = obstruction(DeformationState.initial(L, obstructed_cochain()), 2)
    assert report.class_coordinates == (Fraction(0), Fraction(0), Fraction(1))


def test_heisenberg_direction_reaches_order_five():
    L = abelian(3)
    state = extend(DeformationState.initial(L, heisenberg_cochain()), 5)
    assert state.order_reached == 5
    assert state.first_obstruction is None
    for i in range(2, 6):
        assert state.alpha(i).is_zero()
    for n in range(6):
        assert residual(state, n).is_zero()


def test_sl2_coboundary_direction_extends(rng):
    # on sl2 every cocycle is a coboundary, so nothing ever obstructs
    L = sl2()
    g = Cochain(3, 1, {(0,): Vector((0, 1, 0)), (2,): Vector((1, 0, 0))})
    alpha1 = ce_differential(L, g)
    assert not alpha1.is_zero()
    state = extend(DeformationState.initial(L, alpha1), 4)
    assert state.order_reached == 4
    assert state.first_obstruction is None
    for n in range(5):
        assert residual(state, n).is_zero()


def test_every_suite_structure_extends_or_obstructs_cleanly(structure):
    name, L, alpha1 = structure
    state = extend(DeformationState.initial(L, alpha1), 3)
    if state.first_obstruction is None:
        assert state.order_reached == 3
        for n in range(4):
            assert residual(state, n).is_zero()
    else:
        assert state.order_reached == state.first_obstruction.order - 1
        assert not state.first_obstruction.is_coboundary


def test_obstruction_requires_consistent_lower_orders():
    # hand-build a state whose order-2 equation fails, then ask for order 3
    L = abelian(3)
    f = obstructed_cochain()
    state = DeformationState(L, (L.bracket_cochain(), f, Cochain.zero(3, 2)), 2)
    with pytest.raises(StateError):
        obstruction(state, 3)
    with pytest.raises(InputError):
        obstruction(state, 1)


def test_extend_refuses_obstructed_state():
    L = abelian(3)
    state = extend(DeformationState.initial(L, obstructed_cochain()), 2)
    assert state.first_obstruction is not None
    with pytest.raises(StateError):
        extend(state, 5)
