"""The two-term homotopy structure: maps, homotopy identity, relations.

The relation checker is itself under test here, so one case runs a known
wrong normalization of the ternary map (``remark_double=True``) and
demands a failure.  A checker that passes both normalizations would be
checking nothing.
"""

from fractions import Fraction

import pytest

from deforma import (
    Cochain,
    ConstructionError,
    GradedElement,
    InputError,
    LInftyStructure,
    NotCocycleError,
    TruncatedSeries,
    Vector,
    build_extended,
    compose,
    restriction_matches,
)
from deforma.catalog import (
    abelian,
    heisenberg3,
    heisenberg_cochain,
    obstructed_cochain,
    sl2,
)
from deforma.cohomology import cocycle_space
from deforma.linfty import MIN_VERIFIABLE_TRUNCATION


@pytest.fixture
def obstructed():
    return LInftyStructure(abelian(3), obstructed_cochain())


def shift_counts(nargs):
    # per-slot shifts in 0..2 with total weight <= 2
    from itertools import product

    return sum(1 for s in product(range(3), repeat=nargs) if sum(s) <= 2)


# -------------------------------------------------------------------- spaces


def test_basis_element_and_degree(obstructed):
    x = obstructed.basis_element(0, power=1)
    assert x.degree == 0 and not x.is_zero()
    y = obstructed.basis_element(1, power=2, starred=True)
    assert y.degree == 1
    # zero is homogeneous of degree 0; genuinely mixed elements have no degree
    assert GradedElement.zero(3).degree == 0
    assert (x + y).degree is None
    assert (x - x).is_zero()


def test_strict_variant_rejects_low_starred_powers(obstructed):
    for power in (0, 1):
        with pytest.raises(InputError, match="t\\^2"):
            obstructed.basis_element(0, power=power, starred=True)
    # the extended variant has no such floor
    ext = LInftyStructure(abelian(3), obstructed_cochain(), variant="extended")
    assert ext.basis_element(0, starred=True).degree == 1


def test_truncation_floor():
    with pytest.raises(InputError, match="at least 6"):
        LInftyStructure(abelian(3), obstructed_cochain(), truncation=5)
    with pytest.raises(InputError):
        LInftyStructure(abelian(3), obstructed_cochain(), truncation=2,
                        require_verifiable=False)
    low = LInftyStructure(
        abelian(3), obstructed_cochain(), truncation=4, require_verifiable=False
    )
    with pytest.raises(InputError):
        low.verify_relations()


def test_non_cocycle_is_rejected():
    bad = Cochain(3, 2, {(0, 2): Vector((1, 0, 0))})
    with pytest.raises(NotCocycleError, match="not a cocycle"):
        LInftyStructure(heisenberg3(), bad)


# ---------------------------------------------------------------------- maps


def test_l1_unstars(obstructed):
    x = obstructed.basis_element(2, power=2, starred=True)
    out = obstructed.l1(x)
    assert out.degree == 0
    assert out.x0 == obstructed.series().coefficient(0) * 0 + x.x1.with_starred(False)
    # degree 0 is annihilated
    assert obstructed.l1(obstructed.basis_element(0)).is_zero()


def test_homotopy_examples(obstructed):
    a = Vector.basis(3, 0)
    c = Vector.basis(3, 2)
    low = GradedElement.degree0(
        obstructed.series([a, a])  # a + a t
    )
    assert obstructed.homotopy_s(low).is_zero()
    x2 = GradedElement.degree0(TruncatedSeries.monomial(c, 2))
    assert obstructed.homotopy_s(x2).x1 == TruncatedSeries.monomial(
        -c, 2, starred=True
    )
    mixed = GradedElement.degree0(
        obstructed.series([a]) + TruncatedSeries.monomial(c, 3)
    )
    assert obstructed.homotopy_s(mixed).x1 == TruncatedSeries.monomial(
        -c, 3, starred=True
    )
    with pytest.raises(InputError):
        obstructed.homotopy_s(obstructed.basis_element(0, power=2, starred=True))


def test_l2_on_degree0_generators():
    # heisenberg bracket deformed along itself: both terms visible
    L = heisenberg3()
    s = LInftyStructure(L, L.bracket_cochain())
    e3 = Vector.basis(3, 2)
    out = s.l2(s.basis_element(0), s.basis_element(1))
    assert out.x0 == s.series([e3, e3])  # e3 + e3 t
    assert out.x1.is_zero()
    # powers add: t^1 against t^2
    out = s.l2(s.basis_element(0, power=1), s.basis_element(1, power=2))
    assert out.x0 == s.series([0 * e3, 0 * e3, 0 * e3, e3, e3])


def test_l2_on_abelian_base_shows_only_the_cocycle():
    s = LInftyStructure(abelian(3), heisenberg_cochain())
    out = s.l2(s.basis_element(0), s.basis_element(1))
    assert out.x0 == s.series([Vector.zero(3), Vector.basis(3, 2)])


def test_l2_mixed_degree_is_starred(obstructed):
    xs = obstructed.basis_element(0, power=2, starred=True)
    y = obstructed.basis_element(1)
    out = obstructed.l2(xs, y)
    assert out.x0.is_zero()
    # t^2 * (alpha0(e1,e2)^* + alpha1(e1,e2)^* t); the base is abelian so
    # only the cocycle term survives, at t^3
    assert out.x1 == TruncatedSeries.monomial(Vector.basis(3, 2), 3, starred=True)
    assert obstructed.l2(y, xs) == -out


def test_l2_graded_antisymmetry(obstructed):
    x = obstructed.basis_element(0)
    y = obstructed.basis_element(2, power=1)
    assert obstructed.l2(x, y) == -obstructed.l2(y, x)
    xs = obstructed.basis_element(0, power=2, starred=True)
    ys = obstructed.basis_element(1, power=3, starred=True)
    assert obstructed.l2(xs, ys).is_zero()


def test_l3_pinned_value(obstructed):
    out = obstructed.l3(
        obstructed.basis_element(0),
        obstructed.basis_element(1),
        obstructed.basis_element(2),
    )
    assert out.x1.render() == "t^2 * [0,0,1]^*"
    assert out.x0.is_zero()
    table = obstructed.l3_table()
    assert list(table) == [(0, 1, 2)]
    assert table[(0, 1, 2)] == out


def test_l3_is_alternating_and_shifts_powers(obstructed):
    e = [obstructed.basis_element(k) for k in range(3)]
    base = obstructed.l3(e[0], e[1], e[2])
    assert obstructed.l3(e[1], e[0], e[2]) == -base
    assert obstructed.l3(e[0], e[0], e[2]).is_zero()
    lifted = obstructed.l3(
        obstructed.basis_element(0, power=1), e[1], e[2]
    )
    # one t on an argument moves the t^2 landing spot to t^3
    assert lifted.x1 == TruncatedSeries.monomial(
        Vector.basis(3, 2), 3, starred=True
    )


def test_l3_refuses_starred_arguments(obstructed):
    xs = obstructed.basis_element(0, power=2, starred=True)
    e1, e2 = obstructed.basis_element(1), obstructed.basis_element(2)
    with pytest.raises(InputError, match="degree-0"):
        obstructed.l3(xs, e1, e2)


def test_l3_vanishes_when_alpha1_squares_to_zero():
    s = LInftyStructure(abelian(3), heisenberg_cochain())
    assert all(v.is_zero() for v in s.l3_table().values())
    z = LInftyStructure(sl2(), Cochain(3, 2, {}))
    assert all(v.is_zero() for v in z.l3_table().values())


def test_extended_variant_maps_on_low_powers():
    ext = LInftyStructure(abelian(3), obstructed_cochain(), variant="extended")
    a_star = ext.basis_element(0, starred=True)
    b_star = ext.basis_element(1, power=1, starred=True)
    out = ext.l1(a_star + b_star)
    e0, e1 = Vector.basis(3, 0), Vector.basis(3, 1)
    assert out.x0 == ext.series([e0, e1])
    # mixed l2 lands at t^0 here; f(e1, e2) = e3
    mixed = ext.l2(a_star, ext.basis_element(1))
    assert mixed.x1 == ext.series([Vector.zero(3), Vector.basis(3, 2)], starred=True)


# -------------------------------------------------------- homotopy identity


def test_homotopy_identity_holds(obstructed):
    report = obstructed.verify_homotopy_identity()
    assert report.passed
    assert report.violations == ()
    # spanning set: 7 degree-0 powers plus 5 starred ones, per basis index
    assert report.checked == 3 * (7 + 5)


def test_homotopy_identity_is_strict_only():
    ext = LInftyStructure(abelian(3), obstructed_cochain(), variant="extended")
    with pytest.raises(InputError):
        ext.verify_homotopy_identity()


# ----------------------------------------------------------------- relations


def test_relations_pass_on_every_suite_structure(structure):
    name, L, alpha1 = structure
    s = LInftyStructure(L, alpha1)
    report = s.verify_relations()
    assert report.passed, (name, report)
    by_name = {c.name: c for c in report.checks}
    assert set(by_name) == {"R1", "R2", "R3", "R4"}
    d = L.dim
    assert by_name["R1"].instances == 4 * d**2 * shift_counts(2)
    assert by_name["R2"].instances == 8 * d**3 * shift_counts(3)
    assert by_name["R3"].instances == d**5
    assert by_name["R4"].instances == d**4 * shift_counts(4)


def test_doubled_l3_normalization_fails_r2():
    # negative control: the checker must reject the doubled ternary map
    s = LInftyStructure(abelian(3), obstructed_cochain(), remark_double=True)
    report = s.verify_relations()
    assert not report.passed
    by_name = {c.name: c for c in report.checks}
    assert not by_name["R2"].passed
    assert len(by_name["R2"].violations) == 240
    v = by_name["R2"].violations[0]
    assert v.relation == "R2"
    assert v.defect != "0"
    # the breakdown lists every block, "0" where the inner value vanished
    assert v.terms == (
        "(i=1, j=3, perm=(0, 1, 2), sign=+1): 0",
        "(i=1, j=3, perm=(1, 0, 2), sign=-1): 0",
        "(i=1, j=3, perm=(2, 0, 1), sign=+1): 0",
        "(i=2, j=2, perm=(0, 1, 2), sign=+1): 0",
        "(i=2, j=2, perm=(0, 2, 1), sign=-1): t^2 * [0,0,-1]",
        "(i=2, j=2, perm=(1, 2, 0), sign=+1): 0",
        "(i=3, j=1, perm=(0, 1, 2), sign=+1): t^2 * [0,0,2]",
    )


def test_doubled_l3_still_builds_and_other_checks_unaffected():
    s = LInftyStructure(abelian(3), obstructed_cochain(), remark_double=True)
    report = s.verify_relations()
    by_name = {c.name: c for c in report.checks}
    # the doubling only enters relations where l3 meets l2
    assert by_name["R1"].passed
    assert by_name["R3"].passed


def test_l3_biconditional_over_random_cocycles(rng):
    """l3 vanishes identically exactly when the cocycle squares to zero."""
    cases = [abelian(3), heisenberg3(), sl2()]
    seen_nonzero = 0
    seen_zero = 0
    for L in cases:
        basis = cocycle_space(L, 2)
        for _ in range(8):
            coeffs = [Fraction(rng.randint(-2, 2)) for _ in basis]
            alpha1 = Cochain.zero(L.dim, 2)
            for c, b in zip(coeffs, basis):
                alpha1 = alpha1 + c * b
            s = LInftyStructure(L, alpha1)
            table_zero = all(v.is_zero() for v in s.l3_table().values())
            square_zero = compose(alpha1, alpha1).is_zero()
            assert table_zero == square_zero
            seen_nonzero += not square_zero
            seen_zero += square_zero
    # the family must exercise both sides of the biconditional
    assert seen_nonzero > 0 and seen_zero > 0


# ----------------------------------------------------------------- extension


def test_build_extended_and_restriction(obstructed):
    ext = build_extended(obstructed)
    assert ext.variant == "extended"
    assert restriction_matches(obstructed, ext)
    assert ext.verify_relations().passed


def test_build_extended_on_dim2():
    L = abelian(2)
    s = LInftyStructure(L, Cochain(2, 2, {(0, 1): Vector((1, 0))}))
    ext = build_extended(s)
    assert restriction_matches(s, ext)


def test_restriction_matches_argument_order(obstructed):
    ext = build_extended(obstructed)
    with pytest.raises(InputError):
        restriction_matches(ext, obstructed)


def test_build_extended_requires_strict():
    ext = LInftyStructure(abelian(3), obstructed_cochain(), variant="extended")
    with pytest.raises(InputError):
        build_extended(ext)


def test_build_extended_propagates_broken_normalization():
    s = LInftyStructure(abelian(3), obstructed_cochain(), remark_double=True)
    with pytest.raises(ConstructionError):
        build_extended(s)
