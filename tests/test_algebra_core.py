"""Exact value types: vectors, brackets, alternating cochains, series."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ce_oracle as oracle
from deforma import Cochain, InputError, LieAlgebra, TruncatedSeries, Vector, rat
from deforma.catalog import heisenberg3, obstructed_cochain, sl2


def rand_fraction(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 5))


def rand_vector(rng, dim):
    return Vector(tuple(rand_fraction(rng) for _ in range(dim)))


# ---------------------------------------------------------------- rationals


def test_rat_accepts_strings_ints_fractions():
    assert rat("2/3") == Fraction(2, 3)
    assert rat("-7") == Fraction(-7)
    assert rat(5) == Fraction(5)
    assert rat(Fraction(1, 2)) == Fraction(1, 2)
    # decimal strings parse exactly (Fraction semantics); the strict p/q
    # grammar is enforced at the file-format layer, not here
    assert rat("1.5") == Fraction(3, 2)


@pytest.mark.parametrize("bad", ["1/0", "abc", 0.5, None])
def test_rat_rejects_non_rationals(bad):
    with pytest.raises(InputError):
        rat(bad)


@given(st.fractions())
def test_rational_string_round_trip(q):
    assert rat(str(q)) == q


# ------------------------------------------------------------------ vectors


def test_vector_arithmetic_and_render():
    v = Vector(("1", "-1/2", 0))
    w = Vector((1, 1, 1))
    assert (v + w).coords == (Fraction(2), Fraction(1, 2), Fraction(1))
    assert (v - v).is_zero()
    assert (-v) * -1 == v
    assert (v * Fraction(2)).render() == "[2,-1,0]"
    assert v.render() == "[1,-1/2,0]"


def test_vector_dimension_mismatch():
    with pytest.raises(InputError):
        Vector((1, 0)) + Vector((1, 0, 0))


def test_vector_basis_and_zero():
    assert Vector.basis(3, 2) == Vector((0, 0, 1))
    assert Vector.zero(4).is_zero()
    with pytest.raises(InputError):
        Vector.basis(2, 5)


# ----------------------------------------------------------------- brackets


def test_heisenberg_bracket_values():
    L = heisenberg3()
    e = [Vector.basis(3, k) for k in range(3)]
    assert L.bracket(e[0], e[1]) == e[2]
    assert L.bracket(e[1], e[0]) == -e[2]
    assert L.bracket(e[0], e[2]).is_zero()
    assert L.bracket(e[2], e[2]).is_zero()


def test_sl2_bracket_values():
    L = sl2()
    h, e, f = (Vector.basis(3, k) for k in range(3))
    assert L.bracket(h, e) == 2 * e
    assert L.bracket(h, f) == -2 * f
    assert L.bracket(e, f) == h


def test_bracket_is_alternating_and_bilinear(algebras, rng):
    for L in algebras.values():
        for _ in range(10):
            x = rand_vector(rng, L.dim)
            y = rand_vector(rng, L.dim)
            z = rand_vector(rng, L.dim)
            c = rand_fraction(rng)
            assert L.bracket(x, x).is_zero()
            assert L.bracket(x, y) == -L.bracket(y, x)
            assert L.bracket(x + c * y, z) == L.bracket(x, z) + c * L.bracket(y, z)


def test_bracket_matches_oracle(algebras, rng):
    for name, L in algebras.items():
        dim, table = oracle.ALGEBRAS[name]
        ob = oracle.make_bracket(dim, table)
        for _ in range(10):
            x = rand_vector(rng, dim)
            y = rand_vector(rng, dim)
            assert list(L.bracket(x, y)) == ob(list(x), list(y))


def test_suite_algebras_satisfy_jacobi(algebras):
    for L in algebras.values():
        assert L.validate_jacobi() == []


def test_broken_bracket_table_is_caught():
    # the obstructed 2-cochain, misread as structure constants
    table = {(0, 1): Vector((0, 0, 1)), (0, 2): Vector((1, 0, 0))}
    L = LieAlgebra(3, table, check=False)
    bad = L.validate_jacobi()
    assert [v.triple for v in bad] == [(0, 1, 2)]
    assert bad[0].value == Vector((0, 0, -1))
    with pytest.raises(InputError):
        LieAlgebra(3, table)


def test_algebra_input_validation():
    with pytest.raises(InputError):
        LieAlgebra(0, {})
    with pytest.raises(InputError):
        LieAlgebra(2, {(1, 0): Vector((0, 1))})
    with pytest.raises(InputError):
        LieAlgebra(2, {(0, 1): Vector((0, 0, 1))})


def test_bracket_cochain_round_trip():
    L = sl2()
    c = L.bracket_cochain()
    x, y = Vector(("1/2", 3, 0)), Vector((0, "-2", "5/3"))
    assert c(x, y) == L.bracket(x, y)


# ----------------------------------------------------------------- cochains


def test_cochain_alternating_on_all_permutations(rng):
    for degree in (2, 3):
        dim = 4
        table = {
            key: rand_vector(rng, dim)
            for key in itertools.combinations(range(dim), degree)
        }
        c = Cochain(dim, degree, table)
        args = [rand_vector(rng, dim) for _ in range(degree)]
        base = c(*args)
        for perm in itertools.permutations(range(degree)):
            sign = oracle.parity(perm)
            assert c(*(args[t] for t in perm)) == sign * base


def test_cochain_zero_on_repeated_basis_index():
    c = obstructed_cochain()
    assert c.value_on_basis((0, 0)).is_zero()
    assert c.value_on_basis((2, 1)) == -c.value_on_basis((1, 2))
    e0 = Vector.basis(3, 0)
    assert c(e0, e0).is_zero()


def test_cochain_evaluation_matches_oracle(rng):
    dim = 3
    table = {
        (0, 1): Vector((1, "1/2", 0)),
        (0, 2): Vector((0, -1, "2/3")),
        (1, 2): Vector((3, 0, 1)),
    }
    c = Cochain(dim, 2, table)
    otable = {k: list(v) for k, v in table.items()}
    for _ in range(20):
        x, y = rand_vector(rng, dim), rand_vector(rng, dim)
        assert list(c(x, y)) == oracle.eval_cochain(dim, 2, otable, [list(x), list(y)])


def test_cochain_input_validation():
    with pytest.raises(InputError):
        Cochain(3, 0, {})
    with pytest.raises(InputError):
        Cochain(3, 2, {(1, 1): Vector((1, 0, 0))})
    with pytest.raises(InputError):
        Cochain(3, 2, {(1, 0): Vector((1, 0, 0))})
    with pytest.raises(InputError):
        Cochain(3, 2, {(0, 1): Vector((1, 0))})
    c = Cochain(3, 2, {(0, 1): Vector((1, 0, 0))})
    with pytest.raises(InputError):
        c(Vector.basis(3, 0))


def test_cochain_arithmetic_and_equality():
    a = Cochain(2, 2, {(0, 1): Vector((1, 0))})
    b = Cochain(2, 2, {(0, 1): Vector((0, 2))})
    assert (a + b).value_on_basis((0, 1)) == Vector((1, 2))
    assert (a - a).is_zero()
    assert a * 2 == 2 * a
    assert a != b
    # zero rows are dropped, so equality sees through them
    assert Cochain(2, 2, {(0, 1): Vector((0, 0))}) == Cochain.zero(2, 2)
    assert list(Cochain.zero(2, 2).entries()) == []


# ------------------------------------------------------------------- series

coeff_lists = st.lists(
    st.lists(st.integers(-4, 4), min_size=2, max_size=2), min_size=0, max_size=5
)


@given(coeff_lists, coeff_lists, st.integers(-3, 3))
def test_series_arithmetic_laws(xs, ys, c):
    a = TruncatedSeries(2, [Vector(row) for row in xs])
    b = TruncatedSeries(2, [Vector(row) for row in ys])
    assert a + b == b + a
    assert (a + b) - b == a
    assert (a + b) * c == a * c + b * c
    assert a + TruncatedSeries.zero(2) == a


def test_series_monomial_and_coefficient():
    v = Vector((0, 0, 1))
    s = TruncatedSeries.monomial(v, 2)
    assert s.coefficient(2) == v
    assert s.coefficient(1).is_zero()
    assert s.coefficient(99).is_zero()
    assert list(s.support()) == [(2, v)]
    # beyond the truncation there is nothing to store
    assert TruncatedSeries.monomial(v, 7, order=6).is_zero()


def test_series_shift_truncates():
    v = Vector((1,))
    s = TruncatedSeries.monomial(v, 6, order=6)
    assert not s.is_zero()
    assert s.shift(1).is_zero()
    assert TruncatedSeries.monomial(v, 1).shift(2) == TruncatedSeries.monomial(v, 3)


def test_series_keep_drop_partition(rng):
    coeffs = [rand_vector(rng, 2) for _ in range(7)]
    s = TruncatedSeries(2, coeffs)
    for k in range(8):
        assert s.keep_below(k) + s.drop_below(k) == s
    assert s.keep_below(0).is_zero()
    assert s.drop_below(0) == s


def test_series_starred_flag_is_strict():
    a = TruncatedSeries.monomial(Vector((1, 0)), 0)
    b = TruncatedSeries.monomial(Vector((0, 1)), 0, starred=True)
    with pytest.raises(InputError):
        a + b
    assert a.with_starred(True) + b == b + a.with_starred(True)
    assert a.epsilon == 0
    assert b.epsilon == 1
    assert a != a.with_starred(True)


def test_series_order_floor():
    with pytest.raises(InputError):
        TruncatedSeries(2, (), order=2)
    with pytest.raises(InputError):
        TruncatedSeries.monomial(Vector((1,)), -1)


def test_series_render():
    assert TruncatedSeries.zero(3).render() == "0"
    assert (
        TruncatedSeries.monomial(Vector((0, 0, 1)), 2, starred=True).render()
        == "t^2 * [0,0,1]^*"
    )
    two_terms = TruncatedSeries(
        2, [Vector((1, 0)), Vector((0, 1))]
    )
    assert two_terms.render() == "[1,0] + t * [0,1]"
    # a set of t-powers past 7 need not iterate in increasing order
    high = TruncatedSeries.monomial(Vector((1, 0)), 9, order=10)
    low = TruncatedSeries.monomial(Vector((0, 1)), 1, order=10)
    assert (high + low).render() == "t * [0,1] + t^9 * [1,0]"


# ------------------------------------------- series against a dense reference


class DenseSeries:
    """Reference: the dense representation TruncatedSeries used to have,
    every coefficient up to the truncation order stored, zeros included."""

    def __init__(self, dim, coeffs=(), *, order=6, starred=False):
        if order < 3:
            raise InputError("truncation order must be at least 3")
        self.dim, self.order, self.starred = dim, order, starred
        out = [c if isinstance(c, Vector) else Vector(c) for c in list(coeffs)[: order + 1]]
        for k, vec in enumerate(out):
            if vec.dim != dim:
                raise InputError(f"coefficient {k} has dimension {vec.dim}, expected {dim}")
        self.coeffs = tuple(out + [Vector.zero(dim)] * (order + 1 - len(out)))

    def _like(self, coeffs, starred=None):
        flag = self.starred if starred is None else starred
        return DenseSeries(self.dim, coeffs, order=self.order, starred=flag)

    def coefficient(self, k):
        if k < 0:
            raise InputError("t-power must be nonnegative")
        return self.coeffs[k] if k <= self.order else Vector.zero(self.dim)

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def support(self):
        return [(k, c) for k, c in enumerate(self.coeffs) if not c.is_zero()]

    def _check_compatible(self, other):
        if self.starred != other.starred:
            raise InputError("cannot mix starred and unstarred series")
        if self.order != other.order:
            raise InputError(f"truncation orders differ: {self.order} vs {other.order}")

    def __add__(self, other):
        self._check_compatible(other)
        return self._like([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check_compatible(other)
        return self._like([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return self._like([-c for c in self.coeffs])

    def __mul__(self, scalar):
        return self._like([rat(scalar) * c for c in self.coeffs])

    def shift(self, k):
        if k < 0:
            raise InputError("t-power must be nonnegative")
        return self._like([Vector.zero(self.dim)] * k + list(self.coeffs))

    def keep_below(self, k):
        return self._like([c if i < k else Vector.zero(self.dim) for i, c in enumerate(self.coeffs)])

    def drop_below(self, k):
        return self._like([c if i >= k else Vector.zero(self.dim) for i, c in enumerate(self.coeffs)])

    def with_starred(self, starred):
        return self._like(self.coeffs, starred)

    def __eq__(self, other):
        return (self.starred, self.order, self.coeffs) == (other.starred, other.order, other.coeffs)

    def render(self):
        star = "^*" if self.starred else ""
        parts = []
        for k, vec in self.support():
            prefix = "" if k == 0 else "t * " if k == 1 else f"t^{k} * "
            parts.append(prefix + vec.render() + star)
        return " + ".join(parts) if parts else "0"


def assert_same_series(sparse, dense):
    assert (sparse.dim, sparse.order, sparse.starred) == (dense.dim, dense.order, dense.starred)
    assert sparse.is_zero() == dense.is_zero()
    assert list(sparse.support()) == dense.support()
    assert sparse.render() == dense.render()
    for k in range(dense.order + 3):
        assert sparse.coefficient(k) == dense.coefficient(k)


def outcome(op):
    """The value of ``op()``, or the InputError it raised."""
    try:
        return op()
    except InputError as exc:
        return exc


series_rows = st.lists(
    st.lists(st.integers(-2, 2), min_size=2, max_size=2), min_size=0, max_size=12
)
series_ops = st.tuples(
    st.sampled_from(
        ["+", "-", "neg", "*", "shift", "keep_below", "drop_below", "with_starred"]
    ),
    st.integers(0, 7),
    st.integers(0, 7),
    st.integers(-2, 12),
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([3, 6, 10]),
    st.lists(st.tuples(series_rows, st.booleans()), min_size=1, max_size=4),
    st.lists(series_ops, max_size=12),
)
def test_series_matches_dense_reference(order, seeds, ops):
    pool = []
    for rows, starred in seeds:
        pool.append(
            (
                TruncatedSeries(2, rows, order=order, starred=starred),
                DenseSeries(2, rows, order=order, starred=starred),
            )
        )
    for name, a, b, n in ops:
        (sa, da), (sb, db) = pool[a % len(pool)], pool[b % len(pool)]
        apply = {
            "+": lambda s, t: s + t,
            "-": lambda s, t: s - t,
            "neg": lambda s, t: -s,
            "*": lambda s, t: s * n,
            "shift": lambda s, t: s.shift(n),
            "keep_below": lambda s, t: s.keep_below(n),
            "drop_below": lambda s, t: s.drop_below(n),
            "with_starred": lambda s, t: s.with_starred(n % 2 == 1),
        }[name]
        got, want = outcome(lambda: apply(sa, sb)), outcome(lambda: apply(da, db))
        if isinstance(want, InputError):
            assert isinstance(got, InputError) and str(got) == str(want)
            continue
        assert_same_series(got, want)
        pool.append((got, want))
    for sa, da in pool:
        assert_same_series(sa, da)
        for sb, db in pool:
            assert (sa == sb) == (da == db)
            if sa == sb:
                assert hash(sa) == hash(sb)
