"""Elimination routines cross-checked against sympy on random exact input."""

from fractions import Fraction

import sympy

from deforma.linalg import independent_subset, nullspace, rank, rref, solve


def rand_matrix(rng, nrows, ncols):
    return [
        [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(ncols)]
        for _ in range(nrows)
    ]


def to_sympy(rows, ncols):
    return sympy.Matrix(len(rows), ncols, [sympy.Rational(c) for r in rows for c in r])


def test_rank_matches_sympy(rng):
    for _ in range(25):
        nrows, ncols = rng.randint(0, 5), rng.randint(1, 5)
        rows = rand_matrix(rng, nrows, ncols)
        assert rank(rows, ncols) == to_sympy(rows, ncols).rank()


def test_rref_matches_sympy(rng):
    for _ in range(25):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = rand_matrix(rng, nrows, ncols)
        reduced, pivots = rref(rows, ncols)
        sym_rref, sym_pivots = to_sympy(rows, ncols).rref()
        assert list(pivots) == list(sym_pivots)
        assert to_sympy(reduced, ncols) == sym_rref


def test_nullspace_is_exact_kernel_basis(rng):
    for _ in range(25):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        rows = rand_matrix(rng, nrows, ncols)
        basis = nullspace(rows, ncols)
        assert len(basis) == ncols - rank(rows, ncols)
        M = to_sympy(rows, ncols)
        for v in basis:
            image = M * sympy.Matrix([sympy.Rational(c) for c in v])
            assert all(e == 0 for e in image)
        # basis vectors are independent
        assert rank(basis, ncols) == len(basis)


def test_solve_verified_by_substitution(rng):
    hits = 0
    for _ in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = rand_matrix(rng, nrows, ncols)
        # build rhs in the column space half the time
        if rng.random() < 0.5:
            x0 = [Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
            rhs = [sum(r[c] * x0[c] for c in range(ncols)) for r in rows]
        else:
            rhs = [Fraction(rng.randint(-3, 3)) for _ in range(nrows)]
        x = solve(rows, rhs, ncols)
        solvable = to_sympy(rows, ncols).rank() == to_sympy(
            [r + [b] for r, b in zip(rows, rhs)], ncols + 1
        ).rank()
        assert (x is not None) == solvable
        if x is not None:
            hits += 1
            for r, b in zip(rows, rhs):
                assert sum(c * v for c, v in zip(r, x)) == b
    assert hits > 5  # the generator really produced solvable systems


def test_solve_is_deterministic_and_canonical():
    # one equation, two unknowns: free coordinate pinned to zero
    rows = [[Fraction(2), Fraction(4)]]
    assert solve(rows, [Fraction(6)], 2) == [Fraction(3), Fraction(0)]
    assert solve(rows, [Fraction(6)], 2) == solve(rows, [Fraction(6)], 2)


def test_independent_subset_greedy():
    e1 = [Fraction(1), Fraction(0)]
    e2 = [Fraction(0), Fraction(1)]
    both = [Fraction(1), Fraction(1)]
    assert independent_subset([], [e1, both, e2], 2) == [0, 1]
    assert independent_subset([e1], [e1, both, e2], 2) == [1]
    assert independent_subset([e1, e2], [both], 2) == []


def greedy_rank_scan(base, candidates, ncols):
    """Reference: one rank per candidate, keeping those that raise it."""
    current, chosen = [row[:] for row in base], []
    for k, cand in enumerate(candidates):
        if rank(current + [cand], ncols) > rank(current, ncols):
            chosen.append(k)
            current.append(cand)
    return chosen


def test_independent_subset_matches_rank_per_candidate_scan(rng):
    for _ in range(60):
        ncols = rng.randint(0, 6)
        pool = rand_matrix(rng, rng.randint(1, 4), ncols)

        def vector():
            # mostly combinations of a small pool, so dependencies are common
            if rng.random() < 0.2:
                return [Fraction(0)] * ncols
            coeffs = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in pool]
            return [sum(c * row[k] for c, row in zip(coeffs, pool)) for k in range(ncols)]

        base = [vector() for _ in range(rng.randint(0, 4))]
        if base and rng.random() < 0.5:
            base.append(base[0][:])  # a dependent base
        candidates = [vector() for _ in range(rng.randint(0, 7))]
        if candidates and rng.random() < 0.5:
            candidates.insert(rng.randint(0, len(candidates)), rng.choice(candidates)[:])
        assert independent_subset(base, candidates, ncols) == greedy_rank_scan(
            base, candidates, ncols
        )


def test_empty_and_zero_edge_cases():
    assert rank([], 3) == 0
    assert nullspace([], 3) == [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]
    zero_row = [[Fraction(0), Fraction(0)]]
    assert rank(zero_row, 2) == 0
    assert solve(zero_row, [Fraction(1)], 2) is None
    assert solve(zero_row, [Fraction(0)], 2) == [Fraction(0), Fraction(0)]
