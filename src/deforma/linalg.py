"""Fraction-free exact linear algebra over the rationals.

Row reduction clears denominators per row and then runs Bareiss-style
integer elimination (every division is by the previous pivot and provably
exact), so intermediate entries stay modest and nothing is ever rounded.
Pivoting is deterministic: columns are swept left to right and the first
row with a nonzero entry wins.  Every routine therefore returns identical
output on every run and platform, which is what makes solver witnesses and
cohomology representatives reproducible.

Matrices are plain lists of rows of Fractions.  The column count is always
passed explicitly so empty matrices keep their shape.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

Matrix = list[list[Fraction]]


def _integer_rows(rows: Matrix) -> list[list[int]]:
    out = []
    for row in rows:
        mult = lcm(*(c.denominator for c in row)) if row else 1
        out.append([int(c * mult) for c in row])
    return out


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("fraction-free elimination step was not exact")
    return q


def _echelon(rows: list[list[int]], ncols: int) -> list[tuple[int, int]]:
    """In-place Bareiss echelon; returns the (row, column) pivot positions."""
    nrows = len(rows)
    pivots: list[tuple[int, int]] = []
    r = 0
    prev = 1
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        pivot = rows[r][c]
        for i in range(r + 1, nrows):
            factor = rows[i][c]
            rows[i] = [
                _exact_div(pivot * rows[i][k] - factor * rows[r][k], prev)
                for k in range(ncols)
            ]
        prev = pivot
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    return pivots


def rref(rows: Matrix, ncols: int) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form with unit pivots, plus the pivot columns."""
    work = _integer_rows(rows)
    pivots = _echelon(work, ncols)
    frac = [[Fraction(v) for v in row] for row in work]
    for r, c in reversed(pivots):
        p = frac[r][c]
        frac[r] = [v / p for v in frac[r]]
        for i in range(r):
            f = frac[i][c]
            if f:
                frac[i] = [a - f * b for a, b in zip(frac[i], frac[r])]
    return frac, [c for _, c in pivots]


def rank(rows: Matrix, ncols: int) -> int:
    work = _integer_rows(rows)
    return len(_echelon(work, ncols))


def nullspace(rows: Matrix, ncols: int) -> Matrix:
    """Canonical kernel basis: one vector per free column, in column order,
    with a 1 in the free slot and pivot slots solved from the RREF."""
    reduced, pivot_cols = rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivot_cols):
            v[pc] = -reduced[r][fc]
        basis.append(v)
    return basis


def solve(rows: Matrix, rhs: list[Fraction], ncols: int) -> list[Fraction] | None:
    """One solution of A x = rhs with all free coordinates zero, or None.

    The choice of solution is canonical because the elimination is.
    """
    if len(rhs) != len(rows):
        raise ValueError("right-hand side length does not match the row count")
    augmented = [row[:ncols] + [rhs[k]] for k, row in enumerate(rows)]
    reduced, pivot_cols = rref(augmented, ncols + 1)
    if ncols in pivot_cols:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivot_cols):
        x[pc] = reduced[r][ncols]
    return x


def independent_subset(base: Matrix, candidates: Matrix, ncols: int) -> list[int]:
    """Indices of candidates that enlarge the span of ``base``, scanned in
    order.  One elimination decides the whole greedy scan: with the vectors
    as columns, the pivot columns past ``base`` are exactly its picks."""
    vectors = base + candidates
    columns = [[v[r] for v in vectors] for r in range(ncols)]
    pivots = _echelon(_integer_rows(columns), len(vectors))
    return [c - len(base) for _, c in pivots if c >= len(base)]
