"""Model algebras, seeded basis changes and deformation directions.

Everything here is written without importing ``deforma``: the benchmark
builds its inputs from its own structure constants, checks the Jacobi
identity with its own code, and writes the files the CLI reads.

An algebra is ``(name, dim, table)`` with ``table`` mapping 0-based
increasing pairs ``(i, j)`` to a list of ``dim`` Fractions (nonzero rows
only).  A cochain is ``{increasing tuple: list of dim Fractions}``.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations

Table = dict[tuple[int, int], list[Fraction]]


def _vec(dim: int, entries: dict[int, int]) -> list[Fraction]:
    out = [Fraction(0)] * dim
    for k, c in entries.items():
        out[k] = Fraction(c)
    return out


def filiform(n: int) -> tuple[str, int, Table]:
    """The filiform model L_n: [e1, ei] = e_{i+1} for 2 <= i < n (Vergne)."""
    return f"L{n}", n, {(0, i): _vec(n, {i + 1: 1}) for i in range(1, n - 1)}


def heisenberg(k: int) -> tuple[str, int, Table]:
    """h_{2k+1}: [x_i, y_i] = z, with basis x1, y1, ..., xk, yk, z."""
    dim = 2 * k + 1
    return f"h{dim}", dim, {(2 * i, 2 * i + 1): _vec(dim, {dim - 1: 1}) for i in range(k)}


#: The small algebras of dimension 2 and 3.
CATALOG = {
    "abelian2": (2, {}),
    "nonabelian2": (2, {(0, 1): {1: 1}}),
    "abelian3": (3, {}),
    "heisenberg3": (3, {(0, 1): {2: 1}}),
    "sl2": (3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}),
}


def catalog(name: str) -> tuple[str, int, Table]:
    dim, sparse = CATALOG[name]
    return name, dim, {pair: _vec(dim, row) for pair, row in sparse.items()}


def algebra(name: str) -> tuple[str, int, Table]:
    """Any model algebra by name: ``L<n>``, ``h<2k+1>`` or a catalog name."""
    if name in CATALOG:
        return catalog(name)
    if name.startswith("L"):
        return filiform(int(name[1:]))
    if name.startswith("h"):
        return heisenberg((int(name[1:]) - 1) // 2)
    raise KeyError(name)


# ------------------------------------------------------------ bracket algebra


def bracket(dim: int, table: Table, x: list[Fraction], y: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * dim
    for (i, j), row in table.items():
        c = x[i] * y[j] - x[j] * y[i]
        if c:
            for k in range(dim):
                out[k] += c * row[k]
    return out


def jacobi_holds(dim: int, table: Table) -> bool:
    """The Jacobi identity on every increasing basis triple."""
    basis = [_vec(dim, {k: 1}) for k in range(dim)]
    for a, b, c in combinations(range(dim), 3):
        x, y, z = basis[a], basis[b], basis[c]
        terms = (
            bracket(dim, table, bracket(dim, table, x, y), z),
            bracket(dim, table, bracket(dim, table, y, z), x),
            bracket(dim, table, bracket(dim, table, z, x), y),
        )
        if any(sum(t[k] for t in terms) for k in range(dim)):
            return False
    return True


# -------------------------------------------------------- change of basis


def unimodular(dim: int, rng: random.Random, steps: int | None = None) -> tuple[list, list]:
    """A seeded integer matrix of determinant +-1 and its integer inverse.

    A product of a permutation, sign flips and ``steps`` transvections
    ``I + s E_ij`` with s = +-1, so entries stay small and the inverse is
    the product of the inverse factors in reverse order.
    """
    steps = dim if steps is None else steps
    perm = list(range(dim))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(dim)]
    # g = P D: column c of g is signs[c] * e_{perm[c]}
    g = [[signs[c] if perm[c] == r else 0 for c in range(dim)] for r in range(dim)]
    ginv = [[signs[r] if perm[r] == c else 0 for c in range(dim)] for r in range(dim)]
    for _ in range(steps):
        i, j = rng.sample(range(dim), 2)
        s = rng.choice((1, -1))
        # g <- g (I + s E_ij): column j gains s * column i
        for r in range(dim):
            g[r][j] += s * g[r][i]
        # ginv <- (I - s E_ij) ginv: row i loses s * row j
        for c in range(dim):
            ginv[i][c] -= s * ginv[j][c]
    return g, ginv


def change_basis(dim: int, table: Table, g: list, ginv: list) -> Table:
    """Structure constants in the basis f_a = sum_i g[i][a] e_i."""
    cols = [[Fraction(g[r][a]) for r in range(dim)] for a in range(dim)]
    out: Table = {}
    for a, b in combinations(range(dim), 2):
        v = bracket(dim, table, cols[a], cols[b])
        w = [sum(ginv[c][k] * v[k] for k in range(dim)) for c in range(dim)]
        if any(w):
            out[(a, b)] = [Fraction(x) for x in w]
    return out


def changed(name: str, rng: random.Random) -> tuple[str, int, Table]:
    """A model algebra after a seeded unimodular change of basis; the
    Jacobi identity is checked again before the algebra is used."""
    base, dim, table = algebra(name)
    g, ginv = unimodular(dim, rng)
    for r in range(dim):
        for c in range(dim):
            if sum(g[r][k] * ginv[k][c] for k in range(dim)) != int(r == c):
                raise AssertionError("basis change is not inverted exactly")
    out = change_basis(dim, table, g, ginv)
    if not jacobi_holds(dim, out):
        raise AssertionError(f"{name} fails the Jacobi identity after a basis change")
    return base, dim, out


# ---------------------------------------------------------------- directions

#: First-order terms for ``deform``: (algebra, 0-based sparse cochain,
#: obstruction order or None when the march reaches order 5).  Each is a
#: rational combination of canonical H^2 representatives of the algebra
#: with nonzero self-composition; ``find_directions.py`` reproduces the
#: search that picked them.  A seeded nonzero scalar multiplies each one
#: per job: alpha_n scales by lambda^n, so the obstruction order is kept.
MARCH_DIRECTIONS = {
    "L4-obstructed-2": ("L4", {(0, 1): {1: 1}, (1, 2): {0: 1}}, 2),
    "L4-obstructed-3": ("L4", {(0, 1): {1: 1}, (0, 2): {0: -1}, (1, 2): {1: 1}}, 3),
    "L4-unobstructed": ("L4", {(0, 1): {0: -1, 1: 1}, (1, 3): {3: 1}}, None),
    "L5-obstructed-2": (
        "L5",
        {(0, 2): {0: -1}, (0, 3): {1: 1}, (1, 2): {1: 2}, (1, 3): {2: 1}, (1, 4): {3: 1}, (2, 4): {4: 1}},
        2,
    ),
    "L5-obstructed-3": (
        "L5",
        {(0, 1): {1: 1}, (0, 2): {0: -1}, (1, 2): {1: 2}, (1, 3): {2: 1}, (1, 4): {3: 1}, (2, 4): {4: 1}},
        3,
    ),
    "L5-obstructed-5": ("L5", {(0, 1): {0: 1, 1: 1}, (1, 2): {2: 2}, (1, 3): {3: 1}}, 5),
    "h5-unobstructed": ("h5", {(0, 1): {1: 1}, (1, 2): {4: 1}}, None),
    # f(e1,e2) = e3, f(e1,e3) = e1 on the abelian Q^3: nothing is a
    # coboundary there, and f o f != 0
    "abelian3-obstructed-2": ("abelian3", {(0, 1): {2: 1}, (0, 2): {0: 1}}, 2),
}

#: First-order terms for ``linfty``: obstructed ones (l3 != 0) and one
#: whose self-composition is zero.
LINFTY_DIRECTIONS = {
    "abelian3-obstructed": ("abelian3", {(0, 1): {2: 1}, (0, 2): {0: 1}}),
    "heisenberg3-bracket": ("heisenberg3", {(0, 1): {2: 1}}),
    "L4-obstructed": ("L4", {(0, 1): {1: 1}, (1, 2): {0: 1}}),
    # dimension 2 has no basis triple, so l3 vanishes identically
    "abelian2-cocycle": ("abelian2", {(0, 1): {0: 1}}),
}


def direction(dim: int, sparse: dict, scale: Fraction) -> dict[tuple[int, ...], list[Fraction]]:
    return {key: [scale * c for c in _vec(dim, row)] for key, row in sparse.items()}


def seeded_scale(rng: random.Random) -> Fraction:
    """A nonzero rational p/q with 1 <= |p|, q <= 9."""
    return Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9))


# --------------------------------------------------------------- file formats


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _key(indices) -> str:
    return ",".join(str(i + 1) for i in indices)


def algebra_text(name: str, dim: int, table: Table) -> str:
    brackets = {_key(pair): [str(c) for c in row] for pair, row in sorted(table.items())}
    return _canonical({"brackets": brackets, "dim": dim, "name": name})


def cochain_text(degree: int, entries: dict) -> str:
    rows = {_key(idx): [str(c) for c in row] for idx, row in sorted(entries.items()) if any(row)}
    return _canonical({"degree": degree, "entries": rows})


def parse_cochain_payload(payload: dict, dim: int) -> dict[tuple[int, ...], list[Fraction]]:
    """A cochain fragment of a report, back to 0-based Fractions."""
    out = {}
    for key, row in payload["entries"].items():
        idx = tuple(int(t) - 1 for t in key.split(","))
        if len(row) != dim:
            raise ValueError(f"cochain row {key} has {len(row)} entries, expected {dim}")
        out[idx] = [Fraction(c) for c in row]
    return out
