"""Search for deformation directions with a given obstruction order.

Run from the repository root:

    python3 bench/find_directions.py L5 --max-terms 2

For each rational combination (coefficients -1, 1, 2) of at most
``--max-terms`` canonical H^2 representatives whose self-composition is
nonzero, it runs the deformation march to order 5 and prints the order at
which it stops and its time.  ``models.MARCH_DIRECTIONS`` holds picks from
this output; the search uses the program, the benchmark's checks do not.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from itertools import combinations, product

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from deforma import Cochain, DeformationState, LieAlgebra, Vector, cohomology, compose, extend  # noqa: E402

import models  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("algebra", help="model algebra name, e.g. L4, L5, h5")
    parser.add_argument("--max-terms", type=int, default=2)
    ns = parser.parse_args()
    name, dim, table = models.algebra(ns.algebra)
    L = LieAlgebra(dim, {k: Vector(v) for k, v in table.items()}, name=name)
    reps = cohomology(L, 2).representatives
    for size in range(1, ns.max_terms + 1):
        for picks in combinations(range(len(reps)), size):
            for coeffs in product((1, -1, 2), repeat=size):
                alpha = Cochain.zero(dim, 2)
                for k, c in zip(picks, coeffs):
                    alpha = alpha + reps[k] * c
                if alpha.is_zero() or compose(alpha, alpha).is_zero():
                    continue
                t0 = time.perf_counter()
                state = extend(DeformationState.initial(L, alpha), 5)
                dt = time.perf_counter() - t0
                stop = state.first_obstruction.order if state.first_obstruction else None
                sparse = {k: {i: int(c) if c.denominator == 1 else str(c) for i, c in enumerate(v) if c} for k, v in alpha.entries()}
                print(f"{stop}\t{dt:.2f}s\t{sparse}", flush=True)


if __name__ == "__main__":
    main()
