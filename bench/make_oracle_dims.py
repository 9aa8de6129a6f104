"""Regenerate ``oracle_dims.json`` from the textbook oracle.

Run from the repository root (needs sympy):

    python3 bench/make_oracle_dims.py

For every model algebra the benchmark uses, in its canonical basis, it
writes (dim Z^p, dim B^p, dim H^p) for p = 1..3 as computed by
``tests/ce_oracle.py``: the textbook differential and sympy ranks.  The
package is not imported.  The checks read this table because sympy takes
minutes on the largest of these matrices.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import models  # noqa: E402

ALGEBRAS = ("abelian2", "nonabelian2", "abelian3", "heisenberg3", "sl2", "L4", "L5", "h5", "L6")


def main() -> None:
    ce = checks.load_oracle(os.path.dirname(HERE))
    dims = {}
    for name in ALGEBRAS:
        _, dim, table = models.algebra(name)
        sparse = {pair: {k: c for k, c in enumerate(row) if c} for pair, row in table.items()}
        dims[name] = {}
        for p in range(1, min(dim, 3) + 1):
            t0 = time.perf_counter()
            dims[name][str(p)] = list(ce.dims(dim, sparse, p))
            print(f"{name} H^{p}: {dims[name][str(p)]} ({time.perf_counter() - t0:.1f}s)", file=sys.stderr, flush=True)
    payload = {"source": "tests/ce_oracle.py dims(): textbook differential, sympy rank", "dims": dims}
    with open(checks.DIMS_FILE, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
