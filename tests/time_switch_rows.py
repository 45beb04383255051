"""Time the switch family, or its rows one at a time, on a 12-bond torus.

    PYTHONPATH=src python tests/time_switch_rows.py family|scalars [repeats]

On the d=1, L=2 spread-out torus of side 6 (12 bonds, beta 0.4) this times
``sst_switch_rows(g, all, all)``, 30 rows with both layers on every bond
("family"), or the same 30 values by ``sst_switch_rhs`` ("scalars"), with
the positive and component tables warm and the one-row cache cleared before
each timing. Time each route in its own process: the heap that one route
leaves behind changes the other's time. Prints every timing and a digest of
the values' ``float.hex``, which both routes share.
"""
from __future__ import annotations

import hashlib
import sys
import time

from currentkit import SpreadOut, currents, embed_on_torus


def main(route: str, repeats: str = "3") -> None:
    g = embed_on_torus(SpreadOut(1, 2.0), 6, beta=0.4)
    full = tuple(range(g.n_bonds))
    currents.sst_switch_rhs(g, g.labels[1], g.labels[0], full, full)
    if route == "family":
        def run():
            return [float(v) for v in currents.sst_switch_rows(g, full, full)]
    else:
        def run():
            return [currents.sst_switch_rhs(g, x, y, full, full)
                    for x in g.labels[1:] for y in g.labels]
    times = []
    for _ in range(int(repeats)):
        currents._superposed_row.cache_clear()
        start = time.perf_counter()
        values = run()
        times.append(time.perf_counter() - start)
    digest = hashlib.sha256(" ".join(v.hex() for v in values).encode()).hexdigest()[:16]
    print(f"{route}: " + ", ".join(f"{t:.3f}" for t in times) + f" s; values {digest}")


if __name__ == "__main__":
    main(*sys.argv[1:])
