"""Time the switch family, or its rows one at a time, on a spread-out torus.

    PYTHONPATH=src python tests/time_switch_rows.py family|scalars [repeats] [side]

On the d=1, L=2 spread-out torus of the given side (default 6: 12 bonds,
beta 0.4) this times ``sst_switch_rows(g, all, all)``, a row per (x, y)
with both layers on every bond (30 rows at side 6, 42 at side 7), or the
same values by ``sst_switch_rhs`` ("scalars"), with the positive and
component tables warm and the one-row cache cleared before each timing.
Time each route in its own process, so that neither starts on caches the
other filled; run in one process, in either order, neither route's time
moved beyond the spread between runs. Prints every timing and a digest of
the values' ``float.hex``, which both routes share.
"""
from __future__ import annotations

import hashlib
import sys
import time

from currentkit import SpreadOut, currents, embed_on_torus


def main(route: str, repeats: str = "3", side: str = "6") -> None:
    g = embed_on_torus(SpreadOut(1, 2.0), int(side), beta=0.4)
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
