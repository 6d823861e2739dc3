"""Host-speed calibration: a fixed kernel timed between passes.

On the 2-core host this benchmark was defined on, the same pass over the
same inputs runs up to 35% slower for tens of seconds at a time, with no
steal time and CPU time tracking wall time (the host's other tenants share
caches and cores). That swamps any bound a benchmark can hold. So a
calibrated run times a fixed kernel that does the same kind of work as the
workload around every set-up and pass, and reports each interval scaled to
the kernel's reference speed:

    normalized = wall * REFERENCE_S / kernel_s

with ``kernel_s`` the mean of the kernel times just before and just after
the pass. The kernel never calls thclust, so a change to the library moves
the normalized figures exactly as it moves wall time. Raw wall times are
kept in every record next to the normalized ones.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

# Median kernel time on the defining host (2 vCPU Intel Xeon at 2.1 GHz,
# Python 3.11.7); it only sets the scale of normalized seconds.
REFERENCE_S = 0.30


class Calibrator:
    """Times a breadth-first search over a dict-of-dicts graph keyed by
    nested tuples: the same kind of work as the flow solver."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        levels, width = 13, 210
        nodes = [[("in", "point", lvl, f"t{lvl:03d}_a{i:05d}") for i in range(width)]
                 for lvl in range(levels)]
        self._cap: dict[tuple, dict[tuple, int]] = {}
        for lvl in range(levels - 1):
            for u in nodes[lvl]:
                for j in rng.choice(width, size=10, replace=False):
                    v = nodes[lvl + 1][int(j)]
                    self._cap.setdefault(u, {})[v] = 5
                    self._cap.setdefault(v, {}).setdefault(u, 0)
        self._adjacency = {u: sorted(nbrs) for u, nbrs in self._cap.items()}
        self._sources = nodes[0][::3]
        self.reference = REFERENCE_S

    def kernel_s(self) -> float:
        """Seconds the kernel takes right now."""
        start = time.perf_counter()
        for source in self._sources:
            prev = {source: source}
            queue = deque([source])
            while queue:
                u = queue.popleft()
                for v in self._adjacency.get(u, ()):
                    if v not in prev and self._cap[u][v] > 0:
                        prev[v] = u
                        queue.append(v)
        return time.perf_counter() - start
