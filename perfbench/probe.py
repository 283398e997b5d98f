"""Host-speed probes: a fixed pure-Python Dijkstra for the timed phase and a
fixed interpreter start for set-up.  Neither shares code with graphgrav or
depends on the workload seed.

The probe runs between timed operations, and each operation's time is
scaled by PROBE_NOMINAL_MS over the median of the probes nearest to it, so
a host that slows down for a few seconds slows the probe by about the same
factor and the scaled time stays put.  The grid is large on purpose: on a
shared host a probe with little data follows the slowdowns less closely
(see README).

Set-up is mostly ``import graphgrav``: starting an interpreter and loading
modules, work that the Dijkstra probe does not follow.  Each set-up sample
is therefore scaled by START_PROBE, a fresh interpreter that imports a fixed
list of standard-library modules, started just before and just after it.
"""

from __future__ import annotations

import heapq
import time

GRID = 100
# Near the median probe time of the host in the README's figures.  A
# constant, so scaled operation times stay in milliseconds.
PROBE_NOMINAL_MS = 16.0
START_PROBE = (
    "import argparse, asyncio, decimal, email.mime.multipart, http.client, json, "
    "logging, pydoc, tarfile, unittest, xml.dom.minidom, zipfile; print('ready', flush=True)"
)
# Near the time from starting START_PROBE to its line on the same host.
START_PROBE_NOMINAL_S = 0.1


def probe_graph():
    """GRID x GRID grid with weights from a fixed linear congruential stream."""
    state = 12345
    adj = [[] for _ in range(GRID * GRID)]
    for r in range(GRID):
        for c in range(GRID):
            v = r * GRID + c
            for w in ((v + 1) if c + 1 < GRID else None, (v + GRID) if r + 1 < GRID else None):
                if w is None:
                    continue
                state = (1103515245 * state + 12345) % 2**31
                weight = 1.0 + state / 2**31
                adj[v].append((w, weight))
                adj[w].append((v, weight))
    return adj


def probe_kernel(adj) -> float:
    """Shortest-path distances from vertex 0; returns their sum."""
    dist = [float("inf")] * len(adj)
    dist[0] = 0.0
    heap = [(0.0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for w, weight in adj[u]:
            nd = d + weight
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return sum(dist)


def probe_ms(adj) -> float:
    """Wall time of one probe kernel run, in milliseconds."""
    t0 = time.perf_counter()
    probe_kernel(adj)
    return (time.perf_counter() - t0) * 1e3
