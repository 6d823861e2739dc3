"""Shared generators and independent oracles used across the test modules.

The oracles here deliberately take the slow, enumerative route: simple paths
instead of spanning trees, subset scans instead of flow arithmetic. They are
the reference answers the fast implementations get compared against.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque

import numpy as np

from thclust import (
    COLORS,
    Correspondence,
    Graph,
    MetricSpace,
    PseudoUltrametric,
    TemporalSampling,
    Witness,
)
from thclust.labeling import SINK, SOURCE, IntegralFlow


# ---------------------------------------------------------------- spaces


def line_space(values, ids=None, **kwargs):
    values = list(values)
    if ids is None:
        ids = [f"p{i}" for i in range(len(values))]
    coords = np.asarray(values, dtype=float).reshape(-1, 1)
    return MetricSpace(ids, coords=coords, **kwargs)


def cloud_space(rng, n, dim=2, side=10.0, prefix="p"):
    coords = rng.uniform(0.0, side, size=(n, dim))
    return MetricSpace([f"{prefix}{i}" for i in range(n)], coords=coords)


def dense_space(rng, n, prefix="p"):
    """Distances uniform in [1, 2]; every triangle holds automatically."""
    m = rng.uniform(1.0, 2.0, size=(n, n))
    m = (m + m.T) / 2.0
    np.fill_diagonal(m, 0.0)
    return MetricSpace([f"{prefix}{i}" for i in range(n)], dist=m)


def random_space(rng, n):
    if rng.integers(2):
        return dense_space(rng, n)
    return cloud_space(rng, n, dim=int(rng.integers(1, 4)))


def random_sampling(rng, ambient_size=8, min_levels=1, max_levels=4, max_level_size=5):
    ambient = cloud_space(rng, ambient_size, dim=2, side=20.0, prefix="q")
    t = int(rng.integers(min_levels, max_levels + 1))
    levels = []
    for _ in range(t):
        k = int(rng.integers(1, min(max_level_size, ambient_size) + 1))
        pick = sorted(rng.choice(ambient_size, size=k, replace=False).tolist())
        levels.append([ambient.points[i] for i in pick])
    return TemporalSampling(ambient, levels)


# ---------------------------------------------------------------- metric oracles


def shortest_path_oracle(weights):
    """All-pairs shortest paths by enumerating simple paths. Exponential."""
    n = len(weights)
    out = np.array(weights, dtype=float)
    for i, j in itertools.combinations(range(n), 2):
        others = [k for k in range(n) if k not in (i, j)]
        best = out[i, j]
        for r in range(1, len(others) + 1):
            for mid in itertools.permutations(others, r):
                path = [i, *mid, j]
                best = min(best, sum(weights[a][b] for a, b in zip(path, path[1:])))
        out[i, j] = out[j, i] = best
    return out


def bottleneck_oracle(space):
    """Min over simple paths of the max edge, the subdominant characterization."""
    n = len(space.points)
    out = np.zeros((n, n))
    for i, j in itertools.combinations(range(n), 2):
        others = [k for k in range(n) if k not in (i, j)]
        best = space.dist[i, j]
        for r in range(1, len(others) + 1):
            for mid in itertools.permutations(others, r):
                path = [i, *mid, j]
                best = min(best, max(space.dist[a, b] for a, b in zip(path, path[1:])))
        out[i, j] = out[j, i] = best
    return out


def spanning_weight_oracle(space):
    """Minimum spanning tree weight by trying every candidate edge set."""
    n = len(space.points)
    pairs = list(itertools.combinations(range(n), 2))
    best = np.inf
    for tree in itertools.combinations(pairs, n - 1):
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        joined = 0
        for a, b in tree:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                joined += 1
        if joined == n - 1:
            best = min(best, sum(space.dist[a, b] for a, b in tree))
    return best


def threshold_components(space, r):
    """Connected components of the graph keeping edges with d <= r."""
    pts = space.points
    seen = set()
    blocks = []
    for root in pts:
        if root in seen:
            continue
        stack = [root]
        block = []
        while stack:
            p = stack.pop()
            if p in seen:
                continue
            seen.add(p)
            block.append(p)
            for q in pts:
                if q not in seen and space.distance(p, q) <= r:
                    stack.append(q)
        blocks.append(sorted(block))
    return sorted(blocks)


# ---------------------------------------------------------------- correspondence oracles


def cross_distances(p_ids, q_ids, ambient):
    return np.array([[ambient.distance(p, q) for q in q_ids] for p in p_ids])


def min_locality_scan(p_ids, q_ids, ambient):
    """Smallest tau whose full pair set {d <= tau} covers both sides.

    Any correspondence with locality below tau is a subset of a non-covering
    pair set, so scanning the distinct distances quantifies over every
    correspondence at once.
    """
    d = cross_distances(p_ids, q_ids, ambient)
    for tau in sorted(set(d.ravel().tolist())):
        keep = d <= tau
        if keep.any(axis=1).all() and keep.any(axis=0).all():
            return tau
    raise AssertionError("the full pair set always covers")


def correspondence_localities(p_ids, q_ids, ambient):
    """Locality of every correspondence, by literal subset enumeration.

    2^(|P|*|Q|) subsets; callers keep the product tiny.
    """
    cells = [(i, j) for i in range(len(p_ids)) for j in range(len(q_ids))]
    d = cross_distances(p_ids, q_ids, ambient)
    out = []
    for mask in range(1, 1 << len(cells)):
        chosen = [cells[b] for b in range(len(cells)) if mask >> b & 1]
        if len({i for i, _ in chosen}) < len(p_ids):
            continue
        if len({j for _, j in chosen}) < len(q_ids):
            continue
        out.append(max(d[i, j] for i, j in chosen))
    return out


# ---------------------------------------------------------------- flow oracle


def _enumerate_paths(network):
    edge_set = set(network.edges)
    node_levels = [
        [("point", i, p) for p in level] for i, level in enumerate(network.levels)
    ]
    paths = []

    def grow(prefix):
        depth = len(prefix)
        if depth == len(node_levels):
            paths.append(tuple(prefix))
            return
        for node in node_levels[depth]:
            if depth == 0 or (prefix[-1], node) in edge_set:
                grow(prefix + [node])

    grow([])
    return paths, [node for level in node_levels for node in level]


def brute_min_flow(network):
    """Smallest number of source-sink paths covering every point node.

    Breadth-first search over covered-set bitmasks; exact, exponential in the
    node count. Equals the minimum feasible flow value because a feasible flow
    of value v decomposes into v covering paths and vice versa.
    """
    paths, nodes = _enumerate_paths(network)
    if not paths:
        return None
    bit = {node: 1 << i for i, node in enumerate(nodes)}
    masks = sorted({sum(bit[node] for node in path) for path in paths})
    full = (1 << len(nodes)) - 1
    dist = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for state in frontier:
            for m in masks:
                s2 = state | m
                if s2 not in dist:
                    dist[s2] = dist[state] + 1
                    if s2 == full:
                        return dist[s2]
                    nxt.append(s2)
        frontier = nxt
    return None


class _DictMaxFlowGraph:
    """Edmonds-Karp with sorted adjacency, so augmentation is deterministic."""

    def __init__(self):
        self.cap: dict[tuple, dict[tuple, int]] = {}

    def add_edge(self, u: tuple, v: tuple, cap: int) -> None:
        self.cap.setdefault(u, {})[v] = self.cap.setdefault(u, {}).get(v, 0) + cap
        self.cap.setdefault(v, {}).setdefault(u, 0)

    def max_flow(self, source: tuple, sink: tuple) -> int:
        total = 0
        adjacency = {u: sorted(nbrs) for u, nbrs in self.cap.items()}
        while True:
            prev: dict[tuple, tuple] = {source: source}
            queue = deque([source])
            while queue and sink not in prev:
                u = queue.popleft()
                for v in adjacency.get(u, ()):
                    if v not in prev and self.cap[u][v] > 0:
                        prev[v] = u
                        queue.append(v)
            if sink not in prev:
                return total
            bottleneck = None
            v = sink
            while v != source:
                u = prev[v]
                c = self.cap[u][v]
                bottleneck = c if bottleneck is None else min(bottleneck, c)
                v = u
            v = sink
            while v != source:
                u = prev[v]
                self.cap[u][v] -= bottleneck
                self.cap[v][u] += bottleneck
                v = u
            total += bottleneck


def reference_min_feasible_flow(network):
    """Minimum-value integral flow meeting every in-flow lower bound.

    The dict-of-dicts Edmonds-Karp that ``min_feasible_flow`` replaced; it
    must return the same flow, edge for edge.

    Lower bounds are shifted onto node-splitting edges, feasibility is
    established by saturating the induced excess, and the value is then
    reduced by augmenting from sink back to source in the residual. The
    instance is always feasible (route one unit through every point of the
    widest level); anything else indicates a broken network and raises.
    """
    n = network.size
    cap = n  # no minimal flow needs more than one unit per point
    graph = _DictMaxFlowGraph()

    def inner(node: tuple) -> tuple:
        return node if node in (SOURCE, SINK) else ("in",) + node

    def outer(node: tuple) -> tuple:
        return node if node in (SOURCE, SINK) else ("out",) + node

    for a, b in network.edges:
        graph.add_edge(outer(a), inner(b), cap)
    # Node split carries the lower bound: cap - 1 here, 1 restored later.
    for node in network.point_nodes:
        graph.add_edge(inner(node), outer(node), cap - 1)
    excess: dict[tuple, int] = {}
    for node in network.point_nodes:
        excess[inner(node)] = excess.get(inner(node), 0) - 1
        excess[outer(node)] = excess.get(outer(node), 0) + 1
    graph.add_edge(SINK, SOURCE, cap)

    super_source = ("feasibility-source",)
    super_sink = ("feasibility-sink",)
    need = 0
    for node, amount in sorted(excess.items()):
        if amount > 0:
            graph.add_edge(super_source, node, amount)
            need += amount
        elif amount < 0:
            graph.add_edge(node, super_sink, -amount)
    pushed = graph.max_flow(super_source, super_sink)
    if pushed != need:
        raise RuntimeError("layered instance unexpectedly infeasible")
    # Freeze the artificial plumbing, then push back value.
    for node in list(graph.cap.get(super_source, {})):
        graph.cap[super_source][node] = 0
        graph.cap[node][super_source] = 0
    for node in list(graph.cap.get(super_sink, {})):
        graph.cap[super_sink][node] = 0
        graph.cap[node][super_sink] = 0
    circulating = graph.cap[SOURCE][SINK]  # residual of the sink->source arc
    graph.cap[SINK][SOURCE] = 0
    graph.cap[SOURCE][SINK] = 0
    returned = graph.max_flow(SINK, SOURCE)

    flow: dict[tuple[tuple, tuple], int] = {}
    for a, b in network.edges:
        u, v = outer(a), inner(b)
        flow[(a, b)] = graph.cap[v][u]  # residual backward cap equals the flow
    value = circulating - returned
    result = IntegralFlow(network=network, flow=flow, value=value)
    result.validate()
    if value > n:
        raise RuntimeError(f"minimum flow value {value} exceeds point count {n}")
    return result


# ---------------------------------------------------------------- graphs


def complete_graph(k):
    vs = [f"v{i}" for i in range(k)]
    return Graph.build(vs, itertools.combinations(vs, 2))


def path_graph(k):
    vs = [f"v{i}" for i in range(k)]
    return Graph.build(vs, zip(vs, vs[1:]))


def cycle_graph(k):
    vs = [f"v{i}" for i in range(k)]
    return Graph.build(vs, [(vs[i], vs[(i + 1) % k]) for i in range(k)])


def petersen_graph():
    outer = [(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)]
    inner = [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)]
    spokes = [(f"o{i}", f"i{i}") for i in range(5)]
    vs = [f"o{i}" for i in range(5)] + [f"i{i}" for i in range(5)]
    return Graph.build(vs, outer + inner + spokes)


def random_graph(rng, n, p=0.5):
    vs = [f"v{i}" for i in range(n)]
    edges = [e for e in itertools.combinations(vs, 2) if rng.random() < p]
    return Graph.build(vs, edges)


@functools.lru_cache(maxsize=None)
def color_assignments(n):
    """All 3^n color-index assignments as a read-only array, row per assignment.

    Cached per n: the hardness sweeps ask for the same table thousands of times.
    """
    rows = np.array(list(itertools.product(range(3), repeat=n)), dtype=np.int8)
    rows.setflags(write=False)
    return rows


def proper_rows(assignments, edge_index_pairs):
    ok = np.ones(len(assignments), dtype=bool)
    for i, j in edge_index_pairs:
        ok &= assignments[:, i] != assignments[:, j]
    return ok


def uses_all_three(assignments):
    ok = np.ones(len(assignments), dtype=bool)
    for c in range(3):
        ok &= (assignments == c).any(axis=1)
    return ok


def three_colorable_oracle(graph):
    idx = {v: i for i, v in enumerate(graph.vertices)}
    rows = color_assignments(len(graph.vertices))
    return bool(proper_rows(rows, [(idx[a], idx[b]) for a, b in graph.edges]).any())


def raw_color_witness(vertices, coloring):
    """Color-class witness for an arbitrary assignment, properness unchecked."""
    n = len(vertices)
    m = np.ones((n, n)) - np.eye(n)
    for a, b in itertools.combinations(range(n), 2):
        if coloring[vertices[a]] == coloring[vertices[b]]:
            m[a, b] = m[b, a] = 0.0
    anchors = PseudoUltrametric(COLORS, 1.0 - np.eye(3))
    classes = PseudoUltrametric(vertices, m)
    corr = Correspondence.from_pairs([(coloring[v], v) for v in vertices])
    return Witness(anchors, classes, corr)
