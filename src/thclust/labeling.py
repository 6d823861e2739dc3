"""Label assignment via minimum feasible flow over the correspondence graph.

Each unit of flow traces one label's trajectory through the levels; covering
every point with in-flow at least 1 while minimizing total flow yields a
small set of labels whose copies never jump farther than the correspondence
locality.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .metric import TOL, MetricSpace, TemporalSampling, ValidationError
from .metric import _json_int, _json_list, _json_object, _json_str
from .temporal import (
    Correspondence,
    LocalSolution,
    require_correspondence,
    solve_local,
)

SOURCE = ("source",)
SINK = ("sink",)


def point_node(level: int, point: str) -> tuple:
    return ("point", level, point)


@dataclass(frozen=True)
class FlowNetwork:
    """Layered flow instance: source, one node per (level, point), sink.

    Edges run source to level 1, correspondence pairs to the next level,
    and the last level to the sink. Every point node carries an implicit
    in-flow lower bound of 1.
    """

    levels: tuple[tuple[str, ...], ...]
    edges: tuple[tuple[tuple, tuple], ...]

    @property
    def point_nodes(self) -> tuple[tuple, ...]:
        return tuple(
            point_node(i, p) for i, level in enumerate(self.levels) for p in level
        )

    @property
    def size(self) -> int:
        """Total number of point nodes, the n of the value bound."""
        return sum(len(level) for level in self.levels)


def build_flow_instance(sampling: TemporalSampling,
                        correspondences) -> FlowNetwork:
    """Assemble the layered network for a sampling and its correspondences."""
    corrs = tuple(correspondences)
    if len(corrs) != sampling.t - 1:
        raise ValidationError(
            f"expected {sampling.t - 1} correspondences, got {len(corrs)}"
        )
    edges: list[tuple[tuple, tuple]] = []
    for p in sampling.levels[0]:
        edges.append((SOURCE, point_node(0, p)))
    for i, corr in enumerate(corrs):
        if not isinstance(corr, Correspondence):
            corr = Correspondence.from_pairs(corr)
        require_correspondence(corr, sampling.levels[i], sampling.levels[i + 1])
        for u, v in corr.pairs:
            edges.append((point_node(i, u), point_node(i + 1, v)))
    last = sampling.t - 1
    for p in sampling.levels[last]:
        edges.append((point_node(last, p), SINK))
    return FlowNetwork(levels=sampling.levels, edges=tuple(sorted(edges)))


@dataclass(frozen=True)
class IntegralFlow:
    """Integer flow on a :class:`FlowNetwork` satisfying all lower bounds,
    checked once, when made; ``flow`` is a read-only copy of the input."""

    network: FlowNetwork
    flow: MappingProxyType[tuple[tuple, tuple], int] = field(repr=False)
    value: int

    def __post_init__(self):
        object.__setattr__(self, "flow", MappingProxyType(dict(self.flow)))
        self.validate()

    def validate(self) -> None:
        known = set(self.network.edges)
        inflow: dict[tuple, int] = {}
        outflow: dict[tuple, int] = {}
        for edge, amount in self.flow.items():
            if edge not in known:
                raise ValidationError(f"flow on unknown edge {edge}")
            if amount < 0 or amount != int(amount):
                raise ValidationError(f"flow on {edge} must be a nonnegative integer")
            a, b = edge
            outflow[a] = outflow.get(a, 0) + amount
            inflow[b] = inflow.get(b, 0) + amount
        for node in self.network.point_nodes:
            got_in = inflow.get(node, 0)
            if got_in < 1:
                raise ValidationError(f"in-flow below 1 at {node}")
            if got_in != outflow.get(node, 0):
                raise ValidationError(f"flow not conserved at {node}")
        if self.value != outflow.get(SOURCE, 0) or self.value != inflow.get(SINK, 0):
            raise ValidationError("flow value disagrees with terminal throughput")


class _MaxFlowGraph:
    """Edmonds-Karp over integer node ids and flat residual lists.

    ``arcs`` lists ``(u, v, capacity)`` over mutually orderable node keys;
    ``nodes`` may add keys that no arc touches. A node's id is its key's rank
    and its arcs are kept sorted by head id. Each ordered pair of nodes owns
    one residual slot, so repeated arcs add their capacities.
    """

    def __init__(self, arcs, nodes=()):
        nodes = sorted({*nodes, *(node for u, v, _ in arcs for node in (u, v))})
        self.ids = {node: i for i, node in enumerate(nodes)}
        slot: dict[tuple[int, int], int] = {}
        head: list[int] = []
        res: list[int] = []
        for u, v, cap in arcs:
            iu, iv = self.ids[u], self.ids[v]
            for pair in ((iu, iv), (iv, iu)):
                if pair not in slot:
                    slot[pair] = len(head)
                    head.append(pair[1])
                    res.append(0)
            res[slot[(iu, iv)]] += cap
        rev = [0] * len(head)
        self.adj: list[list[int]] = [[] for _ in nodes]
        for (iu, iv), a in sorted(slot.items()):
            rev[a] = slot[(iv, iu)]
            self.adj[iu].append(a)
        self.slot, self.head, self.res, self.rev = slot, head, res, rev

    def arc(self, u, v) -> int:
        return self.slot[(self.ids[u], self.ids[v])]

    def close(self, node) -> None:
        """Zero the residual of every arc into and out of ``node``."""
        for a in self.adj[self.ids[node]]:
            self.res[a] = self.res[self.rev[a]] = 0

    def max_flow(self, source, sink) -> int:
        s, t = self.ids[source], self.ids[sink]
        head, res, rev = self.head, self.res, self.rev
        into_t = [-1] * len(self.adj)
        for a in self.adj[t]:
            into_t[head[a]] = rev[a]
        from_s = [-1] * len(self.adj)
        for a in self.adj[s]:
            if into_t[head[a]] >= 0:
                raise RuntimeError("a neighbour of the source has an arc to the sink")
            from_s[head[a]] = a
        total = 0
        while (via := self._shortest_path(s, t, into_t, from_s)) is not None:
            path = []
            v = t
            while v != s:
                a = via[v]
                path.append(a)
                v = head[rev[a]]
            bottleneck = min(res[a] for a in path)
            for a in path:
                res[a] -= bottleneck
                res[rev[a]] += bottleneck
            total += bottleneck
        return total

    def _shortest_path(self, s: int, t: int, into_t: list[int], from_s: list[int]):
        """BFS from ``s`` that stops at the first node found with residual into ``t``.

        ``into_t[v]`` is the arc from ``v`` to ``t``, or -1; ``from_s[v]`` is
        the arc from ``s`` to ``v``, or -1. Returns the arc each reached node
        was entered by, ``t`` included, or None when ``t`` is unreachable.

        No neighbour of ``s`` has an arc to ``t`` (:meth:`max_flow` checks),
        so the heads of the unsaturated arcs out of ``s`` are not all
        discovered up front: they are walked in arc order as the first
        segment of the queue, each discovered just before it is expanded,
        and until then a node with an unsaturated arc from ``s`` counts as
        discovered. A search that discovered them all first would pop the
        same nodes in the same order and could not stop at any of them,
        having no arc to ``t``, so it finds the same path. In the
        feasibility phase this saves rediscovering every unsaturated
        super-source arc per path.
        """
        adj, head, res = self.adj, self.head, self.res
        via = [-1] * len(adj)
        via[s] = -2
        b = into_t[s]
        if b >= 0 and res[b] > 0:
            via[t] = b
            return via
        queue: list[int] = []
        for u in itertools.chain(self._first_segment(s, via), queue):
            for a in adj[u]:
                if res[a] > 0:
                    v = head[a]
                    if via[v] == -1:
                        if (c := from_s[v]) >= 0 and res[c] > 0:
                            continue  # discovered from s, popped in the first segment
                        via[v] = a
                        b = into_t[v]
                        if b >= 0 and res[b] > 0:
                            via[t] = b
                            return via
                        queue.append(v)
        return None

    def _first_segment(self, s: int, via: list[int]):
        """Discover and yield the heads of the unsaturated arcs out of ``s``,
        one at a time, in arc order."""
        head, res = self.head, self.res
        for a in self.adj[s]:
            if res[a] > 0:
                via[head[a]] = a
                yield head[a]


def min_feasible_flow(network: FlowNetwork) -> IntegralFlow:
    """Minimum-value integral flow meeting every in-flow lower bound.

    Lower bounds are shifted onto node-splitting edges, feasibility is
    established by saturating the induced excess, and the value is then
    reduced by augmenting from sink back to source in the residual. The
    instance is always feasible (route one unit through every point of the
    widest level); anything else indicates a broken network and raises.

    Both max-flows are Edmonds-Karp over integer node ids. A node's id is the
    rank of its tuple among all node tuples, the feasibility terminals
    included, so scanning arcs by head id is scanning them in tuple order
    and the augmenting paths, and thus the flow, are fully determined. The
    breadth-first search stops at the first node it discovers that has
    residual capacity into the target. A search that ran on would pop nodes
    in discovery order and enter the target from the first of them with such
    an arc, so it would find that same path. No neighbour of either phase's
    source has an arc to its target, so both phases read the source's arcs
    lazily (see :meth:`_MaxFlowGraph._shortest_path`).
    """
    n = network.size
    cap = n  # no minimal flow needs more than one unit per point

    def inner(node: tuple) -> tuple:
        return node if node in (SOURCE, SINK) else ("in",) + node

    def outer(node: tuple) -> tuple:
        return node if node in (SOURCE, SINK) else ("out",) + node

    arcs = [(outer(a), inner(b), cap) for a, b in network.edges]
    # Node split carries the lower bound: cap - 1 here, 1 restored later.
    arcs += [(inner(node), outer(node), cap - 1) for node in network.point_nodes]
    excess: dict[tuple, int] = {}
    for node in network.point_nodes:
        excess[inner(node)] = excess.get(inner(node), 0) - 1
        excess[outer(node)] = excess.get(outer(node), 0) + 1
    arcs.append((SINK, SOURCE, cap))

    super_source = ("feasibility-source",)
    super_sink = ("feasibility-sink",)
    need = 0
    for node, amount in sorted(excess.items()):
        if amount > 0:
            arcs.append((super_source, node, amount))
            need += amount
        elif amount < 0:
            arcs.append((node, super_sink, -amount))
    graph = _MaxFlowGraph(arcs, nodes=(super_source, super_sink))
    pushed = graph.max_flow(super_source, super_sink)
    if pushed != need:
        raise RuntimeError("layered instance unexpectedly infeasible")
    # Freeze the artificial plumbing, then push back value.
    graph.close(super_source)
    graph.close(super_sink)
    back = graph.arc(SOURCE, SINK)  # residual of the sink->source arc
    circulating = graph.res[back]
    graph.res[back] = graph.res[graph.rev[back]] = 0
    returned = graph.max_flow(SINK, SOURCE)

    flow: dict[tuple[tuple, tuple], int] = {}
    for a, b in network.edges:
        # residual backward cap equals the flow
        flow[(a, b)] = graph.res[graph.arc(inner(b), outer(a))]
    value = circulating - returned
    result = IntegralFlow(network=network, flow=flow, value=value)
    if value > n:
        raise RuntimeError(f"minimum flow value {value} exceeds point count {n}")
    return result


def decompose_paths(flow: IntegralFlow) -> list[tuple[str, ...]]:
    """Split a feasible flow into unit source-to-sink paths.

    Extraction is greedy along the lexicographically smallest positive-flow
    edge, which makes the decomposition, and hence the labels, reproducible.
    Paths are returned as per-level point ids.
    """
    remaining = {edge: amount for edge, amount in flow.flow.items() if amount > 0}
    outgoing: dict[tuple, list[tuple]] = {}
    for a, b in sorted(remaining):
        outgoing.setdefault(a, []).append(b)
    paths = []
    for _ in range(flow.value):
        node = SOURCE
        trail: list[str] = []
        while node != SINK:
            nxt = None
            for b in outgoing.get(node, ()):
                if remaining.get((node, b), 0) > 0:
                    nxt = b
                    break
            if nxt is None:
                raise RuntimeError(f"flow decomposition stuck at {node}")
            remaining[(node, nxt)] -= 1
            if nxt != SINK:
                trail.append(nxt[2])
            node = nxt
        paths.append(tuple(trail))
    if any(amount != 0 for amount in remaining.values()):
        raise RuntimeError("flow decomposition left residual flow")
    return paths


@dataclass(frozen=True)
class Labeling:
    """Map from points of one level to label sets partitioning [k]."""

    labels: dict[str, frozenset[int]] = field(repr=False)
    k: int

    def __post_init__(self):
        seen: set[int] = set()
        for point, group in self.labels.items():
            if not group:
                raise ValidationError(f"point {point!r} has no labels")
            if seen & group:
                dup = min(seen & group)
                raise ValidationError(f"label {dup} assigned to two points")
            seen |= group
        if seen != set(range(1, self.k + 1)):
            raise ValidationError(f"labels do not partition 1..{self.k}")

    def label_of(self, point: str) -> frozenset[int]:
        try:
            return self.labels[point]
        except KeyError:
            raise ValidationError(f"unknown point {point!r}") from None

    def to_list(self) -> list[dict]:
        return [
            {"point": p, "labels": sorted(self.labels[p])}
            for p in sorted(self.labels)
        ]

    @classmethod
    def from_list(cls, entries, k: int) -> "Labeling":
        labels = {}
        for entry in _json_list(entries, "labeling"):
            _json_object(entry, "labeling entry", ("point", "labels"))
            point = _json_str(entry["point"], "point")
            if point in labels:
                raise ValidationError(f"point {point!r} has two labeling entries")
            group = [_json_int(x, "label") for x in _json_list(entry["labels"], "labels")]
            if len(set(group)) != len(group):
                raise ValidationError(f"point {point!r} lists a label twice")
            labels[point] = frozenset(group)
        return cls(labels=labels, k=_json_int(k, "k"))


def paths_to_labelings(paths) -> tuple[Labeling, ...]:
    """Turn unit paths into per-level labelings.

    Paths are sorted by their visited point ids and numbered 1..k in that
    order; a point's label set is every path that runs through it.
    """
    ordered = sorted(paths)
    if not ordered:
        raise ValidationError("at least one path is required")
    t = len(ordered[0])
    if any(len(path) != t for path in ordered):
        raise ValidationError("paths visit differing level counts")
    k = len(ordered)
    out = []
    for level in range(t):
        assignment: dict[str, set[int]] = {}
        for j, path in enumerate(ordered, start=1):
            assignment.setdefault(path[level], set()).add(j)
        out.append(
            Labeling(labels={p: frozenset(s) for p, s in assignment.items()}, k=k)
        )
    return tuple(out)


@dataclass(frozen=True)
class ContiguityViolation:
    condition: int
    point: str
    label: int


def check_contiguity(l1: Labeling, l2: Labeling, delta: float,
                     ambient: MetricSpace):
    """Do two labelings keep every label within distance ``delta``?

    Condition 1: each point's labels in the first level reappear among the
    second level's points inside its closed delta-ball. Condition 2 is the
    mirror image. Returns (True, None) or (False, first violation): the
    first violating point in sorted id order, with its smallest missing label.

    A :class:`Labeling` gives each label to exactly one point per level, so
    condition 1 holds for label l exactly when the other level has l and
    ``dist[holder1[l], holder2[l]] <= delta + TOL``; condition 2 reads
    ``dist[holder2[l], holder1[l]]``. Every labeling point is resolved in the
    ambient space first (sorted first-level points, then the second level's);
    an unknown point or a NaN ``delta`` raises :class:`ValidationError`.
    """
    slack = delta + TOL
    if math.isnan(slack):
        raise ValidationError("contiguity needs a number for delta, got NaN")
    first, second = _holders(l1, ambient), _holders(l2, ambient)
    for condition, (points, rank, holder), (_, _, other) in (
            (1, first, second), (2, second, first)):
        shared = min(len(holder), len(other))
        found = np.zeros(len(holder), dtype=bool)
        found[:shared] = ambient.dist[holder[:shared], other[:shared]] <= slack
        missing = np.flatnonzero(~found)
        if missing.size:
            label = missing[np.argmin(rank[missing])]
            return False, ContiguityViolation(
                condition=condition, point=points[rank[label]], label=int(label) + 1
            )
    return True, None


def _holders(labeling: Labeling, ambient: MetricSpace):
    """The sorted points of a labeling, then for each label 1..k (at position
    label - 1) its holder's rank among them and its holder's ambient index."""
    points = sorted(labeling.labels)
    index = np.array([ambient.index_of(p) for p in points], dtype=np.intp)
    labels = [label for p in points for label in labeling.labels[p]]
    owners = [r for r, p in enumerate(points) for _ in labeling.labels[p]]
    rank = np.empty(labeling.k, dtype=np.intp)
    rank[np.array(labels, dtype=np.intp) - 1] = owners
    return points, rank, index[rank]


@dataclass(frozen=True)
class LabeledSolution:
    """Local solution plus the flow-derived labelings."""

    local: LocalSolution
    flow: IntegralFlow
    paths: tuple[tuple[str, ...], ...]
    labelings: tuple[Labeling, ...]

    @property
    def k(self) -> int:
        return self.flow.value


def solve_labeled(sampling: TemporalSampling, scheme: str = "fkw") -> LabeledSolution:
    """Full pipeline: fit levels, connect them, and label by minimum flow.

    Uses at most one label per point overall, and adjacent labelings are
    contiguous at the solution's delta.
    """
    local = solve_local(sampling, scheme=scheme)
    network = build_flow_instance(sampling, local.correspondences)
    flow = min_feasible_flow(network)
    paths = tuple(decompose_paths(flow))
    labelings = paths_to_labelings(paths)
    return LabeledSolution(local=local, flow=flow, paths=paths, labelings=labelings)
