"""Label assignment via minimum feasible flow over the correspondence graph.

Each unit of flow traces one label's trajectory through the levels; covering
every point with in-flow at least 1 while minimizing total flow yields a
small set of labels whose copies never jump farther than the correspondence
locality.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .metric import TOL, MetricSpace, TemporalSampling, ValidationError
from .metric import _json_int, _json_list, _json_object, _json_str
from .temporal import (
    Certification,
    CertificationError,
    LocalSolution,
    _require_levels,
    evaluate_general,
    solve_local,
)


@dataclass(frozen=True, eq=False)
class FlowNetwork:
    """Layered flow instance: source, one node per (level, point), sink.

    Point node ``x`` in ``0..size-1`` numbers the points level by level, by
    sorted id inside a level, and ``ids[x]`` is its point id; the source is
    ``size`` and the sink ``size + 1``. ``edges`` is a read-only ``(E, 2)``
    array of (tail, head) rows sorted by tail, then head: the source to
    level 1, correspondence pairs, and the last level to the sink. Every
    point node carries an implicit in-flow lower bound of 1.
    """

    levels: tuple[tuple[str, ...], ...]
    ids: tuple[str, ...]
    edges: np.ndarray

    def __post_init__(self):
        edges = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)

    @property
    def size(self) -> int:
        """Total number of point nodes, the n of the value bound."""
        return len(self.ids)


def build_flow_instance(sampling: TemporalSampling,
                        correspondences) -> FlowNetwork:
    """Assemble the layered network for a sampling and its correspondences."""
    corrs = tuple(correspondences)
    if len(corrs) != sampling.t - 1:
        raise ValidationError(
            f"expected {sampling.t - 1} correspondences, got {len(corrs)}"
        )
    ids: list[str] = []
    nodes = []  # nodes[i][x]: the node of point x of level i
    for level in sampling.levels:
        order = sorted(range(len(level)), key=level.__getitem__)
        nodes.append(len(ids) + np.argsort(order))
        ids += [level[x] for x in order]
    source, sink = len(ids), len(ids) + 1
    edges = [np.column_stack((np.full(len(nodes[0]), source), nodes[0]))]
    for i, corr in enumerate(corrs):
        _require_levels(corr, *sampling.levels[i:i + 2])
        edges.append(np.column_stack((nodes[i][corr.left], nodes[i + 1][corr.right])))
    edges.append(np.column_stack((nodes[-1], np.full(len(nodes[-1]), sink))))
    edges = np.concatenate(edges)
    return FlowNetwork(levels=sampling.levels, ids=tuple(ids),
                       edges=edges[np.lexsort(edges.T[::-1])])


def _is_count(amount) -> bool:
    return (isinstance(amount, numbers.Integral) and not isinstance(amount, bool)
            and amount >= 0)


@dataclass(frozen=True)
class IntegralFlow:
    """Integer flow on a :class:`FlowNetwork` satisfying all lower bounds,
    checked once, when made. ``flow[e]`` is the flow on ``network.edges[e]``."""

    network: FlowNetwork
    flow: tuple[int, ...] = field(repr=False)
    value: int

    def __post_init__(self):
        object.__setattr__(self, "flow", tuple(self.flow))
        edges, size = self.network.edges, self.network.size
        if len(self.flow) != len(edges):
            raise ValidationError(f"flow has {len(self.flow)} amounts for {len(edges)} edges")
        if not _is_count(self.value):
            raise ValidationError("flow value must be a nonnegative integer")
        for e, amount in enumerate(self.flow):
            # On a layered network no edge carries more than the whole flow.
            if not _is_count(amount) or amount > self.value:
                raise ValidationError(f"flow on edge {e} must be an integer in 0..{self.value}")
        amounts = np.array(self.flow, dtype=float)
        inflow, outflow = (np.bincount(edges[:, i], amounts, minlength=size + 2) for i in (1, 0))
        for problem, at in (("in-flow below 1", inflow[:size] < 1),
                            ("flow not conserved", inflow[:size] != outflow[:size])):
            if at.any():
                x = int(np.argmax(at))
                raise ValidationError(f"{problem} at point {self.network.ids[x]!r} (node {x})")
        if self.value != outflow[size] or self.value != inflow[size + 1]:
            raise ValidationError("flow value disagrees with terminal throughput")


class _MaxFlowGraph:
    """Edmonds-Karp over integer node ids ``0..count-1`` and flat residual lists.

    Arc ``k`` runs from ``tails[k]`` to ``heads[k]`` with capacity
    ``caps[k]``; no two arcs join the same pair of nodes, in either
    direction. Each arc and its reverse own one residual slot each, laid out
    sorted by (tail, head), so a node's arcs are a run of slots in head
    order. ``pos[k]`` is arc ``k``'s slot and ``rev[a]`` the reverse of slot
    ``a``.

    :meth:`max_flow` requires that no neighbour of the source has an arc to
    the target, so no augmenting path has length 2. It takes a direct
    source-to-target arc, if any, and the paths of length 3 in one greedy
    pass before any search. Edmonds-Karp never shortens its paths, so the
    search would take these first too, in this order: the direct arc until
    it saturates, then each time through the first source arc in slot order
    that has residual and whose head ``u`` has an arc with residual, in head
    order, to a ``v`` with residual into the target. The pass stays on a
    source arc until it saturates and never returns to it. That is safe: a
    saturated source arc stays saturated, and a ``u`` with no such ``v``
    keeps none, because its own arcs change only on a path through it and
    residuals into the target only fall while the paths have length 3. ``v``
    is never the source, whose arc into the target is saturated by then.
    """

    def __init__(self, tails, heads, caps, count: int):
        tails, heads = np.asarray(tails, dtype=np.intp), np.asarray(heads, dtype=np.intp)
        tail, head = np.concatenate((tails, heads)), np.concatenate((heads, tails))
        order = np.lexsort((head, tail))
        pos = np.empty_like(order)
        pos[order] = np.arange(len(order))
        m = len(tails)
        res = np.zeros(2 * m, dtype=np.int64)
        res[pos[:m]] = caps
        rev = np.empty_like(pos)
        rev[pos] = np.roll(pos, m)
        starts = np.searchsorted(tail[order], np.arange(count + 1)).tolist()
        self.adj = [range(starts[u], starts[u + 1]) for u in range(count)]
        self.head, self.res, self.rev = head[order].tolist(), res.tolist(), rev.tolist()
        self.pos = pos.tolist()

    def max_flow(self, s: int, t: int) -> int:
        adj, head, res, rev = self.adj, self.head, self.res, self.rev
        into_t = [-1] * len(adj)
        for a in adj[t]:
            into_t[head[a]] = rev[a]
        if any(into_t[head[a]] >= 0 for a in adj[s]):
            raise RuntimeError("a neighbour of the source has an arc to the sink")
        # The direct arc, then the paths of length 3 (see the class docstring).
        total = self._augment([into_t[s]]) if into_t[s] >= 0 else 0
        for a in adj[s]:
            for b in adj[head[a]]:
                if res[a] == 0:
                    break
                c = into_t[head[b]]
                if res[b] > 0 and c >= 0 and res[c] > 0:
                    total += self._augment((a, b, c))
        while (via := self._shortest_path(s, t, into_t)) is not None:
            path = []
            v = t
            while v != s:
                a = via[v]
                path.append(a)
                v = head[rev[a]]
            total += self._augment(path)
        return total

    def _augment(self, path) -> int:
        """Push the bottleneck of the slots ``path`` along them; return it."""
        res, rev = self.res, self.rev
        bottleneck = min(res[a] for a in path)
        for a in path:
            res[a] -= bottleneck
            res[rev[a]] += bottleneck
        return bottleneck

    def _shortest_path(self, s: int, t: int, into_t: list[int]):
        """BFS from ``s`` that stops at the first node found with residual into ``t``.

        ``into_t[v]`` is the arc from ``v`` to ``t``, or -1, and a direct arc
        from ``s`` to ``t`` is saturated. Returns the arc each reached node
        was entered by, ``t`` included, or None when ``t`` is unreachable.
        """
        adj, head, res = self.adj, self.head, self.res
        via = [-1] * len(adj)
        via[s] = -2
        queue = [s]
        for u in queue:
            for a in adj[u]:
                if res[a] > 0:
                    v = head[a]
                    if via[v] == -1:
                        via[v] = a
                        b = into_t[v]
                        if b >= 0 and res[b] > 0:
                            via[t] = b
                            return via
                        queue.append(v)
        return None


def min_feasible_flow(network: FlowNetwork) -> IntegralFlow:
    """Minimum-value integral flow meeting every in-flow lower bound.

    Lower bounds are shifted onto node-splitting edges, feasibility is
    established by saturating the induced excess, and the value is then
    reduced by augmenting from sink back to source in the residual. The
    instance is always feasible (route one unit through every point of the
    widest level); anything else indicates a broken network and raises.

    Both max-flows are Edmonds-Karp on the split network, whose node ids
    fix the augmenting paths and so the flow: the feasibility sink is 0 and
    the feasibility source 1, point node ``x`` enters at ``2 + x`` and
    leaves at ``2 + n + x``, the sink is ``2n + 2`` and the source
    ``2n + 3``. The breadth-first search scans arcs in head order and stops
    at the first node it discovers with residual capacity into the target:
    a search that ran on would pop nodes in discovery order and enter the
    target from the first of them with such an arc, the same path. No
    neighbour of either phase's source has an arc to its target, so both
    phases first take their paths of length 3 in one greedy pass in the
    same order (see ``_MaxFlowGraph``); in the feasibility phase these are
    most of the paths, feasibility source to out half to in half to
    feasibility sink.
    """
    n = network.size
    cap = n  # no minimal flow needs more than one unit per point
    sink, source = 2 * n + 2, 2 * n + 3
    ins, outs, ones = np.arange(2, n + 2), np.arange(n + 2, 2 * n + 2), np.ones(n, np.intp)
    tails, heads = network.edges[:, 0], network.edges[:, 1]
    # Arcs: each network edge, from its tail's out half to its head's in half
    # (source and sink are not split); node splits carrying the lower bound,
    # cap - 1 here and 1 restored later; sink to source; excess +1 at each
    # out half (from the feasibility source) and -1 at each in half.
    graph = _MaxFlowGraph(
        np.concatenate((np.append(outs, [source, sink])[tails], ins, [sink], ones, ins)),
        np.concatenate((np.append(ins, [source, sink])[heads], outs, [source], outs, 0 * ones)),
        np.concatenate((np.full(len(tails), cap), np.full(n, cap - 1), [cap], ones, ones)),
        2 * n + 4)
    if graph.max_flow(1, 0) != n:
        raise RuntimeError("layered instance unexpectedly infeasible")
    # Freeze the artificial plumbing, then push back value.
    res, rev = graph.res, graph.rev
    for a in itertools.chain(graph.adj[0], graph.adj[1]):
        res[a] = res[rev[a]] = 0
    back = rev[graph.pos[len(tails) + n]]  # residual of the sink->source arc
    circulating = res[back]
    res[back] = res[rev[back]] = 0
    returned = graph.max_flow(sink, source)

    # residual backward cap equals the flow
    flow = [res[rev[a]] for a in graph.pos[:len(tails)]]
    value = circulating - returned
    result = IntegralFlow(network=network, flow=flow, value=value)
    if value > n:
        raise RuntimeError(f"minimum flow value {value} exceeds point count {n}")
    return result


def decompose_paths(flow: IntegralFlow) -> list[tuple[str, ...]]:
    """Split a feasible flow into unit source-to-sink paths.

    Extraction is greedy along the positive-flow edge with the smallest
    head, which makes the decomposition, and hence the labels, reproducible.
    An edge's remaining flow only goes down, so each node keeps a cursor
    past its spent edges. Paths are returned as per-level point ids.
    """
    network = flow.network
    source, sink = network.size, network.size + 1
    heads = network.edges[:, 1].tolist()
    starts = np.searchsorted(network.edges[:, 0], np.arange(sink + 1)).tolist()
    cursor, stop = starts[:-1], starts[1:]
    remaining = list(flow.flow)
    paths = []
    for _ in range(flow.value):
        trail = [source]
        while (node := trail[-1]) != sink:
            e = cursor[node]
            while e < stop[node] and remaining[e] == 0:
                e += 1
            if e == stop[node]:
                raise RuntimeError(f"flow decomposition stuck at node {node}")
            cursor[node] = e
            remaining[e] -= 1
            trail.append(heads[e])
        paths.append(tuple(network.ids[x] for x in trail[1:-1]))
    if any(remaining):
        raise RuntimeError("flow decomposition left residual flow")
    return paths


@dataclass(frozen=True)
class Labeling:
    """One level's labels 1..k: ``holders[j - 1]`` is the point holding label j.

    Each label has exactly one holder, so the labels partition 1..k over the
    points named; ``labels`` is the per-point view.
    """

    holders: tuple[str, ...] = field(repr=False)

    @property
    def k(self) -> int:
        return len(self.holders)

    @property
    def labels(self) -> dict[str, frozenset[int]]:
        """Each holder's label set, in order of its smallest label."""
        groups: dict[str, list[int]] = {}
        for j, point in enumerate(self.holders, start=1):
            groups.setdefault(point, []).append(j)
        return {p: frozenset(group) for p, group in groups.items()}

    def to_list(self) -> list[dict]:
        return [{"point": p, "labels": sorted(group)} for p, group in sorted(self.labels.items())]

    @classmethod
    def from_list(cls, entries, k: int) -> "Labeling":
        points, held = set(), {}
        for entry in _json_list(entries, "labeling"):
            _json_object(entry, "labeling entry", ("point", "labels"))
            point = _json_str(entry["point"], "point")
            if point in points:
                raise ValidationError(f"point {point!r} has two labeling entries")
            points.add(point)
            group = [_json_int(x, "label") for x in _json_list(entry["labels"], "labels")]
            if len(set(group)) != len(group):
                raise ValidationError(f"point {point!r} lists a label twice")
            if not group:
                raise ValidationError(f"point {point!r} has no labels")
            if taken := held.keys() & group:
                raise ValidationError(f"label {min(taken)} assigned to two points")
            held.update(dict.fromkeys(group, point))
        k = _json_int(k, "k")
        holders = tuple(held.get(j) for j in range(1, k + 1))
        if len(held) != k or None in holders:
            raise ValidationError(f"labels do not partition 1..{k}")
        return cls(holders)


def paths_to_labelings(paths) -> tuple[Labeling, ...]:
    """Turn unit paths into per-level labelings.

    Paths are sorted by their visited point ids and numbered 1..k in that
    order; at each level, label j's holder is the point that path j visits.
    """
    ordered = sorted(paths)
    if not ordered:
        raise ValidationError("at least one path is required")
    if any(len(path) != len(ordered[0]) for path in ordered):
        raise ValidationError("paths visit differing level counts")
    return tuple(map(Labeling, zip(*ordered)))


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
    points = sorted(set(labeling.holders))
    index = np.array([ambient.index_of(p) for p in points], dtype=np.intp)
    where = {p: r for r, p in enumerate(points)}
    rank = np.array([where[p] for p in labeling.holders], dtype=np.intp)
    return points, rank, index[rank]


def certify(local: LocalSolution, labelings=(), delta: float | None = None) -> Certification:
    """Certify a solution and, when given, its labelings; return the certification.

    Runs :func:`~thclust.temporal.evaluate_general` on ``local``. Labeling
    ``i`` must then label exactly the points of level ``i``, one labeling
    per level, and every adjacent pair must pass :func:`check_contiguity`
    in the sampling's ambient space at ``delta``, or else at the certified
    delta. A failure raises :class:`CertificationError` naming the labeling
    and the smallest offending point, or the broken pair.
    """
    certification = evaluate_general(local)
    labelings, levels = tuple(labelings), local.sampling.levels
    if not labelings:
        return certification
    if len(labelings) != len(levels):
        raise CertificationError(f"{len(labelings)} labelings for {len(levels)} levels")
    for i, (level, labeling) in enumerate(zip(levels, labelings)):
        points = set(level)
        if stray := points ^ set(labeling.holders):
            point = min(stray)
            fault = f"leaves point {point!r} of level {i} unlabeled" if point in points \
                else f"labels point {point!r} outside level {i}"
            raise CertificationError(f"labeling {i} {fault}")
    radius = certification.delta if delta is None else delta
    for i in range(len(labelings) - 1):
        ok, violation = check_contiguity(
            labelings[i], labelings[i + 1], radius, local.sampling.ambient
        )
        if not ok:
            raise CertificationError(
                f"labelings {i} and {i + 1} break contiguity at delta "
                f"{radius:g}: label {violation.label} near point "
                f"{violation.point!r} (condition {violation.condition})"
            )
    return certification


@dataclass(frozen=True)
class LabeledSolution:
    """Local solution plus the flow-derived labelings."""

    local: LocalSolution
    flow: IntegralFlow
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
    labelings = paths_to_labelings(decompose_paths(flow))
    return LabeledSolution(local=local, flow=flow, labelings=labelings)
