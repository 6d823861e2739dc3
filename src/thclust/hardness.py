"""Three-coloring embedded as a two-level clustering instance.

A graph becomes a pair of levels: three "color anchor" points pairwise 2
apart, and the vertex set with adjacent pairs at 2 and non-adjacent pairs
at 1. Proper 3-colorings and cheap zero-distortion witnesses then translate
back and forth, which is the executable core of the hardness argument.
All distances involved are small integers, so comparisons here are exact
rather than tolerance-based.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .metric import MetricSpace, ValidationError, _json_list, linf_distance
from .metric import _as_point_tuple, _json_object, _json_str
from .temporal import Correspondence, distortion
from .ultrametric import PseudoUltrametric

COLORS = ("r", "g", "b")


class WitnessError(ValidationError):
    """A coloring or witness fails the structural preconditions."""


def _edge(edge) -> tuple[str, str]:
    """An edge as its two string ends."""
    u, v = _json_list(edge, "edges entry", 2)
    return _json_str(u, "edge end"), _json_str(v, "edge end")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph, stored canonically: sorted vertices, and each
    edge once, as a sorted pair, in sorted order."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        vertices = tuple(sorted(_as_point_tuple(self.vertices, "vertices")))
        known, edges = set(vertices), set()
        for u, v in map(_edge, _json_list(self.edges, "edges")):
            if u == v:
                raise ValidationError(f"self-loop at {u!r}")
            if u not in known or v not in known:
                raise ValidationError(f"edge ({u!r}, {v!r}) uses unknown vertex")
            edges.add((min(u, v), max(u, v)))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", tuple(sorted(edges)))

    def to_dict(self) -> dict:
        return {"vertices": list(self.vertices),
                "edges": [[u, v] for u, v in self.edges]}

    @classmethod
    def from_dict(cls, data: dict) -> "Graph":
        _json_object(data, "graph document", ("vertices",))
        return cls(_json_list(data["vertices"], "vertices"), data.get("edges", []))

    @classmethod
    def from_dimacs(cls, text: str) -> "Graph":
        """Parse 'p edge N M' / 'e u v' lines; vertices are 1..N as strings,
        and there must be exactly M edge lines."""
        vertices: list[str] = []
        edges = []
        declared = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if parts[0] == "p":
                ok = len(parts) == 4 and parts[1] == "edge" and declared is None
                counts = parts[2:] if ok else [""]
                if not all(c.isascii() and c.isdigit() for c in counts):
                    raise ValidationError(f"bad problem line at line {lineno}")
                declared, edge_count = map(int, counts)
                vertices = [str(i) for i in range(1, declared + 1)]
            elif parts[0] == "e":
                if len(parts) != 3:
                    raise ValidationError(f"bad edge line at line {lineno}")
                edges.append((parts[1], parts[2]))
            else:
                raise ValidationError(f"unrecognized line {lineno}: {raw!r}")
        if declared is None:
            raise ValidationError("missing problem line")
        if len(edges) != edge_count:
            raise ValidationError(f"problem line declares {edge_count} edges, "
                                  f"found {len(edges)}")
        return cls(vertices, edges)


@dataclass(frozen=True)
class ThcInstance:
    """Two-level instance produced by the graph reduction."""

    level1: MetricSpace
    level2: MetricSpace

    def to_dict(self) -> dict:
        return {"level1": self.level1.to_dict(), "level2": self.level2.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "ThcInstance":
        _json_object(data, "instance document", ("level1", "level2"))
        return cls(
            level1=MetricSpace.from_dict(data["level1"]),
            level2=MetricSpace.from_dict(data["level2"]),
        )


@dataclass(frozen=True)
class Witness:
    """Claimed solution: one ultrametric per level plus the relation."""

    u_p: PseudoUltrametric
    u_v: PseudoUltrametric
    corr: Correspondence

    def to_dict(self) -> dict:
        return {
            "u_p": self.u_p.to_dict(),
            "u_v": self.u_v.to_dict(),
            "correspondence": self.corr.to_list(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Witness":
        _json_object(data, "witness document", ("u_p", "u_v", "correspondence"))
        u_p = PseudoUltrametric.from_dict(data["u_p"])
        u_v = PseudoUltrametric.from_dict(data["u_v"])
        pairs = _json_list(data["correspondence"], "correspondence")
        return cls(u_p, u_v, Correspondence.from_pairs(pairs, u_p.points, u_v.points))


def reduce_from_graph(graph: Graph) -> ThcInstance:
    """Build the two-level instance: color anchors, then the vertex space.

    Vertex distances: 2 across an edge, 1 between distinct non-adjacent
    vertices, 0 on the diagonal.
    """
    anchors = MetricSpace(
        COLORS, dist=2.0 * (1 - np.eye(3)), validate=False
    )
    vs = graph.vertices
    n = len(vs)
    index = {v: i for i, v in enumerate(vs)}
    d = 1.0 - np.eye(n)
    for u, v in graph.edges:
        d[index[u], index[v]] = 2.0
        d[index[v], index[u]] = 2.0
    return ThcInstance(level1=anchors, level2=MetricSpace(vs, dist=d, validate=False))


def check_coloring(graph: Graph, coloring: dict[str, str]) -> None:
    """Raise unless the assignment colors every vertex of the graph, and
    only those, properly."""
    if extra := coloring.keys() - set(graph.vertices):
        raise WitnessError(f"vertex {min(extra)!r} is not in the graph")
    for v in graph.vertices:
        if v not in coloring:
            raise WitnessError(f"vertex {v!r} is uncolored")
        if coloring[v] not in COLORS:
            raise WitnessError(f"unknown color {coloring[v]!r} at vertex {v!r}")
    for u, v in graph.edges:
        if coloring[u] == coloring[v]:
            raise WitnessError(f"edge ({u!r}, {v!r}) is monochromatic")


def witness_from_coloring(graph: Graph, coloring: dict[str, str]) -> Witness:
    """Constructive witness for a proper coloring that uses all 3 colors.

    Anchor heights are uniformly 1; vertex heights are 0 inside a color
    class and 1 across classes; the relation pairs each vertex with its
    color. Fewer than 3 used colors would leave an anchor unmatched, so
    such colorings are rejected (see :func:`pad_to_three_colors`).
    """
    check_coloring(graph, coloring)
    used = {coloring[v] for v in graph.vertices}
    if used != set(COLORS):
        raise WitnessError(
            f"coloring uses {sorted(used)}; all of {list(COLORS)} are required"
        )
    u_p = PseudoUltrametric(COLORS, 1.0 - np.eye(3), validate=False)
    vs = graph.vertices
    same = np.array([
        [1.0 if coloring[a] != coloring[b] else 0.0 for b in vs] for a in vs
    ])
    u_v = PseudoUltrametric(vs, same, validate=False)
    corr = Correspondence.from_pairs(((coloring[v], v) for v in vs), COLORS, vs)
    return Witness(u_p=u_p, u_v=u_v, corr=corr)


def pad_to_three_colors(graph: Graph, coloring: dict[str, str]) -> dict[str, str]:
    """Spread a proper coloring onto all 3 colors without breaking it.

    Moving a vertex to a color nobody holds can never create a
    monochromatic edge, so members of the largest classes are peeled off
    one per missing color, smallest vertex id first. Graphs with fewer than
    3 vertices cannot use 3 colors and are rejected.
    """
    check_coloring(graph, coloring)
    out = dict(coloring)
    while True:
        unused = [c for c in COLORS if c not in set(out.values())]
        if not unused:
            return out
        classes: dict[str, list[str]] = {}
        for v in sorted(out):
            classes.setdefault(out[v], []).append(v)
        donors = [c for c in COLORS if len(classes.get(c, [])) >= 2]
        if not donors:
            raise WitnessError("graph has too few vertices to use three colors")
        out[classes[donors[0]][0]] = unused[0]


def _fit_error(inst: ThcInstance, witness: Witness) -> float:
    """Worse max-norm fit error of the two levels, over the instance's point tuples."""
    try:
        return max(linf_distance(inst.level1, witness.u_p),
                   linf_distance(inst.level2, witness.u_v))
    except ValidationError as exc:
        raise WitnessError(f"witness points differ from the instance: {exc}") from exc


def verify_witness(inst: ThcInstance, witness: Witness,
                   chi_bound: float, rho_bound: float) -> bool:
    """Does the witness meet both fit bounds and the distortion bound?

    Returns False when the witness's levels list other points than the
    instance's. Its relation covers both of its levels by construction (a
    :class:`Correspondence` is checked when made, so ``Witness.from_dict``
    refuses a relation that misses a point or names an unknown one); the
    witness is judged on max-norm fit per level and distortion across the
    relation.
    """
    try:
        chi = _fit_error(inst, witness)
    except WitnessError:  # levels over other point tuples
        return False
    return chi <= chi_bound and distortion(witness.u_p, witness.u_v, witness.corr) <= rho_bound


def coloring_from_witness(inst: ThcInstance, witness: Witness) -> dict[str, str]:
    """Extract a proper coloring from any witness with fit below 2 and
    distortion 0.

    With those bounds each vertex can relate to only one anchor (two
    anchors would force their height to 0 while the fit keeps it near 2),
    and no edge can be monochromatic (its height would be 0 against a
    source distance of 2). Violations raise :class:`WitnessError`; the
    relation is read in index order, so on levels listed in id order the
    first violation named is the first in id order.
    """
    chi = _fit_error(inst, witness)
    if chi >= 2:
        raise WitnessError(f"witness fit error {chi:g} is not below 2")
    rho = distortion(witness.u_p, witness.u_v, witness.corr)
    if rho != 0:
        raise WitnessError(f"witness distortion {rho:g} is not zero")
    corr = witness.corr
    coloring: dict[str, str] = {}
    for a, v in zip(corr.left.tolist(), corr.right.tolist()):
        anchor, vertex = corr.first[a], corr.second[v]
        if vertex in coloring:
            raise WitnessError(
                f"vertex {vertex!r} relates to anchors "
                f"{coloring[vertex]!r} and {anchor!r}"
            )
        coloring[vertex] = anchor
    # Zero distortion with fit < 2 cannot label an edge monochromatically.
    for a, b in itertools.combinations(sorted(inst.level2.points), 2):
        if inst.level2.distance(a, b) == 2.0 and coloring[a] == coloring[b]:
            raise WitnessError(f"extracted coloring is monochromatic on ({a!r}, {b!r})")
    return coloring
