"""Ultrametric fitting, dendrograms, and cut-at-height clustering.

Two fitters are provided: the subdominant (single-linkage) ultrametric, which
is the max-norm-closest approximation from below, and the exact max-norm
nearest ultrametric obtained by the cut-weight procedure (scheme token
``fkw``). Both operate on :class:`~thclust.metric.MetricSpace` inputs.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .metric import TOL, MetricSpace, ValidationError, shortest_path_closure
from .metric import _as_point_tuple, _float_array, _json_int, _json_list, _json_number
from .metric import _json_object

log = logging.getLogger(__name__)


def validate_ultrametric(mu, points=None):
    """Check the strong triangle inequality, returning the first bad triple.

    Returns ``(True, None)`` when every triple satisfies
    ``mu[i][k] <= max(mu[i][j], mu[j][k])`` within ``TOL``, else
    ``(False, (i, j, k))`` for the first violating triple in scan order.
    Malformed input (non-square, asymmetric, negative, nonzero diagonal)
    raises :class:`ValidationError` instead of returning False.

    A matrix is an ultrametric exactly when it equals the single-linkage
    heights of its own minimum spanning tree, so the check first compares
    ``mu`` with those heights (:func:`_certifies`), which is O(n^2 log n).
    Only when that certificate refuses does it scan all n^3 triples: noise
    below ``TOL`` can add up along a tree path and make the certificate
    refuse a matrix whose every triple passes.
    """
    m = _float_array(mu, "ultrametric matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("ultrametric matrix must be square")
    n = m.shape[0]
    if points is None:
        names = tuple(range(n))
    else:
        names = tuple(points)
        if len(names) != n:
            raise ValidationError("points do not match matrix size")
    if n == 0:
        return True, None
    if not np.isfinite(m).all():
        raise ValidationError("ultrametric values must be finite")
    if m.min() < -TOL:
        raise ValidationError("negative ultrametric value")
    if np.abs(m - m.T).max() > TOL:
        raise ValidationError("ultrametric matrix must be symmetric")
    if np.abs(np.diagonal(m)).max() > TOL:
        raise ValidationError("ultrametric diagonal must be zero")
    ids = tuple(str(i) for i in range(n))  # _heights tells leaves by str
    tree = _spanning_tree(ids, np.minimum(m, m.T))
    if _certifies(m, _heights(ids, _merges(ids, tree)), TOL):
        return True, None
    for i in range(n):
        # max(mu[i][j], mu[j][k]) for all j,k at once; rows j, columns k.
        bound = np.maximum(m[i][:, None], m)
        bad = m[i][None, :] > bound + TOL
        if bad.any():
            j, k = np.unravel_index(int(bad.argmax()), bad.shape)
            return False, (names[i], names[j], names[k])
    return True, None


def _certifies(m: np.ndarray, heights: np.ndarray, tol: float) -> bool:
    """True only if every triple of ``m`` passes the strong triangle
    inequality within ``tol``.

    ``heights`` must be the single-linkage heights of a minimum spanning
    tree of ``min(m, m.T)``. Each such height is the smallest possible
    largest edge over all paths, so ``heights[i, k] <= max(m[i, j], m[j, k])``
    for every j; since adding ``tol`` is monotone in floating point,
    ``m[i, k] <= heights[i, k] + tol`` then passes every triple (i, j, k)
    with i != k. The diagonal is bounded by the smallest entry of its row
    of ``max(m, m.T)``. Non-finite entries never certify.
    """
    return bool(
        np.isfinite(m).all()
        and (m <= heights + tol).all()
        and (np.diagonal(m) <= np.maximum(m, m.T).min(axis=1) + tol).all()
    )


class PseudoUltrametric(MetricSpace):
    """Merge heights over a point set: a pseudometric space whose distances,
    ``mu``, also satisfy the strong triangle inequality. Zero height between
    distinct points is allowed.

    Heights from outside enter with ``validate=True``, which proves all of
    that (:func:`validate_ultrametric`). With ``validate=False`` the caller
    vouches for them, as the fitters and :meth:`Dendrogram.to_ultrametric`
    do, and :func:`to_dendrogram`, :func:`cut_at_height` and
    :func:`~thclust.temporal.distortion` rely on it unchecked.
    """

    def __init__(self, points, mu, validate=True):
        if validate:
            pts = _as_point_tuple(points, "points")
            ok, triple = validate_ultrametric(_float_array(mu, "height matrix"), points=pts)
            if not ok:
                raise ValidationError(
                    "strong triangle inequality fails at "
                    f"({triple[0]!r}, {triple[1]!r}, {triple[2]!r})"
                )
        super().__init__(points, dist=mu, pseudo=True, validate=False)

    @property
    def mu(self) -> np.ndarray:
        """The heights, which are this space's distances."""
        return self.dist

    def to_dict(self) -> dict:
        return {
            "points": list(self.points),
            "matrix": [[float(x) for x in row] for row in self.mu],
            "ultrametric": True,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PseudoUltrametric":
        _json_object(data, "ultrametric document", ("points", "matrix"))
        return cls(_json_list(data["points"], "points"), data["matrix"])


@dataclass(frozen=True)
class MstEdgeList:
    """Edges (u, v, weight) of a minimum spanning tree, u < v, in the
    deterministic selection order (weight, then endpoint ids)."""

    points: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int) -> bool:
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return False
        self.parent[rj] = ri
        return True


def _spanning_tree(points: tuple[str, ...], matrix: np.ndarray):
    """Minimum spanning tree of the complete graph weighted by ``matrix``.

    Edges are ranked by (weight, smaller id, larger id): a strict total
    order, so the minimum spanning tree is unique and equal-weight ties go
    to the lexicographically first pair of endpoint ids. Returns edges
    (u, v, weight) with u < v, sorted by that rank, which is the order in
    which Kruskal's algorithm would select them.

    The tree is grown by Prim's algorithm over a dense array in O(n^2)
    (Müllner, 2011), with vertices numbered by their rank in id order. Each
    vertex outside the tree keeps its lightest edge into the tree, ``best``
    and ``src``, and the next vertex joins along the lightest of those. Two
    candidate edges into the same vertex x share the endpoint x, so their
    (smaller, larger) rank pairs compare as their other endpoints do: a
    candidate replaces ``src[x]`` when it is lighter, or as heavy with a
    smaller tree endpoint. Among the vertices tied at the lightest weight,
    the smallest rank pair wins. Every step thus adds the lightest edge
    across the cut in the total order, which belongs to the unique tree
    (cut property), so the edge set is exactly Kruskal's.

    ``matrix`` must be exactly symmetric, because an edge is compared as
    read from the row of whichever endpoint joined the tree first; the
    callers pass ``space.dist``, ``min(m, m.T)`` and fitted heights, all
    symmetric. Infinite weights are ordinary edges, so tree membership is
    a mask, not a sentinel weight.
    """
    n = len(points)
    if n < 2:
        return ()
    order = np.array(sorted(range(n), key=points.__getitem__), dtype=np.intp)
    w = matrix[np.ix_(order, order)]
    outside = np.ones(n, dtype=bool)
    outside[0] = False
    best = w[0].copy()
    src = np.zeros(n, dtype=np.intp)
    joined = np.empty(n - 1, dtype=np.intp)
    for step in range(n - 1):
        low = best.min(where=outside, initial=np.inf)
        tied = np.flatnonzero(outside & (best == low))
        v = tied[0]
        if len(tied) > 1:
            a, b = src[tied], tied
            v = tied[np.lexsort((np.maximum(a, b), np.minimum(a, b)))[0]]
        outside[v] = False
        joined[step] = v
        row = w[v]
        closer = outside & ((row < best) | ((row == best) & (v < src)))
        best[closer] = row[closer]
        src[closer] = v
    lo = np.minimum(src[joined], joined)
    hi = np.maximum(src[joined], joined)
    weight = w[lo, hi]
    ranked = np.lexsort((hi, lo, weight))
    return tuple(
        (points[i], points[j], x)
        for i, j, x in zip(order[lo[ranked]].tolist(), order[hi[ranked]].tolist(),
                           weight[ranked].tolist())
    )


def minimum_spanning_edges(space: MetricSpace) -> MstEdgeList:
    """The unique minimum spanning tree of the distance graph, equal-weight
    ties broken by the lexicographic pair of endpoint ids."""
    return MstEdgeList(space.points, _spanning_tree(space.points, space.dist))


def _merges(points: tuple[str, ...], edges):
    """Canonical merge list of the single linkage over spanning-tree edges.

    Edges are taken in groups of exactly equal weight. Within a group, the
    clusters its edges link are chained together into one merge event; each
    event becomes successive binary merges joining its clusters smallest
    leaf id first, and events run in order of their smallest leaf id.
    """
    n = len(points)
    index = {p: i for i, p in enumerate(points)}
    uf = _UnionFind(n)
    # The root of each cluster is its smallest leaf, so ``points[root]``
    # orders clusters by smallest leaf id.
    node_ref: list[int | str] = list(points)
    merges: list[tuple[float, int | str, int | str]] = []
    ascending = sorted(edges, key=lambda e: e[2])
    for h, group in itertools.groupby(ascending, key=lambda e: e[2]):
        chain = _UnionFind(n)
        roots = set()
        for u, v, _ in group:
            i, j = uf.find(index[u]), uf.find(index[v])
            chain.union(i, j)
            roots.update((i, j))
        events: dict[int, list[int]] = {}
        for root in roots:
            events.setdefault(chain.find(root), []).append(root)
        joined = [sorted(rs, key=points.__getitem__) for rs in events.values()]
        for rs in sorted(joined, key=lambda rs: points[rs[0]]):
            for nxt in rs[1:]:
                merges.append((h, node_ref[rs[0]], node_ref[nxt]))
                uf.union(rs[0], nxt)  # rs[0] stays the root
                node_ref[rs[0]] = len(merges) - 1
    return tuple(merges)


def _layout(leaves: tuple[str, ...], merges):
    """Dendrogram leaf order as runs of slots: (kids, start, size).

    Leaf i is node i and merge t is node n + t; ``kids[t]`` holds merge t's
    two children, and node x covers slots ``start[x]`` up to
    ``start[x] + size[x]``, its left child's run before its right child's.
    The merges must span the leaves, as a :class:`Dendrogram`'s do. A merge
    comes after its children, so walking down from the root (the last node)
    places every node before its children.
    """
    n = len(leaves)
    index = {p: i for i, p in enumerate(leaves)}

    def node(ref):
        return index[ref] if isinstance(ref, str) else n + ref

    kids = [(node(a), node(b)) for _, a, b in merges]
    size = [1] * n
    for a, b in kids:
        size.append(size[a] + size[b])
    start = [0] * len(size)
    for t in range(len(kids) - 1, -1, -1):
        a, b = kids[t]
        start[a], start[b] = start[n + t], start[n + t] + size[a]
    return kids, start, size


def _heights(leaves: tuple[str, ...], merges) -> np.ndarray:
    """Replay merges into a height matrix: the height of two leaves' first
    shared merge becomes their entry.

    In the slots of :func:`_layout` every cluster is a run, so a merge
    writes two rectangles of slices; one permutation then returns the
    matrix to leaf-id order.
    """
    n = len(leaves)
    kids, start, size = _layout(leaves, merges)
    slots = np.zeros((n, n))
    for (h, _, _), (a, b) in zip(merges, kids):
        left = slice(start[a], start[b])
        right = slice(start[b], start[b] + size[b])
        slots[left, right] = h
        slots[right, left] = h
    pos = np.array(start[:n], dtype=np.intp)
    return slots[np.ix_(pos, pos)]


def subdominant_ultrametric(space: MetricSpace) -> PseudoUltrametric:
    """Largest ultrametric dominated by the given distances.

    Heights are bottleneck weights over the minimum spanning tree, which is
    single linkage in fitting terms. The output never exceeds the input
    entrywise and is the unique max-norm-closest such ultrametric.
    """
    pts = space.points
    mu = _heights(pts, _merges(pts, minimum_spanning_edges(space).edges))
    return PseudoUltrametric(pts, mu, validate=False)


@dataclass(frozen=True)
class FkwFit:
    """Everything produced by the exact nearest-ultrametric procedure;
    ``clamped_pairs`` counts the pairs whose height was clamped at zero."""

    ultrametric: PseudoUltrametric
    subdominant: PseudoUltrametric
    subdominant_error: float
    shift: float
    mst: MstEdgeList
    priorities: tuple[float, ...] = field(repr=False)
    clamped_pairs: int


def fkw_fit(space: MetricSpace) -> FkwFit:
    """Run the three-step cut-weight procedure and keep the intermediates.

    Step 1 builds the minimum spanning tree. Step 2 assigns each tree edge a
    priority: the largest source distance among pairs whose tree path
    contains the edge and whose bottleneck equals the edge weight (every
    such edge on the path receives the pair, which keeps the figure-style
    pendant edges honest). Step 3 cuts in descending priority; a pair first
    separated at edge e gets height p(e) minus half the subdominant fitting
    error, clamped at zero. The cut order never changes the result, so the
    heights are computed directly as tree path maxima over priorities.
    """
    pts = space.points
    n = len(pts)
    tree = minimum_spanning_edges(space)
    musub = _heights(pts, _merges(pts, tree.edges))
    err = float(np.abs(space.dist - musub).max())
    shift = err / 2.0

    index = {p: i for i, p in enumerate(pts)}
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for u, v, _ in tree.edges:
        adj[index[u]].append(index[v])
        adj[index[v]].append(index[u])
    # Root the tree and collect subtree masks for the child side of each edge.
    parent = np.full(n, -1, dtype=int)
    bfs = [0]
    seen = {0}
    for node in bfs:
        for nb in adj[node]:
            if nb not in seen:
                seen.add(nb)
                parent[nb] = node
                bfs.append(nb)
    subtree = np.eye(n, dtype=bool)
    for node in reversed(bfs):
        if parent[node] >= 0:
            subtree[parent[node]] |= subtree[node]

    priorities = []
    for u, v, w in tree.edges:
        i, j = index[u], index[v]
        child = i if parent[i] == j else j
        side_child = subtree[child]
        eligible = musub[i] <= w  # ball that makes the edge the bottleneck
        left = eligible & side_child
        right = eligible & ~side_child
        priorities.append(float(space.dist[np.ix_(left, right)].max()))

    reweighted = [(u, v, p) for (u, v, _), p in zip(tree.edges, priorities)]
    raw = _heights(pts, _merges(pts, reweighted)) - shift
    clamped = np.argwhere(np.triu(raw < 0, 1))
    if len(clamped):
        log.info(
            "clamped %d negative heights at zero (first pair: %s, %s)",
            len(clamped), pts[clamped[0][0]], pts[clamped[0][1]],
        )
    mu = np.maximum(raw, 0.0)
    np.fill_diagonal(mu, 0.0)
    return FkwFit(
        ultrametric=PseudoUltrametric(pts, mu, validate=False),
        subdominant=PseudoUltrametric(pts, musub, validate=False),
        subdominant_error=err,
        shift=shift,
        mst=tree,
        priorities=tuple(priorities),
        clamped_pairs=len(clamped),
    )


@dataclass(frozen=True)
class Dendrogram:
    """Merge tree of an ultrametric.

    ``merges`` lists (height, left, right); each side is a leaf id (str) or
    the index of an earlier merge (int). Tied heights are stored as
    successive binary merges, smallest leaf id first, so there are always
    ``len(leaves) - 1`` merges. The merges are the single linkage over a
    spanning tree of the heights (see :func:`to_dendrogram`), and
    :meth:`to_ultrametric` replays them back into the height matrix.

    The constructor checks what makes that replay an ultrametric, which is
    therefore not checked again: the merges form one binary tree over the
    leaves, each after its children; every height is a finite real number
    (not a bool) and none is below -TOL; and none is refused by
    ``prev > h + TOL``, the triple scan's expression
    (:func:`validate_ultrametric`), for ``prev`` the largest height before
    it. A child's height is at most that ``prev``, so two leaves' first
    shared merge passes the scan against every merge above it.
    """

    leaves: tuple[str, ...]
    merges: tuple[tuple[float, int | str, int | str], ...]

    def __post_init__(self):
        points = _as_point_tuple(self.leaves, "leaves")
        leaves = set(points)
        entries = _json_list(self.merges, "merges")
        if len(entries) != len(points) - 1:
            raise ValidationError(f"expected {len(points) - 1} merges, got {len(entries)}")
        merges = []
        used: set[int | str] = set()
        prev = -math.inf
        for idx, entry in enumerate(entries):
            h, *refs = _json_list(entry, f"merge {idx}", 3)
            h = _json_number(h, f"merge {idx} height")
            refs = [int(ref) if isinstance(ref, np.integer) else ref for ref in refs]
            if h < -TOL:
                raise ValidationError(f"merge {idx} height {h!r} is negative")
            if prev > h + TOL:
                raise ValidationError(f"merge heights decrease at index {idx}")
            prev = max(h, prev)
            for ref in refs:
                if isinstance(ref, str):
                    if ref not in leaves:
                        raise ValidationError(f"unknown leaf {ref!r} in merge {idx}")
                elif isinstance(ref, int) and not isinstance(ref, bool):
                    if not 0 <= ref < idx:
                        raise ValidationError(f"merge {idx} references invalid index {ref}")
                else:
                    raise ValidationError(f"merge {idx} has malformed reference {ref!r}")
                if ref in used:
                    raise ValidationError(f"merge {idx} reuses node {ref!r}")
                used.add(ref)
            merges.append((h, *refs))
        # Stored as tuples of floats, ints and ids, so to_dict always writes
        # JSON and equal merge lists compare and hash alike.
        object.__setattr__(self, "leaves", points)
        object.__setattr__(self, "merges", tuple(merges))
        # The n - 1 merges hold 2n - 2 distinct references, each to one of the
        # n leaves or the n - 2 merges before the last: every node but the
        # root is used exactly once, so the merges span the leaves.

    def to_ultrametric(self) -> PseudoUltrametric:
        """Replay the merges, unchecked (see the class docstring); the height
        of two leaves' first shared merge becomes their ultrametric value."""
        return PseudoUltrametric(self.leaves, _heights(self.leaves, self.merges),
                                 validate=False)

    def to_dict(self) -> dict:
        return {
            "leaves": list(self.leaves),
            "merges": [list(merge) for merge in self.merges],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Dendrogram":
        _json_object(data, "dendrogram document", ("leaves", "merges"))
        return cls(_json_list(data["leaves"], "leaves"), data["merges"])


def to_dendrogram(ultrametric: PseudoUltrametric) -> Dendrogram:
    """Canonical merge tree of an ultrametric.

    The merges are the single linkage over a minimum spanning tree of the
    heights: two points share a cluster at height h exactly when the tree
    path between them has no edge above h. Merge events are emitted in
    ascending height; a multiway event becomes successive binary merges
    joining its groups smallest leaf id first.
    """
    pts = ultrametric.points
    return Dendrogram(pts, _merges(pts, _spanning_tree(pts, ultrametric.mu)))


def cut_at_height(ultrametric: PseudoUltrametric, r: float) -> list[list[str]]:
    """Partition the points into the equivalence classes of ``mu <= r``.

    A class is the transitive closure of ``mu <= r + TOL``: noise below
    ``TOL`` can link a to b and b to c but not a to c. Each class is grown
    from its first point by breadth-first search, a whole frontier of rows
    of the (symmetric) relation at a time. Blocks come back with sorted
    member ids, ordered by their first member.
    """
    if not r >= 0:
        raise ValidationError(f"cut height must be a nonnegative number, got {r!r}")
    pts = ultrametric.points
    n = len(pts)
    close = ultrametric.mu <= r + TOL
    unassigned = np.ones(n, dtype=bool)
    blocks = []
    for i in range(n):
        if not unassigned[i]:
            continue
        members = np.zeros(n, dtype=bool)
        members[i] = True
        frontier = members
        while frontier.any():
            frontier = close[frontier].any(axis=0) & ~members
            members |= frontier
        unassigned &= ~members
        blocks.append(sorted(pts[j] for j in np.flatnonzero(members)))
    return sorted(blocks, key=lambda b: b[0])


def instability_family(n: int, eps: float) -> tuple[MetricSpace, MetricSpace]:
    """Paired metric graphs showing the nearest-ultrametric fitter's
    sensitivity to perturbation.

    Both spaces have ``n`` points: a unit-edge base path of ``n - 2`` points
    plus a two-point pendant loop attached near the middle. The two variants
    move a single ``1 + eps`` edge across that loop, so their max-norm
    distance is exactly ``eps``, yet the fitted heights of the pendant pair
    differ by roughly half the diameter. The subdominant fitter moves by at
    most ``eps`` on the same pair, which is the contrast the family exists
    to demonstrate.
    """
    n = _json_int(n, "n")
    if n < 5:
        raise ValidationError("family needs n >= 5")
    if not 0 <= eps < 1:
        raise ValidationError("eps must lie in [0, 1)")
    chain = n - 3  # unit edges along the base
    j = chain // 2
    width = max(2, len(str(chain)))
    base = [f"b{i:0{width}d}" for i in range(chain + 1)]
    pts = tuple(base + ["u", "v"])

    def build(split_weight: float, pendant_weight: float) -> MetricSpace:
        w = np.full((n, n), np.inf)
        np.fill_diagonal(w, 0.0)
        idx = {p: i for i, p in enumerate(pts)}

        def edge(a, b, weight):
            w[idx[a], idx[b]] = weight
            w[idx[b], idx[a]] = weight

        for i in range(chain):
            edge(base[i], base[i + 1], 1.0)
        edge(base[j], base[j + 1], split_weight)
        edge("u", base[j], 1.0)
        edge("u", "v", 1.0)
        edge("v", base[j + 1], pendant_weight)
        return MetricSpace(pts, dist=shortest_path_closure(w), validate=False)

    return build(1.0, 1.0 + eps), build(1.0 + eps, 1.0)
