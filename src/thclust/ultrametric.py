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
from dataclasses import dataclass

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
    tree = _spanning_tree(range(n), np.minimum(m, m.T))
    if _certifies(m, _heights(n, _merges(range(n), *tree)), TOL):
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


def _spanning_tree(points, matrix: np.ndarray):
    """Minimum spanning tree of the complete graph weighted by ``matrix``.

    Edges are ranked by (weight, smaller id, larger id): a strict total
    order, so the minimum spanning tree is unique and equal-weight ties go
    to the lexicographically first pair of endpoint ids. ``points`` holds
    the ids, which serve only as sort keys.

    The tree is grown by Prim's algorithm over a dense array in O(n^2)
    (Müllner, 2011) from the smallest id, with vertices numbered by their
    rank in id order. Each vertex outside the tree keeps its lightest edge
    into the tree, ``best`` and ``src``, and the next vertex joins along the
    lightest of those. Two candidate edges into the same vertex x share the
    endpoint x, so their (smaller, larger) rank pairs compare as their other
    endpoints do: a candidate replaces ``src[x]`` when it is lighter, or as
    heavy with a smaller tree endpoint. Among the vertices tied at the
    lightest weight, the smallest rank pair wins. Every step thus adds the
    lightest edge across the cut in the total order, which belongs to the
    unique tree (cut property), so the edge set is exactly Kruskal's.

    Returns point-index arrays ``(parent, child, weight)`` in join order:
    edge t joins ``child[t]`` to ``parent[t]``, which is the root or an
    earlier child. ``matrix`` must be exactly symmetric, because an edge is
    compared, and returned, as read from the row of its parent; the callers
    pass ``space.dist``, ``min(m, m.T)`` and fitted heights, all symmetric.
    Infinite weights are ordinary edges, so tree membership is a mask, not
    a sentinel weight.
    """
    n = len(points)
    order = np.array(sorted(range(n), key=points.__getitem__), dtype=np.intp)
    if n < 2:
        return order[:0], order[:0], np.zeros(0)
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
    parent = src[joined]
    return order[parent], order[joined], w[parent, joined]


def minimum_spanning_edges(space: MetricSpace):
    """The unique minimum spanning tree of the distance graph, equal-weight
    ties broken by the lexicographic pair of endpoint ids, as the join-order
    point-index arrays ``(parent, child, weight)`` of :func:`_spanning_tree`."""
    return _spanning_tree(space.points, space.dist)


def _merges(points, parent, child, weight) -> list[tuple[float, int, int]]:
    """Canonical merge list of the single linkage over spanning-tree edges,
    leaf x being node x and merge t node n + t.

    Edges are taken in groups of exactly equal weight. Within a group, the
    clusters its edges link are chained together into one merge event; each
    event becomes successive binary merges joining its clusters smallest
    leaf id first, and events run in order of their smallest leaf id. The
    ids in ``points`` serve only as those sort keys.
    """
    up = list(range(len(points)))
    node = list(range(len(points)))
    merges: list[tuple[float, int, int]] = []

    def find(x: int) -> int:
        while up[x] != x:
            up[x] = up[up[x]]  # path halving
            x = up[x]
        return x

    # Each cluster's root is its smallest id and ``node[root]`` its node. A
    # group reads the roots its edges link before uniting them, so each
    # event's root is its smallest id, which is its first cluster's root.
    ranked = np.argsort(weight, kind="stable")
    edges = zip(weight[ranked].tolist(), parent[ranked].tolist(), child[ranked].tolist())
    for h, group in itertools.groupby(edges, key=lambda e: e[0]):
        linked = [(find(a), find(b)) for _, a, b in group]
        for a, b in linked:
            a, b = sorted((find(a), find(b)), key=points.__getitem__)
            up[b] = a
        events: dict[int, list[int]] = {}
        for root in {x for pair in linked for x in pair}:
            events.setdefault(find(root), []).append(root)
        for first in sorted(events, key=points.__getitem__):
            for nxt in sorted(events[first], key=points.__getitem__)[1:]:
                merges.append((h, node[first], node[nxt]))
                node[first] = len(points) + len(merges) - 1
    return merges


def _layout(n: int, merges):
    """Dendrogram leaf order as runs of slots: (start, size).

    ``merges`` are (height, a, b) over nodes: leaf x is node x and merge t
    is node n + t. Node x covers slots ``start[x]`` up to ``start[x] +
    size[x]``, its left child's run before its right child's. The merges
    must span the n leaves, as a :class:`Dendrogram`'s do. A merge comes
    after its children, so walking down from the root (the last node)
    places every node before its children.
    """
    size = [1] * n
    for _, a, b in merges:
        size.append(size[a] + size[b])
    start = [0] * len(size)
    for t in range(len(merges) - 1, -1, -1):
        _, a, b = merges[t]
        start[a], start[b] = start[n + t], start[n + t] + size[a]
    return start, size


def _heights(n: int, merges) -> np.ndarray:
    """Replay node-numbered merges (see :func:`_layout`) into a height
    matrix: the height of two leaves' first shared merge becomes their
    entry.

    In the slots of :func:`_layout` every cluster is a run, so a merge
    writes two rectangles of slices; one permutation then returns the
    matrix to leaf order.
    """
    start, size = _layout(n, merges)
    slots = np.zeros((n, n))
    for h, a, b in merges:
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
    mu = _heights(len(pts), _merges(pts, *minimum_spanning_edges(space)))
    return PseudoUltrametric(pts, mu, validate=False)


@dataclass(frozen=True)
class FkwFit:
    """The exact nearest ultrametric, the half subdominant error ``shift``
    taken off its heights, and ``clamped_pairs``, the number of pairs whose
    height was clamped at zero."""

    ultrametric: PseudoUltrametric
    shift: float
    clamped_pairs: int


def fkw_fit(space: MetricSpace) -> FkwFit:
    """Run the three-step cut-weight procedure.

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
    parent, child, weight = minimum_spanning_edges(space)
    musub = _heights(n, _merges(pts, parent, child, weight))
    shift = float(np.abs(space.dist - musub).max()) / 2.0

    # Every parent joined the tree before its child, so walking the join
    # order backwards completes each subtree before its parent's.
    subtree = np.eye(n, dtype=bool)
    for p, c in zip(parent[::-1].tolist(), child[::-1].tolist()):
        subtree[p] |= subtree[c]

    priorities = []
    for c, w in zip(child.tolist(), weight.tolist()):
        eligible = musub[c] <= w  # ball that makes the edge the bottleneck
        left = eligible & subtree[c]
        right = eligible & ~subtree[c]
        priorities.append(float(space.dist[np.ix_(left, right)].max()))

    raw = _heights(n, _merges(pts, parent, child, np.array(priorities))) - shift
    clamped = np.argwhere(np.triu(raw < 0, 1))
    if len(clamped):
        log.info(
            "clamped %d negative heights at zero (first pair: %s, %s)",
            len(clamped), pts[clamped[0][0]], pts[clamped[0][1]],
        )
    mu = np.maximum(raw, 0.0)
    np.fill_diagonal(mu, 0.0)
    return FkwFit(PseudoUltrametric(pts, mu, validate=False), shift, len(clamped))


@dataclass(frozen=True)
class Dendrogram:
    """Merge tree of an ultrametric.

    ``merges`` lists (height, left, right); each side is a leaf id (str) or
    the index of an earlier merge (int). Tied heights are stored as
    successive binary merges, smallest leaf id first, so there are always
    ``len(leaves) - 1`` merges. The merges are the single linkage over a
    spanning tree of the heights (see :func:`to_dendrogram`), and
    :meth:`to_ultrametric` replays them back into the height matrix.

    This class alone owns that reference format. The rest of the module
    numbers nodes instead, leaf ``leaves[x]`` as node x and merge t as node
    n + t; :meth:`node_merges` is the one decoder, used by
    :meth:`to_ultrametric` and the CLI's drawing, and :func:`to_dendrogram`
    encodes the merges it builds.

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

    def node_merges(self) -> tuple[tuple[float, int, int], ...]:
        """The merges (height, a, b) with node numbers for references."""
        n = len(self.leaves)
        index = {p: x for x, p in enumerate(self.leaves)}
        return tuple((h, *(index[ref] if isinstance(ref, str) else n + ref for ref in refs))
                     for h, *refs in self.merges)

    def to_ultrametric(self) -> PseudoUltrametric:
        """Replay the merges, unchecked (see the class docstring); the height
        of two leaves' first shared merge becomes their ultrametric value."""
        return PseudoUltrametric(self.leaves, _heights(len(self.leaves), self.node_merges()),
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
    n = len(pts)
    merges = _merges(pts, *_spanning_tree(pts, ultrametric.mu))
    return Dendrogram(pts, tuple((h, *(pts[x] if x < n else x - n for x in (a, b)))
                                 for h, a, b in merges))


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
    # The (n, n) float matrices must have a byte size numpy can hold.
    if n > math.isqrt(np.iinfo(np.intp).max // np.dtype(float).itemsize):
        raise ValidationError(f"n {n} is beyond numpy's array size")
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
