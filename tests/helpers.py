"""Shared generators and independent oracles used across the test modules.

The oracles here deliberately take the slow, enumerative route: simple paths
instead of spanning trees, subset scans instead of flow arithmetic. They are
the reference answers the fast implementations get compared against.
"""

from __future__ import annotations

import functools
import itertools
import logging
from collections import deque
from dataclasses import dataclass
from unittest import mock

import numpy as np

from thclust import (
    COLORS,
    Correspondence,
    Dendrogram,
    Graph,
    Labeling,
    MetricSpace,
    PseudoUltrametric,
    TOL,
    TemporalSampling,
    ValidationError,
    Witness,
    instability_family,
    run_detailed,
    shortest_path_closure,
    verify_witness,
)
from thclust.flocking import TYPE_COUNT, SimConfig, initial_state
from thclust.labeling import ContiguityViolation, IntegralFlow

log = logging.getLogger(__name__)


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


def grid_space(rng, n):
    """Integer distances in {2, 3, 4}: every triangle holds and ties abound."""
    m = rng.integers(2, 5, size=(n, n)).astype(float)
    m = np.maximum(m, m.T)
    np.fill_diagonal(m, 0.0)
    ids = [f"g{(7 * i) % n:02d}_{i}" for i in range(n)]  # id order differs from index order
    return MetricSpace(ids, dist=m)


def equal_space(n):
    return MetricSpace([f"e{i}" for i in range(n)], dist=1.0 - np.eye(n))


def differential_spaces():
    """The fixed space set of the differential tests: random, integer-tie and
    all-equal spaces at n = 1 to 13, and the ``instability_family`` pairs."""
    rng = np.random.default_rng(31)
    for n in range(1, 14):
        for _ in range(4):
            yield random_space(rng, n)
            yield grid_space(rng, n)
        yield equal_space(n)
    for n in (5, 8, 12, 21):
        for eps in (0.0, 0.1, 0.5):
            yield from instability_family(n, eps)


def perturb(space: MetricSpace, eps: float, seed: int) -> MetricSpace:
    """Random symmetric perturbation staying within ``eps`` in the max norm.

    Offsets are drawn i.i.d. uniform in [-eps, eps], one per unordered pair,
    added to the distances, clamped at zero, and repaired to a pseudometric by
    shortest-path closure. The closure of a perturbed matrix can drift more
    than ``eps`` below the original (short detours compound), so the offsets
    are halved until the repaired matrix stays within ``eps``; the procedure
    is deterministic per seed and always terminates because zero offsets
    reproduce the input exactly.
    """
    if not 0 <= eps < np.inf:  # NaN fails too
        raise ValidationError(f"eps must be a finite nonnegative number, got {eps!r}")
    if eps > 0:
        n = len(space.points)
        rng = np.random.default_rng(seed)
        off = rng.uniform(-eps, eps, size=(n, n))
        off = np.triu(off, 1)
        off = off + off.T
        scale = 1.0
        for _ in range(80):
            cand = np.maximum(space.dist + scale * off, 0.0)
            np.fill_diagonal(cand, 0.0)
            repaired = shortest_path_closure(cand)
            if np.abs(repaired - space.dist).max() <= eps:
                mask = ~np.eye(n, dtype=bool)
                pseudo = space.pseudo or bool(n > 1 and repaired[mask].min() <= TOL)
                return MetricSpace(space.points, dist=repaired, pseudo=pseudo, validate=False)
            scale *= 0.5
    return MetricSpace(
        space.points, dist=space.dist, coords=space.coords,
        pseudo=space.pseudo, validate=False,
    )


def random_sampling(rng, ambient_size=8, min_levels=1, max_levels=4, max_level_size=5):
    ambient = cloud_space(rng, ambient_size, dim=2, side=20.0, prefix="q")
    t = int(rng.integers(min_levels, max_levels + 1))
    levels = []
    for _ in range(t):
        k = int(rng.integers(1, min(max_level_size, ambient_size) + 1))
        pick = sorted(rng.choice(ambient_size, size=k, replace=False).tolist())
        levels.append([ambient.points[i] for i in pick])
    return TemporalSampling(ambient, levels)


def shuffled_levels(rng, sampling):
    """``sampling`` with every level listed in a random order, so that level
    order is no longer id order."""
    return TemporalSampling(sampling.ambient, [
        [level[j] for j in rng.permutation(len(level))] for level in sampling.levels
    ])


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


def reference_check_triangle(space: MetricSpace, dist) -> None:
    """The hub-by-hub triangle check that the blocked scan in
    ``MetricSpace._check_triangle`` replaced: one n x n slack matrix per hub,
    raising on the first hub with a slack above ``TOL``."""
    # One hub at a time keeps memory linear in n^2; every hub reuses
    # one buffer for its slack.
    slack = np.empty_like(dist)
    for k in range(len(space.points)):
        np.add(dist[:, k : k + 1], dist[k : k + 1, :], out=slack)
        np.subtract(dist, slack, out=slack)
        if slack.max() > TOL:
            i, j = np.unravel_index(int(slack.argmax()), slack.shape)
            raise ValidationError(
                "triangle inequality violated for "
                f"({space.points[i]!r}, {space.points[j]!r}) via {space.points[k]!r}"
            )


def reference_space_outcome(points, dist, **kwargs):
    """``outcome(MetricSpace, points, dist=dist, ...)`` with
    :func:`reference_check_triangle` as the triangle check."""
    with mock.patch.object(MetricSpace, "_check_triangle", reference_check_triangle):
        return outcome(MetricSpace, points, dist=dist, **kwargs)


# ---------------------------------------------------------------- ultrametric oracles
#
# The tuple-sort Kruskal, the tree-replay bottleneck matrix, both fitters
# built on them, the dense per-height dendrogram scan, the full triple scan,
# the per-merge ``np.ix_`` height replay and the union-find cut that the
# spanning-tree routines, the slice replay and the component search in
# ``thclust.ultrametric`` replaced, and the recursive leaf-order walk that
# ``thclust.cli._dendrogram_layout`` replaced. The fast code must return the
# same edges, heights, merges, verdicts, blocks and drawings.


def reference_validate_ultrametric(mu, points=None, tol: float = TOL):
    """Check the strong triangle inequality, returning the first bad triple.

    Returns ``(True, None)`` when every triple satisfies
    ``mu[i][k] <= max(mu[i][j], mu[j][k])`` within ``tol``, else
    ``(False, (i, j, k))`` for the first violating triple in scan order.
    Malformed input (non-square, asymmetric, negative, nonzero diagonal)
    raises :class:`ValidationError` instead of returning False.
    """
    m = np.array(mu, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("ultrametric matrix must be square")
    n = m.shape[0]
    if points is None:
        names = tuple(range(n))
    else:
        names = tuple(points)
        if len(names) != n:
            raise ValidationError("points do not match matrix size")
    if not np.isfinite(m).all():
        raise ValidationError("ultrametric values must be finite")
    if m.size and m.min() < -tol:
        raise ValidationError("negative ultrametric value")
    if np.abs(m - m.T).max() > tol:
        raise ValidationError("ultrametric matrix must be symmetric")
    if n and np.abs(np.diagonal(m)).max() > tol:
        raise ValidationError("ultrametric diagonal must be zero")
    for i in range(n):
        # max(mu[i][j], mu[j][k]) for all j,k at once; rows j, columns k.
        bound = np.maximum(m[i][:, None], m)
        bad = m[i][None, :] > bound + tol
        if bad.any():
            j, k = np.unravel_index(int(bad.argmax()), bad.shape)
            return False, (names[i], names[j], names[k])
    return True, None


def outcome(fn, *args, **kwargs):
    """What ``fn`` does with the arguments: its return value, or the text
    of the :class:`ValidationError` it raises."""
    try:
        return fn(*args, **kwargs)
    except ValidationError as exc:
        return f"ValidationError: {exc}"


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


def reference_spanning_tree(points: tuple[str, ...], matrix) -> tuple:
    """Kruskal's algorithm on the complete graph weighted by ``matrix``.

    Candidate pairs are sorted as (weight, smaller id, larger id) tuples and
    each weight is read at (smaller id, larger id), so equal-weight ties are
    broken by the lexicographic pair of endpoint ids and the returned tree
    is unique. Edges (u, v, weight) with u < v come in selection order.
    """
    n = len(points)
    order = sorted(range(n), key=lambda i: points[i])
    candidates = []
    for a in range(n):
        for b in range(a + 1, n):
            i, j = order[a], order[b]
            candidates.append((float(matrix[i, j]), points[i], points[j], i, j))
    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    uf = _UnionFind(n)
    edges = []
    for w, u, v, i, j in candidates:
        if uf.union(i, j):
            edges.append((u, v, w))
            if len(edges) == n - 1:
                break
    return tuple(edges)


def tree_edges(points, parent, child, weight) -> tuple[tuple[str, str, float], ...]:
    """The id view of a spanning tree given as point-index arrays (see
    :func:`thclust.minimum_spanning_edges`): edges (u, v, weight) with
    u < v, in Kruskal's selection order, as :func:`reference_spanning_tree`
    lists them."""
    cols = zip(parent.tolist(), child.tolist(), weight.tolist())
    ranked = sorted((w, *sorted((points[a], points[b]))) for a, b, w in cols)
    return tuple((u, v, w) for w, u, v in ranked)


@dataclass(frozen=True)
class ReferenceTree:
    """A spanning tree as the Kruskal oracle gives it, by its id view
    ``edges`` (see :func:`tree_edges`)."""

    points: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]


def reference_minimum_spanning_edges(space: MetricSpace) -> ReferenceTree:
    """The Kruskal tree of the distance graph (:func:`reference_spanning_tree`)."""
    return ReferenceTree(space.points, reference_spanning_tree(space.points, space.dist))


def reference_path_max_matrix(points: tuple[str, ...], edges) -> np.ndarray:
    """Bottleneck matrix of a spanning tree: entry (x, y) is the maximum
    edge weight on the tree path from x to y. Single linkage over the tree
    edges in ascending order."""
    n = len(points)
    index = {p: i for i, p in enumerate(points)}
    out = np.zeros((n, n))
    uf = _UnionFind(n)
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    for u, v, w in sorted(edges, key=lambda e: (e[2], e[0], e[1])):
        i, j = index[u], index[v]
        ri, rj = uf.find(i), uf.find(j)
        if ri == rj:
            raise ValidationError("edges contain a cycle")
        a, b = members.pop(ri), members.pop(rj)
        out[np.ix_(a, b)] = w
        out[np.ix_(b, a)] = w
        uf.union(ri, rj)
        members[uf.find(ri)] = a + b
    if len(members) != 1:
        raise ValidationError("edges do not span the point set")
    return out


def reference_subdominant_ultrametric(space: MetricSpace) -> PseudoUltrametric:
    """Largest ultrametric dominated by the given distances.

    Heights are bottleneck weights over the minimum spanning tree, which is
    single linkage in fitting terms. The output never exceeds the input
    entrywise and is the unique max-norm-closest such ultrametric.
    """
    if len(space) == 1:
        return PseudoUltrametric(space.points, np.zeros((1, 1)), validate=False)
    tree = reference_minimum_spanning_edges(space)
    mu = reference_path_max_matrix(space.points, tree.edges)
    return PseudoUltrametric(space.points, mu, validate=False)


@dataclass(frozen=True)
class ReferenceFkwFit:
    """The reference cut-weight fit with the steps it took on the way: the
    subdominant ultrametric and its max-norm error, the Kruskal tree, and
    each tree edge's priority, listed in the tree's edge order."""

    ultrametric: PseudoUltrametric
    subdominant: PseudoUltrametric
    subdominant_error: float
    shift: float
    mst: ReferenceTree
    priorities: tuple[float, ...]
    clamped_pairs: tuple[tuple[str, str], ...]


def reference_fkw_fit(space: MetricSpace) -> ReferenceFkwFit:
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
    if n == 1:
        trivial = PseudoUltrametric(pts, np.zeros((1, 1)), validate=False)
        return ReferenceFkwFit(trivial, trivial, 0.0, 0.0, ReferenceTree(pts, ()), (), ())

    tree = reference_minimum_spanning_edges(space)
    musub = reference_path_max_matrix(pts, tree.edges)
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
    raw = reference_path_max_matrix(pts, reweighted) - shift
    clamped = np.argwhere(np.triu(raw < 0, 1))
    if len(clamped):
        log.info(
            "clamped %d negative heights at zero (first pair: %s, %s)",
            len(clamped), pts[clamped[0][0]], pts[clamped[0][1]],
        )
    mu = np.maximum(raw, 0.0)
    np.fill_diagonal(mu, 0.0)
    return ReferenceFkwFit(
        ultrametric=PseudoUltrametric(pts, mu, validate=False),
        subdominant=PseudoUltrametric(pts, musub, validate=False),
        subdominant_error=err,
        shift=shift,
        mst=tree,
        priorities=tuple(priorities),
        clamped_pairs=tuple((pts[i], pts[j]) for i, j in clamped),
    )


def reference_to_dendrogram(ultrametric: PseudoUltrametric) -> Dendrogram:
    """Canonical merge tree of an ultrametric.

    Merge events are emitted in ascending height; a multiway event becomes
    successive binary merges joining its groups smallest leaf id first.
    """
    ok, triple = reference_validate_ultrametric(ultrametric.mu, points=ultrametric.points)
    if not ok:
        raise ValidationError(
            "strong triangle inequality fails at "
            f"({triple[0]!r}, {triple[1]!r}, {triple[2]!r})"
        )
    pts = ultrametric.points
    n = len(pts)
    mu = ultrametric.mu
    uf = _UnionFind(n)
    node_ref: dict[int, int | str] = {i: pts[i] for i in range(n)}
    min_leaf: dict[int, str] = {i: pts[i] for i in range(n)}
    merges: list[tuple[float, int | str, int | str]] = []
    iu, ju = np.triu_indices(n, 1)
    heights = sorted(set(mu[iu, ju].tolist()))
    for h in heights:
        pairs = np.argwhere(np.triu(mu == h, 1))
        # Components linked at this height may chain through several pairs;
        # group by transitive closure over the pair roots.
        chain = _UnionFind(n)
        for i, j in pairs:
            chain.union(uf.find(int(i)), uf.find(int(j)))
        merged: dict[int, list[int]] = {}
        for root in set(uf.find(i) for i in range(n)):
            merged.setdefault(chain.find(root), []).append(root)
        events = [sorted(roots, key=lambda r: min_leaf[r])
                  for roots in merged.values() if len(roots) > 1]
        for roots in sorted(events, key=lambda rs: min_leaf[rs[0]]):
            acc = roots[0]
            for nxt in roots[1:]:
                merges.append((h, node_ref[acc], node_ref[nxt]))
                uf.union(acc, nxt)
                new_root = uf.find(acc)
                node_ref[new_root] = len(merges) - 1
                min_leaf[new_root] = min(min_leaf[acc], min_leaf[nxt])
                acc = new_root
    return Dendrogram(leaves=pts, merges=tuple(merges))


def reference_heights(leaves: tuple[str, ...], merges) -> np.ndarray:
    """Replay merges into a height matrix: the height of two leaves' first
    shared merge becomes their entry."""
    n = len(leaves)
    index = {p: i for i, p in enumerate(leaves)}
    mu = np.zeros((n, n))
    clusters: list[list[int]] = []
    for h, a, b in merges:
        left = [index[a]] if isinstance(a, str) else clusters[a]
        right = [index[b]] if isinstance(b, str) else clusters[b]
        mu[np.ix_(left, right)] = h
        mu[np.ix_(right, left)] = h
        clusters.append(left + right)
    return mu


def reference_dendrogram_layout(dendrogram: Dendrogram):
    """Leaf order and node coordinates for drawing: (leaf order, segments),
    the leaf order found by a recursive walk from the roots.

    Segments are (x1, h1, x2, h2) in leaf-slot and height units.
    """
    children: dict[int | str, tuple] = {}
    for idx, (h, a, b) in enumerate(dendrogram.merges):
        children[idx] = (h, a, b)

    roots = set(dendrogram.leaves) | set(range(len(dendrogram.merges)))
    for h, a, b in dendrogram.merges:
        roots.discard(a)
        roots.discard(b)

    order: list[str] = []

    def walk(ref) -> None:
        if isinstance(ref, str):
            order.append(ref)
        else:
            _, a, b = children[ref]
            walk(a)
            walk(b)

    for root in sorted(roots, key=lambda r: (isinstance(r, str), str(r))):
        walk(root)

    xs: dict[int | str, float] = {}
    hs: dict[int | str, float] = {}
    for slot, leaf in enumerate(order):
        xs[leaf] = float(slot)
        hs[leaf] = 0.0
    segments = []
    for idx, (h, a, b) in enumerate(dendrogram.merges):
        segments.append((xs[a], hs[a], xs[a], h))
        segments.append((xs[b], hs[b], xs[b], h))
        segments.append((xs[a], h, xs[b], h))
        xs[idx] = (xs[a] + xs[b]) / 2.0
        hs[idx] = h
    return order, segments


def reference_cut_at_height(ultrametric: PseudoUltrametric, r: float) -> list[list[str]]:
    """Partition the points into the equivalence classes of ``mu <= r``.

    Blocks come back with sorted member ids, ordered by their first member.
    """
    if not r >= 0:
        raise ValidationError(f"cut height must be a nonnegative number, got {r!r}")
    pts = ultrametric.points
    n = len(pts)
    uf = _UnionFind(n)
    close = np.argwhere(np.triu(ultrametric.mu <= r + TOL, 1))
    for i, j in close:
        uf.union(int(i), int(j))
    blocks: dict[int, list[str]] = {}
    for i in range(n):
        blocks.setdefault(uf.find(i), []).append(pts[i])
    return sorted((sorted(b) for b in blocks.values()), key=lambda b: b[0])


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


def reference_locality(corr: Correspondence, ambient: MetricSpace) -> float:
    """The pair-by-pair locality over id pairs that the fancy-index max in
    ``thclust.temporal.locality`` replaced."""
    return max(ambient.distance(u, v) for u, v in corr.pairs)


def reference_distortion(u1: PseudoUltrametric, u2: PseudoUltrametric,
                         corr: Correspondence) -> float:
    """The K x K block distortion that the grouped reductions
    (:func:`grouped_distortion`) replaced: both height blocks over every
    ordered pair of correspondence elements, compared entry by entry.

    Maximized over ordered pairs of correspondence elements, including pairs
    that share a point on either side. The pairs are read as ids.
    """
    i1 = [u1.index_of(u) for u, _ in corr.pairs]
    i2 = [u2.index_of(v) for _, v in corr.pairs]
    a = u1.mu[np.ix_(i1, i1)]
    b = u2.mu[np.ix_(i2, i2)]
    return float(np.abs(a - b).max())


def grouped_distortion(u1: PseudoUltrametric, u2: PseudoUltrametric,
                       corr: Correspondence) -> float:
    """The grouped reductions that the ultrametric diameter identity in
    ``thclust.temporal.distortion`` replaced: exact on any heights.

    The pairs are sorted by index, so each first-side point a owns one run
    of partners N(a). Over N(a) x N(a') the worst disagreement with
    ``m = mu1[a, a']`` is ``max(Hi - m, m - Lo)``, Hi and Lo being the max
    and min of ``mu2`` there, taken by two grouped reductions: over the rows
    of ``mu2[b]`` (K x |Q|) and then over the columns picked by ``b``
    (|P| x K), with ``b`` the partners in pair order.
    """
    left, b = corr.left, corr.right
    starts = np.flatnonzero(np.r_[True, left[1:] != left[:-1]])
    rows = u2.mu[b]
    hi = np.maximum.reduceat(np.maximum.reduceat(rows, starts, axis=0)[:, b],
                             starts, axis=1)
    lo = np.minimum.reduceat(np.minimum.reduceat(rows, starts, axis=0)[:, b],
                             starts, axis=1)
    a = left[starts]
    m = u1.mu[np.ix_(a, a)]
    return float(np.maximum(hi - m, m - lo).max())


# ---------------------------------------------------------------- labeling oracles


def reference_paths_to_labelings(paths) -> list[dict[str, frozenset[int]]]:
    """The per-point dict builder that ``thclust.labeling.paths_to_labelings``
    replaced: paths sorted and numbered 1..k, and at each level a point's
    label set is every path that runs through it."""
    ordered = sorted(paths)
    out = []
    for level in range(len(ordered[0])):
        assignment: dict[str, set[int]] = {}
        for j, path in enumerate(ordered, start=1):
            assignment.setdefault(path[level], set()).add(j)
        out.append({p: frozenset(s) for p, s in assignment.items()})
    return out



def reference_check_contiguity(l1: Labeling, l2: Labeling, delta: float,
                               ambient: MetricSpace):
    """The ball-by-ball contiguity check that the label-holder test in
    ``thclust.labeling.check_contiguity`` replaced: for each point, the union
    of the labels inside its closed delta-ball on the other level.

    Condition 1: each point's labels in the first level reappear among the
    second level's points inside its closed delta-ball. Condition 2 is the
    mirror image. Returns (True, None) or (False, first violation).
    """
    slack = delta + TOL

    def covered(src: Labeling, dst: Labeling, condition: int):
        for point in sorted(src.labels):
            nearby: set[int] = set()
            for other in dst.labels:
                if ambient.distance(point, other) <= slack:
                    nearby |= dst.labels[other]
            missing = src.labels[point] - nearby
            if missing:
                return ContiguityViolation(
                    condition=condition, point=point, label=min(missing)
                )
        return None

    violation = covered(l1, l2, 1) or covered(l2, l1, 2)
    return (violation is None), violation


# ---------------------------------------------------------------- flow oracle


SOURCE, SINK = ("source",), ("sink",)


def point_node(level, point):
    return ("point", level, point)


def reference_flow_edges(sampling, correspondences):
    """The tuple-keyed edge list that ``build_flow_instance`` built from id
    pairs before flow nodes were numbered, in sorted order."""
    edges = [(SOURCE, point_node(0, p)) for p in sampling.levels[0]]
    for i, corr in enumerate(correspondences):
        edges += [(point_node(i, u), point_node(i + 1, v)) for u, v in corr.pairs]
    last = sampling.t - 1
    edges += [(point_node(last, p), SINK) for p in sampling.levels[last]]
    return tuple(sorted(edges))


def tuple_nodes(network):
    """The tuple key of each node of a ``FlowNetwork``, indexed by node id."""
    return [point_node(i, p) for i, level in enumerate(network.levels)
            for p in sorted(level)] + [SOURCE, SINK]


def tuple_edges(network):
    nodes = tuple_nodes(network)
    return tuple((nodes[a], nodes[b]) for a, b in network.edges.tolist())


def _enumerate_paths(network):
    edge_set = set(tuple_edges(network))
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
    edges = tuple_edges(network)
    point_nodes = tuple_nodes(network)[:n]

    def inner(node: tuple) -> tuple:
        return node if node in (SOURCE, SINK) else ("in",) + node

    def outer(node: tuple) -> tuple:
        return node if node in (SOURCE, SINK) else ("out",) + node

    for a, b in edges:
        graph.add_edge(outer(a), inner(b), cap)
    # Node split carries the lower bound: cap - 1 here, 1 restored later.
    for node in point_nodes:
        graph.add_edge(inner(node), outer(node), cap - 1)
    excess: dict[tuple, int] = {}
    for node in point_nodes:
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

    # residual backward cap equals the flow
    flow = [graph.cap[inner(b)][outer(a)] for a, b in edges]
    value = circulating - returned
    result = IntegralFlow(network=network, flow=flow, value=value)
    if value > n:
        raise RuntimeError(f"minimum flow value {value} exceeds point count {n}")
    return result


def reference_decompose_paths(flow):
    """Unit paths of a flow, found on tuple keys: the ``decompose_paths``
    that each step rescanned a node's edges from the first.

    Extraction is greedy along the lexicographically smallest positive-flow
    edge, which makes the decomposition, and hence the labels, reproducible.
    Paths are returned as per-level point ids.
    """
    edges = tuple_edges(flow.network)
    remaining = {edge: amount for edge, amount in zip(edges, flow.flow) if amount > 0}
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


# ---------------------------------------------------------------- flocking


def run(cfg: SimConfig) -> TemporalSampling:
    """Simulate and return only the sampling of :func:`thclust.run_detailed`."""
    return run_detailed(cfg)[0]


@dataclass(eq=False)
class Actor:
    """One actor of the list state that the oracle step advances."""

    ident: str
    kind: int
    position: np.ndarray
    velocity: np.ndarray


def _serial(ident: str) -> int:
    return int(ident[1:]) if ident[1:].isdigit() else -1


def actors_from_state(state) -> list[Actor]:
    """The ``Actor`` list of an array state ``(idents, serials, kinds, pos,
    vel)``, with copied rows."""
    idents, _, kinds, pos, vel = state
    return [Actor(ident, kind, p.copy(), v.copy())
            for ident, kind, p, v in zip(idents, kinds.tolist(), pos, vel)]


def state_from_actors(actors: list[Actor]):
    """The array state of an ident-ordered ``Actor`` list; each serial is
    read from its ident, -1 unless the ident is ``a`` and digits."""
    n = len(actors)
    return (
        [a.ident for a in actors],
        np.array([_serial(a.ident) for a in actors], dtype=np.int64),
        np.array([a.kind for a in actors], dtype=np.int64),
        np.array([a.position for a in actors], dtype=float).reshape(n, 2),
        np.array([a.velocity for a in actors], dtype=float).reshape(n, 2),
    )


def reference_step(state: list[Actor], cfg: SimConfig, rng: np.random.Generator) -> list[Actor]:
    """The actor-list step that the array tick replaced, kept as its oracle.

    Advance one tick: forces, clamp, move, reflect, then interactions.

    Interactions are resolved on post-move positions, pair by pair in ident
    order; an actor deleted earlier in the tick takes part in nothing else.
    Only the interaction stage draws from ``rng``.
    """
    actors = sorted(state, key=lambda a: a.ident)
    n = len(actors)
    pos = np.array([a.position for a in actors], dtype=float)
    vel = np.array([a.velocity for a in actors], dtype=float)
    kinds = np.array([a.kind for a in actors])
    force = np.zeros_like(pos)

    diff = pos[None, :, :] - pos[:, None, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    np.fill_diagonal(dist, np.inf)
    same = kinds[:, None] == kinds[None, :]

    if cfg.clump_weight:
        mask = same & (dist <= cfg.clump_radius)
        counts = mask.sum(axis=1)
        has = counts > 0
        if has.any():
            centroid = (mask[:, :, None] * pos[None, :, :]).sum(axis=1)
            centroid[has] /= counts[has, None]
            force[has] += cfg.clump_weight * (centroid[has] - pos[has])
    if cfg.avoid_weight:
        mask = dist <= cfg.avoid_radius
        if mask.any():
            push = -diff / np.maximum(dist, 1e-9)[:, :, None] ** 2
            force += cfg.avoid_weight * (mask[:, :, None] * push).sum(axis=1)
    if cfg.school_weight:
        for kind in range(TYPE_COUNT):
            members = kinds == kind
            if members.any():
                mean_vel = vel[members].mean(axis=0)
                force[members] += cfg.school_weight * (mean_vel - vel[members])
    margin = 0.05 * cfg.arena_side
    low = pos < margin
    force += np.where(low, cfg.wall_force * (margin - pos) / margin, 0.0)
    high = pos > cfg.arena_side - margin
    force -= np.where(
        high, cfg.wall_force * (pos - (cfg.arena_side - margin)) / margin, 0.0
    )

    vel = vel + force * cfg.dt
    speed = np.sqrt((vel**2).sum(axis=1))
    over = speed > cfg.max_speed
    if over.any():
        vel[over] *= (cfg.max_speed / speed[over])[:, None]
    pos = pos + vel * cfg.dt
    for _ in range(2):  # one bounce is enough at sane speeds; twice for safety
        under = pos < 0
        pos[under] = -pos[under]
        vel[under] = np.abs(vel[under])
        above = pos > cfg.arena_side
        pos[above] = 2 * cfg.arena_side - pos[above]
        vel[above] = -np.abs(vel[above])
    pos = np.clip(pos, 0.0, cfg.arena_side)

    dead: set[int] = set()
    spawned: list[Actor] = []
    next_serial = max((_serial(a.ident) for a in actors), default=-1) + 1
    gap = pos[None, :, :] - pos[:, None, :]
    near = np.sqrt((gap**2).sum(axis=-1))
    np.fill_diagonal(near, np.inf)
    for i, j in np.argwhere(np.triu(near <= cfg.interact_radius, 1)):
        i, j = int(i), int(j)
        if i in dead or j in dead:
            continue
        if rng.random() >= cfg.interact_prob:
            continue
        if kinds[i] == kinds[j]:
            if rng.random() < cfg.spawn_prob:
                spawned.append(Actor(
                    ident=f"a{next_serial:05d}",
                    kind=int(rng.integers(TYPE_COUNT)),
                    position=(pos[i] + pos[j]) / 2.0,
                    velocity=(vel[i] + vel[j]) / 2.0,
                ))
                next_serial += 1
        else:
            if rng.random() < cfg.delete_prob:
                dead.add(j)  # idents are sorted, so j is the later one

    survivors = [
        Actor(ident=actors[i].ident, kind=int(kinds[i]),
              position=pos[i].copy(), velocity=vel[i].copy())
        for i in range(n) if i not in dead
    ]
    return sorted(survivors + spawned, key=lambda a: a.ident)


def reference_run_detailed(cfg: SimConfig, on_tick=None):
    """The actor-list run over :func:`reference_step`, kept as an oracle.

    Simulate and snapshot into a TemporalSampling.

    Levels are taken at tick 0 and every ``snapshot_interval`` ticks after.
    Point ids are level-tagged actor ids so the ambient plane can hold every
    snapshot at once; coincident positions across snapshots are legal, so
    the ambient space allows zero distances. Returns the sampling together
    with the per-level actor kind maps (useful for plotting, never fed back
    into the pipeline). ``on_tick(tick, population)`` is invoked after every
    step when given.
    """
    init_seq, interact_seq = np.random.SeedSequence(cfg.seed).spawn(2)
    state = actors_from_state(initial_state(cfg, np.random.default_rng(init_seq)))
    interact_rng = np.random.default_rng(interact_seq)

    snapshots: list[list[Actor]] = [list(state)]
    for tick in range(1, cfg.total_ticks + 1):
        state = reference_step(state, cfg, interact_rng)
        if on_tick is not None:
            on_tick(tick, len(state))
        if tick % cfg.snapshot_interval == 0:
            if not state:
                raise RuntimeError(f"population died out by tick {tick}")
            snapshots.append(list(state))

    point_ids: list[str] = []
    coords: list[np.ndarray] = []
    levels: list[list[str]] = []
    kind_maps: list[dict[str, int]] = []
    for lvl, snap in enumerate(snapshots):
        level_ids = []
        kind_map = {}
        for actor in snap:
            pid = f"t{lvl:03d}_{actor.ident}"
            point_ids.append(pid)
            coords.append(actor.position.copy())
            level_ids.append(pid)
            kind_map[pid] = actor.kind
        levels.append(level_ids)
        kind_maps.append(kind_map)
    ambient = MetricSpace(point_ids, coords=np.array(coords), pseudo=True)
    return TemporalSampling(ambient, levels), kind_maps


# ---------------------------------------------------------------- graphs


def complete_graph(k):
    vs = [f"v{i}" for i in range(k)]
    return Graph(vs, list(itertools.combinations(vs, 2)))


def path_graph(k):
    vs = [f"v{i}" for i in range(k)]
    return Graph(vs, list(zip(vs, vs[1:])))


def cycle_graph(k):
    vs = [f"v{i}" for i in range(k)]
    return Graph(vs, [(vs[i], vs[(i + 1) % k]) for i in range(k)])


def petersen_graph():
    outer = [(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)]
    inner = [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)]
    spokes = [(f"o{i}", f"i{i}") for i in range(5)]
    vs = [f"o{i}" for i in range(5)] + [f"i{i}" for i in range(5)]
    return Graph(vs, outer + inner + spokes)


def random_graph(rng, n, p=0.5):
    vs = [f"v{i}" for i in range(n)]
    edges = [e for e in itertools.combinations(vs, 2) if rng.random() < p]
    return Graph(vs, edges)


def brute_force_3color(graph):
    """First proper 3-coloring in lexicographic order, or None.

    Vertices are tried in sorted order and colors in the fixed r, g, b
    order, so the result is deterministic. Capped at 20 vertices.
    """
    vs = graph.vertices
    if len(vs) > 20:
        raise ValidationError("brute force is capped at 20 vertices")
    adjacency = {v: set() for v in vs}
    for a, b in graph.edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    assignment: dict[str, str] = {}

    def extend(i: int) -> bool:
        if i == len(vs):
            return True
        v = vs[i]
        for color in COLORS:
            if all(assignment.get(nb) != color for nb in adjacency[v]):
                assignment[v] = color
                if extend(i + 1):
                    return True
                del assignment[v]
        return False

    return dict(assignment) if extend(0) else None


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


def color_witness_verifies(inst, vertices, coloring) -> bool:
    """Does the color-class witness of ``coloring`` verify at (1, 0)? An
    assignment whose witness cannot be built does not."""
    try:
        witness = raw_color_witness(vertices, coloring)
    except ValidationError:
        return False
    return verify_witness(inst, witness, 1.0, 0.0)


def raw_color_witness(vertices, coloring):
    """Color-class witness for an arbitrary assignment, properness unchecked.
    An assignment that leaves a color unused cannot pair every anchor, so
    building its relation raises :class:`ValidationError`."""
    n = len(vertices)
    m = np.ones((n, n)) - np.eye(n)
    for a, b in itertools.combinations(range(n), 2):
        if coloring[vertices[a]] == coloring[vertices[b]]:
            m[a, b] = m[b, a] = 0.0
    anchors = PseudoUltrametric(COLORS, 1.0 - np.eye(3))
    classes = PseudoUltrametric(vertices, m)
    pairs = [(coloring[v], v) for v in vertices]
    return Witness(anchors, classes, Correspondence.from_pairs(pairs, COLORS, classes.points))
