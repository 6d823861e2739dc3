"""Property tests for the metric, ultrametric and labeling layers.

Examples are derandomized, so every run checks the same inputs. Integer
coordinates and integer distances make exact ties common, which is where
the merge order, the cut boundaries and the correspondences are easiest to
get wrong.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_min_flow,
    outcome,
    reference_check_contiguity,
    reference_distortion,
    reference_heights,
    reference_space_outcome,
    reference_validate_ultrametric,
    threshold_components,
)
from thclust import (
    TOL,
    Correspondence,
    Dendrogram,
    Labeling,
    MetricSpace,
    PseudoUltrametric,
    TemporalSampling,
    ValidationError,
    build_flow_instance,
    certify,
    check_contiguity,
    cut_at_height,
    distortion,
    fkw_fit,
    linf_distance,
    min_feasible_flow,
    shortest_path_closure,
    solve_labeled,
    solve_local,
    subdominant_ultrametric,
    to_dendrogram,
    validate_ultrametric,
)
from thclust.ultrametric import _heights

PROPERTY = settings(max_examples=100, derandomize=True, database=None, deadline=None)


def _ids(n):
    return [f"p{i}" for i in range(n)]


@st.composite
def grid_spaces(draw, max_points=8):
    """Distinct integer points in the plane, or integer distances in {2, 3, 4}
    (where every triangle holds)."""
    n = draw(st.integers(1, max_points))
    if draw(st.booleans()):
        cell = st.tuples(st.integers(0, 6), st.integers(0, 6))
        coords = draw(st.lists(cell, min_size=n, max_size=n, unique=True))
        return MetricSpace(_ids(n), coords=np.array(coords, dtype=float))
    upper = draw(st.lists(st.integers(2, 4), min_size=n * (n - 1) // 2,
                          max_size=n * (n - 1) // 2))
    dist = np.zeros((n, n))
    dist[np.triu_indices(n, 1)] = upper
    return MetricSpace(_ids(n), dist=dist + dist.T)


@st.composite
def dense_spaces(draw, max_points=8):
    """Distances anywhere in [1, 2]; every triangle holds."""
    n = draw(st.integers(1, max_points))
    upper = draw(st.lists(st.floats(1.0, 2.0), min_size=n * (n - 1) // 2,
                          max_size=n * (n - 1) // 2))
    dist = np.zeros((n, n))
    dist[np.triu_indices(n, 1)] = upper
    return MetricSpace(_ids(n), dist=dist + dist.T)


spaces = grid_spaces() | dense_spaces()


@st.composite
def samplings(draw, max_nodes=10):
    """Two to four levels of distinct integer points in the plane, at most
    ``max_nodes`` point nodes in all."""
    n = draw(st.integers(1, 6))
    cell = st.tuples(st.integers(0, 6), st.integers(0, 6))
    coords = draw(st.lists(cell, min_size=n, max_size=n, unique=True))
    ambient = MetricSpace(_ids(n), coords=np.array(coords, dtype=float))
    levels = []
    budget = max_nodes
    for _ in range(draw(st.integers(2, 4))):
        if budget == 0:
            break
        level = draw(st.lists(st.sampled_from(ambient.points), min_size=1,
                              max_size=min(n, budget), unique=True))
        levels.append(sorted(level))
        budget -= len(level)
    return TemporalSampling(ambient, levels)


schemes = st.sampled_from(["fkw", "subdominant"])


@PROPERTY
@given(spaces)
def test_subdominant_is_dominated_ultrametric(space):
    u = subdominant_ultrametric(space)
    assert (u.mu <= space.dist).all()
    assert validate_ultrametric(u.mu)[0]


@PROPERTY
@given(spaces)
def test_dendrogram_round_trips(space):
    for u in (subdominant_ultrametric(space), fkw_fit(space).ultrametric):
        dend = to_dendrogram(u)
        heights = [h for h, _, _ in dend.merges]
        assert len(heights) == len(space) - 1 and heights == sorted(heights)
        assert np.array_equal(dend.to_ultrametric().mu, u.mu)


# Hypothesis draws round floats, on which both decrease tests agree; seeded
# uniform ones in [0, 1e-8] split them about half the time.
_TREE_STARTS = (0.0, 1.0, 1e3, *np.random.default_rng(0).uniform(0.0, 1e-8, 29).tolist())


@st.composite
def merge_trees(draw, max_leaves=7):
    """Random binary merge trees with heights on the boundaries the
    constructor decides. The first height is drawn from ``_TREE_STARTS``;
    each later one is within an ulp of the running maximum less TOL (a dip)
    or of -TOL, or a rise of 0, TOL/2 or 1 above the maximum. New
    merges go to the front of the pool that merges draw from, which the
    draws favour, so most dips are nested."""
    n = draw(st.integers(1, max_leaves))
    leaves = tuple(_ids(n))
    nodes: list = list(leaves)
    top = draw(st.sampled_from(_TREE_STARTS))
    merges = []
    for idx in range(n - 1):
        a = nodes.pop(draw(st.integers(0, len(nodes) - 1)))
        b = nodes.pop(draw(st.integers(0, len(nodes) - 1)))
        kind = draw(st.sampled_from(["dip", "rise", "floor"])) if idx else "start"
        if kind == "start":
            h = top
        elif kind == "rise":
            h = top + draw(st.sampled_from([0.0, TOL / 2.0, 1.0]))
        else:
            h = top - TOL if kind == "dip" else -TOL
            ulps = draw(st.sampled_from([0, -1, 1]))
            if ulps:
                h = float(np.nextafter(h, ulps * np.inf))
        merges.append((h, a, b))
        nodes.insert(0, idx)
        top = max(top, h)
    return leaves, tuple(merges)


@PROPERTY
@given(merge_trees())
def test_accepted_dendrograms_replay_to_ultrametrics(tree):
    """Whatever the constructor accepts replays to an ultrametric the triple
    scan passes, and to the heights a validated matrix would hold."""
    leaves, merges = tree
    try:
        dendrogram = Dendrogram(leaves, merges)
    except ValidationError as exc:
        assert "decrease" in str(exc) or "negative" in str(exc)
        return
    assert validate_ultrametric(_heights(len(leaves), dendrogram.node_merges())) == (True, None)
    want = PseudoUltrametric(leaves, reference_heights(leaves, merges))
    assert np.array_equal(dendrogram.to_ultrametric().mu, want.mu)


@PROPERTY
@given(grid_spaces())
def test_cut_equals_threshold_components(space):
    u = subdominant_ultrametric(space)
    values = np.unique(space.dist)
    probes = [*values, *((values[:-1] + values[1:]) / 2.0), values[-1] + 1.0]
    for r in probes:
        assert cut_at_height(u, float(r)) == threshold_components(space, float(r))


@PROPERTY
@given(spaces)
def test_fkw_error_is_half_the_subdominant_error_unless_clamped(space):
    fit = fkw_fit(space)
    if not fit.clamped_pairs:
        error = linf_distance(space, fit.ultrametric)
        sub_error = linf_distance(space, subdominant_ultrametric(space))
        assert abs(error - sub_error / 2.0) < 1e-9


@PROPERTY
@given(spaces, st.booleans(), st.data())
def test_validate_matches_reference_near_the_boundary(space, fkw, data):
    """Fitted heights plus symmetric noise of up to 3 TOL, in quarter-TOL steps
    so that noisy entries tie: accepted, rejected and refused alike."""
    mu = (fkw_fit(space).ultrametric if fkw else subdominant_ultrametric(space)).mu
    n = len(space)
    steps = data.draw(st.lists(st.integers(-12, 12), min_size=n * n, max_size=n * n))
    noise = np.reshape(steps, (n, n)) * (TOL / 4.0)
    noisy = mu + np.triu(noise, 1) + np.triu(noise, 1).T
    assert outcome(validate_ultrametric, noisy) == outcome(reference_validate_ultrametric, noisy)


@PROPERTY
@given(st.integers(1, 20), st.data())
def test_triangle_check_matches_the_hub_scan_near_the_boundary(n, data):
    """Shortest-path closures of integer weights, whose triangles are tight,
    plus symmetric noise below TOL in quarter-TOL steps: the slack of a
    triple reaches 2.25 TOL, so both verdicts occur, in full and partial
    row blocks."""
    raw = np.reshape(data.draw(st.lists(st.integers(1, 6), min_size=n * n,
                                        max_size=n * n)), (n, n))
    closure = shortest_path_closure(np.minimum(raw, raw.T).astype(float))
    steps = data.draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n))
    noise = np.triu(np.reshape(steps, (n, n)) * (TOL / 4.0), 1)
    noisy = closure + noise + noise.T
    ids = _ids(n)
    assert outcome(MetricSpace, ids, dist=noisy) == reference_space_outcome(ids, noisy)


@PROPERTY
@given(samplings(), schemes)
def test_min_flow_value_is_the_fewest_covering_paths(sampling, scheme):
    local = solve_local(sampling, scheme=scheme)
    network = build_flow_instance(sampling, local.correspondences)
    assert min_feasible_flow(network).value == brute_min_flow(network)


@PROPERTY
@given(samplings(), schemes)
def test_adjacent_labelings_are_contiguous_at_the_certified_delta(sampling, scheme):
    sol = solve_labeled(sampling, scheme=scheme)
    certify(sol.local, sol.labelings)


@st.composite
def labelings(draw, points, max_labels=6):
    """Labels 1..k, each given to one drawn point; k may be 0."""
    return Labeling(tuple(draw(st.lists(st.sampled_from(points), max_size=max_labels))))


@PROPERTY
@given(st.lists(st.text(max_size=3), min_size=1, max_size=6, unique=True), st.data())
def test_labels_documents_round_trip(points, data):
    """Any holder tuple, each label on one of a few ids (the empty id and
    repeats included), reads back from its labels document unchanged."""
    lab = data.draw(labelings(points, max_labels=10))
    assert Labeling.from_list(lab.to_list(), lab.k) == lab


@PROPERTY
@given(samplings(), schemes, st.data())
def test_distortion_matches_the_block_reference(sampling, scheme, data):
    """The solver's correspondences and drawn relations (extra pairs on top
    of a cover of both levels) give the K x K block's distortion."""
    sol = solve_local(sampling, scheme=scheme)
    for i, corr in enumerate(sol.correspondences):
        p, q = sampling.levels[i], sampling.levels[i + 1]
        extra = data.draw(st.lists(st.tuples(st.sampled_from(p), st.sampled_from(q)),
                                   max_size=12))
        cover = [(a, q[j % len(q)]) for j, a in enumerate(p)]
        cover += [(p[j % len(p)], b) for j, b in enumerate(q)]
        u1, u2 = sol.ultrametrics[i], sol.ultrametrics[i + 1]
        for c in (corr, Correspondence.from_pairs(cover + extra, p, q)):
            assert distortion(u1, u2, c) == reference_distortion(u1, u2, c)


@PROPERTY
@given(grid_spaces(), st.data())
def test_contiguity_matches_the_ball_reference(space, data):
    """Any two labelings, of equal or differing k, at a delta on or just
    below one of their pair distances."""
    l1 = data.draw(labelings(space.points))
    l2 = data.draw(labelings(space.points))
    near = sorted({space.distance(a, b) for a in l1.labels for b in l2.labels} | {0.0})
    delta = data.draw(st.sampled_from(near)) - data.draw(st.sampled_from([0.0, TOL, 2 * TOL]))
    assert check_contiguity(l1, l2, delta, space) == \
        reference_check_contiguity(l1, l2, delta, space)
