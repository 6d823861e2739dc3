import json
import logging

import numpy as np
import pytest

from helpers import (
    bottleneck_oracle,
    cloud_space,
    dense_space,
    differential_spaces,
    grid_space,
    line_space,
    outcome,
    perturb,
    random_space,
    reference_cut_at_height,
    reference_fkw_fit,
    reference_heights,
    reference_minimum_spanning_edges,
    reference_spanning_tree,
    reference_subdominant_ultrametric,
    reference_to_dendrogram,
    reference_validate_ultrametric,
    spanning_weight_oracle,
    threshold_components,
    tree_edges,
)
from thclust import (
    Dendrogram,
    MetricSpace,
    PseudoUltrametric,
    TOL,
    ValidationError,
    cut_at_height,
    fkw_fit,
    instability_family,
    linf_distance,
    minimum_spanning_edges,
    subdominant_ultrametric,
    to_dendrogram,
    validate_ultrametric,
)
from thclust.ultrametric import _certifies, _heights, _merges, _spanning_tree

FIG_MU = np.array(
    [
        [0.0, 4.0, 4.0, 4.0, 4.0],
        [4.0, 0.0, 1.0, 3.0, 3.0],
        [4.0, 1.0, 0.0, 3.0, 3.0],
        [4.0, 3.0, 3.0, 0.0, 1.5],
        [4.0, 3.0, 3.0, 1.5, 0.0],
    ]
)
FIG_POINTS = ("a", "b", "c", "d", "e")


# ---------------------------------------------------------------- validation


def test_validate_accepts_known_ultrametric():
    ok, triple = validate_ultrametric(FIG_MU, points=FIG_POINTS)
    assert ok and triple is None


def test_validate_reports_a_genuine_violation():
    space = line_space([0.0, 1.0, 3.0], ids=["a", "b", "c"])
    ok, triple = validate_ultrametric(space.dist, points=space.points)
    assert not ok
    x, y, z = triple
    assert sorted(triple) == ["a", "b", "c"]
    assert space.distance(x, z) > max(space.distance(x, y), space.distance(y, z))


def test_validate_two_points_always_pass():
    mu = np.array([[0.0, 7.0], [7.0, 0.0]])
    ok, triple = validate_ultrametric(mu)
    assert ok and triple is None


def test_validate_rejects_malformed_matrix():
    asym = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValidationError):
        validate_ultrametric(asym)


def test_validate_empty_matrix_passes():
    assert validate_ultrametric(np.zeros((0, 0))) == (True, None)
    with pytest.raises(ValidationError, match="points do not match"):
        validate_ultrametric(np.zeros((0, 0)), points=["a"])


def _four_point(bump):
    """All off-diagonal heights 1, except (0, 2) and (1, 3) raised by 0.75 TOL
    and (0, 3) raised by ``bump``: a path of sub-TOL steps."""
    m = 1.0 - np.eye(4)
    for (i, k), extra in {(0, 2): 0.75 * TOL, (1, 3): 0.75 * TOL, (0, 3): bump}.items():
        m[i, k] = m[k, i] = 1.0 + extra
    return m


def _tree_certifies(m):
    n = len(m)
    tree = _spanning_tree(range(n), np.minimum(m, m.T))
    return _certifies(m, _heights(n, _merges(range(n), *tree)), TOL)


def test_validate_falls_back_to_the_triple_scan():
    """Sub-TOL steps add up along the tree path from 0 to 3: the spanning-tree
    certificate refuses, and the triple scan decides."""
    accepted, rejected = _four_point(1.5 * TOL), _four_point(1.8 * TOL)
    assert not _tree_certifies(accepted) and not _tree_certifies(rejected)
    assert validate_ultrametric(accepted) == reference_validate_ultrametric(accepted) \
        == (True, None)
    assert validate_ultrametric(rejected) == reference_validate_ultrametric(rejected) \
        == (False, (0, 1, 3))
    u = PseudoUltrametric(tuple("abcd"), accepted)
    assert to_dendrogram(u).merges == reference_to_dendrogram(u).merges
    with pytest.raises(ValidationError, match=r"fails at \('a', 'b', 'd'\)"):
        PseudoUltrametric(tuple("abcd"), rejected)


def test_validate_reads_both_triangles():
    """Asymmetric within TOL: the lower triangle holds the violation (2, 1, 0),
    which a tree over the upper triangle alone would miss."""
    m = np.array([
        [0.0, 1.0, 1.0 + 1.5 * TOL],
        [1.0, 0.0, 1.0 + 0.6 * TOL],
        [1.0 + 1.5 * TOL, 1.0 - 0.3 * TOL, 0.0],
    ])
    assert validate_ultrametric(m) == reference_validate_ultrametric(m) == (False, (2, 1, 0))


def test_validate_bounds_the_diagonal():
    """A TOL diagonal above negative off-diagonal dust fails at (i, j, i)."""
    m = np.full((3, 3), -0.4 * TOL)
    np.fill_diagonal(m, TOL)
    assert validate_ultrametric(m) == reference_validate_ultrametric(m) == (False, (0, 1, 0))
    np.fill_diagonal(m, 0.5 * TOL)
    assert validate_ultrametric(m) == reference_validate_ultrametric(m) == (True, None)


def test_pseudo_ultrametric_constructor_validates():
    space = line_space([0.0, 1.0, 3.0])
    with pytest.raises(ValidationError):
        PseudoUltrametric(space.points, space.dist)
    u = PseudoUltrametric(FIG_POINTS, FIG_MU)
    assert u.distance("b", "c") == 1.0
    back = PseudoUltrametric.from_dict(u.to_dict())
    assert np.array_equal(back.mu, u.mu)


def test_fit_is_a_metric_space_aligned_by_id():
    space = dense_space(np.random.default_rng(12), 6)
    fit = fkw_fit(space).ultrametric
    assert isinstance(fit, MetricSpace) and fit.mu is fit.dist
    order = list(reversed(space.points))
    assert linf_distance(fit, space.restrict(order)) == linf_distance(fit, space) > 0.0
    assert linf_distance(fit, PseudoUltrametric(order, fit.mu[::-1, ::-1])) == 0.0


def test_heights_near_float_max_stay_finite():
    u = PseudoUltrametric(["a", "b"], [[0.0, 1.7e308], [1.7e308, 0.0]])
    assert u.distance("a", "b") == 1.7e308


# ---------------------------------------------------------------- spanning tree


def test_mst_weight_matches_bruteforce():
    rng = np.random.default_rng(10)
    for _ in range(25):
        space = random_space(rng, int(rng.integers(2, 7)))
        edges = tree_edges(space.points, *minimum_spanning_edges(space))
        assert len(edges) == len(space.points) - 1
        assert abs(sum(w for _, _, w in edges) - spanning_weight_oracle(space)) < 1e-9


def test_mst_tie_break_is_lexicographic():
    # unit square: four weight-1 edges tie, two diagonals lose
    coords = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    space = MetricSpace(["p0", "p1", "p2", "p3"], coords=coords)
    edges = tree_edges(space.points, *minimum_spanning_edges(space))
    assert edges == (("p0", "p1", 1.0), ("p0", "p2", 1.0), ("p1", "p3", 1.0))


# ---------------------------------------------------------------- subdominant


def test_subdominant_is_identity_on_ultrametric_input():
    u = MetricSpace(FIG_POINTS, dist=FIG_MU)
    fit = subdominant_ultrametric(u)
    assert np.array_equal(fit.mu, FIG_MU)


def test_subdominant_three_point_line():
    space = line_space([0.0, 1.0, 3.0], ids=["a", "b", "c"])
    fit = subdominant_ultrametric(space)
    want = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [2.0, 2.0, 0.0]])
    assert np.array_equal(fit.mu, want)
    assert linf_distance(fit, space) == 1.0


def test_subdominant_matches_path_bottleneck_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        space = random_space(rng, int(rng.integers(2, 8)))
        fit = subdominant_ultrametric(space)
        ok, _ = validate_ultrametric(fit.mu)
        assert ok
        assert np.abs(fit.mu - bottleneck_oracle(space)).max() < 1e-9


def test_subdominant_sits_below_input_and_is_maximal():
    rng = np.random.default_rng(12)
    for _ in range(20):
        space = random_space(rng, int(rng.integers(3, 8)))
        mu = subdominant_ultrametric(space).mu
        assert (mu <= space.dist + 1e-12).all()
        # raising any single slack pair must break ultrametricity while the
        # bumped matrix still sits below the input, else mu was not maximal
        n = len(space.points)
        for i in range(n):
            for j in range(i + 1, n):
                if mu[i, j] >= space.dist[i, j] - 1e-9:
                    continue
                bumped = mu.copy()
                bumped[i, j] = bumped[j, i] = (mu[i, j] + space.dist[i, j]) / 2.0
                assert (bumped <= space.dist + 1e-12).all()
                ok, _ = validate_ultrametric(bumped)
                assert not ok


def test_subdominant_stable_under_perturbation():
    rng = np.random.default_rng(13)
    for trial in range(50):
        space = random_space(rng, int(rng.integers(2, 10)))
        eps = float(rng.uniform(0.0, 1.0))
        moved = perturb(space, eps, seed=int(rng.integers(2**31)))
        gap = linf_distance(subdominant_ultrametric(space), subdominant_ultrametric(moved))
        assert gap <= eps + 1e-9


# ---------------------------------------------------------------- fkw fitter


def test_fkw_identity_when_input_is_ultrametric():
    u = MetricSpace(FIG_POINTS, dist=FIG_MU)
    fit = fkw_fit(u)
    assert fit.shift == 0.0
    assert fit.clamped_pairs == 0
    assert np.array_equal(fit.ultrametric.mu, FIG_MU)


def test_fkw_three_point_line_values():
    space = line_space([0.0, 1.0, 3.0], ids=["a", "b", "c"])
    fit = fkw_fit(space)
    assert linf_distance(subdominant_ultrametric(space), space) == 1.0
    assert fit.shift == 0.5
    assert tree_edges(space.points, *minimum_spanning_edges(space)) == \
        (("a", "b", 1.0), ("b", "c", 2.0))
    assert reference_fkw_fit(space).priorities == (1.0, 3.0)
    want = np.array([[0.0, 0.5, 2.5], [0.5, 0.0, 2.5], [2.5, 2.5, 0.0]])
    assert np.abs(fit.ultrametric.mu - want).max() < 1e-9
    assert abs(linf_distance(fit.ultrametric, space) - 0.5) < 1e-9


def test_fkw_priorities_match_literal_attribution():
    """Edge priorities equal the max distance over pairs whose spanning-tree
    path crosses the edge at the pair's bottleneck weight; ``fkw_fit`` fits
    the heights the reference fits over those priorities."""
    rng = np.random.default_rng(14)
    for _ in range(40):
        space = random_space(rng, int(rng.integers(2, 9)))
        ref = reference_fkw_fit(space)
        assert np.array_equal(fkw_fit(space).ultrametric.mu, ref.ultrametric.mu)
        adj = {p: [] for p in space.points}
        for u, v, w in ref.mst.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))

        def tree_path(a, b):
            prev = {a: None}
            queue = [a]
            for node in queue:
                for nb, w in adj[node]:
                    if nb not in prev:
                        prev[nb] = (node, w)
                        queue.append(nb)
            out = []
            cur = b
            while prev[cur] is not None:
                parent, w = prev[cur]
                out.append((tuple(sorted((cur, parent))), w))
                cur = parent
            return out

        want = {tuple(sorted((u, v))): -np.inf for u, v, _ in ref.mst.edges}
        for i, a in enumerate(space.points):
            for b in space.points[i + 1 :]:
                hops = tree_path(a, b)
                bottleneck = max(w for _, w in hops)
                for key, w in hops:
                    if w == bottleneck:
                        want[key] = max(want[key], space.distance(a, b))
        got = {
            tuple(sorted((u, v))): p
            for (u, v, _), p in zip(ref.mst.edges, ref.priorities)
        }
        assert got == want


def test_fkw_achieves_half_subdominant_error():
    rng = np.random.default_rng(15)
    for _ in range(40):
        space = dense_space(rng, int(rng.integers(2, 10)))
        fit = fkw_fit(space)
        sub = subdominant_ultrametric(space)
        assert fit.clamped_pairs == 0
        err = linf_distance(fit.ultrametric, space)
        assert abs(err - linf_distance(sub, space) / 2.0) < 1e-9
        assert abs(err - fit.shift) < 1e-9
        # shifted subdominant witness reaches the same value
        witness = sub.mu + fit.shift
        np.fill_diagonal(witness, 0.0)
        ok, _ = validate_ultrametric(witness)
        assert ok
        assert abs(np.abs(witness - space.dist).max() - fit.shift) < 1e-9


def test_fkw_within_twice_subdominant_error():
    rng = np.random.default_rng(16)
    for _ in range(40):
        space = random_space(rng, int(rng.integers(2, 10)))
        fit = fkw_fit(space)
        ok, _ = validate_ultrametric(fit.ultrametric.mu)
        assert ok
        sub_err = linf_distance(subdominant_ultrametric(space), space)
        assert sub_err <= 2.0 * linf_distance(fit.ultrametric, space) + 1e-9


def test_fkw_clamps_negative_heights(caplog):
    # two tight pairs far apart force a shift larger than the small priorities
    space = line_space([0.0, 0.001, 10.0, 19.999, 20.0])
    with caplog.at_level(logging.INFO, logger="thclust.ultrametric"):
        fit = fkw_fit(space)
    assert fit.clamped_pairs == 2
    assert any("clamp" in rec.message for rec in caplog.records)
    assert fit.ultrametric.distance("p0", "p1") == 0.0
    assert fit.ultrametric.distance("p3", "p4") == 0.0
    ok, _ = validate_ultrametric(fit.ultrametric.mu)
    assert ok
    # clamping does not cost optimality
    assert abs(linf_distance(fit.ultrametric, space) - fit.shift) < 1e-9


def test_fkw_single_point():
    space = MetricSpace(["only"], dist=np.zeros((1, 1)))
    fit = fkw_fit(space)
    assert fit.shift == 0.0
    assert fit.ultrametric.mu.shape == (1, 1)


# ---------------------------------------------------------------- paired family


def test_instability_family_inputs_differ_by_eps():
    for n in (5, 9, 12):
        m, m_prime = instability_family(n, 0.1)
        assert len(m.points) == n
        assert m.points == m_prime.points
        assert abs(linf_distance(m, m_prime) - 0.1) < 1e-9
        # generated matrices really are metrics
        MetricSpace(m.points, dist=m.dist)
        MetricSpace(m_prime.points, dist=m_prime.dist)


def test_instability_family_zero_eps_collapses():
    m, m_prime = instability_family(8, 0.0)
    assert np.array_equal(m.dist, m_prime.dist)


def test_instability_family_validation():
    with pytest.raises(ValidationError):
        instability_family(4, 0.1)
    with pytest.raises(ValidationError):
        instability_family(10, 1.0)
    for n in (6.0, "6", True):
        with pytest.raises(ValidationError, match="n must be an integer"):
            instability_family(n, 0.1)


@pytest.mark.parametrize("n", [10**30, 2**32])
def test_instability_family_refuses_an_n_numpy_cannot_hold(n):
    """Refused before a single id or matrix is built."""
    with pytest.raises(ValidationError, match=f"n {n} is beyond numpy's array size"):
        instability_family(n, 0.1)


def test_figure_family_frozen_values():
    """The 12-point family: pendant pair fitted at 2 on one side and at
    5 + eps/2 on the other, while the subdominant stays put."""
    m, m_prime = instability_family(12, 0.1)
    assert m.dist.max() == 9.0
    assert abs(m_prime.dist.max() - 9.1) < 1e-9
    fit = fkw_fit(m)
    fit_prime = fkw_fit(m_prime)
    assert abs(fit.ultrametric.distance("u", "v") - 2.0) < 1e-9
    assert abs(fit_prime.ultrametric.distance("u", "v") - 5.05) < 1e-9
    sub, sub_prime = subdominant_ultrametric(m), subdominant_ultrametric(m_prime)
    assert sub.distance("u", "v") == 1.0
    assert sub_prime.distance("u", "v") == 1.0
    assert linf_distance(sub, sub_prime) <= 0.1 + 1e-9


def test_figure_family_gap_scales_with_size():
    for n, want_gap in ((10, 2.05), (20, 7.05), (40, 17.05)):
        m, m_prime = instability_family(n, 0.1)
        gap = abs(
            fkw_fit(m).ultrametric.distance("u", "v")
            - fkw_fit(m_prime).ultrametric.distance("u", "v")
        )
        assert abs(gap - want_gap) < 1e-9
        assert gap >= m.dist.max() / 4.0


# ---------------------------------------------------------------- dendrograms


def test_dendrogram_from_known_matrix():
    u = PseudoUltrametric(FIG_POINTS, FIG_MU)
    dend = to_dendrogram(u)
    assert dend.leaves == FIG_POINTS
    assert dend.merges == ((1.0, "b", "c"), (1.5, "d", "e"), (3.0, 0, 1), (4.0, "a", 2))
    assert np.array_equal(dend.to_ultrametric().mu, FIG_MU)


def test_dendrogram_round_trip_random():
    rng = np.random.default_rng(18)
    for _ in range(25):
        space = random_space(rng, int(rng.integers(1, 9)))
        u = subdominant_ultrametric(space)
        dend = to_dendrogram(u)
        assert len(dend.merges) == len(space.points) - 1
        heights = [h for h, _, _ in dend.merges]
        assert heights == sorted(heights)
        assert np.array_equal(dend.to_ultrametric().mu, u.mu)


def test_dendrogram_ties_merge_smallest_first():
    mu = np.full((4, 4), 2.0)
    np.fill_diagonal(mu, 0.0)
    dend = to_dendrogram(PseudoUltrametric(["a", "b", "c", "d"], mu))
    assert dend.merges == ((2.0, "a", "b"), (2.0, 0, "c"), (2.0, 1, "d"))


def test_dendrogram_single_leaf():
    u = PseudoUltrametric(["solo"], np.zeros((1, 1)))
    dend = to_dendrogram(u)
    assert dend.merges == ()
    assert np.array_equal(dend.to_ultrametric().mu, u.mu)


def test_dendrogram_serialization_round_trip():
    u = PseudoUltrametric(FIG_POINTS, FIG_MU)
    dend = to_dendrogram(u)
    back = Dendrogram.from_dict(dend.to_dict())
    assert back.leaves == dend.leaves
    assert back.merges == dend.merges


@pytest.mark.parametrize("leaves", ["ab", ("a", 2), ()])
def test_dendrogram_leaves_are_string_ids(leaves):
    with pytest.raises(ValidationError, match="leaves"):
        Dendrogram(leaves, ((1.0, "a", "b"),))


def test_dendrogram_structural_validation():
    with pytest.raises(ValidationError):
        Dendrogram(("a", "b", "c"), ((1.0, "a", "b"),))  # too few merges
    with pytest.raises(ValidationError):
        Dendrogram(("a", "b", "c"), ((2.0, "a", "b"), (1.0, 0, "c")))  # heights fall
    with pytest.raises(ValidationError, match="unknown leaf 'z'"):
        Dendrogram(("a", "b"), ((1.0, "a", "z"),))
    with pytest.raises(ValidationError):
        Dendrogram(("a", "b", "c"), ((1.0, "a", "b"), (2.0, "a", "c")))  # leaf reused
    with pytest.raises(ValidationError):
        Dendrogram(("a", "b"), ((1.0, 0, "a"),))  # merge refers to itself
    for h in (float("nan"), float("inf"), "1.0", None):
        with pytest.raises(ValidationError, match=r"merge 1 height must be a finite number"):
            Dendrogram(("a", "b", "c"), ((1.0, "a", "b"), (h, 0, "c")))
    for h in ("x", None, [1], "1.0", True, 10**400):
        with pytest.raises(ValidationError, match=r"merge 0 height must be a finite number"):
            Dendrogram.from_dict({"leaves": ["a", "b"], "merges": [[h, "a", "b"]]})
    with pytest.raises(ValidationError, match=r"merge 1 height must be a finite number"):
        Dendrogram(("a", "b", "c"), ((1.0, "a", "b"), (True, 0, "c")))
    for ref in (False, np.False_):  # JSON false is not merge 0
        with pytest.raises(ValidationError, match=r"merge 1 has malformed reference"):
            Dendrogram.from_dict({"leaves": ["a", "b", "c"],
                                  "merges": [[1.0, "a", "b"], [2.0, ref, "c"]]})
    with pytest.raises(ValidationError, match=r"merge 0 height -2e-09 is negative"):
        Dendrogram(("a", "b"), ((-2 * TOL, "a", "b"),))
    # a dip of TOL plus a little, which the replay's triple scan refuses
    dip = ((3.1357857823937707e-09, "a", "b"), (2.1357857823937705e-09, 0, "c"))
    with pytest.raises(ValidationError, match=r"merge heights decrease at index 1"):
        Dendrogram(("a", "b", "c"), dip)
    for doc, what in (({"leaves": "ab", "merges": [[1.0, "a", "b"]]}, "leaves"),
                      ({"leaves": ["a", "b"], "merges": 5}, "merges"),
                      ({"leaves": ["a", "b"], "merges": [[1.0, "a"]]}, "merge 0")):
        with pytest.raises(ValidationError, match=what):
            Dendrogram.from_dict(doc)


def test_dendrogram_stores_what_it_can_write():
    """Merges are read where they enter: a numpy index becomes an int, a
    list becomes a tuple, and a short or scalar merge is refused."""
    d = Dendrogram(("a", "b", "c"), ((1.0, "a", "b"), (2.0, np.int64(0), "c")))
    assert json.loads(json.dumps(d.to_dict())) == {
        "leaves": ["a", "b", "c"], "merges": [[1.0, "a", "b"], [2.0, 0, "c"]]}
    assert type(d.merges[1][1]) is int
    listed = Dendrogram(["a", "b", "c"], [[1, "a", "b"], [np.float64(2), 0, "c"]])
    assert listed == d and hash(listed) == hash(d)
    assert listed.leaves == ("a", "b", "c") and type(listed.merges[0][0]) is float
    for merges, message in ((((1.0, "a"),), "merge 0 must have 3 items"),
                            (((5,),), "merge 0 must have 3 items"),
                            ((5,), "merge 0 must be a list"),
                            ("ab", "merges must be a list")):
        with pytest.raises(ValidationError, match=message):
            Dendrogram(("a", "b"), merges)


# ---------------------------------------------------------------- cuts


def test_cut_extremes():
    u = PseudoUltrametric(FIG_POINTS, FIG_MU)
    assert cut_at_height(u, np.inf) == [["a", "b", "c", "d", "e"]]
    assert cut_at_height(u, 5.0) == [["a", "b", "c", "d", "e"]]
    assert cut_at_height(u, 0.0) == [["a"], ["b"], ["c"], ["d"], ["e"]]


def test_cut_known_blocks():
    u = PseudoUltrametric(FIG_POINTS, FIG_MU)
    assert cut_at_height(u, 2.0) == [["a"], ["b", "c"], ["d", "e"]]
    assert cut_at_height(u, 3.0) == [["a"], ["b", "c", "d", "e"]]


def test_cut_rejects_negative_radius():
    u = PseudoUltrametric(FIG_POINTS, FIG_MU)
    with pytest.raises(ValidationError):
        cut_at_height(u, -0.5)


def test_cut_rejects_nan_radius():
    u = PseudoUltrametric(FIG_POINTS, FIG_MU)
    with pytest.raises(ValidationError):
        cut_at_height(u, float("nan"))


def test_cut_equals_threshold_components_of_source():
    """Single-linkage identity: blocks of the subdominant at r are the
    connected components of the distance graph thresholded at r."""
    rng = np.random.default_rng(19)
    for _ in range(20):
        space = random_space(rng, int(rng.integers(2, 9)))
        u = subdominant_ultrametric(space)
        values = np.unique(space.dist)
        probes = list(values) + list((values[:-1] + values[1:]) / 2.0) + [0.0, values[-1] + 1.0]
        for r in probes:
            assert cut_at_height(u, float(r)) == threshold_components(space, float(r))


# ---------------------------------------------------------------- differential oracles


def _noisy(u, rng):
    """The same ultrametric with symmetric perturbations far below TOL."""
    n = len(u)
    noise = rng.uniform(0.0, TOL / 10.0, size=(n, n))
    mu = u.mu + (noise + noise.T) / 2.0
    np.fill_diagonal(mu, 0.0)
    return PseudoUltrametric(u.points, mu)


def test_spanning_tree_and_fits_match_reference():
    """Also on a path whose first-listed point "c" is an interior tree
    vertex and not the smallest id, so the tree's root, "a", is not the
    first point."""
    inner = line_space([2.0, 0.0, 1.0, 3.5, 5.0, 4.0], ids=["c", "a", "b", "d", "f", "e"])
    parent, _, _ = minimum_spanning_edges(inner)
    assert parent.tolist() == [1, 2, 0, 3, 5]
    for space in [*differential_spaces(), inner]:
        assert tree_edges(space.points, *minimum_spanning_edges(space)) == \
            reference_minimum_spanning_edges(space).edges
        sub = subdominant_ultrametric(space)
        assert np.array_equal(sub.mu, reference_subdominant_ultrametric(space).mu)
        fit, ref = fkw_fit(space), reference_fkw_fit(space)
        assert np.array_equal(fit.ultrametric.mu, ref.ultrametric.mu)
        assert np.array_equal(sub.mu, ref.subdominant.mu)
        assert linf_distance(sub, space) == ref.subdominant_error
        assert fit.shift == ref.shift
        assert fit.clamped_pairs == len(ref.clamped_pairs)


def test_heights_match_reference():
    """The slice replay writes the matrices the per-merge ``np.ix_`` replay
    wrote: merges of both fits, of integer ties, of all-zero heights and of
    the source distances' own tree, over n = 1 to 13, ``instability_family``
    and 40- and 120-point clouds, plus integer merge heights."""
    rng = np.random.default_rng(36)
    spaces = [*differential_spaces(), cloud_space(rng, 40), cloud_space(rng, 120)]
    for space in spaces:
        pts, n = space.points, len(space)
        grid = subdominant_ultrametric(grid_space(rng, n))
        fits = [subdominant_ultrametric(space), fkw_fit(space).ultrametric, grid,
                PseudoUltrametric(grid.points, np.maximum(grid.mu - 2.0, 0.0)),
                PseudoUltrametric(pts, np.zeros((n, n)))]
        trees = [to_dendrogram(u) for u in fits]
        # the source distances' own tree, its references written by hand
        own = _merges(pts, *_spanning_tree(pts, space.dist))
        refs = [(h, *(pts[x] if x < n else x - n for x in (a, b))) for h, a, b in own]
        trees.append(Dendrogram(pts, refs))
        assert trees[-1].node_merges() == tuple(own)
        for d in trees:
            assert np.array_equal(_heights(n, d.node_merges()),
                                  reference_heights(d.leaves, d.merges))
    ints = Dendrogram(("c", "a", "b", "d"), ((1, "b", "d"), (2, "c", 0), (2, "a", 1)))
    assert ints.node_merges() == ((1, 2, 3), (2, 0, 4), (2, 1, 5))
    assert np.array_equal(_heights(4, ints.node_merges()),
                          reference_heights(ints.leaves, ints.merges))


def _tree_inputs():
    """The matrices the callers of ``_spanning_tree`` pass, which are all
    exactly symmetric: source distances, fitted heights, ``min(m, m.T)`` of
    heights asymmetric within TOL or noisy below it, integer and zero
    heights, infinite pairs and blocks, each under shuffled ids too."""
    rng = np.random.default_rng(34)
    for space in differential_spaces():
        n = len(space)
        sub = subdominant_ultrametric(space).mu
        grid = subdominant_ultrametric(grid_space(rng, n)).mu
        noise = rng.uniform(-TOL, TOL, size=(n, n))
        lopsided = sub + noise
        noisy = sub + (noise + noise.T) / 20.0
        apart = rng.random(n) < 0.5
        split = sub.copy()
        split[np.ix_(apart, ~apart)] = split[np.ix_(~apart, apart)] = np.inf
        pair = sub.copy()
        pair[0, -1] = pair[-1, 0] = np.inf
        shuffled = tuple(f"s{k:02d}" for k in rng.permutation(n))
        for m in (space.dist, sub, fkw_fit(space).ultrametric.mu,
                  np.minimum(lopsided, lopsided.T), np.minimum(noisy, noisy.T),
                  grid, np.maximum(grid - 2.0, 0.0), np.zeros((n, n)), split, pair):
            yield space.points, m
            yield shuffled, m
    yield (), np.zeros((0, 0))
    yield ("a",), np.zeros((1, 1))
    for h in (0.0, 1.0, np.inf):
        yield ("b", "a"), np.array([[0.0, h], [h, 0.0]])


def test_spanning_tree_matches_reference():
    """Kruskal's edges, grown as a tree rooted at the smallest id in which
    every parent joins before its child."""
    for points, m in _tree_inputs():
        parent, child, weight = _spanning_tree(points, m)
        assert tree_edges(points, parent, child, weight) == reference_spanning_tree(points, m)
        joined = {min(range(len(points)), key=points.__getitem__)} if points else set()
        for p, c in zip(parent.tolist(), child.tolist()):
            assert p in joined and c not in joined
            joined.add(c)
        assert joined == set(range(len(points)))


def test_cut_matches_reference():
    """Every distinct merge height of every fit, the fits with sub-TOL
    noise, and the extremes; then sub-TOL steps that link 0 to 3 only
    through 1 and 2, so the blocks need the transitive closure."""
    rng = np.random.default_rng(35)
    for space in differential_spaces():
        fits = [subdominant_ultrametric(space), fkw_fit(space).ultrametric]
        fits += [_noisy(u, rng) for u in fits]
        for u in fits:
            heights = {h for h, _, _ in to_dendrogram(u).merges}
            for r in (0.0, *sorted(heights), np.inf):
                assert cut_at_height(u, r) == reference_cut_at_height(u, r)
    chain = PseudoUltrametric(tuple("abcd"), _four_point(1.5 * TOL))
    for r in 1.0 + np.arange(-4, 5) * (TOL / 4.0):
        assert cut_at_height(chain, r) == reference_cut_at_height(chain, r)
    assert cut_at_height(chain, 1.0 - 0.5 * TOL) == [["a", "b", "c", "d"]]


def test_dendrogram_matches_reference():
    rng = np.random.default_rng(32)
    for space in differential_spaces():
        fits = [subdominant_ultrametric(space), fkw_fit(space).ultrametric]
        grid = subdominant_ultrametric(grid_space(rng, len(space)))
        # heights {2, 3, 4} shifted down to {0, 1, 2}: zero between distinct points
        fits.append(PseudoUltrametric(grid.points, np.maximum(grid.mu - 2.0, 0.0)))
        fits += [_noisy(u, rng) for u in fits]
        for u in fits:
            assert to_dendrogram(u).merges == reference_to_dendrogram(u).merges
        # heights with an infinite pair are refused where they enter
        mu = fits[0].mu.copy()
        mu[0, -1] = mu[-1, 0] = np.inf
        with pytest.raises(ValidationError, match="must be finite"):
            PseudoUltrametric(space.points, mu)


def _validation_inputs():
    """Matrices around the ultrametric boundary, with and without point ids:
    fitted heights, integer ties, noise from 0.3 to 3 TOL (symmetric and
    not), single bumped entries, source distances and malformed input."""
    rng = np.random.default_rng(33)
    spaces = list(differential_spaces())
    spaces += [cloud_space(rng, n) for n in (40, 60)]
    spaces += [grid_space(rng, n) for n in (30, 45)]
    for space in spaces:
        n = len(space)
        grid = subdominant_ultrametric(grid_space(rng, n)).mu
        tied = grid - 2.0 * (grid > 0)  # heights {0, 1, 2}
        fits = [subdominant_ultrametric(space).mu, fkw_fit(space).ultrametric.mu, tied]
        yield space.dist, space.points
        for mu in fits:
            yield mu, space.points
            for scale in (0.3, 1.0, 3.0):
                noise = rng.uniform(-scale * TOL, scale * TOL, size=(n, n))
                sym = mu + (noise + noise.T) / 2.0
                np.fill_diagonal(sym, 0.0)
                yield sym, None
                yield np.abs(mu + noise), None  # asymmetric, with a noisy diagonal
            if n > 1:
                i, k = rng.choice(n, size=2, replace=False)
                for bump in (0.5 * TOL, 2.0 * TOL, 0.1, 1.0):
                    bumped = mu.copy()
                    bumped[i, k] += bump
                    bumped[k, i] += bump
                    yield bumped, space.points
    for bad in ([[0.0, 1.0]], [[0.0, np.nan], [np.nan, 0.0]], [[0.0, -1.0], [-1.0, 0.0]],
                [[0.0, 1.0], [2.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]):
        yield np.array(bad), None
    yield FIG_MU, FIG_POINTS[:4]


def test_validate_matches_reference():
    verdicts = set()
    for mu, points in _validation_inputs():
        got = outcome(validate_ultrametric, mu, points=points)
        assert got == outcome(reference_validate_ultrametric, mu, points=points)
        verdicts.add(got[0] if isinstance(got, tuple) else got.split(" ")[-1])
    # both verdicts, and each malformed-input message by its last word
    assert {True, False, "finite", "value", "symmetric", "zero", "square", "size"} <= verdicts
