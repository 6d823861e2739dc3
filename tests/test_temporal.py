import copy
import dataclasses
import math

import numpy as np
import pytest

from helpers import (
    cloud_space,
    correspondence_localities,
    differential_spaces,
    grid_space,
    grouped_distortion,
    line_space,
    min_locality_scan,
    random_graph,
    random_sampling,
    raw_color_witness,
    reference_distortion,
    reference_locality,
    run,
    shuffled_levels,
)
from thclust import (
    COLORS,
    TOL,
    CertificationError,
    Correspondence,
    Dendrogram,
    LocalSolution,
    PseudoUltrametric,
    SimConfig,
    TemporalSampling,
    ValidationError,
    build_hausdorff_correspondence,
    distortion,
    evaluate_general,
    fkw_fit,
    hausdorff_distance,
    locality,
    solve_local,
    subdominant_ultrametric,
    to_dendrogram,
)


def tiny_ambient():
    return line_space([0.0, 3.0, 10.0], ids=["a", "b", "c"])


# ---------------------------------------------------------------- correspondences


def test_correspondence_canonical_form():
    c = Correspondence.from_pairs([("b", "y"), ("a", "x"), ("b", "y")], ("b", "a"), ("x", "y"))
    assert c.pairs == (("a", "x"), ("b", "y"))
    assert (c.first, c.second) == (("b", "a"), ("x", "y"))
    assert c.left.tolist() == [0, 1] and c.right.tolist() == [1, 0]
    assert not c.left.flags.writeable and not c.right.flags.writeable


def test_correspondence_sorts_and_dedupes_index_pairs():
    """Shuffled index arrays with repeats give each pair once, sorted by
    index, while the id view stays sorted by id."""
    rng = np.random.default_rng(65)
    first, second = ("c", "a", "d", "b"), ("z", "x", "y")
    for _ in range(40):
        size = int(rng.integers(4, 20))
        left = np.r_[np.arange(4), rng.integers(0, 4, size)]
        right = np.r_[rng.integers(0, 3, 4), np.arange(3), rng.integers(0, 3, size - 3)]
        perm = rng.permutation(len(left))
        c = Correspondence(first, second, left[perm], right[perm])
        pairs = [(first[a], second[b]) for a, b in zip(left, right)]
        assert c.to_list() == [list(p) for p in sorted(set(pairs))]
        index = sorted(set(zip(left.tolist(), right.tolist())))
        assert list(zip(c.left.tolist(), c.right.tolist())) == index


@pytest.mark.parametrize("left, right, message", [
    ([0, 1], [0], "bad second-side indices"),
    ([0, 2], [0, 0], "bad first-side indices"),
    ([0, 1], [-1, 0], "bad second-side indices"),
    ([0, 0], [0, 0], "misses first-side point 'b'"),
    ([], [], "misses first-side point 'a'"),
    # indices are integers: 0.7 is not truncated, "0" and false are not 0
    ([0.7, 1.9], [0, 0], "correspondence left must hold integers only, got float"),
    (np.array([0.0, 1.0]), [0, 0], "correspondence left must hold integers only"),
    (["0", "1"], [0, 0], "correspondence left must hold integers only, got str"),
    ([False, True], [0, 0], "correspondence left must hold integers only, got bool"),
    ([0, 1], [np.nan, 0], "correspondence right must hold integers only, got float"),
    ([0, 1], [[0], 0], "correspondence right must be a rectangular array of integers"),
])
def test_correspondence_refuses_bad_index_arrays(left, right, message):
    with pytest.raises(ValidationError, match=message):
        Correspondence(("a", "b"), ("x",), left, right)


def test_correspondence_pairs_have_two_items():
    for pairs, message in (([("a",)], "correspondence entry must have 2 items"),
                           ([("a", "x", "y")], "correspondence entry must have 2 items"),
                           ([5], "correspondence entry must be a list"),
                           ([("a", 1)], "correspondence point must be a string")):
        with pytest.raises(ValidationError, match=message):
            Correspondence.from_pairs(pairs, ("a",), ("x",))
    assert Correspondence.from_pairs(iter([["b", "y"]]), ("b",), ("y",)).pairs == (("b", "y"),)


def test_locality_is_worst_pair_distance():
    ambient = tiny_ambient()
    c = Correspondence.from_pairs([("a", "a"), ("a", "b")], ("a",), ("a", "b"))
    assert locality(c, ambient) == 3.0
    with pytest.raises(ValidationError, match="misses first-side point 'a'"):
        Correspondence.from_pairs([], ("a",), ("a", "b"))


def test_hausdorff_correspondence_known_pairs():
    ambient = tiny_ambient()
    c = build_hausdorff_correspondence(["a"], ["a", "b"], ambient)
    assert c.pairs == (("a", "a"), ("a", "b"))
    assert locality(c, ambient) == hausdorff_distance(["a"], ["a", "b"], ambient)


def test_hausdorff_correspondence_reads_each_level_once():
    """One-shot iterators give the correspondence that lists give."""
    ambient = tiny_ambient()
    for p, q in ((["a"], ["a", "b"]), (["a", "b"], ["b", "c"])):
        got = build_hausdorff_correspondence(iter(p), iter(q), ambient)
        want = build_hausdorff_correspondence(p, q, ambient)
        assert (got.first, got.second, got.pairs) == (want.first, want.second, want.pairs)


def test_hausdorff_correspondence_reaches_the_minimum():
    """No correspondence can do better than d_H, and the built one attains it."""
    rng = np.random.default_rng(20)
    for _ in range(30):
        ambient = cloud_space(rng, 8, side=20.0)
        sizes = rng.integers(1, 5, size=2)
        p = [ambient.points[i] for i in sorted(rng.choice(8, sizes[0], replace=False))]
        q = [ambient.points[i] for i in sorted(rng.choice(8, sizes[1], replace=False))]
        built = build_hausdorff_correspondence(p, q, ambient)
        d_h = hausdorff_distance(p, q, ambient)
        assert abs(locality(built, ambient) - d_h) < 1e-9
        assert abs(min_locality_scan(p, q, ambient) - d_h) < 1e-9


def test_subset_enumeration_confirms_minimality():
    # small enough to walk every one of the 2^(|P||Q|) subsets literally
    rng = np.random.default_rng(21)
    for _ in range(10):
        ambient = cloud_space(rng, 7, side=20.0)
        p = [ambient.points[i] for i in sorted(rng.choice(7, 3, replace=False))]
        q = [ambient.points[i] for i in sorted(rng.choice(7, 4, replace=False))]
        localities = correspondence_localities(p, q, ambient)
        d_h = hausdorff_distance(p, q, ambient)
        assert abs(min(localities) - d_h) < 1e-9


# ---------------------------------------------------------------- distortion


def test_distortion_zero_on_identical_matched_spaces():
    u = PseudoUltrametric(["x", "y"], np.array([[0.0, 5.0], [5.0, 0.0]]))
    c = Correspondence.from_pairs([("x", "x"), ("y", "y")], u.points, u.points)
    assert distortion(u, u, c) == 0.0


def test_distortion_compares_merge_heights():
    u1 = PseudoUltrametric(["x1", "x2"], np.array([[0.0, 5.0], [5.0, 0.0]]))
    u2 = PseudoUltrametric(["y1", "y2"], np.array([[0.0, 3.0], [3.0, 0.0]]))
    c = Correspondence.from_pairs([("x1", "y1"), ("x2", "y2")], u1.points, u2.points)
    assert distortion(u1, u2, c) == 2.0


def test_distortion_symmetric_under_transpose():
    rng = np.random.default_rng(22)
    for _ in range(20):
        samp = random_sampling(rng, min_levels=2, max_levels=2)
        sol = solve_local(samp, scheme="subdominant")
        c = sol.correspondences[0]
        u1, u2 = sol.ultrametrics
        flipped = Correspondence(c.second, c.first, c.right, c.left)
        assert distortion(u1, u2, c) == distortion(u2, u1, flipped)


def test_distortion_requires_full_coverage():
    u1 = PseudoUltrametric(["x1", "x2"], np.array([[0.0, 5.0], [5.0, 0.0]]))
    u2 = PseudoUltrametric(["y1", "y2"], np.array([[0.0, 3.0], [3.0, 0.0]]))
    with pytest.raises(ValidationError, match="misses first-side point 'x2'"):
        Correspondence.from_pairs([("x1", "y1"), ("x1", "y2")], u1.points, u2.points)
    with pytest.raises(ValidationError, match="unknown second-side point 'y3'"):
        Correspondence.from_pairs([("x1", "y1"), ("x2", "y3")], u1.points, u2.points)
    other = Correspondence.from_pairs([("x1", "y1"), ("x2", "y2")], ("x2", "x1"), u2.points)
    with pytest.raises(ValidationError, match="correspondence joins other levels"):
        distortion(u1, u2, other)


def _same(x, y):
    """Equal floats, or both NaN."""
    return x == y or (math.isnan(x) and math.isnan(y))


def _covering_relation(rng, p_ids, q_ids):
    """A random relation that projects onto both point lists."""
    pairs = set()
    for p in p_ids:
        size = int(rng.integers(1, len(q_ids) + 1))
        pairs |= {(p, q_ids[j]) for j in rng.choice(len(q_ids), size=size, replace=False)}
    for q in set(q_ids) - {q for _, q in pairs}:
        pairs.add((p_ids[int(rng.integers(len(p_ids)))], q))
    return Correspondence.from_pairs(pairs, p_ids, q_ids)


def _assert_matches_reference(u1, u2, corr, ambient=None):
    assert _same(distortion(u1, u2, corr), reference_distortion(u1, u2, corr))
    if ambient is not None:
        assert locality(corr, ambient) == reference_locality(corr, ambient)


def test_distortion_matches_reference_on_differential_samplings():
    """Both fits of three random levels of every differential space, listed
    in id order and shuffled, linked by their Hausdorff correspondences and
    by random covering relations."""
    rng = np.random.default_rng(61)
    for space in differential_spaces():
        n = len(space)
        levels = [
            [space.points[j] for j in
             sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))]
            for _ in range(3)
        ]
        in_id_order = TemporalSampling(space, levels)
        for samp in (in_id_order, shuffled_levels(rng, in_id_order)):
            for scheme in ("fkw", "subdominant"):
                sol = solve_local(samp, scheme=scheme)
                for i, corr in enumerate(sol.correspondences):
                    u1, u2 = sol.ultrametrics[i], sol.ultrametrics[i + 1]
                    _assert_matches_reference(u1, u2, corr, space)
                    relation = _covering_relation(rng, *samp.levels[i:i + 2])
                    _assert_matches_reference(u1, u2, relation, space)


def test_distortion_matches_reference_on_hardness_witnesses():
    """Color-class witnesses pair each color with a whole class; a coloring
    that leaves a color unused gives no correspondence at all."""
    rng = np.random.default_rng(62)
    for n in range(1, 9):
        graph = random_graph(rng, n)
        for _ in range(8):
            coloring = {v: COLORS[int(rng.integers(3))] for v in graph.vertices}
            unused = sorted(set(COLORS) - set(coloring.values()))
            if unused:
                with pytest.raises(ValidationError,
                                   match=f"misses first-side point '{unused[0]}'"):
                    raw_color_witness(graph.vertices, coloring)
                continue
            wit = raw_color_witness(graph.vertices, coloring)
            flipped = Correspondence.from_pairs(((v, c) for c, v in wit.corr.pairs),
                                                wit.u_v.points, wit.u_p.points)
            for u1, u2, corr in ((wit.u_p, wit.u_v, wit.corr), (wit.u_v, wit.u_p, flipped)):
                assert distortion(u1, u2, corr) == reference_distortion(u1, u2, corr)


def test_distortion_matches_reference_when_one_point_has_many_partners():
    """Stars on either side, two crossed stars and the full relation, also
    given to the dataclass directly as shuffled index arrays with repeats."""
    rng = np.random.default_rng(63)
    for n1, n2 in ((1, 12), (12, 1), (5, 30), (30, 5), (20, 20)):
        ambient = cloud_space(rng, n1 + n2)
        u1 = subdominant_ultrametric(ambient.restrict(ambient.points[:n1]))
        u2 = subdominant_ultrametric(ambient.restrict(ambient.points[n1:]))
        hub_p, hub_q = u1.points[-1], u2.points[0]
        anyq = [u2.points[int(rng.integers(n2))] for _ in u1.points]
        anyp = [u1.points[int(rng.integers(n1))] for _ in u2.points]
        relations = [
            [(hub_p, q) for q in u2.points] + list(zip(u1.points, anyq)),
            [(p, hub_q) for p in u1.points] + list(zip(anyp, u2.points)),
            [(hub_p, q) for q in u2.points] + [(p, hub_q) for p in u1.points],
            [(p, q) for p in u1.points for q in u2.points],
        ]
        for pairs in relations:
            corr = Correspondence.from_pairs(pairs, u1.points, u2.points)
            _assert_matches_reference(u1, u2, corr, ambient)
            shuffled = [pairs[j] for j in rng.permutation(len(pairs))]
            index = [(u1.index_of(p), u2.index_of(q)) for p, q in shuffled + shuffled[:3]]
            raw = Correspondence(u1.points, u2.points, *zip(*index))
            assert raw.to_list() == [list(pair) for pair in sorted(set(pairs))]
            _assert_matches_reference(u1, u2, raw, ambient)


def _merged_ultrametric(rng, prefix, n):
    """Heights of n - 1 random merges at sorted heights drawn from
    {0, 1, 2, 3, inf}: random nested partitions, an exact ultrametric with
    infinite heights, which the validated constructor cannot take."""
    mu = np.zeros((n, n))
    clusters = [[i] for i in range(n)]
    for h in np.sort(rng.choice([0.0, 1.0, 2.0, 3.0, math.inf], size=n - 1)):
        i, j = sorted(rng.choice(len(clusters), size=2, replace=False))
        joined = clusters.pop(j)
        mu[np.ix_(clusters[i], joined)] = mu[np.ix_(joined, clusters[i])] = h
        clusters[i] += joined
    points = [f"{prefix}{i}" for i in range(n)]
    PseudoUltrametric(points, np.where(np.isinf(mu), 4.0, mu))  # the finite twin validates
    return PseudoUltrametric(points, mu, validate=False)


def test_distortion_keeps_nan_and_inf_of_infinite_heights():
    """inf - inf is NaN in the block reference; distortion must return NaN
    there too, also when the same block has a finite partner height (which
    makes the other term inf), and inf where only one side is infinite: on
    four explicit cases and on random nested partitions with infinite
    heights."""
    inf = math.inf
    u1 = PseudoUltrametric(["a", "b"], [[0, inf], [inf, 0]], validate=False)
    fin1 = PseudoUltrametric(["a", "b"], [[0, 1], [1, 0]])
    u2 = PseudoUltrametric(["x", "y", "z"], [[0, inf, 1], [inf, 0, inf], [1, inf, 0]],
                           validate=False)
    fin2 = PseudoUltrametric(["x", "y", "z"], [[0, 2, 1], [2, 0, 2], [1, 2, 0]])
    corr = Correspondence.from_pairs([("a", "x"), ("b", "y"), ("b", "z")], u1.points, u2.points)
    rng = np.random.default_rng(64)
    with np.errstate(invalid="ignore"):  # inf - inf, in both routines
        for left, right, want in ((u1, u2, math.nan), (u1, fin2, inf), (fin1, u2, inf),
                                  (fin1, fin2, 2.0)):
            got = distortion(left, right, corr)
            assert _same(got, want) and _same(got, reference_distortion(left, right, corr))
        for _ in range(60):
            u1 = _merged_ultrametric(rng, "a", int(rng.integers(1, 6)))
            u2 = _merged_ultrametric(rng, "b", int(rng.integers(1, 6)))
            _assert_matches_reference(u1, u2, _covering_relation(rng, u1.points, u2.points))


@pytest.mark.parametrize("seed", [0, 1])
def test_distortion_equals_both_oracles_on_flock_fits(seed):
    """Both schemes' fits of a 40-actor flock: the diameter identity gives
    the K x K block's and the grouped reductions' value bit for bit."""
    samp = run(SimConfig(actor_count=40, seed=seed))
    for scheme in ("fkw", "subdominant"):
        sol = solve_local(samp, scheme=scheme)
        for i, corr in enumerate(sol.correspondences):
            u1, u2 = sol.ultrametrics[i], sol.ultrametrics[i + 1]
            got = distortion(u1, u2, corr)
            assert got == reference_distortion(u1, u2, corr) == grouped_distortion(u1, u2, corr)


def test_distortion_stays_within_two_tol_of_heights_that_pass_within_tol():
    """Heights whose triples hold only within TOL: fits of integer-tie spaces
    replayed from dendrograms with sub-TOL dips, and validated with sub-TOL
    noise. The diameter identity is then off by at most one TOL per
    triangle step, and it is off on some of these inputs."""
    rng = np.random.default_rng(66)

    def dipped(u):
        d = to_dendrogram(u)
        merges = [(h - rng.uniform(0.0, 0.9 * TOL), a, b) for h, a, b in d.merges]
        return Dendrogram(d.leaves, merges).to_ultrametric()

    def noisy(u):
        noise = np.triu(rng.uniform(0.0, 0.9 * TOL, size=u.mu.shape), 1)
        return PseudoUltrametric(u.points, u.mu + noise + noise.T)

    gaps = []
    for _ in range(100):
        fits = [fkw_fit(sp).ultrametric if rng.integers(2) else subdominant_ultrametric(sp)
                for sp in (grid_space(rng, int(rng.integers(2, 10))) for _ in range(2))]
        for make in (dipped, noisy):
            u1, u2 = make(fits[0]), make(fits[1])
            corr = _covering_relation(rng, u1.points, u2.points)
            want = reference_distortion(u1, u2, corr)
            assert want == grouped_distortion(u1, u2, corr)
            gaps.append(abs(distortion(u1, u2, corr) - want))
    assert max(gaps) <= 2 * TOL
    assert max(gaps) > 0


# ---------------------------------------------------------------- solve_local


def make_sampling(ambient, levels):
    from thclust import TemporalSampling

    return TemporalSampling(ambient, levels)


def test_solve_local_single_level_is_vacuous():
    ambient = tiny_ambient()
    sol = solve_local(make_sampling(ambient, [["a", "b"]]))
    assert sol.delta == 0.0
    assert sol.rho == 0.0
    assert sol.delta_vacuous
    assert sol.correspondences == ()


def test_solve_local_identical_levels_have_zero_delta_rho():
    rng = np.random.default_rng(23)
    ambient = cloud_space(rng, 6)
    level = list(ambient.points[:4])
    sol = solve_local(make_sampling(ambient, [level, level, level]))
    assert sol.delta == 0.0
    assert sol.rho == 0.0
    assert not sol.delta_vacuous


def test_solve_local_line_example():
    sol = solve_local(make_sampling(tiny_ambient(), [["a"], ["a", "b"], ["a"]]))
    assert sol.chi == 0.0
    assert sol.delta == 3.0
    assert sol.rho == 3.0


def test_solve_local_rejects_unknown_scheme():
    with pytest.raises(ValidationError):
        solve_local(make_sampling(tiny_ambient(), [["a"]]), scheme="ward")


# ---------------------------------------------------------------- certification


def test_evaluate_general_accepts_solver_output():
    rng = np.random.default_rng(25)
    for scheme, factor in (("fkw", 2.0), ("subdominant", 1.0)):
        for _ in range(15):
            sol = solve_local(random_sampling(rng), scheme=scheme)
            cert = evaluate_general(sol)
            assert abs(cert.chi - sol.chi) < 1e-9
            assert abs(cert.delta - sol.delta) < 1e-9
            assert abs(cert.rho - sol.rho) < 1e-9
            assert abs(cert.bound - (factor * cert.chi + 2.0 * cert.delta)) < 1e-9
            assert cert.rho <= cert.bound + 1e-9


def test_evaluate_general_rejects_tampered_metrics():
    rng = np.random.default_rng(26)
    sol = solve_local(random_sampling(rng, min_levels=2))
    forged = dataclasses.replace(sol, rho=sol.rho + 1.0)
    with pytest.raises(CertificationError):
        evaluate_general(forged)


def test_evaluate_general_rejects_swapped_fit():
    ambient = tiny_ambient()
    sol = solve_local(make_sampling(ambient, [["a", "b"], ["a", "b"]]))
    wrong = PseudoUltrametric(["a", "b"], np.array([[0.0, 99.0], [99.0, 0.0]]))
    forged = dataclasses.replace(sol, ultrametrics=(wrong, sol.ultrametrics[1]))
    with pytest.raises(CertificationError):
        evaluate_general(forged)


def test_replace_refuses_an_ultrametric_of_other_points():
    ambient = tiny_ambient()
    sol = solve_local(make_sampling(ambient, [["a", "b"], ["a", "b"]]))
    wrong = PseudoUltrametric(["a", "c"], np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValidationError, match="mismatch the sampling"):
        dataclasses.replace(sol, ultrametrics=(wrong, sol.ultrametrics[1]))


@pytest.mark.parametrize("pairs, message", [
    ([("a", "a"), ("b", "b"), ("z", "b")], "unknown first-side point 'z'"),
    ([("a", "a"), ("b", "b"), ("b", "z")], "unknown second-side point 'z'"),
    ([("a", "a"), ("a", "b")], "misses first-side point 'b'"),
])
def test_from_pairs_names_a_bad_correspondence(pairs, message):
    """A correspondence is checked against both levels when made, so a
    forged one never reaches the certifier."""
    ambient = tiny_ambient()
    sol = solve_local(make_sampling(ambient, [["a", "b"], ["a", "b"]]))
    with pytest.raises(ValidationError, match=message):
        Correspondence.from_pairs(pairs, *sol.sampling.levels)


def test_local_solution_refuses_a_correspondence_of_other_levels():
    ambient = tiny_ambient()
    sol = solve_local(make_sampling(ambient, [["a", "b"], ["a", "b"]]))
    corr = Correspondence.from_pairs([("a", "a"), ("b", "b")], ("b", "a"), ("a", "b"))
    with pytest.raises(ValidationError, match="correspondence joins other levels"):
        dataclasses.replace(sol, correspondences=(corr,))
    doc = sol.to_dict()
    with pytest.raises(ValidationError, match="wrong number of correspondences"):
        LocalSolution.from_dict({**doc, "correspondences": doc["correspondences"] * 2})


def two_level_solution():
    return solve_local(make_sampling(tiny_ambient(), [["a", "b"], ["b", "c"]]))


def misfits(sol):
    """Field changes that misfit a two-level solution to its sampling, by
    name, each with the message that refuses it."""
    fit0, fit1 = sol.ultrametrics
    count = "solution has wrong number of"
    points = "level 0 ultrametric points mismatch the sampling"
    return {
        "one-ultrametric": ({"ultrametrics": (fit0,)}, f"{count} ultrametrics"),
        "three-ultrametrics": ({"ultrametrics": (fit0, fit1, fit1)}, f"{count} ultrametrics"),
        "no-correspondence": ({"correspondences": ()}, f"{count} correspondences"),
        "two-correspondences": ({"correspondences": sol.correspondences * 2},
                                f"{count} correspondences"),
        "other-level-points": ({"ultrametrics": (fit1, fit1)}, points),
        "reordered-points": ({"ultrametrics": (
            PseudoUltrametric(["b", "a"], fit0.mu[::-1, ::-1]), fit1)}, points),
        "other-levels-joined": ({"correspondences": (Correspondence.from_pairs(
            [("b", "b"), ("a", "c")], ("b", "a"), ("b", "c")),)},
            "correspondence joins other levels"),
    }


@pytest.mark.parametrize("name", [
    "one-ultrametric", "three-ultrametrics", "no-correspondence", "two-correspondences",
    "other-level-points", "reordered-points", "other-levels-joined",
])
def test_local_solution_refuses_a_shape_that_misfits_its_sampling(name):
    """One ultrametric per level over exactly its point tuple and one
    correspondence per adjacent pair, joining exactly those levels: checked
    when made, by the constructor and by ``dataclasses.replace`` alike."""
    sol = two_level_solution()
    change, message = misfits(sol)[name]
    with pytest.raises(ValidationError, match=message):
        LocalSolution(**{**vars(sol), **change})
    with pytest.raises(ValidationError, match=message):
        dataclasses.replace(sol, **change)


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["ultrametrics"].pop(), "solution has wrong number of ultrametrics"),
    (lambda doc: doc["ultrametrics"].append(doc["ultrametrics"][0]),
     "solution has wrong number of ultrametrics"),
    (lambda doc: doc["correspondences"].pop(), "solution has wrong number of correspondences"),
    (lambda doc: doc["correspondences"].append(doc["correspondences"][0]),
     "solution has wrong number of correspondences"),
    (lambda doc: doc["ultrametrics"].__setitem__(0, doc["ultrametrics"][1]),
     "level 0 ultrametric points mismatch the sampling"),
    (lambda doc: doc["ultrametrics"][0]["leaves"].reverse(),
     "level 0 ultrametric points mismatch the sampling"),
], ids=["one-dendrogram", "three-dendrograms", "no-correspondence", "two-correspondences",
        "other-level-dendrogram", "reordered-leaves"])
def test_solution_document_refuses_a_shape_that_misfits_its_sampling(edit, message):
    """A document's correspondences are read against their own levels, so
    the fourth misfit, a correspondence joining other levels, cannot be
    written in one."""
    doc = two_level_solution().to_dict()
    LocalSolution.from_dict(doc)
    edit(doc)
    with pytest.raises(ValidationError, match=message):
        LocalSolution.from_dict(doc)


def test_local_solution_round_trip():
    rng = np.random.default_rng(27)
    sol = solve_local(random_sampling(rng, min_levels=2), scheme="subdominant")
    back = LocalSolution.from_dict(sol.to_dict())
    assert back.scheme == sol.scheme
    assert back.chi == sol.chi
    assert back.delta == sol.delta
    assert back.rho == sol.rho
    for a, b in zip(back.ultrametrics, sol.ultrametrics):
        assert np.array_equal(a.mu, b.mu)
    evaluate_general(back)


@pytest.mark.parametrize("scheme", ["fkw", "subdominant"])
def test_solution_document_stores_dendrograms_that_reload_bit_identical(scheme):
    sol = solve_local(run(SimConfig(actor_count=40, seed=4)), scheme=scheme)
    doc = sol.to_dict()
    assert all(set(level) == {"leaves", "merges"} for level in doc["ultrametrics"])
    back = LocalSolution.from_dict(doc)
    assert len(back.ultrametrics) == len(sol.ultrametrics) > 1
    for a, b in zip(back.ultrametrics, sol.ultrametrics):
        assert a.points == b.points
        assert np.array_equal(a.mu, b.mu)
    cert = evaluate_general(back)
    assert (cert.chi, cert.delta, cert.rho) == (sol.chi, sol.delta, sol.rho)


@pytest.mark.parametrize("name", ["chi", "delta", "rho"])
@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "x", "1.5", True, None])
def test_solution_document_rejects_nonfinite_metric(name, token):
    doc = solve_local(random_sampling(np.random.default_rng(28), min_levels=2)).to_dict()
    doc[name] = token
    with pytest.raises(ValidationError, match=f"stored {name} must be a finite number"):
        LocalSolution.from_dict(doc)


@pytest.mark.parametrize("key, value, message", [
    ("ultrametrics", 5, "ultrametrics must be a list"),
    ("correspondences", "ab", "correspondences must be a list"),
    ("correspondences", [5], "correspondence must be a list"),
    ("correspondences", [[["a", "b", "c"]]], "correspondence entry must have 2 items"),
    ("ultrametrics", [5], "level document must be an object"),
    ("scheme", 1, "scheme must be a string"),
    # the string "false" is no JSON false
    ("delta_vacuous", "false", "'delta_vacuous' must be true or false"),
    ("delta_vacuous", 0, "'delta_vacuous' must be true or false"),
])
def test_solution_document_refuses_non_lists(key, value, message):
    doc = solve_local(random_sampling(np.random.default_rng(28), min_levels=2)).to_dict()
    with pytest.raises(ValidationError, match=message):
        LocalSolution.from_dict({**doc, key: value})


@pytest.mark.parametrize("entry", ["0.5", False])
def test_solution_document_refuses_text_and_booleans_in_ultrametrics(entry):
    sol = solve_local(random_sampling(np.random.default_rng(28), min_levels=2))
    doc = {**sol.to_dict(), "ultrametrics": [u.to_dict() for u in sol.ultrametrics]}  # format 1
    matrix = next(u["matrix"] for u in doc["ultrametrics"] if len(u["points"]) > 1)
    matrix[0][1] = matrix[1][0] = entry
    with pytest.raises(ValidationError, match="height matrix must hold numbers only"):
        LocalSolution.from_dict(doc)


@pytest.mark.parametrize("entry", ["0.5", False])
def test_solution_document_refuses_text_and_booleans_in_merge_heights(entry):
    doc = solve_local(random_sampling(np.random.default_rng(28), min_levels=2)).to_dict()
    next(u for u in doc["ultrametrics"] if u["merges"])["merges"][0][0] = entry
    with pytest.raises(ValidationError, match="merge 0 height must be a finite number"):
        LocalSolution.from_dict(doc)


@pytest.mark.parametrize("name", ["chi", "delta", "rho"])
@pytest.mark.parametrize("value", ["x", None, True, [1.0], math.inf, math.nan,
                                   np.float32("inf"), np.float16("nan")])
def test_local_solution_refuses_a_metric_that_is_no_finite_number(name, value):
    """Text, None and lists used to be accepted and then raise TypeError in
    ``certify``, and True was certified as 1."""
    sol = solve_local(random_sampling(np.random.default_rng(28), min_levels=2))
    with pytest.raises(ValidationError, match=f"stored {name} must be a finite number"):
        dataclasses.replace(sol, **{name: value})


def test_local_solution_stores_its_metrics_as_floats():
    sol = solve_local(random_sampling(np.random.default_rng(28), min_levels=2))
    forged = dataclasses.replace(sol, chi=np.float64(0.5), delta=2, rho=np.float64(sol.rho))
    assert [type(getattr(forged, name)) for name in ("chi", "delta", "rho")] == [float] * 3
    assert (forged.chi, forged.delta, forged.rho) == (0.5, 2.0, sol.rho)
    narrow = dataclasses.replace(sol, chi=np.float32(0.5)).chi
    assert type(narrow) is float and narrow == 0.5


def test_local_solution_refuses_an_unknown_scheme():
    """An unknown scheme has no bound to certify under, so no solution holds
    one, however it is made."""
    sol = solve_local(run(SimConfig(actor_count=10, seed=0)))
    with pytest.raises(ValidationError, match="unknown scheme 'bogus'; expected one of"):
        LocalSolution.from_dict({**sol.to_dict(), "scheme": "bogus"})
    with pytest.raises(ValidationError, match="unknown scheme 'ward'; expected one of"):
        dataclasses.replace(sol, scheme="ward")


def test_delta_vacuous_follows_the_level_count():
    """Derived from the level count: a stored value must agree with it, and a
    missing one is read from it."""
    many = solve_local(run(SimConfig(actor_count=10, seed=0)))
    one = solve_local(make_sampling(tiny_ambient(), [["a", "b"]]))
    assert many.sampling.t == 13 and not many.delta_vacuous
    assert one.to_dict()["delta_vacuous"] is True
    with pytest.raises(ValidationError, match="'delta_vacuous' True disagrees"):
        LocalSolution.from_dict({**many.to_dict(), "delta_vacuous": True})
    with pytest.raises(ValidationError, match="'delta_vacuous' False disagrees"):
        LocalSolution.from_dict({**one.to_dict(), "delta_vacuous": False})
    for sol in (many, one):
        doc = sol.to_dict()
        del doc["delta_vacuous"]
        back = LocalSolution.from_dict(doc)
        assert back.delta_vacuous is sol.delta_vacuous
        evaluate_general(back)


def test_evaluate_general_refuses_a_nan_metric():
    """No solution is made with a NaN metric; one that holds it anyway,
    written past the constructor, is still refused by the certificate."""
    sol = solve_local(random_sampling(np.random.default_rng(29), min_levels=2))
    for name in ("chi", "delta", "rho"):
        with pytest.raises(ValidationError, match=f"stored {name} must be a finite number"):
            dataclasses.replace(sol, **{name: math.nan})
        forged = copy.copy(sol)
        object.__setattr__(forged, name, math.nan)
        with pytest.raises(CertificationError, match=f"stored {name} nan disagrees"):
            evaluate_general(forged)
