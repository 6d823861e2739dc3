import dataclasses
import math

import numpy as np
import pytest

from helpers import (
    cloud_space,
    correspondence_localities,
    differential_spaces,
    line_space,
    min_locality_scan,
    outcome,
    random_graph,
    random_sampling,
    raw_color_witness,
    reference_distortion,
    reference_locality,
)
from thclust import (
    COLORS,
    CertificationError,
    Correspondence,
    LocalSolution,
    PseudoUltrametric,
    SimConfig,
    TemporalSampling,
    ValidationError,
    build_hausdorff_correspondence,
    distortion,
    evaluate_general,
    hausdorff_distance,
    locality,
    run,
    solve_local,
    subdominant_ultrametric,
)


def tiny_ambient():
    return line_space([0.0, 3.0, 10.0], ids=["a", "b", "c"])


# ---------------------------------------------------------------- correspondences


def test_correspondence_canonical_form():
    c = Correspondence.from_pairs([("b", "y"), ("a", "x"), ("b", "y")])
    assert c.pairs == (("a", "x"), ("b", "y"))
    assert c.left() == {"a", "b"}
    assert c.right() == {"x", "y"}


def test_correspondence_pairs_have_two_items():
    for pairs, message in (([("a",)], "correspondence entry must have 2 items"),
                           ([("a", "x", "y")], "correspondence entry must have 2 items"),
                           ([5], "correspondence entry must be a list"),
                           ([("a", 1)], "correspondence point must be a string")):
        with pytest.raises(ValidationError, match=message):
            Correspondence.from_pairs(pairs)
    assert Correspondence.from_pairs(iter([["b", "y"]])).pairs == (("b", "y"),)


def test_locality_is_worst_pair_distance():
    ambient = tiny_ambient()
    c = Correspondence.from_pairs([("a", "a"), ("a", "b")])
    assert locality(c, ambient) == 3.0
    with pytest.raises(ValidationError):
        locality(Correspondence.from_pairs([]), ambient)


def test_hausdorff_correspondence_known_pairs():
    ambient = tiny_ambient()
    c = build_hausdorff_correspondence(["a"], ["a", "b"], ambient)
    assert c.pairs == (("a", "a"), ("a", "b"))
    assert locality(c, ambient) == hausdorff_distance(["a"], ["a", "b"], ambient)


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
    c = Correspondence.from_pairs([("x", "x"), ("y", "y")])
    assert distortion(u, u, c) == 0.0


def test_distortion_compares_merge_heights():
    u1 = PseudoUltrametric(["x1", "x2"], np.array([[0.0, 5.0], [5.0, 0.0]]))
    u2 = PseudoUltrametric(["y1", "y2"], np.array([[0.0, 3.0], [3.0, 0.0]]))
    c = Correspondence.from_pairs([("x1", "y1"), ("x2", "y2")])
    assert distortion(u1, u2, c) == 2.0


def test_distortion_symmetric_under_transpose():
    rng = np.random.default_rng(22)
    for _ in range(20):
        samp = random_sampling(rng, min_levels=2, max_levels=2)
        sol = solve_local(samp, scheme="subdominant")
        c = sol.correspondences[0]
        u1, u2 = sol.ultrametrics
        flipped = Correspondence.from_pairs((v, u) for u, v in c.pairs)
        assert distortion(u1, u2, c) == distortion(u2, u1, flipped)


def test_distortion_requires_full_coverage():
    u1 = PseudoUltrametric(["x1", "x2"], np.array([[0.0, 5.0], [5.0, 0.0]]))
    u2 = PseudoUltrametric(["y1", "y2"], np.array([[0.0, 3.0], [3.0, 0.0]]))
    partial = Correspondence.from_pairs([("x1", "y1"), ("x1", "y2")])
    with pytest.raises(ValidationError, match="x2"):
        distortion(u1, u2, partial)


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
    return Correspondence.from_pairs(pairs)


def _assert_matches_reference(u1, u2, corr, ambient=None):
    assert _same(distortion(u1, u2, corr), reference_distortion(u1, u2, corr))
    if ambient is not None:
        assert locality(corr, ambient) == reference_locality(corr, ambient)


def test_distortion_matches_reference_on_differential_samplings():
    """Both fits of three random levels of every differential space, linked
    by their Hausdorff correspondences and by random covering relations."""
    rng = np.random.default_rng(61)
    for space in differential_spaces():
        n = len(space)
        levels = [
            [space.points[j] for j in
             sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))]
            for _ in range(3)
        ]
        samp = TemporalSampling(space, levels)
        for scheme in ("fkw", "subdominant"):
            sol = solve_local(samp, scheme=scheme)
            for i, corr in enumerate(sol.correspondences):
                u1, u2 = sol.ultrametrics[i], sol.ultrametrics[i + 1]
                _assert_matches_reference(u1, u2, corr, space)
                relation = _covering_relation(rng, levels[i], levels[i + 1])
                _assert_matches_reference(u1, u2, relation, space)


def test_distortion_matches_reference_on_hardness_witnesses():
    """Color-class witnesses pair each color with a whole class; colorings
    that leave a color unused fail coverage with the same error."""
    rng = np.random.default_rng(62)
    for n in range(1, 9):
        graph = random_graph(rng, n)
        for _ in range(8):
            coloring = {v: COLORS[int(rng.integers(3))] for v in graph.vertices}
            wit = raw_color_witness(graph.vertices, coloring)
            flipped = Correspondence.from_pairs((v, c) for c, v in wit.corr.pairs)
            for u1, u2, corr in ((wit.u_p, wit.u_v, wit.corr), (wit.u_v, wit.u_p, flipped)):
                assert outcome(distortion, u1, u2, corr) == \
                    outcome(reference_distortion, u1, u2, corr)


def test_distortion_matches_reference_when_one_point_has_many_partners():
    """Stars on either side, two crossed stars and the full relation, also
    given unsorted and with repeats to the dataclass directly."""
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
            _assert_matches_reference(u1, u2, Correspondence.from_pairs(pairs), ambient)
            shuffled = [pairs[j] for j in rng.permutation(len(pairs))]
            raw = Correspondence(pairs=tuple(shuffled + shuffled[:3]))
            _assert_matches_reference(u1, u2, raw, ambient)


def test_distortion_keeps_nan_and_inf_of_infinite_heights():
    """inf - inf is NaN in the block reference; the grouped reductions must
    return NaN there too, also when the same block has a finite partner
    height (which makes the other term inf), and inf where only one side is
    infinite."""
    inf = math.inf
    u1 = PseudoUltrametric(["a", "b"], [[0, inf], [inf, 0]], validate=False)
    fin1 = PseudoUltrametric(["a", "b"], [[0, 1], [1, 0]])
    u2 = PseudoUltrametric(["x", "y", "z"], [[0, inf, 1], [inf, 0, inf], [1, inf, 0]],
                           validate=False)
    fin2 = PseudoUltrametric(["x", "y", "z"], [[0, 2, 1], [2, 0, 2], [1, 2, 0]])
    corr = Correspondence.from_pairs([("a", "x"), ("b", "y"), ("b", "z")])
    rng = np.random.default_rng(64)
    with np.errstate(invalid="ignore"):  # inf - inf, in both routines
        for left, right, want in ((u1, u2, math.nan), (u1, fin2, inf), (fin1, u2, inf),
                                  (fin1, fin2, 2.0)):
            got = distortion(left, right, corr)
            assert _same(got, want) and _same(got, reference_distortion(left, right, corr))
        for _ in range(60):
            mats = []
            for n in (int(rng.integers(1, 6)), int(rng.integers(1, 6))):
                m = rng.integers(0, 4, size=(n, n)).astype(float)
                m[rng.random((n, n)) < 0.3] = inf
                mats.append(np.maximum(m, m.T))
            u1 = PseudoUltrametric([f"a{i}" for i in range(len(mats[0]))], mats[0],
                                   validate=False)
            u2 = PseudoUltrametric([f"b{i}" for i in range(len(mats[1]))], mats[1],
                                   validate=False)
            _assert_matches_reference(u1, u2, _covering_relation(rng, u1.points, u2.points))


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
            assert cert.scheme == scheme
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


def test_evaluate_general_rejects_wrong_points():
    ambient = tiny_ambient()
    sol = solve_local(make_sampling(ambient, [["a", "b"], ["a", "b"]]))
    wrong = PseudoUltrametric(["a", "c"], np.array([[0.0, 1.0], [1.0, 0.0]]))
    forged = dataclasses.replace(sol, ultrametrics=(wrong, sol.ultrametrics[1]))
    with pytest.raises(ValidationError):
        evaluate_general(forged)


@pytest.mark.parametrize("pairs, message", [
    ([("a", "a"), ("b", "b"), ("z", "b")], "unknown first-side point 'z'"),
    ([("a", "a"), ("b", "b"), ("b", "z")], "unknown second-side point 'z'"),
    ([("a", "a"), ("a", "b")], "misses first-side point 'b'"),
])
def test_evaluate_general_names_a_bad_correspondence(pairs, message):
    """The correspondence is checked against both levels before anything
    reads its pairs from the ambient space."""
    ambient = tiny_ambient()
    sol = solve_local(make_sampling(ambient, [["a", "b"], ["a", "b"]]))
    forged = dataclasses.replace(sol, correspondences=(Correspondence.from_pairs(pairs),))
    with pytest.raises(ValidationError, match=message):
        evaluate_general(forged)


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
    sol = solve_local(random_sampling(np.random.default_rng(29), min_levels=2))
    for name in ("chi", "delta", "rho"):
        with pytest.raises(CertificationError, match=f"stored {name} nan disagrees"):
            evaluate_general(dataclasses.replace(sol, **{name: math.nan}))
