import dataclasses
import math

import numpy as np
import pytest

from helpers import (
    cloud_space,
    correspondence_localities,
    line_space,
    min_locality_scan,
    random_sampling,
)
from thclust import (
    CertificationError,
    Correspondence,
    LocalSolution,
    PseudoUltrametric,
    ValidationError,
    build_hausdorff_correspondence,
    distortion,
    evaluate_general,
    hausdorff_distance,
    locality,
    solve_local,
)


def tiny_ambient():
    return line_space([0.0, 3.0, 10.0], ids=["a", "b", "c"])


# ---------------------------------------------------------------- correspondences


def test_correspondence_canonical_form():
    c = Correspondence.from_pairs([("b", "y"), ("a", "x"), ("b", "y")])
    assert c.pairs == (("a", "x"), ("b", "y"))
    assert c.left() == {"a", "b"}
    assert c.right() == {"x", "y"}


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


@pytest.mark.parametrize("name", ["chi", "delta", "rho"])
@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "x"])
def test_solution_document_rejects_nonfinite_metric(name, token):
    doc = solve_local(random_sampling(np.random.default_rng(28), min_levels=2)).to_dict()
    doc[name] = token
    with pytest.raises(ValidationError, match=f"stored {name} must be a finite number"):
        LocalSolution.from_dict(doc)


def test_evaluate_general_refuses_a_nan_metric():
    sol = solve_local(random_sampling(np.random.default_rng(29), min_levels=2))
    for name in ("chi", "delta", "rho"):
        with pytest.raises(CertificationError, match=f"stored {name} nan disagrees"):
            evaluate_general(dataclasses.replace(sol, **{name: math.nan}))
