import numpy as np
import pytest

from helpers import cloud_space, dense_space, line_space, random_space, shortest_path_oracle
from thclust import (
    MetricSpace,
    TemporalSampling,
    ValidationError,
    hausdorff_distance,
    linf_distance,
    perturb,
    shortest_path_closure,
)


def test_line_space_distances_match_coordinates():
    space = line_space([0.0, 1.0, 3.0], ids=["a", "b", "c"])
    want = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])
    assert np.array_equal(space.dist, want)
    assert space.points == ("a", "b", "c")
    assert space.distance("a", "c") == 3.0


def test_asymmetric_matrix_rejected():
    m = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValidationError):
        MetricSpace(["a", "b"], dist=m)


def test_negative_distance_rejected():
    m = np.array([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(ValidationError):
        MetricSpace(["a", "b"], dist=m)


def test_nonzero_diagonal_rejected():
    m = np.array([[0.5, 1.0], [1.0, 0.0]])
    with pytest.raises(ValidationError):
        MetricSpace(["a", "b"], dist=m)


def test_triangle_violation_rejected():
    m = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(ValidationError):
        MetricSpace(["a", "b", "c"], dist=m)


def test_duplicate_point_ids_rejected():
    with pytest.raises(ValidationError):
        line_space([0.0, 1.0], ids=["a", "a"])


def test_zero_off_diagonal_requires_pseudo_flag():
    m = np.array([[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValidationError):
        MetricSpace(["a", "b"], dist=m)
    space = MetricSpace(["a", "b"], dist=m, pseudo=True)
    assert space.distance("a", "b") == 0.0


def test_coords_and_matrix_must_agree():
    coords = np.array([[0.0], [1.0]])
    good = np.array([[0.0, 1.0], [1.0, 0.0]])
    bad = np.array([[0.0, 1.5], [1.5, 0.0]])
    MetricSpace(["a", "b"], dist=good, coords=coords)
    with pytest.raises(ValidationError):
        MetricSpace(["a", "b"], dist=bad, coords=coords)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_coords_rejected(bad):
    coords = np.array([[0.0], [bad], [1.0]])
    with pytest.raises(ValidationError, match="finite"):
        MetricSpace(["a", "b", "c"], coords=coords)
    dist = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    with pytest.raises(ValidationError, match="finite"):
        MetricSpace(["a", "b", "c"], dist=dist, coords=coords)


def test_distance_matrix_is_frozen():
    space = line_space([0.0, 2.0])
    with pytest.raises(ValueError):
        space.dist[0, 1] = 7.0


def test_restrict_preserves_caller_order():
    space = line_space([0.0, 1.0, 3.0], ids=["a", "b", "c"])
    sub = space.restrict(["c", "a"])
    assert sub.points == ("c", "a")
    assert sub.distance("c", "a") == 3.0


def test_serialization_round_trip_matrix_and_coords():
    rng = np.random.default_rng(0)
    for space in (dense_space(rng, 5), cloud_space(rng, 4, dim=3)):
        back = MetricSpace.from_dict(space.to_dict())
        assert back == space
    pseudo = MetricSpace(["a", "b"], dist=np.zeros((2, 2)), pseudo=True)
    assert MetricSpace.from_dict(pseudo.to_dict()) == pseudo


def test_closure_matches_simple_path_oracle():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        raw = rng.uniform(0.5, 5.0, size=(n, n))
        raw = (raw + raw.T) / 2.0
        np.fill_diagonal(raw, 0.0)
        # knock out some edges entirely
        for _ in range(n):
            i, j = rng.integers(n, size=2)
            if i != j:
                raw[i, j] = raw[j, i] = np.inf
        closed = shortest_path_closure(raw)
        if np.isinf(closed).any():
            continue  # disconnected draw
        assert np.allclose(closed, shortest_path_oracle(raw), atol=1e-12)
        MetricSpace([str(i) for i in range(n)], dist=closed)


def test_perturb_zero_eps_returns_identical_space():
    rng = np.random.default_rng(2)
    space = cloud_space(rng, 6)
    moved = perturb(space, 0.0, seed=9)
    assert moved == space


def test_perturb_stays_within_eps_and_is_seeded():
    rng = np.random.default_rng(3)
    for trial in range(40):
        space = random_space(rng, int(rng.integers(2, 10)))
        eps = float(rng.uniform(0.0, 1.0))
        seed = int(rng.integers(2**31))
        moved = perturb(space, eps, seed=seed)
        assert moved.points == space.points
        assert np.abs(moved.dist - space.dist).max() <= eps + 1e-9
        MetricSpace(moved.points, dist=moved.dist, pseudo=moved.pseudo)  # still a metric
        again = perturb(space, eps, seed=seed)
        assert again == moved


def test_perturb_keeps_pseudo_flag():
    space = MetricSpace(["a", "b", "c"], dist=np.zeros((3, 3)), pseudo=True)
    moved = perturb(space, 0.5, seed=4)
    assert moved.pseudo


def test_linf_aligns_by_point_id():
    a = MetricSpace(["x", "y"], dist=np.array([[0.0, 1.0], [1.0, 0.0]]))
    b = MetricSpace(["y", "x"], dist=np.array([[0.0, 5.0], [5.0, 0.0]]))
    assert linf_distance(a, b) == 4.0


def test_linf_names_missing_point():
    a = line_space([0.0, 1.0], ids=["a", "b"])
    b = line_space([0.0, 1.0], ids=["a", "c"])
    with pytest.raises(ValidationError, match="b"):
        linf_distance(a, b)


def test_hausdorff_known_values():
    ambient = line_space([0.0, 3.0, 10.0], ids=["a", "b", "c"])
    assert hausdorff_distance(["a"], ["a", "b"], ambient) == 3.0
    assert hausdorff_distance(["a", "b"], ["a"], ambient) == 3.0
    assert hausdorff_distance(["a"], ["c"], ambient) == 10.0
    assert hausdorff_distance(["a", "b", "c"], ["a", "b", "c"], ambient) == 0.0


def test_hausdorff_rejects_empty_side():
    ambient = line_space([0.0, 1.0])
    with pytest.raises(ValidationError):
        hausdorff_distance([], ["p0"], ambient)


def test_sampling_validation():
    ambient = line_space([0.0, 1.0, 2.0], ids=["a", "b", "c"])
    with pytest.raises(ValidationError):
        TemporalSampling(ambient, [])
    with pytest.raises(ValidationError):
        TemporalSampling(ambient, [["a", "a"]])
    with pytest.raises(ValidationError):
        TemporalSampling(ambient, [["a"], ["z"]])


def test_sampling_accessors_and_round_trip():
    ambient = line_space([0.0, 1.0, 2.0], ids=["a", "b", "c"])
    samp = TemporalSampling(ambient, [["a", "c"], ["b"]])
    assert samp.t == 2
    assert samp.size == 3
    assert samp.level_space(0).points == ("a", "c")
    back = TemporalSampling.from_dict(samp.to_dict())
    assert back.levels == samp.levels
    assert back.ambient == samp.ambient
