import os
import subprocess
import sys
import textwrap
import threading
import time
import warnings

import numpy as np
import pytest

from helpers import (
    cloud_space,
    dense_space,
    line_space,
    outcome,
    perturb,
    random_space,
    reference_euclidean,
    reference_space_outcome,
    run,
    shortest_path_oracle,
)
from thclust import (
    TOL,
    MetricSpace,
    SimConfig,
    TemporalSampling,
    ValidationError,
    hausdorff_distance,
    linf_distance,
    shortest_path_closure,
)
from thclust import metric
from thclust.metric import _scalar_types


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


def test_matrix_and_coords_together_are_refused():
    """A space is a matrix space or a coordinate space. Given both, the
    matrix would be lost on a round trip, as only the coordinates are
    written; agreeing within ``TOL`` does not help."""
    coords = np.array([[0.0], [1.0]])
    for gap in (1.0, 1.0 + 5e-10, 1.5):
        dist = np.array([[0.0, gap], [gap, 0.0]])
        with pytest.raises(ValidationError, match="exactly one of dist and coords"):
            MetricSpace(["a", "b"], dist=dist, coords=coords)
        with pytest.raises(ValidationError, match="exactly one of dist and coords"):
            MetricSpace.from_dict({"points": ["a", "b"], "matrix": dist.tolist(),
                                   "coords": coords.tolist()})
    with pytest.raises(ValidationError, match="exactly one of dist and coords"):
        MetricSpace(["a", "b"])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_coords_rejected(bad):
    coords = np.array([[0.0], [bad], [1.0]])
    with pytest.raises(ValidationError, match="finite"):
        MetricSpace(["a", "b", "c"], coords=coords)


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


def test_pseudo_must_be_a_json_boolean():
    doc = {"points": ["a", "b"], "matrix": [[0, 0], [0, 0]]}
    with pytest.raises(ValidationError, match="zero distance"):
        MetricSpace.from_dict(doc)
    assert MetricSpace.from_dict({**doc, "pseudo": True}).pseudo
    for value in ("false", "true", 1, None):
        with pytest.raises(ValidationError, match="'pseudo' must be true or false"):
            MetricSpace.from_dict({**doc, "pseudo": value})
        with pytest.raises(ValidationError, match="'pseudo' must be true or false"):
            MetricSpace(["a", "b"], dist=[[0, 1], [1, 0]], pseudo=value)


@pytest.mark.parametrize("key, rows", [
    ("matrix", [[0, "1"], [True, 0]]),
    ("matrix", [[0, 1.0], [True, 0]]),
    ("matrix", [[0, "1"], ["1", 0]]),
    ("coords", [["0"], [1.0]]),
    ("coords", [[0.0], [True]]),
])
def test_numeric_arrays_refuse_text_and_booleans(key, rows):
    with pytest.raises(ValidationError, match="must hold numbers only"):
        MetricSpace.from_dict({"points": ["a", "b"], key: rows})
    with pytest.raises(ValidationError, match="must hold numbers only"):
        MetricSpace(["a", "b"], **{"dist" if key == "matrix" else key: rows})


def test_numeric_ndarrays_are_judged_by_dtype():
    """An int or float ndarray passes on its dtype, with no per-element scan."""
    ints = np.array([[0, 2], [2, 0]])
    space = MetricSpace(["a", "b"], dist=ints)
    assert space.dist.dtype == np.float64 and space.distance("a", "b") == 2.0
    coords = np.arange(6, dtype=np.float32).reshape(3, 2)
    assert MetricSpace(list("abc"), coords=coords).coords.dtype == np.float64
    for refused in (np.array([["0", "1"], ["1", "0"]]), np.eye(2, dtype=bool)):
        with pytest.raises(ValidationError, match="must hold numbers only"):
            MetricSpace(["a", "b"], dist=refused)
    # a scan of the elements would see Python floats, not the dtype's type
    assert _scalar_types(np.zeros((300, 300))) == {np.float64}


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


@pytest.mark.parametrize("weights, message", [
    ([[0, np.nan], [np.nan, 0]], "nonnegative"),
    ([[np.nan, 1], [1, 0]], "nonnegative"),
    ([[0, -1], [-1, 0]], "nonnegative"),
    ([[0, -np.inf], [-np.inf, 0]], "nonnegative"),
    ([[-1, 1], [1, 0]], "nonnegative"),
    ([[0, 1], [3, 0]], "symmetric"),
    ([[0, 1], [1 + 2e-9, 0]], "symmetric"),
    ([[0, np.inf], [1, 0]], "symmetric"),
])
def test_closure_refuses_bad_weights(weights, message):
    """The closure is the largest pseudometric below a symmetric matrix of
    nonnegative weights; NaN, a negative weight or an asymmetric matrix has
    none, so each is refused instead of closed."""
    with pytest.raises(ValidationError, match=message):
        shortest_path_closure(weights)


def test_closure_keeps_absent_edges_and_long_paths_without_a_warning():
    big = 1.7e308
    w = [[0, big, big], [big, 0, np.inf], [big, np.inf, 0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        closed = shortest_path_closure(w)
        nearly = shortest_path_closure([[0, 1], [1 + 5e-10, 0]])
    assert np.array_equal(closed, np.where(np.eye(3, dtype=bool), 0.0, w))
    assert nearly[0, 1] == 1.0 and nearly[1, 0] == 1 + 5e-10


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


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), float("-inf"), -0.1])
def test_perturb_refuses_eps_outside_the_finite_nonnegatives(eps):
    space = cloud_space(np.random.default_rng(2), 6)
    with pytest.raises(ValidationError, match="eps must be a finite nonnegative number"):
        perturb(space, eps, seed=0)


def test_perturb_keeps_pseudo_flag():
    space = MetricSpace(["a", "b", "c"], dist=np.zeros((3, 3)), pseudo=True)
    moved = perturb(space, 0.5, seed=4)
    assert moved.pseudo


def test_linf_refuses_spaces_over_other_point_tuples():
    """Another order of the same points is refused too: no id alignment."""
    a = line_space([0.0, 1.0], ids=["x", "y"])
    assert linf_distance(a, MetricSpace(["x", "y"], dist=[[0.0, 5.0], [5.0, 0.0]])) == 4.0
    for ids in (["y", "x"], ["x", "z"], ["x"], ["x", "y", "z"]):
        b = line_space(range(len(ids)), ids=ids)
        for pair in ((a, b), (b, a)):
            with pytest.raises(ValidationError, match="same point tuple"):
                linf_distance(*pair)


def test_linf_names_missing_point():
    a = line_space([0.0, 1.0], ids=["a", "b"])
    b = line_space([0.0, 1.0], ids=["a", "c"])
    for pair in ((a, b), (b, a)):
        with pytest.raises(ValidationError, match="'b', 'c' in one space only"):
            linf_distance(*pair)
    with pytest.raises(ValidationError, match="another order"):
        linf_distance(a, line_space([0.0, 1.0], ids=["b", "a"]))


def test_hausdorff_known_values():
    ambient = line_space([0.0, 3.0, 10.0], ids=["a", "b", "c"])
    assert hausdorff_distance(["a"], ["a", "b"], ambient) == 3.0
    assert hausdorff_distance(["a", "b"], ["a"], ambient) == 3.0
    assert hausdorff_distance(["a"], ["c"], ambient) == 10.0
    assert hausdorff_distance(["a", "b", "c"], ["a", "b", "c"], ambient) == 0.0


def test_hausdorff_reads_each_side_once():
    """One-shot iterators give the value that lists give."""
    ambient = line_space([0.0, 3.0, 10.0], ids=["a", "b", "c"])
    for p, q in ((["a"], ["a", "b"]), (["a", "b"], ["c"])):
        assert hausdorff_distance(iter(p), iter(q), ambient) == \
            hausdorff_distance(p, q, ambient)


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
    with pytest.raises(ValidationError, match="level 0 must be a list of ids"):
        TemporalSampling(ambient, "ab")


@pytest.mark.parametrize("points", [[1, 2], ["a", 2.5], "ab", []])
def test_point_sets_hold_string_ids_only(points):
    """Point ids are strings and nothing is converted: a number is not its
    text, and a bare string is not a list of one-letter ids."""
    with pytest.raises(ValidationError, match="points"):
        MetricSpace(points, dist=np.zeros((2, 2)), pseudo=True)
    ambient = line_space([0.0, 1.0], ids=["a", "b"])
    with pytest.raises(ValidationError, match="level 0"):
        TemporalSampling(ambient, [points])


def test_sampling_accessors_and_round_trip():
    ambient = line_space([0.0, 1.0, 2.0], ids=["a", "b", "c"])
    samp = TemporalSampling(ambient, [["a", "c"], ["b"]])
    assert samp.t == 2
    assert samp.size == 3
    assert samp.level_space(0).points == ("a", "c")
    back = TemporalSampling.from_dict(samp.to_dict())
    assert back.levels == samp.levels
    assert back.ambient == samp.ambient


# ---------------------------------------------------------------- triangle check
#
# Row blocks and hub blocks hold 16 points, so n = 15, 16, 17 and 33 end a
# block early, exactly and one past; n = 40 has two full blocks and a partial
# one of 8.


def _verdict(m):
    """Validate ``m`` with the blocked scan and with the hub scan; both must
    accept it or raise the same error. Returns None or the error text."""
    ids = tuple(f"p{i}" for i in range(len(m)))
    got = outcome(MetricSpace, ids, dist=m, pseudo=True)
    assert got == reference_space_outcome(ids, m, pseudo=True)
    return None if isinstance(got, MetricSpace) else got


def _violated(i, j, k):
    return f"ValidationError: triangle inequality violated for ('p{i}', 'p{j}') via 'p{k}'"


def _planted(n, i, j, k, slack, rng):
    """Distances in [1.5, 2), except legs (i, k) and (k, j) of 0.5 and the pair
    (i, j) at 1 + ``slack``: (i, j) via k is the only triple that can fail."""
    m = rng.uniform(1.5, 2.0, size=(n, n))
    m = (m + m.T) / 2.0
    m[i, k] = m[k, i] = m[j, k] = m[k, j] = 0.5
    m[i, j] = m[j, i] = 1.0 + slack
    np.fill_diagonal(m, 0.0)
    return m


def _closure(rng, n):
    raw = rng.uniform(0.5, 5.0, size=(n, n))
    return shortest_path_closure((raw + raw.T) / 2.0)


def test_triangle_check_matches_hub_scan_on_metrics():
    """Clouds, shortest-path closures (tight triangles with zero slack) and
    perturbed matrices are all accepted, as the hub scan accepts them."""
    rng = np.random.default_rng(40)
    for n in (1, 2, 3, 15, 16, 17, 33, 40, 64):
        cloud = cloud_space(rng, n)
        for m in (cloud.dist, _closure(rng, n), perturb(cloud, 0.5, seed=n).dist,
                  dense_space(rng, n).dist):
            assert _verdict(m) is None


def test_triangle_check_matches_hub_scan_near_tol():
    """Closures with symmetric noise of up to 0.3, 1 and 3 TOL per entry
    (slack up to 9 TOL): accepted and refused alike, with the same first
    triple."""
    rng = np.random.default_rng(41)
    verdicts = set()
    for n in (2, 3, 15, 16, 17, 33, 40):
        for scale in (0.3, 1.0, 3.0):
            noise = rng.uniform(-scale * TOL, scale * TOL, size=(n, n))
            m = _closure(rng, n) + (noise + noise.T) / 2.0
            np.fill_diagonal(m, 0.0)
            verdicts.add(_verdict(m) is None)
    assert verdicts == {True, False}


def test_triangle_check_names_a_violation_in_every_block_position():
    """One violating pair with its row in the first, a middle and the last
    (partial) row block, its column anywhere, and its hub in the first, a
    middle and the last hub block; slack from half a TOL to 0.25."""
    rng = np.random.default_rng(42)
    for n, rows, hubs, cols in ((40, (2, 20, 35), (5, 24, 38), (0, 21, 39)),
                                (33, (1, 17, 32), (4, 30, 32), (0, 16, 31)),
                                (17, (0, 9, 16), (3, 15, 16), (1, 8, 16))):
        for i in rows:
            for k in hubs:
                for j in cols:
                    if len({i, j, k}) < 3:
                        continue
                    for slack in (0.5 * TOL, 1.0 * TOL, 1.5 * TOL, 2.0 * TOL, 0.25):
                        got = _verdict(_planted(n, i, j, k, slack, rng))
                        if slack >= 1.5 * TOL:
                            assert got == _violated(min(i, j), max(i, j), k)
                        elif slack == 0.5 * TOL:
                            assert got is None


def test_triangle_check_reads_violations_from_the_lower_triangle():
    """A tight triple (i, j) via k whose violation is written only into the
    lower triangle: the pair raised by a, both legs lowered by b, so the
    canonical slack is a / 2 + b. An edit of just under TOL is the largest
    the symmetry check lets through, so the slack reaches 0.5, 1 and just
    under 1.5 TOL; a 2 TOL edit is refused as asymmetric by both scans."""
    rng = np.random.default_rng(43)
    for n, i, j, k in ((40, 3, 37, 20), (40, 36, 34, 2), (17, 16, 0, 8), (33, 32, 5, 18)):
        pair = f"('p{min(i, j)}', 'p{max(i, j)}')"
        for a, b, want in ((0.999, 0.0, None), (0.999, 0.5, None),
                           (0.999, 0.51, _violated(min(i, j), max(i, j), k)),
                           (0.999, 0.999, _violated(min(i, j), max(i, j), k)),
                           (2.0, 1.0, f"ValidationError: asymmetric distances at pair {pair}")):
            m = _planted(n, i, j, k, 0.0, rng)
            m[max(i, j), min(i, j)] += a * TOL
            m[max(i, k), min(i, k)] -= b * TOL
            m[max(j, k), min(j, k)] -= b * TOL
            assert _verdict(m) == want


def test_triangle_check_matches_hub_scan_on_overflowed_distances():
    """Entries near the float maximum stay finite when canonicalised. In the
    4-point matrix hubs 0 and 1 give zero slack and hub 2 refuses; the
    2-point one is accepted by both scans. The 40-point matrices overflow
    hub sums in all three row blocks: all entries near the maximum are
    accepted, and legs of 1 under one such pair refuse it. They are checked
    outside this errstate, so whichever thread judges a block, the calling
    one or a helper thread, must ignore the overflow itself."""
    m = 1.0 - np.eye(4)
    m[0, 1] = m[1, 0] = 1.7e308
    big = 1.7e308 * (1.0 - np.eye(40))
    legs = big.copy()
    legs[5, 20] = legs[20, 5] = legs[20, 37] = legs[37, 20] = 1.0
    ids = tuple(f"p{i}" for i in range(40))
    with np.errstate(over="ignore"):  # hub sums of two such entries
        assert _verdict(m) == _violated(0, 1, 2)
        assert _verdict(m[:2, :2]) is None
        want = [reference_space_outcome(ids, x, pseudo=True) for x in (big, legs)]
    got = [outcome(MetricSpace, ids, dist=x, pseudo=True) for x in (big, legs)]
    assert isinstance(got[0], MetricSpace)
    assert got == want
    assert got[1] == _violated(5, 37, 20)


def test_triangle_check_from_more_threads_than_cores():
    """Eight callers validate at once, with thread switches forced often:
    each gets its own verdict."""
    rng = np.random.default_rng(44)
    ids = tuple(f"p{i}" for i in range(40))
    matrices = [cloud_space(rng, 40).dist, _planted(40, 3, 30, 20, 0.25, rng)] * 4
    verdicts = {}

    def validate(at):
        got = outcome(MetricSpace, ids, dist=matrices[at], pseudo=True)
        verdicts[at] = None if isinstance(got, MetricSpace) else got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=validate, args=(at,)) for at in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert verdicts == {at: None if at % 2 == 0 else _violated(3, 30, 20) for at in range(8)}


def test_triangle_check_leaves_no_helper_thread_running():
    """A 40-point matrix has three row blocks; the helpers that judged them
    are joined before the validation returns."""
    space = cloud_space(np.random.default_rng(46), 40)
    MetricSpace(space.points, dist=space.dist)
    assert not [t.name for t in threading.enumerate() if t.name.startswith("thclust-triangle")]


def test_triangle_check_raises_an_error_from_any_thread(monkeypatch):
    """An error judging the second of three row blocks reaches the caller,
    whichever of the two threads judged that block: no block is skipped."""
    def broken(dist, i0):
        if i0 == 16:
            raise RuntimeError("block 16")
        return passes(dist, i0)

    passes = metric._triangle_block_passes
    monkeypatch.setattr(metric, "_triangle_block_passes", broken)
    monkeypatch.setattr(metric, "_cpus", lambda: 2)
    space = cloud_space(np.random.default_rng(47), 48)
    for _ in range(20):
        with pytest.raises(RuntimeError, match="block 16"):
            MetricSpace(space.points, dist=space.dist)


def test_triangle_check_stops_every_thread_after_a_failing_block(monkeypatch):
    """The violation sits in the first of ten row blocks, and every other
    block is slowed down: two threads judge at most two blocks before the
    hub scan names the triple, where a scan that went on would judge all
    ten."""
    judged = []

    def slowed(dist, i0):
        judged.append(i0)
        if i0:
            time.sleep(0.05)
        return passes(dist, i0)

    passes = metric._triangle_block_passes
    monkeypatch.setattr(metric, "_triangle_block_passes", slowed)
    monkeypatch.setattr(metric, "_cpus", lambda: 2)
    m = _planted(160, 2, 100, 60, 0.25, np.random.default_rng(45))
    assert _verdict(m) == _violated(2, 100, 60)
    assert 0 in judged and len(judged) <= 2


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
def test_triangle_check_runs_in_a_forked_child():
    """A child forked after a validation has none of its parent's pool
    threads; validating again there must make its own pool, not wait on
    threads that do not exist. Run in a fresh interpreter, so the fork
    leaves this process and its warning filters alone."""
    script = textwrap.dedent("""
        import os, signal, sys, traceback
        import numpy as np
        from thclust import MetricSpace
        x = np.random.default_rng(0).random((40, 2))
        d = np.sqrt(((x[:, None] - x[None]) ** 2).sum(axis=-1))
        ids = [f"p{i}" for i in range(40)]
        MetricSpace(ids, dist=d)
        pid = os.fork()
        if pid == 0:
            signal.alarm(20)
            try:
                MetricSpace(ids, dist=d)
            except BaseException:
                traceback.print_exc()
                os._exit(1)
            os._exit(0)
        _, status = os.waitpid(pid, 0)
        sys.exit(os.waitstatus_to_exitcode(status))
    """)
    src = os.path.dirname(os.path.dirname(metric.__file__))
    done = subprocess.run([sys.executable, "-W", "ignore::DeprecationWarning", "-c", script],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_distances_near_float_max_stay_finite():
    space = MetricSpace(["a", "b"], dist=[[0.0, 1.7e308], [1.7e308, 0.0]])
    assert space.distance("a", "b") == 1.7e308


def test_hub_sums_near_float_max_do_not_warn():
    """Hub sums of two entries near the float maximum overflow to inf in the
    triangle check and in the hub scan; neither may warn, and the verdicts
    stay those of ``test_triangle_check_matches_hub_scan_on_overflowed_distances``."""
    big = 1.7e308
    m = 1.0 - np.eye(4)
    m[0, 1] = m[1, 0] = big
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        two = MetricSpace(["a", "b"], dist=[[0.0, big], [big, 0.0]])
        three = MetricSpace(["a", "b", "c"],
                            dist=[[0.0, big, big], [big, 0.0, 1.0], [big, 1.0, 0.0]])
        refused = outcome(MetricSpace, [f"p{i}" for i in range(4)], dist=m)
    assert two.distance("a", "b") == big
    assert three.distance("a", "c") == big and three.distance("b", "c") == 1.0
    assert refused == _violated(0, 1, 2)


def test_coordinates_with_overflowing_distances_rejected():
    with pytest.raises(ValidationError, match="derived from coordinates must be finite"):
        MetricSpace(["a", "b"], coords=[[0.0, 0.0], [1e200, 0.0]])


def test_coordinates_overflowing_beside_a_matrix_are_refused_without_a_warning():
    """Coordinates beside a matrix are refused before either is read: no
    overflow warning from the coordinates, no verdict on the matrix."""
    coords = [[0.0], [1e200]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dist in ([[0.0, 1e200], [1e200, 0.0]], [[0.0, -1.0], [-1.0, 0.0]]):
            with pytest.raises(ValidationError, match="exactly one of dist and coords"):
                MetricSpace(["a", "b"], dist=dist, coords=coords)


def _assert_matches_dense_oracle(space: MetricSpace, rng) -> None:
    """Blocks with repeated and shuffled indices, element pairs, a
    restriction and the whole matrix equal the dense build bit for bit."""
    want = reference_euclidean(space.coords)
    n = len(space)
    rows, cols = rng.integers(0, n, size=2 * n), rng.permutation(n)
    assert np.array_equal(space.distances(rows[:, None], cols), want[np.ix_(rows, cols)])
    assert np.array_equal(space.distances(rows[:n], cols), want[rows[:n], cols])
    for i, j in zip(rows[:20].tolist(), cols[:20].tolist()):
        assert space.distance(space.points[i], space.points[j]) == want[i, j]
    keep = rng.permutation(n)[: max(1, n // 2)]
    sub = space.restrict([space.points[i] for i in keep])
    assert np.array_equal(sub.coords, space.coords[keep])
    assert np.array_equal(sub.distances(np.arange(len(keep))[:, None], np.arange(len(keep))),
                          want[np.ix_(keep, keep)])
    assert np.array_equal(sub.dist, want[np.ix_(keep, keep)])
    assert np.array_equal(space.dist, want)


@pytest.mark.parametrize("dim", range(1, 8))
def test_coordinate_distances_match_the_dense_oracle(dim):
    """From coordinate gaps of 1e-162 to 1e-155, whose squares are subnormal
    or round to zero, up to 1e150; a repeated point gives zero distances."""
    rng = np.random.default_rng(dim)
    for scale in (1e-162, 1e-158, 1e-155, 1e-3, 1.0, 1e3, 1e150):
        for _ in range(4):
            n = int(rng.integers(2, 30))
            coords = rng.uniform(-1.0, 1.0, size=(n, dim)) * scale
            coords[-1] = coords[0]
            space = MetricSpace([f"p{i}" for i in range(n)], coords=coords, pseudo=True)
            _assert_matches_dense_oracle(space, rng)


@pytest.mark.parametrize("actors", [40, 100])
def test_flock_distances_match_the_dense_oracle(actors):
    ambient = run(SimConfig(actor_count=actors, seed=0)).ambient
    _assert_matches_dense_oracle(ambient, np.random.default_rng(actors))


def test_coordinates_whose_bounding_box_overflows_are_checked_pair_by_pair():
    """The box's diagonal overflows, so no bound clears these coordinates,
    but every pair's distance is finite."""
    coords = [[0.0, 0.0], [1.188e154, 0.594e154], [0.594e154, 1.188e154]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        space = MetricSpace(["a", "b", "c"], coords=coords)
    assert np.isfinite(space.dist).all()
    assert np.array_equal(space.dist, reference_euclidean(coords))
