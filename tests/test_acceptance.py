"""Acceptance gate: nine end-to-end criteria, one test (and one pass/fail
line under ``pytest -v``) per criterion. Every numeric tolerance is pinned
at 1e-9 and every runtime cap is asserted inside the test itself."""

import itertools
from time import perf_counter

import numpy as np

from helpers import (
    brute_force_3color,
    brute_min_flow,
    complete_graph,
    cross_distances,
    dense_space,
    min_locality_scan,
    perturb,
    random_sampling,
    random_space,
    run,
    three_colorable_oracle,
)
from thclust import (
    Graph,
    PseudoUltrametric,
    SimConfig,
    certify,
    coloring_from_witness,
    fkw_fit,
    hausdorff_distance,
    instability_family,
    linf_distance,
    pad_to_three_colors,
    reduce_from_graph,
    solve_labeled,
    solve_local,
    subdominant_ultrametric,
    to_dendrogram,
    verify_witness,
    witness_from_coloring,
)

TOL = 1e-9


def elapsed_under(t0, cap):
    took = perf_counter() - t0
    assert took < cap, f"runtime {took:.2f}s exceeds {cap}s cap"
    return took


def test_criterion_1_pendant_pair_golden_values():
    """Cut-weight fit on the pendant-pair family: exact heights on both inputs."""
    t0 = perf_counter()
    base, moved = instability_family(12, 0.1)
    mu = fkw_fit(base).ultrametric.distance("u", "v")
    mu_moved = fkw_fit(moved).ultrametric.distance("u", "v")
    assert abs(mu - 2.0) <= TOL
    assert abs(mu_moved - 5.05) <= TOL
    took = elapsed_under(t0, 1.0)
    print(f"PASS criterion 1: mu(u,v) = 2 and 5.05 exactly ({took:.2f}s)")


def test_criterion_2_subdominant_stability():
    """Perturbing any metric by eps moves its subdominant by at most eps."""
    t0 = perf_counter()
    rng = np.random.default_rng(202)
    for _ in range(1000):
        n = int(rng.integers(2, 16))
        space = random_space(rng, n)
        eps = float(rng.uniform(0.0, 1.0))
        moved = perturb(space, eps, seed=int(rng.integers(1 << 30)))
        gap = linf_distance(
            subdominant_ultrametric(space), subdominant_ultrametric(moved)
        )
        assert gap <= eps + TOL
    took = elapsed_under(t0, 10.0)
    print(f"PASS criterion 2: 1000 perturbations stayed within eps ({took:.2f}s)")


def test_criterion_3_cut_weight_instability_scales_with_diameter():
    """An eps input change blows up the cut-weight fit by at least diam/4."""
    t0 = perf_counter()
    eps = 0.1
    for n in (10, 20, 40):
        base, moved = instability_family(n, eps)
        assert abs(linf_distance(base, moved) - eps) <= TOL
        gap = linf_distance(fkw_fit(base).ultrametric, fkw_fit(moved).ultrametric)
        diameter = max(
            base.distance(p, q)
            for p, q in itertools.combinations(base.points, 2)
        )
        assert gap >= diameter / 4.0
    took = elapsed_under(t0, 1.0)
    print(f"PASS criterion 3: fit gap >= diam/4 at n = 10, 20, 40 ({took:.2f}s)")


def test_criterion_4_two_approximation_and_half_error():
    """Subdominant error <= twice the optimal; cut-weight error is exactly half
    the subdominant error whenever no height needed clamping, witnessed by the
    shifted subdominant."""
    t0 = perf_counter()
    rng = np.random.default_rng(404)
    unclamped = 0
    for trial in range(500):
        n = int(rng.integers(3, 13))
        space = dense_space(rng, n) if trial % 2 else random_space(rng, n)
        fit = fkw_fit(space)
        sub = subdominant_ultrametric(space)
        sub_err = linf_distance(sub, space)
        fkw_err = linf_distance(fit.ultrametric, space)
        assert sub_err <= 2.0 * fkw_err + TOL
        if not fit.clamped_pairs:
            unclamped += 1
            assert abs(fkw_err - 0.5 * sub_err) <= TOL
            shifted = sub.mu + fit.shift * (1.0 - np.eye(len(sub.mu)))
            witness = PseudoUltrametric(sub.points, shifted)
            assert abs(linf_distance(witness, space) - fkw_err) <= TOL
    assert unclamped >= 250
    took = elapsed_under(t0, 10.0)
    print(
        f"PASS criterion 4: 2-approx on 500 metrics, half-error identity on "
        f"{unclamped} unclamped ({took:.2f}s)"
    )


def test_criterion_5_no_correspondence_beats_hausdorff():
    """Exhaustive enumeration: the minimal locality between adjacent levels is
    the Hausdorff distance, and solve_local reports exactly that.

    Every correspondence contains the graph of a choice function P -> Q and
    one Q -> P, and dropping pairs never raises locality, so minimising over
    all |Q|^|P| + |P|^|Q| choice functions covers every correspondence."""
    t0 = perf_counter()
    rng = np.random.default_rng(505)
    for _ in range(200):
        samp = random_sampling(rng)
        sol = solve_local(samp)
        deltas = []
        for i in range(len(samp.levels) - 1):
            p, q = samp.levels[i], samp.levels[i + 1]
            d = cross_distances(p, q, samp.ambient)
            kp, kq = len(p), len(q)
            fs = np.array(list(itertools.product(range(kq), repeat=kp)))
            gs = np.array(list(itertools.product(range(kp), repeat=kq)))
            best = max(
                float(d[np.arange(kp)[None, :], fs].max(axis=1).min()),
                float(d[gs, np.arange(kq)[None, :]].max(axis=1).min()),
            )
            dh = hausdorff_distance(p, q, samp.ambient)
            assert abs(best - dh) <= TOL
            assert abs(min_locality_scan(p, q, samp.ambient) - dh) <= TOL
            deltas.append(dh)
        if deltas:
            assert sol.delta == max(deltas)
        else:
            assert sol.delta_vacuous
    took = elapsed_under(t0, 30.0)
    print(f"PASS criterion 5: delta = Hausdorff on 200 samplings ({took:.2f}s)")


def test_criterion_6_flow_pipeline():
    """Minimum feasible flow yields a valid labeling: value <= n, k <= n,
    adjacent labelings contiguous at the reported delta, and the value matches
    brute force on every instance with at most 10 point nodes."""
    t0 = perf_counter()
    rng = np.random.default_rng(606)
    brute_checked = 0
    for _ in range(500):
        samp = random_sampling(rng)
        sol = solve_labeled(samp)
        n = samp.size
        assert sol.flow.value <= n
        assert {lab.k for lab in sol.labelings} == {sol.flow.value}
        certify(sol.local, sol.labelings, delta=sol.local.delta)
        if n <= 10:
            assert brute_min_flow(sol.flow.network) == sol.flow.value
            brute_checked += 1
    assert brute_checked >= 100
    took = elapsed_under(t0, 60.0)
    print(
        f"PASS criterion 6: 500 samplings labeled, {brute_checked} verified "
        f"against brute-force flow ({took:.2f}s)"
    )


def test_criterion_7_hardness_round_trip():
    """Across every graph on up to 6 vertices: a color-class witness verifies
    at (1, 0) iff the graph is 3-colorable, extraction recovers a proper
    coloring from each generated witness, and K4 has no coloring at all."""
    t0 = perf_counter()
    graphs = 0
    witnessed = 0
    for n in range(1, 7):
        vertices = [f"v{i}" for i in range(n)]
        idx = {v: i for i, v in enumerate(vertices)}
        all_pairs = list(itertools.combinations(vertices, 2))
        rows = np.array(list(itertools.product(range(3), repeat=n)), dtype=np.int8)
        all3 = np.ones(len(rows), dtype=bool)
        for c in range(3):
            all3 &= (rows == c).any(axis=1)
        pair_diff = {
            (a, b): rows[:, idx[a]] != rows[:, idx[b]] for a, b in all_pairs
        }
        for picked in itertools.chain.from_iterable(
            itertools.combinations(all_pairs, k) for k in range(len(all_pairs) + 1)
        ):
            graphs += 1
            proper = np.ones(len(rows), dtype=bool)
            for edge in picked:
                proper &= pair_diff[edge]
            witness_exists = bool((proper & all3).any())
            graph = Graph(vertices, picked)
            if n <= 2:
                # too few vertices to occupy all three color classes
                assert not witness_exists
                continue
            assert witness_exists == three_colorable_oracle(graph)
            if witness_exists:
                witnessed += 1
                coloring = brute_force_3color(graph)
                full = pad_to_three_colors(graph, coloring)
                wit = witness_from_coloring(graph, full)
                inst = reduce_from_graph(graph)
                assert verify_witness(inst, wit, 1.0, 0.0)
                extracted = coloring_from_witness(inst, wit)
                for a, b in picked:
                    assert extracted[a] != extracted[b]
    assert graphs == 33867
    assert brute_force_3color(complete_graph(4)) is None
    took = elapsed_under(t0, 60.0)
    print(
        f"PASS criterion 7: {graphs} graphs swept, {witnessed} witnesses "
        f"round-tripped, K4 refused ({took:.2f}s)"
    )


def test_criterion_8_distortion_bound():
    """Merge distortion never exceeds 2*chi + 2*delta for the cut-weight
    scheme and chi + 2*delta for the subdominant scheme."""
    t0 = perf_counter()
    rng = np.random.default_rng(808)
    for _ in range(500):
        samp = random_sampling(rng)
        for scheme, factor in (("fkw", 2.0), ("subdominant", 1.0)):
            sol = solve_local(samp, scheme=scheme)
            assert sol.rho <= factor * sol.chi + 2.0 * sol.delta + TOL
    took = elapsed_under(t0, 30.0)
    print(f"PASS criterion 8: bound held on 500 samplings x 2 schemes ({took:.2f}s)")


def test_criterion_9_end_to_end_simulation():
    """Default simulation feeds the full solver: some level shows structure at
    more than one cut height, the population changes, and everything is
    reproducible from the seed."""
    t0 = perf_counter()
    samp = run(SimConfig())
    labeled = solve_labeled(samp)
    multi_height = 0
    for u in labeled.local.ultrametrics:
        heights = {h for h, _, _ in to_dendrogram(u).merges}
        if len(heights) >= 2:
            multi_height += 1
    assert multi_height >= 1
    sizes = [len(level) for level in samp.levels]
    assert len(set(sizes)) > 1
    again = run(SimConfig())
    assert samp.to_dict() == again.to_dict()
    assert [l.to_list() for l in solve_labeled(again).labelings] == [
        l.to_list() for l in labeled.labelings
    ]
    took = elapsed_under(t0, 60.0)
    print(
        f"PASS criterion 9: {len(sizes)} levels, {multi_height} with multiple "
        f"cut heights, population varied, deterministic ({took:.2f}s)"
    )
