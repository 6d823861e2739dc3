import hashlib
import itertools
import json
import math
import re

import numpy as np
import pytest

from helpers import (
    SlotScanMaxFlowGraph,
    _DictMaxFlowGraph,
    brute_min_flow,
    cloud_space,
    holds_matrix,
    line_space,
    live_slots,
    random_sampling,
    reference_check_contiguity,
    reference_decompose_paths,
    reference_flow_edges,
    reference_min_feasible_flow,
    reference_paths_to_labelings,
    run,
    shuffled_levels,
    slot_scan_min_feasible_flow,
    tuple_edges,
)
from thclust import (
    TOL,
    CertificationError,
    Correspondence,
    FlowNetwork,
    IntegralFlow,
    Labeling,
    SimConfig,
    TemporalSampling,
    ValidationError,
    build_flow_instance,
    certify,
    check_contiguity,
    decompose_paths,
    evaluate_general,
    min_feasible_flow,
    paths_to_labelings,
    solve_labeled,
    solve_local,
)
from thclust.labeling import _MaxFlowGraph


def tiny_ambient():
    return line_space([0.0, 3.0, 10.0], ids=["a", "b", "c"])


def solved_network(levels, scheme="subdominant"):
    samp = TemporalSampling(tiny_ambient(), levels)
    sol = solve_local(samp, scheme=scheme)
    return build_flow_instance(samp, sol.correspondences)


# ---------------------------------------------------------------- network


def test_network_single_level_shape():
    net = solved_network([["a", "b"]])
    assert net.levels == (("a", "b"),)
    assert net.ids == ("a", "b") and net.size == 2
    # points 0 and 1, then source 2 and sink 3; rows sorted by tail, head
    assert net.edges.tolist() == [[0, 3], [1, 3], [2, 0], [2, 1]]
    assert not net.edges.flags.writeable


def test_network_edges_follow_correspondences():
    net = solved_network([["a", "b"], ["a"]])
    assert net.ids == ("a", "b", "a")
    inner = [e for e in net.edges.tolist() if max(e) < net.size]
    assert inner == [[0, 2], [1, 2]]


def test_network_numbers_points_by_sorted_id_within_a_level():
    net = solved_network([["b", "a"], ["c", "a"]])
    assert net.levels == (("b", "a"), ("c", "a"))
    assert net.ids == ("a", "b", "a", "c")


def test_build_rejects_wrong_correspondence_count():
    samp = TemporalSampling(tiny_ambient(), [["a"], ["a"], ["a"]])
    sol = solve_local(samp, scheme="subdominant")
    with pytest.raises(ValidationError):
        build_flow_instance(samp, sol.correspondences[:1])


def test_build_rejects_noncovering_correspondence():
    """A correspondence that misses a point cannot be made, and one made
    for other levels is refused."""
    samp = TemporalSampling(tiny_ambient(), [["a", "b"], ["a"]])
    with pytest.raises(ValidationError, match="misses first-side point 'b'"):
        Correspondence.from_pairs([("a", "a")], *samp.levels)
    other = Correspondence.from_pairs([("a", "a"), ("b", "a")], ("b", "a"), ("a",))
    with pytest.raises(ValidationError, match="correspondence joins other levels"):
        build_flow_instance(samp, (other,))


@pytest.mark.parametrize("edges", [[[1, 0], [0, 5]], [[1, 0], [0, -1]],
                                   [[1, 0], [0, 1]], [[1, 0], [0, 2], [2, 0]]],
                         ids=["past-sink", "negative", "into-source", "out-of-sink"])
def test_network_refuses_a_malformed_edge(edges):
    """A node outside 0..size+1 used to raise IndexError or ValueError in
    the flow, and an edge into the source or out of the sink RuntimeError."""
    row = len(edges) - 1
    with pytest.raises(ValidationError, match=rf"flow edge {row} \[{edges[row][0]}, "
                                              rf"{edges[row][1]}\] must join nodes 0\.\.2"):
        FlowNetwork(levels=(("a",),), ids=("a",), edges=edges)
    assert min_feasible_flow(FlowNetwork(levels=(("a",),), ids=("a",),
                                         edges=edges[:1] + [[0, 2]])).value == 1


def test_network_sorts_its_rows():
    """Every row permutation of a flock's network used to end in
    ``RuntimeError: flow decomposition stuck at node ...``."""
    sampling = run(SimConfig(actor_count=8, total_ticks=100, seed=0))
    net = build_flow_instance(sampling, solve_local(sampling).correspondences)
    paths = decompose_paths(min_feasible_flow(net))
    rng = np.random.default_rng(8)
    for _ in range(20):
        shuffled = FlowNetwork(net.levels, net.ids, net.edges[rng.permutation(len(net.edges))])
        assert np.array_equal(shuffled.edges, net.edges)
        assert decompose_paths(min_feasible_flow(shuffled)) == paths
    listed = FlowNetwork([list(level) for level in net.levels], list(net.ids),
                         net.edges[::-1].tolist())
    assert listed.levels == net.levels and listed.ids == net.ids
    assert np.array_equal(listed.edges, net.edges)


# Two levels ("a", "b") and ("a",): points 0, 1 and 2, source 3, sink 4.
_LEVELS, _IDS = [["a", "b"], ["a"]], ["a", "b", "a"]
_EDGES = [[3, 0], [3, 1], [0, 2], [1, 2], [2, 4]]


@pytest.mark.parametrize("edges, message", [
    (_EDGES + [[0, 2]], r"flow edge \[0, 2\] is repeated"),
    (_EDGES + [[2, 0]],
     r"flow edge \[2, 0\] must run from the source to level 0, from a level to the next"),
    (_EDGES + [[0, 0]], r"flow edge \[0, 0\] must run"),
    (_EDGES + [[3, 4]], r"flow edge \[3, 4\] must run"),
    (_EDGES + [[3, 2]], r"flow edge \[3, 2\] must run"),
    (_EDGES[1:], r"point 'a' \(node 0\) has no flow edge in"),
    (_EDGES[:3] + _EDGES[4:], r"point 'b' \(node 1\) has no flow edge out"),
    (_EDGES + [[0, 2.0]], "flow edge node must be an integer"),
    (_EDGES + [[0, True]], "flow edge node must be an integer"),
    (_EDGES + [[0]], "flow edge must have 2 items"),
    (_EDGES + [[0, 10**30]], rf"flow edge 5 \[0, {10**30}\] must join nodes 0\.\.4"),
], ids=["repeated", "two-way", "loop", "source-to-sink", "source-past-level-0", "no-edge-in",
        "no-edge-out", "float-node", "bool-node", "short-row", "huge-node"])
def test_network_refuses_what_its_flow_would_choke_on(edges, message):
    """Each of these used to be accepted; the flow then raised RuntimeError,
    TypeError or OverflowError, or read a float or a bool as a node."""
    FlowNetwork(levels=_LEVELS, ids=_IDS, edges=_EDGES)
    with pytest.raises(ValidationError, match=message):
        FlowNetwork(levels=_LEVELS, ids=_IDS, edges=edges)


@pytest.mark.parametrize("levels, ids, edges, message", [
    (_LEVELS, ["b", "a", "a"], _EDGES, "network ids must be the levels' points"),
    (_LEVELS, ["a", "b"], _EDGES[:4], "network ids must be the levels' points"),
    ([["a", "b"], [1]], ["a", "b", 1], _EDGES, "network level 1 must hold string ids"),
    ([], [], [[0, 1]], "a flow network needs at least one level"),
], ids=["out-of-order", "short", "id-number", "no-levels"])
def test_network_refuses_ids_that_are_not_its_levels_points(levels, ids, edges, message):
    with pytest.raises(ValidationError, match=message):
        FlowNetwork(levels=levels, ids=ids, edges=edges)


# ---------------------------------------------------------------- min flow


def test_min_flow_forced_chain():
    net = solved_network([["a"], ["a"], ["a"]])
    flow = min_feasible_flow(net)
    assert flow.value == 1


def test_min_flow_bottleneck_middle():
    net = solved_network([["a", "b"], ["a"], ["a", "b"]])
    flow = min_feasible_flow(net)
    assert flow.value == 2


def test_min_flow_wide_middle():
    net = solved_network([["a"], ["a", "b", "c"], ["a"]])
    flow = min_feasible_flow(net)
    assert flow.value == 3


def test_min_flow_matches_bruteforce():
    rng = np.random.default_rng(30)
    checked = 0
    for _ in range(120):
        samp = random_sampling(rng, ambient_size=6, min_levels=2, max_level_size=3)
        if samp.size > 10:
            continue
        sol = solve_local(samp, scheme="subdominant")
        net = build_flow_instance(samp, sol.correspondences)
        flow = min_feasible_flow(net)
        assert flow.value == brute_min_flow(net)
        checked += 1
    assert checked >= 60


def test_flow_value_never_exceeds_point_count():
    rng = np.random.default_rng(31)
    for _ in range(40):
        samp = random_sampling(rng, min_levels=2)
        sol = solve_local(samp, scheme="subdominant")
        flow = min_feasible_flow(build_flow_instance(samp, sol.correspondences))
        assert flow.value <= samp.size


def test_flow_validate_catches_tampering():
    net = solved_network([["a", "b"], ["a"], ["a", "b"]])
    flow = min_feasible_flow(net)
    assert flow.flow == (1,) * 8 and flow.value == 2
    with pytest.raises(ValidationError, match="terminal throughput"):
        IntegralFlow(net, flow.flow, flow.value + 1)
    with pytest.raises(ValidationError, match="not conserved at point 'a'"):
        IntegralFlow(net, (2,) + flow.flow[1:], flow.value)
    with pytest.raises(ValidationError, match="in-flow below 1"):
        IntegralFlow(net, (0,) * 8, 0)
    for bad in (math.nan, "1", 1.5, -1, True, 3):
        with pytest.raises(ValidationError, match="flow on edge 0"):
            IntegralFlow(net, (bad,) + flow.flow[1:], flow.value)
    for amounts in (flow.flow[1:], flow.flow + (0,)):
        with pytest.raises(ValidationError, match="amounts for 8 edges"):
            IntegralFlow(net, amounts, flow.value)
    with pytest.raises(ValidationError, match="flow value"):
        IntegralFlow(net, flow.flow, 2.0)


def test_flow_amounts_outside_plain_ints_keep_their_outcome():
    """Plain ints in 0..value pass one screen; a bool or numpy integer goes
    through the per-edge check, which refuses the bool at its own edge and
    takes a numpy integer in range as the same flow."""
    net = solved_network([["a", "b"], ["a"], ["a", "b"]])
    flow = min_feasible_flow(net)
    as_bool = flow.flow[:3] + (True,) + flow.flow[4:]
    with pytest.raises(ValidationError, match="flow on edge 3 must be an integer in 0..2"):
        IntegralFlow(net, as_bool, flow.value)
    as_numpy = flow.flow[:3] + (np.int64(1),) + flow.flow[4:]
    assert IntegralFlow(net, as_numpy, flow.value) == flow
    with pytest.raises(ValidationError, match="flow on edge 3 must be an integer in 0..2"):
        IntegralFlow(net, flow.flow[:3] + (np.int64(3),) + flow.flow[4:], flow.value)


def _neighbours(arcs, x):
    return {v for u, v, _ in arcs if u == x} | {u for u, v, _ in arcs if v == x}


def test_max_flow_takes_the_reference_paths_on_random_graphs():
    """Random digraphs with at most one arc per pair of nodes, and source
    neighbours reachable through other nodes: the same value and residuals
    as the dict solver. A graph where a neighbour of the source has an arc
    to the sink is refused."""
    rng = np.random.default_rng(607)
    solved = refused = 0
    for _ in range(300):
        n = int(rng.integers(3, 9))
        nodes = rng.permutation(n).tolist()
        arcs = []
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < 0.35:
                u, v = (nodes[i], nodes[j]) if rng.random() < 0.5 else (nodes[j], nodes[i])
                arcs.append((u, v, int(rng.integers(1, 4))))
        source, sink = nodes[0], nodes[-1]
        if _neighbours(arcs, source) & _neighbours(arcs, sink):
            refused += 1
            columns = np.array(arcs, dtype=np.intp).reshape(-1, 3).T
            with pytest.raises(RuntimeError, match="neighbour of the source"):
                _MaxFlowGraph(*columns, n).max_flow(source, sink)
            continue
        solved += 1
        assert_same_residuals_as_reference(arcs, n, source, sink)
    assert solved > 50 and refused > 50


def assert_same_residuals_as_reference(arcs, n, source, sink):
    """Max-flow value and every residual slot equal to the dict solver's."""
    columns = np.array(arcs, dtype=np.intp).reshape(-1, 3).T
    graph, reference = _MaxFlowGraph(*columns, n), _DictMaxFlowGraph()
    for u, v, cap in arcs:
        reference.add_edge(u, v, cap)
    assert graph.max_flow(source, sink) == reference.max_flow(source, sink)
    for (u, v, _), a in zip(arcs, graph.pos):
        assert graph.res[a] == reference.cap[u][v]
        assert graph.res[graph.rev[a]] == reference.cap[v][u]
    return graph


def layered_arcs(rng):
    """A graph s -> A -> B -> t with capacities 1-3: many paths of length 3,
    A nodes with no arc into B or whose B nodes fill up, A -> A and B -> A
    arcs for longer paths, and sometimes a direct s -> t arc. Returns the
    arcs, the node count, the source and the sink."""
    a, b = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    n = a + b + 2
    nodes = rng.permutation(n).tolist()
    source, sink, first, second = nodes[0], nodes[1], nodes[2:a + 2], nodes[a + 2:]

    def cap():
        return int(rng.integers(1, 4))

    arcs = [(source, u, cap()) for u in first] + [(v, sink, cap()) for v in second]
    for u in first:
        if rng.random() < 0.8:
            arcs += [(u, v, cap()) for v in second if rng.random() < 0.5]
    linked = {(u, v) for u, v, _ in arcs}
    for u, v in itertools.combinations(first, 2):
        if rng.random() < 0.2:
            arcs.append((u, v, cap()) if rng.random() < 0.5 else (v, u, cap()))
    arcs += [(v, u, cap()) for u in first for v in second
             if (u, v) not in linked and rng.random() < 0.15]
    if rng.random() < 0.3:
        arcs.append((source, sink, cap()))
    return arcs, n, source, sink


def test_max_flow_takes_the_reference_paths_on_layered_graphs(monkeypatch):
    """The greedy prefix and the searches after it take the dict solver's
    paths on the graphs of ``layered_arcs``."""
    searched = []
    shortest_path = _MaxFlowGraph._shortest_path

    def recording_shortest_path(graph, s, t, into_t):
        via = shortest_path(graph, s, t, into_t)
        searched.append(via is not None)
        return via

    monkeypatch.setattr(_MaxFlowGraph, "_shortest_path", recording_shortest_path)
    rng = np.random.default_rng(608)
    longer = direct = 0
    for _ in range(300):
        arcs, n, source, sink = layered_arcs(rng)
        direct += (source, sink) in {(u, v) for u, v, _ in arcs}
        searched.clear()
        assert_same_residuals_as_reference(arcs, n, source, sink)
        longer += any(searched)
    assert longer > 50 and direct > 50


def test_live_arc_search_takes_the_slot_scan_paths_on_layered_graphs(monkeypatch):
    """The graphs of ``layered_arcs``: the same augmenting paths, in the same
    order, the same value and the same residuals as the slot-scan search."""
    augmented = []
    augment = _MaxFlowGraph._augment

    def recording_augment(graph, path):
        augmented.append((type(graph), tuple(path)))
        return augment(graph, path)

    monkeypatch.setattr(_MaxFlowGraph, "_augment", recording_augment)
    rng = np.random.default_rng(608)  # the graphs of the dict-solver test above
    longer = 0
    for _ in range(300):
        arcs, n, source, sink = layered_arcs(rng)
        columns = np.array(arcs, dtype=np.intp).T
        augmented.clear()
        graph, oracle = _MaxFlowGraph(*columns, n), SlotScanMaxFlowGraph(*columns, n)
        assert graph.max_flow(source, sink) == oracle.max_flow(source, sink)
        assert graph.res == oracle.res
        live = [path for kind, path in augmented if kind is _MaxFlowGraph]
        assert live == [path for kind, path in augmented if kind is SlotScanMaxFlowGraph]
        longer += any(len(path) > 3 for path in live)
    assert longer > 50


def test_live_lists_hold_the_slots_with_residual(monkeypatch):
    """After construction, after each augmentation and after the close
    between the phases, every node's live list is its slots with residual
    above 0, in slot order: on layered graphs, on a network whose second
    phase returns value, and on a flock."""
    calls = []

    def checked(method):
        def call(graph, *args):
            result = method(graph, *args)
            assert graph.live == live_slots(graph)
            calls.append(method.__name__)
            return result
        return call

    for name in ("__init__", "_augment", "close"):
        monkeypatch.setattr(_MaxFlowGraph, name, checked(getattr(_MaxFlowGraph, name)))
    rng = np.random.default_rng(610)
    for _ in range(100):
        arcs, n, source, sink = layered_arcs(rng)
        _MaxFlowGraph(*np.array(arcs, dtype=np.intp).T, n).max_flow(source, sink)
    samp = run(SimConfig(actor_count=40))
    for net in (pushed_back_network()[0],
                build_flow_instance(samp, solve_local(samp).correspondences)):
        min_feasible_flow(net)
    assert calls.count("__init__") == 102 and calls.count("close") == 2
    assert calls.count("_augment") > 500 and "_augment" in calls[calls.index("close"):]


def test_max_flow_prefix_stays_on_a_source_arc_until_it_saturates():
    """s -> u1 (capacity 3) fills v1, v2 and v3 before u2 gets its turn, so
    u2 takes v4, not v2. u3 reaches only v1, so it is stuck in the prefix;
    the search then takes s u3 v1 u1 v5 t, of length 5. A prefix that left
    u1 after its first path would give v2 to u2 and leave u1 on v4."""
    s, u1, u2, u3, v1, v2, v3, v4, v5, t = range(10)
    arcs = [(s, u1, 3), (s, u2, 1), (s, u3, 1),
            (u1, v1, 1), (u1, v2, 1), (u1, v3, 1), (u1, v4, 1), (u1, v5, 1),
            (u2, v2, 1), (u2, v4, 1), (u3, v1, 1),
            (v1, t, 1), (v2, t, 1), (v3, t, 1), (v4, t, 1), (v5, t, 1)]
    graph = assert_same_residuals_as_reference(arcs, 10, s, t)
    flow = {(u, v): graph.res[graph.rev[a]] for (u, v, _), a in zip(arcs, graph.pos)}
    assert [x for x in (v1, v2, v3, v4, v5) if flow[u1, x]] == [v2, v3, v5]
    assert (flow[u2, v2], flow[u2, v4], flow[u3, v1]) == (0, 1, 1)


def assert_same_flow_as_reference(samp, correspondences):
    """Edges, flow (edge for edge) and paths equal to the tuple-keyed oracles'."""
    net = build_flow_instance(samp, correspondences)
    assert tuple_edges(net) == reference_flow_edges(samp, correspondences)
    flow = min_feasible_flow(net)
    reference = reference_min_feasible_flow(net)
    assert flow.value == reference.value
    assert flow.flow == reference.flow
    assert decompose_paths(flow) == reference_decompose_paths(reference)
    return net


def test_min_flow_matches_reference_solver_on_random_samplings():
    """Levels listed in id order, and the same levels shuffled."""
    rng = np.random.default_rng(606)
    for _ in range(500):
        in_id_order = random_sampling(rng)
        for samp in (in_id_order, shuffled_levels(rng, in_id_order)):
            for scheme in ("fkw", "subdominant"):
                sol = solve_local(samp, scheme=scheme)
                assert_same_flow_as_reference(samp, sol.correspondences)


def pushed_back_network():
    """A two-level network on which the feasibility phase routes one unit
    more than the minimum, so the sink-to-source phase has to return it;
    with its sampling, correspondence and correspondence pairs."""
    pairs = [(0, 0), (0, 3), (1, 1), (1, 2), (2, 1), (2, 3), (3, 0), (4, 2), (4, 5), (5, 4)]
    level = [f"p{i}" for i in range(6)]
    samp = TemporalSampling(line_space(range(6)), [level, level])
    corr = Correspondence.from_pairs([(f"p{u}", f"p{v}") for u, v in pairs], level, level)
    return build_flow_instance(samp, [corr]), samp, corr, pairs


def test_min_flow_matches_reference_solver_when_value_is_pushed_back(monkeypatch):
    """The network of ``pushed_back_network``."""
    _, samp, corr, pairs = pushed_back_network()
    pushed = []
    max_flow = _MaxFlowGraph.max_flow

    def recording_max_flow(graph, source, sink):
        pushed.append(max_flow(graph, source, sink))
        return pushed[-1]

    monkeypatch.setattr(_MaxFlowGraph, "max_flow", recording_max_flow)
    net = assert_same_flow_as_reference(samp, [corr])
    assert pushed == [12, 1]
    # the source is 12 and the sink 13
    edges = [[12, x] for x in range(6)] + [[u, 6 + v] for u, v in pairs]
    assert net.edges.tolist() == sorted(edges + [[6 + x, 13] for x in range(6)])
    assert reference_min_feasible_flow(net).value == brute_min_flow(net) == 6
    assert slot_scan_min_feasible_flow(net) == min_feasible_flow(net)


def test_min_flow_matches_reference_solver_on_flock():
    """Flock-sized networks, which the random samplings do not reach."""
    for actor_count, seed in ((30, 0), (40, 0), (40, 1)):
        samp = run(SimConfig(actor_count=actor_count, seed=seed))
        assert_same_flow_as_reference(samp, solve_local(samp).correspondences)


@pytest.mark.parametrize("actor_count", [40, 100, 200])
def test_live_arc_flow_equals_slot_scan_flow_on_flock(actor_count):
    """Whole flows of seed-0 flocks up to the size the dict solver is too
    slow for: the same flow, edge for edge, value and unit paths as with
    every search a slot scan."""
    samp = run(SimConfig(actor_count=actor_count))
    net = build_flow_instance(samp, solve_local(samp).correspondences)
    flow, oracle = min_feasible_flow(net), slot_scan_min_feasible_flow(net)
    assert flow.value == oracle.value
    assert flow.flow == oracle.flow
    assert decompose_paths(flow) == decompose_paths(oracle)


# ---------------------------------------------------------------- decomposition


def test_decompose_known_paths():
    net = solved_network([["a", "b"], ["a"], ["a", "b"]])
    paths = decompose_paths(min_feasible_flow(net))
    assert paths == [("a", "a", "a"), ("b", "a", "b")]


def test_decompose_is_deterministic_and_exact():
    rng = np.random.default_rng(32)
    for _ in range(30):
        samp = random_sampling(rng, min_levels=2)
        sol = solve_local(samp, scheme="subdominant")
        net = build_flow_instance(samp, sol.correspondences)
        flow = min_feasible_flow(net)
        paths = decompose_paths(flow)
        assert paths == decompose_paths(flow)
        assert len(paths) == flow.value
        for path in paths:
            assert len(path) == samp.t
        # every point is covered by some path
        for i, level in enumerate(samp.levels):
            assert {p[i] for p in paths} == set(level)


# ---------------------------------------------------------------- labelings


def test_paths_to_labelings_known_example():
    labs = paths_to_labelings([("a", "a", "a"), ("b", "a", "b")])
    assert [lab.k for lab in labs] == [2, 2, 2]
    assert [lab.holders for lab in labs] == [("a", "b"), ("a", "a"), ("a", "b")]
    assert labs[0].labels == {"a": frozenset({1}), "b": frozenset({2})}
    assert labs[1].labels == {"a": frozenset({1, 2})}
    assert [p for p, group in labs[2].labels.items() if 2 in group] == ["b"]


def test_paths_are_sorted_before_numbering():
    labs = paths_to_labelings([("b", "b"), ("a", "a")])
    assert labs[0].holders == ("a", "b")
    assert labs[0].labels == {"a": frozenset({1}), "b": frozenset({2})}


def _assert_labelings_match_reference(paths):
    labs = paths_to_labelings(paths)
    expected = reference_paths_to_labelings(paths)
    assert len(labs) == len(expected)
    for lab, labels in zip(labs, expected):
        assert lab.labels == labels
        assert lab.to_list() == [{"point": p, "labels": sorted(labels[p])} for p in sorted(labels)]


def test_paths_to_labelings_matches_reference_on_random_paths():
    """Random path sets over a few ids per level, repeats and shared points
    included, numbered as the per-point dict builder numbers them."""
    rng = np.random.default_rng(35)
    for _ in range(200):
        t, k = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        ids = [f"p{i}" for i in range(int(rng.integers(1, 6)))]
        paths = [tuple(ids[i] for i in rng.integers(0, len(ids), size=t)) for _ in range(k)]
        _assert_labelings_match_reference(paths)


@pytest.mark.parametrize("seed", [0, 1])
def test_paths_to_labelings_matches_reference_on_flocks(seed):
    sol = solve_labeled(run(SimConfig(actor_count=30, seed=seed)))
    paths = decompose_paths(sol.flow)
    _assert_labelings_match_reference(paths)
    assert paths_to_labelings(paths) == sol.labelings


def test_labels_partition_each_level():
    rng = np.random.default_rng(33)
    for _ in range(30):
        samp = random_sampling(rng, min_levels=2)
        sol = solve_labeled(samp, scheme="subdominant")
        for lab in sol.labelings:
            seen = []
            for point in lab.labels:
                seen.extend(lab.labels[point])
            assert sorted(seen) == list(range(1, sol.k + 1))


def test_labeling_validation():
    with pytest.raises(ValidationError, match="label 1 assigned to two points"):
        Labeling.from_list([{"point": "a", "labels": [1]}, {"point": "b", "labels": [1]}], 1)
    with pytest.raises(ValidationError, match=r"labels do not partition 1\.\.1"):
        Labeling.from_list([{"point": "a", "labels": [2]}], 1)
    lab = Labeling(("a", "a", "b"))
    assert lab.labels == {"a": frozenset({1, 2}), "b": frozenset({3})}
    back = Labeling.from_list(lab.to_list(), 3)
    assert back == lab


@pytest.mark.parametrize("holders, message", [
    ((1, 2, 3), "label 1 holder must be a string id, got 1"),
    (("a", None), "label 2 holder must be a string id, got None"),
    ("ab", "labeling holders must be a list of ids, not a string"),
    (5, "labeling holders must be a list"),
])
def test_labeling_refuses_holders_that_are_no_string_ids(holders, message):
    """Int holders used to be accepted, and ``certify`` then raised
    ``TypeError: '<' not supported``. A list of ids is kept as a tuple."""
    with pytest.raises(ValidationError, match=message):
        Labeling(holders)
    assert Labeling(["a", "b", "a"]) == Labeling(("a", "b", "a"))


# ---------------------------------------------------------------- contiguity


def test_contiguity_identity_levels_at_zero_delta():
    ambient = tiny_ambient()
    lab = Labeling(("a", "b"))
    ok, violation = check_contiguity(lab, lab, 0.0, ambient)
    assert ok and violation is None


def test_contiguity_rejects_far_label():
    ambient = tiny_ambient()
    l1 = Labeling(("a",))
    l2 = Labeling(("c",))
    ok, violation = check_contiguity(l1, l2, 1.0, ambient)
    assert not ok
    assert violation.condition == 1
    assert violation.point == "a"
    assert violation.label == 1
    ok, _ = check_contiguity(l1, l2, 10.0, ambient)
    assert ok


def test_contiguity_closed_ball_boundary():
    ambient = tiny_ambient()
    l1 = Labeling(("a",))
    l2 = Labeling(("b",))
    ok, _ = check_contiguity(l1, l2, 3.0, ambient)  # distance exactly delta
    assert ok
    ok, _ = check_contiguity(l1, l2, 2.9, ambient)
    assert not ok


def _random_labeling(rng, points, k):
    """Labels 1..k dealt to a random subset of ``points``, one or more each."""
    if k == 0:
        return Labeling(())
    m = int(rng.integers(1, min(k, len(points)) + 1))
    chosen = rng.choice(len(points), size=m, replace=False)
    owner = np.concatenate([np.arange(m), rng.integers(0, m, size=k - m)])
    rng.shuffle(owner)
    return Labeling(tuple(points[chosen[o]] for o in owner))


def _deltas_around(l1, l2, ambient):
    """Each distance between the two labelings' points, and just below it:
    by TOL, one step under that, and by 2 TOL; plus 0 and inf."""
    out = {0.0, math.inf}
    for d in {ambient.distance(p, q) for p in l1.labels for q in l2.labels}:
        out |= {d, d - TOL, float(np.nextafter(d - TOL, -np.inf)), d - 2 * TOL}
    return sorted(out)


def _assert_contiguity_matches_reference(l1, l2, delta, ambient):
    assert check_contiguity(l1, l2, delta, ambient) == \
        reference_check_contiguity(l1, l2, delta, ambient)


def test_contiguity_matches_reference_on_random_labelings():
    """Random labelings of the same and of differing ``k`` on clouds and on
    integer lines (where distances tie), at deltas on and just below every
    pair distance."""
    rng = np.random.default_rng(71)
    for trial in range(80):
        n = int(rng.integers(1, 9))
        if trial % 2:
            ambient = cloud_space(rng, n)
        else:
            ambient = line_space(rng.choice(12, size=n, replace=False))
        k1 = int(rng.integers(1, 8))
        k2 = k1 if trial % 4 < 2 else int(rng.integers(0, 8))
        l1 = _random_labeling(rng, ambient.points, k1)
        l2 = _random_labeling(rng, ambient.points, k2)
        for delta in _deltas_around(l1, l2, ambient):
            _assert_contiguity_matches_reference(l1, l2, delta, ambient)
            _assert_contiguity_matches_reference(l2, l1, delta, ambient)


def test_contiguity_matches_reference_on_solver_labelings():
    rng = np.random.default_rng(72)
    samplings = [random_sampling(rng, min_levels=2) for _ in range(15)]
    samplings.append(run(SimConfig(actor_count=30)))
    for samp in samplings:
        sol = solve_labeled(samp)
        for l1, l2 in zip(sol.labelings, sol.labelings[1:]):
            for factor in (1.0, 0.9, 0.5, 0.2, 0.0):
                _assert_contiguity_matches_reference(
                    l1, l2, sol.local.delta * factor, samp.ambient)


def test_contiguity_refuses_nan_delta():
    lab = Labeling(("a", "b"))
    with pytest.raises(ValidationError, match="NaN"):
        check_contiguity(lab, lab, math.nan, tiny_ambient())


@pytest.mark.parametrize("delta", ["1", None, [1.0], True])
def test_contiguity_and_certify_refuse_a_delta_that_is_no_number(delta):
    """Text used to raise TypeError, and ``True`` certified at delta 1;
    ``certify`` reads ``None`` as its own delta."""
    lab = Labeling(("a", "b"))
    with pytest.raises(ValidationError, match="delta must be a number"):
        check_contiguity(lab, lab, delta, tiny_ambient())
    if delta is not None:
        sol = line_labeled()
        with pytest.raises(ValidationError, match="delta must be a number"):
            certify(sol.local, sol.labelings, delta)


def test_contiguity_names_the_first_unknown_point():
    """Sorted first-level points are resolved before the second level's."""
    ambient = tiny_ambient()
    l1 = Labeling(("b", "x1"))
    l2 = Labeling(("a", "x0"))
    with pytest.raises(ValidationError, match="unknown point 'x1'"):
        check_contiguity(l1, l2, 1.0, ambient)
    with pytest.raises(ValidationError, match="unknown point 'x0'"):
        check_contiguity(l2, l1, 1.0, ambient)
    far = Labeling(("z", "y"))
    with pytest.raises(ValidationError, match="unknown point 'y'"):
        check_contiguity(far, l2, 1.0, ambient)
    empty = Labeling(())  # nothing to compare with, still resolved
    with pytest.raises(ValidationError, match="unknown point 'x0'"):
        check_contiguity(empty, l2, 100.0, ambient)


# ---------------------------------------------------------------- full pipeline


def test_solve_labeled_line_example():
    samp = TemporalSampling(tiny_ambient(), [["a"], ["a", "b"], ["a"]])
    sol = solve_labeled(samp)
    assert sol.k == 2
    assert sol.local.delta == 3.0
    assert sol.labelings[0].labels["a"] == frozenset({1, 2})
    assert sol.labelings[1].labels["a"] == frozenset({1})
    assert sol.labelings[1].labels["b"] == frozenset({2})


def test_solve_labeled_single_level_gives_one_label_per_point():
    samp = TemporalSampling(tiny_ambient(), [["a", "b", "c"]])
    sol = solve_labeled(samp)
    assert sol.k == 3
    assert sol.labelings[0].labels["a"] == frozenset({1})
    assert sol.labelings[0].labels["c"] == frozenset({3})


def test_solve_labeled_contiguous_at_reported_delta():
    rng = np.random.default_rng(34)
    for scheme in ("fkw", "subdominant"):
        for _ in range(25):
            samp = random_sampling(rng, min_levels=2)
            sol = solve_labeled(samp, scheme=scheme)
            assert sol.k <= samp.size
            assert sol.flow.value == sol.k
            certify(sol.local, sol.labelings, delta=sol.local.delta)


def line_labeled():
    """Levels [a], [a, b], [a]: level 0's ``a`` holds labels 1 and 2, and in
    level 1 label 2 moves to ``b``, at distance 3."""
    return solve_labeled(TemporalSampling(tiny_ambient(), [["a"], ["a", "b"], ["a"]]))


def test_certify_returns_the_certification_and_checks_contiguity_at_delta():
    sol = line_labeled()
    assert certify(sol.local) == certify(sol.local, sol.labelings) == evaluate_general(sol.local)
    certify(sol.local, sol.labelings, delta=3.0)
    broken = "labelings 0 and 1 break contiguity at delta 2.9: label 2 near point 'a' (condition 1)"
    with pytest.raises(CertificationError, match=re.escape(broken)):
        certify(sol.local, sol.labelings, delta=2.9)


@pytest.mark.parametrize("labelings, message", [
    # a dropped labeling
    (lambda labs: labs[:2], "2 labelings for 3 levels"),
    # labelings 1 and 2 swapped: level 1's b goes unlabeled
    (lambda labs: (labs[0], labs[2], labs[1]), "labeling 1 leaves point 'b' of level 1 unlabeled"),
    # a holder outside its level
    (lambda labs: (*labs[:2], Labeling(("c", "a"))), "labeling 2 labels point 'c' outside level 2"),
    # the smallest stray point is named
    (lambda labs: (Labeling(("c", "b")), *labs[1:]), "labeling 0 leaves point 'a' of level 0 unlabeled"),
])
def test_certify_refuses_labelings_that_miss_their_levels(labelings, message):
    sol = line_labeled()
    with pytest.raises(CertificationError, match=re.escape(message)):
        certify(sol.local, labelings(sol.labelings))


def test_a_flock_pipeline_builds_no_ambient_matrix():
    """Solving, labeling and certifying a flock read level blocks and
    adjacent-pair blocks of its coordinate ambient, never the whole matrix;
    nor do re-reading the sampling and comparing the two ambients."""
    sampling = run(SimConfig(actor_count=40, seed=0))
    sol = solve_labeled(sampling)
    certify(sol.local, sol.labelings)
    reread = TemporalSampling.from_dict(sampling.to_dict()).ambient
    assert reread == sampling.ambient
    assert not holds_matrix(sampling.ambient) and not holds_matrix(reread)


def test_forty_actor_labels_keep_their_bits():
    """The labels of a seeded flock, pinned by digest: the augmenting paths,
    the decomposition and the numbering of paths must all stay as they are."""
    sol = solve_labeled(run(SimConfig(actor_count=40, seed=0)))
    assert sol.k == 44
    text = json.dumps([lab.to_list() for lab in sol.labelings], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "8a4760a17fc04efaf53aafea556c59bdf7f49af0eecd664ec2e8cd4e8dccfc04"
