import itertools

import numpy as np
import pytest

from helpers import (
    brute_force_3color,
    color_assignments,
    color_witness_verifies,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    proper_rows,
    random_graph,
    three_colorable_oracle,
    uses_all_three,
)
from thclust import (
    COLORS,
    Graph,
    PseudoUltrametric,
    ThcInstance,
    ValidationError,
    Witness,
    WitnessError,
    coloring_from_witness,
    pad_to_three_colors,
    reduce_from_graph,
    verify_witness,
    witness_from_coloring,
)


# ---------------------------------------------------------------- graphs


def test_graph_build_canonicalizes():
    g = Graph(["b", "a", "c"], [("c", "a"), ("a", "b"), ("b", "a")])
    assert g.vertices == ("a", "b", "c")
    assert g.edges == (("a", "b"), ("a", "c"))


def test_list_built_graph_equals_the_tuple_built_one():
    tuple_built = Graph(("a", "b", "c"), (("a", "b"), ("a", "c")))
    for vertices, edges in ((["a", "b", "c"], [["a", "b"], ["a", "c"]]),
                            (("c", "b", "a"), (("c", "a"), ("b", "a"))),
                            (["b", "c", "a"], [["c", "a"], ("a", "b"), ["a", "c"]])):
        graph = Graph(vertices, edges)
        assert graph == tuple_built
        assert hash(graph) == hash(tuple_built)
        assert graph.edges == (("a", "b"), ("a", "c"))


def test_graph_rejects_self_loops_and_unknown_endpoints():
    with pytest.raises(ValidationError):
        Graph(["a"], [("a", "a")])
    with pytest.raises(ValidationError):
        Graph(["a", "b"], [("a", "z")])


def test_graph_refuses_malformed_edges():
    for edges, message in (([5], "edges entry must be a list"),
                           ([("a",)], "edges entry must have 2 items"),
                           ([("a", "b", "c")], "edges entry must have 2 items"),
                           ([(["a"], "b")], "edge end must be a string")):
        with pytest.raises(ValidationError, match=message):
            Graph(["a", "b"], edges)
        with pytest.raises(ValidationError, match=message):
            Graph(("a", "b"), tuple(edges))
    with pytest.raises(ValidationError, match="edges must be a list"):
        Graph(["a", "b"], (pair for pair in [("b", "a")]))


def test_graph_dict_round_trip():
    g = cycle_graph(5)
    assert Graph.from_dict(g.to_dict()) == g


def test_from_dimacs_parses_and_names_bad_lines():
    g = Graph.from_dimacs("c a comment\np edge 3 2\ne 1 2\ne 2 3\n")
    assert g.vertices == ("1", "2", "3")
    assert g.edges == (("1", "2"), ("2", "3"))
    with pytest.raises(ValidationError, match="unknown vertex"):
        Graph.from_dimacs("p edge 2 1\ne 1 5\n")
    with pytest.raises(ValidationError, match="line 1"):
        Graph.from_dimacs("garbage here\n")
    for count in ("x", "-3", "3.0", "\u00b3"):
        with pytest.raises(ValidationError, match="bad problem line at line 2"):
            Graph.from_dimacs(f"c count\np edge {count} 0\n")
        with pytest.raises(ValidationError, match="bad problem line at line 2"):
            Graph.from_dimacs(f"c count\np edge 2 {count}\n")
    for line in ("p edge 2", "p edge 2 1 1"):
        with pytest.raises(ValidationError, match="bad problem line at line 1"):
            Graph.from_dimacs(f"{line}\ne 1 2\n")
    for declared, lines in ((5, "e 1 2\n"), (0, "e 1 2\n"), (1, "e 1 2\ne 2 3\n")):
        with pytest.raises(ValidationError, match=f"declares {declared} edges"):
            Graph.from_dimacs(f"p edge 3 {declared}\n{lines}")


# ---------------------------------------------------------------- reduction


def test_reduce_anchor_level_is_fixed():
    inst = reduce_from_graph(path_graph(3))
    assert inst.level1.points == COLORS
    want = 2.0 * (np.ones((3, 3)) - np.eye(3))
    assert np.array_equal(inst.level1.dist, want)


def test_reduce_vertex_level_encodes_edges():
    inst = reduce_from_graph(path_graph(3))
    assert inst.level2.points == ("v0", "v1", "v2")
    assert inst.level2.distance("v0", "v1") == 2.0
    assert inst.level2.distance("v1", "v2") == 2.0
    assert inst.level2.distance("v0", "v2") == 1.0


def test_reduce_edgeless_graph_is_all_ones():
    inst = reduce_from_graph(Graph(["x", "y", "z"], []))
    want = np.ones((3, 3)) - np.eye(3)
    assert np.array_equal(inst.level2.dist, want)


def test_reduce_round_trips_through_json():
    inst = reduce_from_graph(complete_graph(3))
    back = ThcInstance.from_dict(inst.to_dict())
    assert np.array_equal(back.level1.dist, inst.level1.dist)
    assert np.array_equal(back.level2.dist, inst.level2.dist)


# ---------------------------------------------------------------- witnesses


def test_k3_witness_verifies_at_the_advertised_thresholds():
    g = complete_graph(3)
    coloring = {"v0": "r", "v1": "g", "v2": "b"}
    wit = witness_from_coloring(g, coloring)
    inst = reduce_from_graph(g)
    assert verify_witness(inst, wit, 1.0, 0.0)
    assert verify_witness(inst, wit, 1.5, 0.5)
    assert not verify_witness(inst, wit, 0.5, 0.0)
    assert not verify_witness(inst, wit, 0.99, 0.0)


def test_witness_fit_quality_is_exactly_one():
    g = cycle_graph(5)
    wit = witness_from_coloring(g, pad_to_three_colors(g, brute_force_3color(g)))
    inst = reduce_from_graph(g)
    assert np.abs(inst.level1.dist - wit.u_p.mu).max() == 1.0
    assert np.abs(inst.level2.dist - wit.u_v.mu).max() == 1.0


def test_witness_rejects_improper_coloring():
    g = complete_graph(3)
    with pytest.raises(WitnessError):
        witness_from_coloring(g, {"v0": "r", "v1": "r", "v2": "g"})


def test_witness_rejects_two_color_assignment():
    g = path_graph(3)
    with pytest.raises(WitnessError):
        witness_from_coloring(g, {"v0": "r", "v1": "g", "v2": "r"})


def test_witness_serialization_round_trip():
    g = path_graph(3)
    wit = witness_from_coloring(g, pad_to_three_colors(g, brute_force_3color(g)))
    back = Witness.from_dict(wit.to_dict())
    assert np.array_equal(back.u_p.mu, wit.u_p.mu)
    assert np.array_equal(back.u_v.mu, wit.u_v.mu)
    assert back.corr.pairs == wit.corr.pairs
    assert verify_witness(reduce_from_graph(g), back, 1.0, 0.0)
    doc = wit.to_dict()
    for pairs, message in ((5, "correspondence must be a list"),
                           ([["1", "r"], ["2"]], "correspondence entry must have 2 items"),
                           (["ab"], "correspondence entry must be a list")):
        with pytest.raises(ValidationError, match=message):
            Witness.from_dict({**doc, "correspondence": pairs})


@pytest.mark.parametrize("pairs, message", [
    ([["r", "v0"], ["g", "v1"], ["g", "v2"]], "misses first-side point 'b'"),
    ([["r", "v0"], ["g", "v1"], ["b", "v1"]], "misses second-side point 'v2'"),
    ([["r", "v0"], ["g", "v1"], ["b", "v2"], ["y", "v2"]], "unknown first-side point 'y'"),
    ([["r", "v0"], ["g", "v1"], ["b", "v2"], ["b", "v9"]], "unknown second-side point 'v9'"),
])
def test_witness_document_refuses_a_relation_that_is_no_correspondence(pairs, message):
    doc = witness_from_coloring(complete_graph(3), {"v0": "r", "v1": "g", "v2": "b"}).to_dict()
    with pytest.raises(ValidationError, match=message):
        Witness.from_dict({**doc, "correspondence": pairs})


def test_verify_rejects_foreign_vertices():
    wit = witness_from_coloring(
        complete_graph(3), {"v0": "r", "v1": "g", "v2": "b"}
    )
    other = reduce_from_graph(Graph(["x", "y", "z"], []))
    assert not verify_witness(other, wit, 1.0, 0.0)


# ---------------------------------------------------------------- padding


def test_pad_promotes_bipartite_coloring():
    g = path_graph(4)
    padded = pad_to_three_colors(g, brute_force_3color(g))
    assert padded == {"v0": "b", "v1": "g", "v2": "r", "v3": "g"}
    for a, b in g.edges:
        assert padded[a] != padded[b]
    assert set(padded.values()) == set(COLORS)


def test_pad_needs_spare_vertices():
    single = Graph(["v0"], [])
    with pytest.raises(WitnessError):
        pad_to_three_colors(single, {"v0": "r"})
    pair = path_graph(2)
    with pytest.raises(WitnessError):
        pad_to_three_colors(pair, brute_force_3color(pair))


# ---------------------------------------------------------------- extraction


def test_coloring_round_trips_on_classic_graphs():
    for g in (complete_graph(3), cycle_graph(5), petersen_graph(), path_graph(6)):
        coloring = pad_to_three_colors(g, brute_force_3color(g))
        wit = witness_from_coloring(g, coloring)
        inst = reduce_from_graph(g)
        assert verify_witness(inst, wit, 1.0, 0.0)
        assert coloring_from_witness(inst, wit) == coloring


def test_extraction_rejects_blurred_anchors():
    g = complete_graph(3)
    wit = witness_from_coloring(g, {"v0": "r", "v1": "g", "v2": "b"})
    inst = reduce_from_graph(g)
    flat = Witness(PseudoUltrametric(COLORS, np.zeros((3, 3))), wit.u_v, wit.corr)
    with pytest.raises(WitnessError):
        coloring_from_witness(inst, flat)


def test_extraction_rejects_distorted_matching():
    g = path_graph(4)
    coloring = pad_to_three_colors(g, brute_force_3color(g))
    wit = witness_from_coloring(g, coloring)
    inst = reduce_from_graph(g)
    # all-distinct vertex level contradicts the repeated colors in corr
    spread = PseudoUltrametric(g.vertices, np.ones((4, 4)) - np.eye(4))
    with pytest.raises(WitnessError):
        coloring_from_witness(inst, Witness(wit.u_p, spread, wit.corr))


def test_extraction_rejects_witness_over_other_vertices():
    g = path_graph(4)
    wit = witness_from_coloring(g, pad_to_three_colors(g, brute_force_3color(g)))
    inst = reduce_from_graph(path_graph(5))
    with pytest.raises(WitnessError, match="differ from the instance"):
        coloring_from_witness(inst, wit)
    assert not verify_witness(inst, wit, 1.0, 0.0)


# ---------------------------------------------------------------- equivalence


def test_verify_matches_coloring_predicate_on_sampled_assignments():
    """Acceptance shortcut: a color-class witness verifies at (1, 0) exactly
    when its assignment is proper and uses all three colors."""
    rng = np.random.default_rng(40)
    for _ in range(25):
        n = int(rng.integers(3, 7))
        g = random_graph(rng, n)
        inst = reduce_from_graph(g)
        for _ in range(12):
            assignment = {v: COLORS[rng.integers(3)] for v in g.vertices}
            proper = all(assignment[a] != assignment[b] for a, b in g.edges)
            all3 = set(assignment.values()) == set(COLORS)
            assert color_witness_verifies(inst, g.vertices, assignment) == (proper and all3)


def test_exhaustive_assignment_sweep_on_one_graph():
    g = cycle_graph(4)
    inst = reduce_from_graph(g)
    idx = {v: i for i, v in enumerate(g.vertices)}
    rows = color_assignments(4)
    proper = proper_rows(rows, [(idx[a], idx[b]) for a, b in g.edges])
    all3 = uses_all_three(rows)
    for row, want in zip(rows, proper & all3):
        assignment = {v: COLORS[row[idx[v]]] for v in g.vertices}
        assert color_witness_verifies(inst, g.vertices, assignment) == bool(want)


# ---------------------------------------------------------------- brute force


def test_brute_force_returns_lexicographic_first():
    assert brute_force_3color(path_graph(3)) == {"v0": "r", "v1": "g", "v2": "r"}
    assert brute_force_3color(Graph(["v0"], [])) == {"v0": "r"}


def test_brute_force_k4_has_no_coloring():
    assert brute_force_3color(complete_graph(4)) is None


def test_brute_force_is_capped():
    with pytest.raises(ValidationError):
        brute_force_3color(complete_graph(21))


def test_brute_force_agrees_with_assignment_oracle():
    rng = np.random.default_rng(41)
    for _ in range(40):
        g = random_graph(rng, int(rng.integers(1, 8)), p=float(rng.uniform(0.2, 0.9)))
        found = brute_force_3color(g)
        assert (found is not None) == three_colorable_oracle(g)
        if found is not None:
            assert all(found[a] != found[b] for a, b in g.edges)
