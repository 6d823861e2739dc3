import itertools
from unittest import mock

import numpy as np
import pytest

from helpers import (
    brute_force_3color,
    color_assignments,
    color_witness_verifies,
    complete_graph,
    cycle_graph,
    grouped_distortion,
    outcome,
    path_graph,
    petersen_graph,
    proper_rows,
    random_graph,
    raw_color_witness,
    three_colorable_oracle,
    uses_all_three,
)
from thclust import (
    COLORS,
    Correspondence,
    Graph,
    MetricSpace,
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
    for line in ("p edge 2", "p edge 2 1 1", "p foo 3 1", "p col 3 1", "p 3 1 1"):
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


@pytest.mark.parametrize("chi_bound, rho_bound, message", [
    ("1", 0, "chi_bound must be a number, got '1'"),
    (1.0, "0", "rho_bound must be a number, got '0'"),
    (None, 0.0, "chi_bound must be a number, got None"),
    (1.0, True, "rho_bound must be a number, got True"),
    (10**400, 0.0, "chi_bound 10+ is too large for a float"),
], ids=["chi-text", "rho-text", "chi-null", "rho-bool", "chi-huge"])
def test_verify_witness_refuses_bounds_that_are_not_numbers(chi_bound, rho_bound, message):
    g = complete_graph(3)
    wit = witness_from_coloring(g, {"v0": "r", "v1": "g", "v2": "b"})
    inst = reduce_from_graph(g)
    with pytest.raises(ValidationError, match=message):
        verify_witness(inst, wit, chi_bound, rho_bound)
    assert verify_witness(inst, wit, 1, 0)


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


def test_coloring_of_a_vertex_outside_the_graph_is_refused():
    """A coloring names only the graph's vertices: an extra '0' holding the
    third color must neither count towards three colors nor be dropped."""
    g = Graph(("a", "b", "c"), [("a", "b")])
    coloring = {"a": "r", "b": "g", "c": "r", "0": "b", "z": "g"}
    for make in (witness_from_coloring, pad_to_three_colors):
        with pytest.raises(WitnessError, match="^vertex '0' is not in the graph$"):
            make(g, coloring)
    padded = pad_to_three_colors(g, {"a": "r", "b": "g", "c": "r"})
    assert witness_from_coloring(g, padded).corr.second == ("a", "b", "c")


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
    # the instance's own anchors, listed in another order
    order = wit.u_p.points[::-1]
    flipped = Witness(PseudoUltrametric(order, wit.u_p.mu[::-1, ::-1]), wit.u_v,
                      Correspondence.from_pairs(wit.corr.pairs, order, wit.u_v.points))
    own = reduce_from_graph(complete_graph(3))
    assert verify_witness(own, wit, 1.0, 0.0)
    assert not verify_witness(own, flipped, 1.0, 0.0)


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


def test_extraction_rejects_witness_in_another_vertex_order():
    """The witness's levels are compared with the instance's point tuples,
    as ``verify_witness`` compares them: not aligned by id."""
    g = path_graph(4)
    wit = witness_from_coloring(g, pad_to_three_colors(g, brute_force_3color(g)))
    order = g.vertices[::-1]
    flipped = Witness(wit.u_p, PseudoUltrametric(order, wit.u_v.mu[::-1, ::-1]),
                      Correspondence.from_pairs(wit.corr.pairs, wit.u_p.points, order))
    inst = reduce_from_graph(g)
    with pytest.raises(WitnessError, match="differ from the instance"):
        coloring_from_witness(inst, flipped)
    assert not verify_witness(inst, flipped, 2.0, 0.0)
    assert coloring_from_witness(inst, wit)


def test_extraction_names_a_vertex_related_to_two_anchors():
    """On anchors 1 apart, flat heights fit within 1 at zero distortion, so
    the relation itself must refuse v0's two anchors. The pairs are read in
    level order, which on levels listed in id order is id order."""
    vertices = reduce_from_graph(Graph(["v0", "v1"], [])).level2
    flat_v = PseudoUltrametric(vertices.points, np.zeros((2, 2)))
    pairs = [("r", "v0"), ("g", "v0"), ("b", "v1")]
    for anchors, message in ((tuple(sorted(COLORS)), "anchors 'g' and 'r'"),
                             (COLORS, "anchors 'r' and 'g'")):
        inst = ThcInstance(level1=MetricSpace(anchors, dist=1.0 - np.eye(3)), level2=vertices)
        flat_p = PseudoUltrametric(anchors, np.zeros((3, 3)))
        wit = Witness(flat_p, flat_v, Correspondence.from_pairs(pairs, anchors, vertices.points))
        assert verify_witness(inst, wit, 1.0, 0.0)
        with pytest.raises(WitnessError, match=f"^vertex 'v0' relates to {message}$"):
            coloring_from_witness(inst, wit)


def test_verdicts_match_the_grouped_distortion_oracle():
    """verify_witness and coloring_from_witness decide alike when distortion
    is the grouped-reduction oracle: on color-class witnesses of sampled
    assignments, and on the same witnesses with blurred anchors or spread
    vertices."""
    rng = np.random.default_rng(41)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(3, 7)))
        inst = reduce_from_graph(g)
        n = len(g.vertices)
        for _ in range(6):
            assignment = {v: COLORS[rng.integers(3)] for v in g.vertices}
            if set(assignment.values()) != set(COLORS):
                continue
            wit = raw_color_witness(g.vertices, assignment)
            spread = PseudoUltrametric(g.vertices, 1.0 - np.eye(n))
            for w in (wit, Witness(PseudoUltrametric(COLORS, np.zeros((3, 3))), wit.u_v, wit.corr),
                      Witness(wit.u_p, spread, wit.corr)):
                calls = [(verify_witness, inst, w, 1.0, 0.0), (verify_witness, inst, w, 2.0, 1.0),
                         (coloring_from_witness, inst, w)]
                got = [outcome(*call) for call in calls]
                with mock.patch("thclust.hardness.distortion", grouped_distortion):
                    assert [outcome(*call) for call in calls] == got


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
