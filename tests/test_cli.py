import importlib
import importlib.util
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from helpers import cloud_space, line_space, reference_dendrogram_layout, run
from thclust import (
    Dendrogram,
    LocalSolution,
    MetricSpace,
    SimConfig,
    TemporalSampling,
    evaluate_general,
    solve_labeled,
    subdominant_ultrametric,
    to_dendrogram,
)
from thclust.cli import (
    CliError,
    _dendrogram_layout,
    _labelings_from_dict,
    _load,
    _parse_json,
    _render_svg,
    main,
)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def read_json(path):
    return json.loads(path.read_text())


def line_file(tmp_path, name="line.json"):
    space = line_space([0.0, 1.0, 3.0], ids=["a", "b", "c"])
    return write_json(tmp_path / name, {"format_version": "1", "space": space.to_dict()})


def sampling_file(tmp_path, name="samp.json"):
    ambient = line_space([0.0, 3.0, 10.0], ids=["a", "b", "c"])
    samp = TemporalSampling(ambient, [["a"], ["a", "b"], ["a"]])
    return write_json(tmp_path / name, {"format_version": "1", "sampling": samp.to_dict()})


# ---------------------------------------------------------------- fit


def test_fit_fkw_reports_half_error(tmp_path, capsys):
    out = tmp_path / "line.dend.json"
    code = main(["fit", line_file(tmp_path), "--method", "fkw", "-o", str(out)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "fit"
    assert abs(report["metrics"]["fit_error"] - 0.5) < 1e-9
    assert abs(report["metrics"]["shift"] - 0.5) < 1e-9
    assert report["metrics"]["clamped_pairs"] == 0
    artifact = read_json(out)
    assert artifact["format_version"] == "2"
    assert artifact["method"] == "fkw"
    assert sorted(artifact["dendrogram"]["leaves"]) == ["a", "b", "c"]


def test_fit_subdominant_error_one(tmp_path, capsys):
    out = tmp_path / "sub.dend.json"
    code = main(["fit", line_file(tmp_path), "--method", "subdominant", "-o", str(out)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["metrics"] == {"fit_error": 1.0}


def test_fit_artifact_is_idempotent(tmp_path, capsys):
    src = line_file(tmp_path)
    out = tmp_path / "d.json"
    main(["fit", src, "-o", str(out)])
    first = out.read_bytes()
    main(["fit", src, "-o", str(out)])
    assert out.read_bytes() == first
    capsys.readouterr()


def test_fit_rejects_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"space": \n oops')
    assert main(["fit", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "bad.json" in err and "error" in err


def test_fit_rejects_invalid_metric(tmp_path, capsys):
    payload = {
        "format_version": "1",
        "space": {"points": ["a", "b"], "matrix": [[0.0, 1.0], [2.0, 0.0]]},
    }
    assert main(["fit", write_json(tmp_path / "asym.json", payload)]) == 1
    err = capsys.readouterr().err
    assert "asymmetric distances" in err


def test_fit_rejects_nonfinite_coordinate(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(
        '{"format_version": "1", "space": '
        '{"points": ["a", "b", "c"], "coords": [[0.0], [NaN], [1.0]]}}'
    )
    assert main(["fit", str(path)]) == 1
    assert "finite" in capsys.readouterr().err


def test_unsupported_format_version(tmp_path, capsys):
    line_file(tmp_path)
    doc = read_json(tmp_path / "line.json")
    doc["format_version"] = "9"
    bad = write_json(tmp_path / "vers.json", doc)
    assert main(["fit", bad]) == 1
    assert "format_version" in capsys.readouterr().err


def test_usage_error_exits_one(capsys):
    assert main(["fit", "--no-such-flag"]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------- cut


def test_cut_blocks_and_extremes(tmp_path, capsys):
    dend = tmp_path / "d.json"
    main(["fit", line_file(tmp_path), "--method", "subdominant", "-o", str(dend)])
    out = tmp_path / "cut.json"
    assert main(["cut", str(dend), "-r", "1.5", "-o", str(out)]) == 0
    assert read_json(out)["blocks"] == [["a", "b"], ["c"]]
    assert main(["cut", str(dend), "-r", "inf", "-o", str(out)]) == 0
    artifact = read_json(out)
    assert artifact["r"] == "inf"
    assert artifact["blocks"] == [["a", "b", "c"]]
    assert main(["cut", str(dend), "-r", "0", "-o", str(out)]) == 0
    assert read_json(out)["blocks"] == [["a"], ["b"], ["c"]]
    capsys.readouterr()


def test_cut_at_infinity_writes_one_sorted_block(tmp_path, capsys):
    """``-r inf`` keeps its artifact byte for byte: every leaf in one block
    in id order (here not the space's order), and ``r`` as the string "inf"."""
    space = line_space([0.0, 1.0, 3.0, 7.0], ids=["p10", "p2", "b", "p1"])
    src = write_json(tmp_path / "ids.json", {"format_version": "1", "space": space.to_dict()})
    dend = tmp_path / "ids.dend.json"
    assert main(["fit", src, "-o", str(dend)]) == 0
    out = tmp_path / "cut.json"
    assert main(["cut", str(dend), "-r", "inf", "-o", str(out)]) == 0
    assert out.read_text() == (
        '{\n  "blocks": [\n    [\n      "b",\n      "p1",\n      "p10",\n      "p2"\n'
        '    ]\n  ],\n  "format_version": "2",\n  "r": "inf"\n}\n'
    )
    capsys.readouterr()


def test_cut_rejects_nan_height(tmp_path, capsys):
    dend = tmp_path / "d.json"
    main(["fit", line_file(tmp_path), "-o", str(dend)])
    out = tmp_path / "cut.json"
    assert main(["cut", str(dend), "-r", "nan", "-o", str(out)]) == 1
    assert not out.exists()
    capsys.readouterr()


@pytest.mark.parametrize("height", ["x", None, [1], "nan", 1e999])
def test_cut_rejects_malformed_merge_height(tmp_path, capsys, height):
    dend = tmp_path / "d.json"
    main(["fit", line_file(tmp_path), "-o", str(dend)])
    doc = read_json(dend)
    doc["dendrogram"]["merges"][1][0] = height
    dend.write_text(json.dumps(doc).replace("Infinity", "1e999"))
    out = tmp_path / "cut.json"
    capsys.readouterr()
    assert main(["cut", str(dend), "-r", "1", "-o", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_cut_five_point_shape(tmp_path, capsys):
    mu = [
        [0.0, 4.0, 4.0, 4.0, 4.0],
        [4.0, 0.0, 1.0, 3.0, 3.0],
        [4.0, 1.0, 0.0, 3.0, 3.0],
        [4.0, 3.0, 3.0, 0.0, 1.5],
        [4.0, 3.0, 3.0, 1.5, 0.0],
    ]
    src = write_json(
        tmp_path / "five.json",
        {"format_version": "1", "space": {"points": list("abcde"), "matrix": mu}},
    )
    dend = tmp_path / "five.dend.json"
    main(["fit", src, "--method", "subdominant", "-o", str(dend)])
    out = tmp_path / "blocks.json"
    assert main(["cut", str(dend), "-r", "2", "-o", str(out)]) == 0
    assert read_json(out)["blocks"] == [["a"], ["b", "c"], ["d", "e"]]
    capsys.readouterr()


# ---------------------------------------------------------------- cluster


def test_cluster_labels_report_matches_recomputation(tmp_path, capsys):
    outdir = tmp_path / "out"
    code = main(["cluster", sampling_file(tmp_path), "--labels", "-o", str(outdir)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["metrics"]["k"] == 2
    assert report["contiguity"]["delta"] == 3.0
    assert report["contiguity"]["adjacent_pairs_checked"] == 2

    ambient = line_space([0.0, 3.0, 10.0], ids=["a", "b", "c"])
    samp = TemporalSampling(ambient, [["a"], ["a", "b"], ["a"]])
    sol = solve_labeled(samp)
    cert = evaluate_general(sol.local)
    for key, want in (
        ("chi", cert.chi),
        ("delta", cert.delta),
        ("rho", cert.rho),
        ("rho_bound", cert.bound),
    ):
        assert abs(report["metrics"][key] - want) < 1e-9
    for key, want in (
        ("level_chi", cert.level_chi),
        ("pair_delta", cert.pair_delta),
        ("pair_rho", cert.pair_rho),
    ):
        assert report["metrics"][key] == pytest.approx(list(want), rel=0.0, abs=1e-9)

    solution = read_json(outdir / "solution.json")
    labels = read_json(outdir / "labels.json")
    plots = read_json(outdir / "plots.json")
    assert solution["format_version"] == "2"
    assert labels["k"] == 2
    assert len(labels["labelings"]) == 3
    assert len(plots["levels"]) == 3
    for level in plots["levels"]:
        assert {"dendrogram", "cuts"} <= set(level)


def test_format_1_solution_loads_and_certifies():
    """A solution.json written by format 1, with dense height matrices
    (``thclust cluster`` on a 6-actor flock), loads through the one reader
    and certifies to its stored metrics; format 2 then stores the same
    levels."""
    path = Path(__file__).parent / "data" / "solution_v1.json"
    doc = read_json(path)
    assert doc["format_version"] == "1"
    assert all("matrix" in level for level in doc["ultrametrics"])
    solution = _load(str(path), None, LocalSolution.from_dict)
    cert = evaluate_general(solution)
    assert (cert.chi, cert.delta, cert.rho) == (doc["chi"], doc["delta"], doc["rho"])
    again = LocalSolution.from_dict(solution.to_dict())
    for a, b in zip(again.ultrametrics, solution.ultrametrics):
        assert np.array_equal(a.mu, b.mu)


def test_cluster_is_idempotent(tmp_path, capsys):
    src = sampling_file(tmp_path)
    outdir = tmp_path / "out"
    main(["cluster", src, "--labels", "-o", str(outdir)])
    first = {p.name: p.read_bytes() for p in outdir.iterdir()}
    main(["cluster", src, "--labels", "-o", str(outdir)])
    second = {p.name: p.read_bytes() for p in outdir.iterdir()}
    assert first == second
    capsys.readouterr()


def test_cluster_delta_override_can_fail_certification(tmp_path, capsys):
    code = main(
        [
            "cluster",
            sampling_file(tmp_path),
            "--labels",
            "--delta",
            "0",
            "-o",
            str(tmp_path / "out"),
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == (
        "certification failure: labelings 0 and 1 break contiguity at delta 0: "
        "label 2 near point 'a' (condition 1)\n"
    )


def test_cluster_rejects_nan_delta(tmp_path, capsys):
    outdir = tmp_path / "out"
    args = ["cluster", sampling_file(tmp_path), "--labels", "--delta", "nan"]
    assert main([*args, "-o", str(outdir)]) == 1
    assert not outdir.exists()
    capsys.readouterr()


def test_cluster_refuses_delta_without_labels(tmp_path, capsys):
    outdir = tmp_path / "out"
    assert main(["cluster", sampling_file(tmp_path), "--delta", "0", "-o", str(outdir)]) == 1
    assert capsys.readouterr().err == "error: --delta certifies labelings; it needs --labels\n"
    assert not outdir.exists()


def test_cluster_rejects_negative_delta(tmp_path, capsys):
    outdir = tmp_path / "out"
    args = ["cluster", sampling_file(tmp_path), "--labels", "--delta", "-1"]
    assert main([*args, "-o", str(outdir)]) == 1
    assert not outdir.exists()
    assert "not a radius" in capsys.readouterr().err


def test_cluster_svg_is_wellformed(tmp_path, capsys):
    outdir = tmp_path / "out"
    main(["cluster", sampling_file(tmp_path), "--emit", "svg", "-o", str(outdir)])
    tree = ET.parse(outdir / "plots.svg")
    assert tree.getroot().tag.endswith("svg")
    capsys.readouterr()


# ---------------------------------------------------------------- layout


def _random_dendrogram(rng, n):
    """Merges of random pairs of open clusters at non-decreasing integer
    heights, so ties and both child orders occur."""
    open_nodes = [f"x{i:02d}" for i in rng.permutation(n)]
    leaves = tuple(sorted(open_nodes))
    merges = []
    height = 0.0
    while len(open_nodes) > 1:
        i, j = rng.choice(len(open_nodes), size=2, replace=False)
        a, b = open_nodes[i], open_nodes[j]
        open_nodes = [x for k, x in enumerate(open_nodes) if k not in (i, j)]
        height += float(rng.integers(0, 2))
        merges.append((height, a, b))
        open_nodes.append(len(merges) - 1)
    return Dendrogram(leaves, tuple(merges))


def test_layout_matches_recursive_walk():
    rng = np.random.default_rng(60)
    dendrograms = [_random_dendrogram(rng, n) for n in (1, 2, 3, 5, 8, 13, 21) for _ in range(6)]
    dendrograms += [to_dendrogram(subdominant_ultrametric(cloud_space(rng, n)))
                    for n in (1, 2, 7, 30)]
    for dendrogram in dendrograms:
        assert _dendrogram_layout(dendrogram.leaves, dendrogram.node_merges()) == \
            reference_dendrogram_layout(dendrogram)


def test_layout_of_a_deep_caterpillar_renders():
    """1,200 leaves joined one at a time: a merge tree 1,199 levels deep,
    beyond the interpreter's recursion limit."""
    leaves = tuple(f"p{i:04d}" for i in range(1200))
    merges = [(1.0, leaves[0], leaves[1])]
    merges += [(float(t + 1), t - 1, leaves[t + 1]) for t in range(1, 1199)]
    order, segments = _dendrogram_layout(leaves, Dendrogram(leaves, tuple(merges)).node_merges())
    assert order == list(leaves)
    assert len(segments) == 3 * 1199
    assert segments[-1] == (1197.0, 1199.0, 1199.0, 1199.0)  # the root bar
    svg = _render_svg([{"title": "deep", "order": order, "segments": segments, "colors": {}}])
    assert ET.fromstring(svg).tag.endswith("svg")


# ---------------------------------------------------------------- hardness chain


def test_reduce_witness_verify_chain(tmp_path, capsys):
    graph = tmp_path / "k3.col"
    graph.write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    inst = tmp_path / "inst.json"
    wit = tmp_path / "wit.json"
    coloring = write_json(tmp_path / "col.json", {"coloring": {"1": "r", "2": "g", "3": "b"}})

    assert main(["reduce", str(graph), "-o", str(inst)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["metrics"] == {"edges": 3, "vertices": 3}
    assert main(["witness", str(graph), coloring, "-o", str(wit)]) == 0
    capsys.readouterr()
    assert main(["verify", str(inst), str(wit), "--chi", "1", "--rho", "0"]) == 0
    capsys.readouterr()
    assert main(["verify", str(inst), str(wit), "--chi", "0.5", "--rho", "0"]) == 2
    capsys.readouterr()


def test_verify_reports_extracted_coloring(tmp_path, capsys):
    graph = tmp_path / "k3.col"
    graph.write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    inst = tmp_path / "inst.json"
    wit = tmp_path / "wit.json"
    coloring = write_json(tmp_path / "col.json", {"coloring": {"1": "r", "2": "g", "3": "b"}})
    main(["reduce", str(graph), "-o", str(inst)])
    main(["witness", str(graph), coloring, "-o", str(wit)])
    capsys.readouterr()
    assert main(["verify", str(inst), str(wit), "--chi", "1", "--rho", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["metrics"]["accepted"] is True
    assert report["metrics"]["coloring"] == {"1": "r", "2": "g", "3": "b"}


def test_verify_rejects_nan_chi(tmp_path, capsys):
    graph = tmp_path / "k3.col"
    graph.write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    inst = tmp_path / "inst.json"
    wit = tmp_path / "wit.json"
    coloring = write_json(tmp_path / "col.json", {"coloring": {"1": "r", "2": "g", "3": "b"}})
    main(["reduce", str(graph), "-o", str(inst)])
    main(["witness", str(graph), coloring, "-o", str(wit)])
    capsys.readouterr()
    assert main(["verify", str(inst), str(wit), "--chi", "nan", "--rho", "0"]) == 1
    assert main(["verify", str(inst), str(wit), "--chi", "1", "--rho", "nan"]) == 1
    capsys.readouterr()


def test_graph_json_rejects_nonfinite_token(tmp_path, capsys):
    graph = tmp_path / "g.json"
    graph.write_text('{"vertices": ["1", "2"], "edges": [["1", "2"]], "weight": Infinity}')
    assert main(["reduce", str(graph), "-o", str(tmp_path / "inst.json")]) == 1
    err = capsys.readouterr().err
    assert "g.json" in err and "Infinity" in err


def test_witness_pad_flag(tmp_path, capsys):
    graph = tmp_path / "path4.col"
    graph.write_text("p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    coloring = write_json(
        tmp_path / "two.json", {"coloring": {"1": "r", "2": "g", "3": "r", "4": "g"}}
    )
    wit = tmp_path / "wit.json"
    assert main(["witness", str(graph), coloring, "--pad", "-o", str(wit)]) == 0
    capsys.readouterr()
    padded = read_json(wit)
    assert padded["format_version"] == "2"
    # without --pad the two-color assignment is rejected
    assert main(["witness", str(graph), coloring, "-o", str(wit)]) == 1
    capsys.readouterr()


_PAIR = {"points": ["a", "b"], "coords": [[0.0], [1.0]]}
_MERGES = [[1.0, "a", "b"], [2.0, 0, "c"]]
MALFORMED = {
    # JSON lists given as strings or numbers
    "fit-points-string": ("fit", {"space": {"points": "ab", "matrix": [[0, 1], [1, 0]]}}),
    "fit-points-number": ("fit", {"space": {"points": 3, "matrix": [[0]]}}),
    "cluster-level-string": ("cluster", {"sampling": {"ambient": _PAIR, "levels": ["ab"]}}),
    "cluster-levels-number": ("cluster", {"sampling": {"ambient": _PAIR, "levels": 5}}),
    "cluster-level-number": ("cluster", {"sampling": {"ambient": _PAIR, "levels": [5]}}),
    "cut-leaves-string": ("cut", {"dendrogram": {"leaves": "ab", "merges": [[1, "a", "b"]]}}),
    "cut-leaves-number": ("cut", {"dendrogram": {"leaves": 5, "merges": []}}),
    "cut-merges-number": ("cut", {"dendrogram": {"leaves": ["a"], "merges": 5}}),
    "reduce-vertices-string": ("reduce", {"graph": {"vertices": "abc", "edges": []}}),
    "reduce-vertices-number": ("reduce", {"graph": {"vertices": 5}}),
    "reduce-edges-number": ("reduce", {"graph": {"vertices": ["a", "b"], "edges": 3}}),
    # point ids are JSON strings: numbers are refused, not read as "1"
    "fit-points-numbers": ("fit", {"space": {"points": [1, 2.5], "matrix": [[0, 1], [1, 0]]}}),
    "cut-leaf-number": ("cut", {"dendrogram": {"leaves": [1, "b"], "merges": [[1.0, "1", "b"]]}}),
    "reduce-vertices-numbers": ("reduce", {"graph": {"vertices": [1, 2, 3]}}),
    "reduce-edge-end-number": ("reduce", {"graph": {"vertices": ["1", "2"], "edges": [[1, "2"]]}}),
    # numbers and arity
    "fit-coords-string": ("fit", {"space": {"points": ["a", "b"], "coords": "xy"}}),
    "fit-coords-ragged": ("fit", {"space": {"points": ["a", "b"], "coords": [[0, 0], [1]]}}),
    "fit-matrix-ragged": ("fit", {"space": {"points": ["a", "b"], "matrix": [[0, 1], [1]]}}),
    "fit-matrix-text": ("fit", {"space": {"points": ["a", "b"],
                                          "matrix": [[0, "x"], ["x", 0]]}}),
    "fit-matrix-numeric-text": ("fit", {"space": {"points": ["a", "b"],
                                                  "matrix": [[0, "1"], [True, 0]]}}),
    "fit-matrix-bool": ("fit", {"space": {"points": ["a", "b"],
                                          "matrix": [[0, True], [True, 0]]}}),
    "fit-coords-numeric-text": ("fit", {"space": {"points": ["a", "b"],
                                                  "coords": [["0"], ["1"]]}}),
    "fit-coords-bool": ("fit", {"space": {"points": ["a", "b"], "coords": [[False], [True]]}}),
    # "pseudo" is a JSON boolean; the string "false" does not switch it on
    "fit-pseudo-string": ("fit", {"space": {"points": ["a", "b"], "matrix": [[0, 0], [0, 0]],
                                            "pseudo": "false"}}),
    "fit-pseudo-number": ("fit", {"space": {"points": ["a", "b"], "matrix": [[0, 0], [0, 0]],
                                            "pseudo": 1}}),
    # a space is a matrix space or a coordinate space, never both
    "fit-matrix-and-coords": ("fit", {"space": {**_PAIR, "matrix": [[0, 1], [1, 0]]}}),
    "cluster-matrix-and-coords": ("cluster", {"sampling": {
        "ambient": {**_PAIR, "matrix": [[0, 1], [1, 0]]}, "levels": [["a", "b"]]}}),
    "reduce-edge-short": ("reduce", {"graph": {"vertices": ["a", "b"], "edges": [["a"]]}}),
    "reduce-dimacs-count": ("reduce", "p edge x 3\n"),
    "reduce-dimacs-short": ("reduce", "p edge 3 5\ne 1 2\n"),
    "reduce-dimacs-no-edge-count": ("reduce", "p edge 3\ne 1 2\n"),
    "reduce-dimacs-format": ("reduce", "p foo 3 1\ne 1 2\n"),
    # merge lists: booleans, a negative height, a dip of just over TOL
    "cut-bool-reference": ("cut", {"dendrogram": {
        "leaves": ["a", "b", "c"], "merges": [[1.0, "a", "b"], [2.0, False, "c"]]}}),
    "cut-bool-height": ("cut", {"dendrogram": {
        "leaves": ["a", "b", "c"], "merges": [_MERGES[0], [True, 0, "c"]]}}),
    "cut-negative-height": ("cut", {"dendrogram": {
        "leaves": ["a", "b"], "merges": [[-2e-9, "a", "b"]]}}),
    "cut-nested-dip": ("cut", {"dendrogram": {"leaves": ["a", "b", "c"], "merges": [
        [3.1357857823937707e-09, "a", "b"], [2.1357857823937705e-09, 0, "c"]]}}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_documents_exit_one_naming_the_file(tmp_path, capsys, case):
    command, doc = MALFORMED[case]
    src = tmp_path / f"{case}.json"
    src.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    out = ["-o", str(tmp_path / ("out" if command == "cluster" else "out.json"))]
    extra = ["-r", "1"] if command == "cut" else []
    assert main([command, str(src), *extra, *out]) == 1
    captured = capsys.readouterr()
    assert src.name in captured.err and not captured.out
    assert not (tmp_path / "out.json").exists() and not (tmp_path / "out").exists()


def test_malformed_witness_is_input_error(tmp_path, capsys):
    graph = tmp_path / "k3.col"
    graph.write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    inst = tmp_path / "inst.json"
    main(["reduce", str(graph), "-o", str(inst)])
    broken = write_json(tmp_path / "broken.json", {"format_version": "1", "nonsense": 1})
    assert main(["verify", str(inst), str(broken), "--chi", "1", "--rho", "0"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("coloring, message", [
    (["r", "g", "b"], "coloring must be an object"),
    ({"1": "r", "2": "g", "3": 3}, "color of '3' must be a string"),
])
def test_malformed_coloring_is_input_error(tmp_path, capsys, coloring, message):
    graph = tmp_path / "k3.col"
    graph.write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    src = write_json(tmp_path / "col.json", {"coloring": coloring})
    assert main(["witness", str(graph), src, "-o", str(tmp_path / "wit.json")]) == 1
    err = capsys.readouterr().err
    assert "col.json" in err and message in err
    assert not (tmp_path / "wit.json").exists()


@pytest.mark.parametrize("pad", [[], ["--pad"]])
def test_coloring_of_a_vertex_outside_the_graph_exits_one(tmp_path, capsys, pad):
    graph = write_json(tmp_path / "g.json", {"graph": {"vertices": ["a", "b", "c"],
                                                      "edges": [["a", "b"]]}})
    src = write_json(tmp_path / "col.json",
                     {"coloring": {"a": "r", "b": "g", "c": "r", "0": "b"}})
    out = tmp_path / "wit.json"
    assert main(["witness", graph, src, *pad, "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert "vertex '0' is not in the graph" in captured.err and not captured.out
    assert not out.exists()


_B = {"point": "b", "labels": [2]}


@pytest.mark.parametrize("doc, message", [
    # labels are integers: 1.7, "1" and true are not label 1
    ({"k": 2, "labelings": [[{"point": "a", "labels": [1.7]}, _B]]}, "label must be an integer"),
    ({"k": 2, "labelings": [[{"point": "a", "labels": ["1"]}, _B]]}, "label must be an integer"),
    ({"k": 2, "labelings": [[{"point": "a", "labels": [True]}, _B]]}, "label must be an integer"),
    ({"k": 2, "labelings": [[{"point": 5, "labels": [1]}, _B]]}, "point must be a string"),
    ({"k": 2, "labelings": [[{"point": "a"}, _B]]}, "labeling entry is missing ['labels']"),
    ({"k": 2, "labelings": [["a", _B]]}, "labeling entry must be an object"),
    ({"k": 2, "labelings": [{"point": "a"}]}, "labeling must be a list"),
    ({"k": "2", "labelings": [[{"point": "a", "labels": [1]}, _B]]}, "k must be an integer"),
    ({"labelings": []}, "labels document is missing ['k']"),
    # one entry per point, each label once: a repeat is no second holder
    ({"k": 1, "labelings": [[{"point": "a", "labels": [1]}, {"point": "a", "labels": [1]}]]},
     "point 'a' has two labeling entries"),
    ({"k": 1, "labelings": [[{"point": "a", "labels": [1, 1]}]]}, "point 'a' lists a label twice"),
    # each label 1..k has exactly one holder
    ({"k": 2, "labelings": [[{"point": "a", "labels": []}, _B]]}, "point 'a' has no labels"),
    ({"k": 2, "labelings": [[{"point": "a", "labels": [3]}, _B]]}, "labels do not partition 1..2"),
    ({"k": 2, "labelings": [[{"point": "a", "labels": [0]}, _B]]}, "labels do not partition 1..2"),
    ({"k": 2, "labelings": [[{"point": "a", "labels": [2]}, _B]]}, "label 2 assigned to two points"),
    ({"k": 2, "labelings": [[_B]]}, "labels do not partition 1..2"),
    ({"k": -1, "labelings": [[]]}, "labels do not partition 1..-1"),
])
def test_labels_document_refuses_what_it_would_coerce(tmp_path, doc, message):
    src = write_json(tmp_path / "labels.json", {"format_version": "2", **doc})
    with pytest.raises(CliError) as caught:
        _load(src, None, _labelings_from_dict)
    assert str(caught.value).startswith(f"{src}: {message}")


@pytest.mark.parametrize("entry", ["1", True])
def test_witness_matrix_with_text_or_boolean_is_input_error(tmp_path, capsys, entry):
    graph = tmp_path / "k3.col"
    graph.write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    inst, wit = tmp_path / "inst.json", tmp_path / "wit.json"
    coloring = write_json(tmp_path / "col.json", {"coloring": {"1": "r", "2": "g", "3": "b"}})
    assert main(["reduce", str(graph), "-o", str(inst)]) == 0
    assert main(["witness", str(graph), coloring, "-o", str(wit)]) == 0
    assert main(["verify", str(inst), str(wit), "--chi", "1", "--rho", "0"]) == 0
    doc = read_json(wit)
    doc["u_v"]["matrix"][0][1] = entry
    wit.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(inst), str(wit), "--chi", "1", "--rho", "0"]) == 1
    assert "wit.json" in capsys.readouterr().err


def test_witness_pair_with_a_number_id_is_input_error(tmp_path, capsys):
    graph = tmp_path / "k3.col"
    graph.write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    inst, wit = tmp_path / "inst.json", tmp_path / "wit.json"
    coloring = write_json(tmp_path / "col.json", {"coloring": {"1": "r", "2": "g", "3": "b"}})
    assert main(["reduce", str(graph), "-o", str(inst)]) == 0
    assert main(["witness", str(graph), coloring, "-o", str(wit)]) == 0
    doc = read_json(wit)
    doc["correspondence"] = [[c, 1 if v == "1" else v] for c, v in doc["correspondence"]]
    wit.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(inst), str(wit), "--chi", "1", "--rho", "0"]) == 1
    captured = capsys.readouterr()
    assert "wit.json" in captured.err and "must be a string" in captured.err
    assert not captured.out


@pytest.mark.parametrize("mangle, message", [
    (lambda pairs: [p for p in pairs if p[1] != "3"] + [["b", "2"]],
     "misses second-side point '3'"),
    (lambda pairs: [p for p in pairs if p[0] != "b"], "misses first-side point 'b'"),
    (lambda pairs: pairs + [["b", "9"]], "unknown second-side point '9'"),
])
def test_witness_relation_that_is_no_correspondence_is_input_error(
        tmp_path, capsys, mangle, message):
    """A relation that misses a point of a level, or names a point outside
    it, is refused when the witness is read, like a bad solution.json."""
    graph = tmp_path / "k3.col"
    graph.write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    inst, wit = tmp_path / "inst.json", tmp_path / "wit.json"
    coloring = write_json(tmp_path / "col.json", {"coloring": {"1": "r", "2": "g", "3": "b"}})
    assert main(["reduce", str(graph), "-o", str(inst)]) == 0
    assert main(["witness", str(graph), coloring, "-o", str(wit)]) == 0
    doc = read_json(wit)
    doc["correspondence"] = mangle(doc["correspondence"])
    wit.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(inst), str(wit), "--chi", "1", "--rho", "0"]) == 1
    captured = capsys.readouterr()
    assert "wit.json" in captured.err and message in captured.err
    assert not captured.out


# ---------------------------------------------------------------- simulate


def test_simulate_deterministic_and_traced(tmp_path, capsys):
    out1 = tmp_path / "s1.json"
    out2 = tmp_path / "s2.json"
    trace = tmp_path / "trace.jsonl"
    cfg = write_json(
        tmp_path / "cfg.json",
        {"actor_count": 10, "total_ticks": 40, "snapshot_interval": 20, "seed": 5},
    )
    assert main(["simulate", cfg, "-o", str(out1), "--trace", str(trace)]) == 0
    assert main(["simulate", cfg, "-o", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    lines = [json.loads(line) for line in trace.read_text().splitlines()]
    assert [entry["tick"] for entry in lines] == list(range(1, 41))
    assert all(entry["population"] >= 1 for entry in lines)
    doc = read_json(out1)
    assert doc["format_version"] == "2"
    assert doc["metadata"]["config"]["seed"] == 5
    assert len(doc["sampling"]["levels"]) == 3


def test_simulate_seed_flag_overrides_config(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "cfg.json",
        {"actor_count": 10, "total_ticks": 20, "snapshot_interval": 10, "seed": 5},
    )
    base = tmp_path / "a.json"
    other = tmp_path / "b.json"
    main(["simulate", cfg, "-o", str(base)])
    main(["simulate", cfg, "--seed", "6", "-o", str(other)])
    capsys.readouterr()
    assert base.read_bytes() != other.read_bytes()
    assert read_json(other)["metadata"]["config"]["seed"] == 6


def test_simulate_rejects_nan_config_before_running(tmp_path, capsys):
    cfg = tmp_path / "nan_cfg.json"
    cfg.write_text('{"actor_count": 10, "total_ticks": 20, "wall_force": NaN}')
    out = tmp_path / "s.json"
    assert main(["simulate", str(cfg), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert "nan_cfg.json" in err and "NaN" in err
    assert not out.exists()


@pytest.mark.parametrize("doc", [{"seed": -1}, {"actor_count": 2.5}])
def test_simulate_rejects_bad_config_numbers(tmp_path, capsys, doc):
    cfg = write_json(tmp_path / "bad_cfg.json", doc)
    out = tmp_path / "s.json"
    assert main(["simulate", cfg, "-o", str(out)]) == 1
    assert "bad_cfg.json" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("count", [10**30, 2**63])
def test_simulate_refuses_an_actor_count_numpy_cannot_hold(tmp_path, capsys, count):
    cfg = write_json(tmp_path / "huge.json", {"actor_count": count})
    out = tmp_path / "s.json"
    assert main(["simulate", cfg, "-o", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}: actor_count {count} ")
    assert not out.exists()


def test_simulate_rejects_negative_seed_flag(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert main(["simulate", "--seed", "-1", "-o", str(out)]) == 1
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_output_feeds_cluster(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "cfg.json",
        {"actor_count": 8, "total_ticks": 30, "snapshot_interval": 15, "seed": 2},
    )
    sim = tmp_path / "sim.json"
    main(["simulate", cfg, "-o", str(sim)])
    capsys.readouterr()
    outdir = tmp_path / "out"
    assert main(["cluster", str(sim), "--labels", "-o", str(outdir)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["metrics"]["k"] >= 1
    assert report["metrics"]["rho"] <= report["metrics"]["rho_bound"] + 1e-9


# ---------------------------------------------------------------- figure4


def test_figure4_report_and_artifacts(tmp_path, capsys):
    outdir = tmp_path / "figs"
    assert main(["figure4", "-n", "12", "--eps", "0.1", "-o", str(outdir)]) == 0
    report = json.loads(capsys.readouterr().out)
    metrics = report["metrics"]
    assert metrics["diameter"] == 9.0
    assert abs(metrics["linf_between_inputs"] - 0.1) < 1e-9
    fkw = metrics["comparison"]["fkw"]
    assert abs(fkw["mu_uv"] - 2.0) < 1e-9
    assert abs(fkw["mu_uv_perturbed"] - 5.05) < 1e-9
    assert abs(fkw["gap_uv"] - 3.05) < 1e-9
    sub = metrics["comparison"]["subdominant"]
    assert sub["gap_uv"] <= 0.1 + 1e-9
    assert sub["linf_between_fits"] <= 0.1 + 1e-9
    for name in ("figure4_m.json", "figure4_m_prime.json"):
        doc = read_json(outdir / name)
        space = MetricSpace.from_dict({k: v for k, v in doc.items() if k != "format_version"})
        assert len(space.points) == 12


def test_figure4_zero_eps_gap_free(tmp_path, capsys):
    assert main(["figure4", "-n", "8", "--eps", "0", "-o", str(tmp_path / "f")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["metrics"]["comparison"]["fkw"]["gap_uv"] == 0.0
    assert report["metrics"]["linf_between_inputs"] == 0.0


def test_figure4_rejects_small_n(tmp_path, capsys):
    assert main(["figure4", "-n", "3", "-o", str(tmp_path / "f")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("n", [10**30, 2**32])
def test_figure4_refuses_an_n_numpy_cannot_hold(tmp_path, capsys, n):
    outdir = tmp_path / "f"
    assert main(["figure4", "-n", str(n), "-o", str(outdir)]) == 1
    assert capsys.readouterr().err == f"input error: n {n} is beyond numpy's array size\n"
    assert not outdir.exists()


# ---------------------------------------------------------------- run report


def test_every_report_has_one_shape(tmp_path, capsys):
    src, out = line_file(tmp_path), str(tmp_path / "d.json")
    assert main(["fit", src, "-o", out]) == 0
    fit = json.loads(capsys.readouterr().out)
    assert set(fit) == {"command", "config", "metrics", "outputs", "elapsed_s"}
    assert fit["config"] == {"input": src, "method": "fkw", "output": out}
    assert main(["cluster", sampling_file(tmp_path), "--labels", "-o", str(tmp_path / "c")]) == 0
    cluster = json.loads(capsys.readouterr().out)
    assert set(cluster) == set(fit) | {"contiguity"}
    assert cluster["command"] == "cluster"
    for name in cluster["outputs"]:
        assert read_json(Path(name))["format_version"] == "2"


def test_reports_with_infinities_are_strict_json(tmp_path, capsys):
    """An infinite ``-r``, ``--delta`` or ``--chi`` is reported as the string
    "inf", which the CLI's own strict reader accepts."""
    dend = str(tmp_path / "d.json")
    assert main(["fit", line_file(tmp_path), "-o", dend]) == 0
    graph = tmp_path / "k3.col"
    graph.write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    inst, wit = str(tmp_path / "inst.json"), str(tmp_path / "wit.json")
    coloring = write_json(tmp_path / "col.json", {"coloring": {"1": "r", "2": "g", "3": "b"}})
    assert main(["reduce", str(graph), "-o", inst]) == 0
    assert main(["witness", str(graph), coloring, "-o", wit]) == 0
    capsys.readouterr()
    commands = {
        "cut": ["cut", dend, "-r", "inf", "-o", str(tmp_path / "c.json")],
        "cluster": ["cluster", sampling_file(tmp_path), "--labels", "--delta", "inf",
                    "-o", str(tmp_path / "out")],
        "verify": ["verify", inst, wit, "--chi", "inf", "--rho", "0"],
    }
    reports = {}
    for name, argv in commands.items():
        main(argv)
        reports[name] = _parse_json(capsys.readouterr().out, name)
    assert reports["cut"]["config"]["r"] == "inf"
    assert reports["cluster"]["config"]["delta"] == "inf"
    assert reports["cluster"]["contiguity"]["delta"] == "inf"
    assert reports["verify"]["config"]["chi"] == "inf"


def _bench_tracing():
    """``bench/tracing.py`` as the benchmark loads it, unchanged."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_hooks_are_still_bound():
    """Every name the benchmark traces or patches resolves: each SPANS entry,
    and the ``cut_at_height`` that its corruption checks replace in
    ``thclust`` and in ``thclust.cli``."""
    tracing = _bench_tracing()
    for _, module, path in tracing.SPANS:
        importlib.import_module(module)
        owner, attr = tracing._resolve(module, path)
        assert callable(getattr(owner, attr)), path
    cli = importlib.import_module("thclust.cli")
    ultrametric = importlib.import_module("thclust.ultrametric")
    assert cli.cut_at_height is ultrametric.cut_at_height
    assert importlib.import_module("thclust").cut_at_height is ultrametric.cut_at_height


def _bench_run(monkeypatch):
    """``bench/run.py`` as the benchmark loads it, unchanged, with ``bench/``
    on the path for its own imports."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # run.py pins these when loaded; undone after the test
    spec = importlib.util.spec_from_file_location("bench_run", bench / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", ["flock-label", "fit-large", "cli-session"])
def test_bench_toy_workloads_run_clean(tmp_path, monkeypatch, name, trace):
    """Each benchmark workload at its toy size, untraced and traced, passes
    every check the benchmark makes of its outputs."""
    bench_run = _bench_run(monkeypatch)
    spec = json.loads((bench_run.ROOT / "BENCHMARK.json").read_text())
    record = bench_run.measure(name, seed=3, seconds=0.0, trace=trace, size="toy",
                               workdir=tmp_path / name, reference=None)
    assert record["failed"] == 0, record["errors"]
    assert record["attempted"] >= 1
    assert bench_run.result_line(record, spec)["correct"]


def test_bench_traced_spans_are_all_reached(tmp_path, monkeypatch):
    """Every span the benchmark traces is called by at least one of its
    workloads at toy size, so no per-layer figure reads 0 on working code."""
    bench_run = _bench_run(monkeypatch)
    calls = {name: 0.0 for name, _, _ in _bench_tracing().SPANS}
    for workload in ("flock-label", "fit-large", "cli-session"):
        record = bench_run.measure(workload, seed=3, seconds=0.0, trace=True, size="toy",
                                   workdir=tmp_path / workload, reference=None)
        assert record["failed"] == 0, record["errors"]
        for name in calls:
            calls[name] += record["layers"][f"{name}.calls"]
    assert [name for name, count in calls.items() if count == 0] == []


def test_bench_flow_counters_read_the_flow_network():
    """The traced benchmark's flow counters, computed by its unchanged hooks
    from what ``build_flow_instance`` and ``min_feasible_flow`` return."""
    tracing = _bench_tracing()
    samp = run(SimConfig(actor_count=12, seed=0))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sol = solve_labeled(samp)
    finally:
        tracer.uninstall()
    network = sol.flow.network
    assert tracer.calls["labeling.min_feasible_flow"] == 1
    assert tracer.counts["labeling.flow_edges"] == len(network.edges) > 0
    assert tracer.counts["labeling.flow_nodes"] == network.size + 2
    assert tracer.counts["_flow_value"] / tracer.counts["_flow_points"] > 0
    assert tracer.metrics(1)["labeling.labels_per_point"] == sol.k / samp.size


def test_bench_tracer_spans_the_cli_commands(tmp_path, capsys):
    """The traced benchmark wraps each SPANS function by module attribute and
    counts bytes only inside the ``cmd_*`` spans."""
    tracing = _bench_tracing()
    src = line_file(tmp_path)
    dend = tmp_path / "d.json"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["fit", src, "-o", str(dend)]) == 0
        assert main(["cut", str(dend), "-r", "1", "-o", str(tmp_path / "c.json")]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.calls["cli.fit"] == 1
    assert tracer.calls["cli.cut"] == 1
    assert tracer.calls["ultrametric.fkw_fit"] == 1
    assert tracer.counts["cli.bytes_written"] > 0
    assert tracer.counts["cli.bytes_read"] > 0
