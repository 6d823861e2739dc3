"""Mutated JSON inputs of a small CLI session never escape ``main``.

The session: a 12-actor flock's sampling for ``cluster``, a 30-point space
for ``fit``, its dendrogram for ``cut``, and a graph with a planted
3-coloring for ``reduce``, ``witness`` and ``verify``. Each example applies
one or two mutations to one input document: delete a key, drop or duplicate
a list item, or replace a value with null, a string, +-1e308, 10**30, a
boolean or an empty container. Whatever the document, ``main`` returns 0, 1
or 2, and an input error (exit 1) is printed as ``input error:`` or
``error:``. ``simulate`` configs are left out: an accepted large count
would run for a very long time, so its refusals are tested on their own.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import cloud_space, run
from thclust import SimConfig
from thclust.cli import main

REPLACEMENTS = (None, "x", 1e308, -1e308, 10**30, True, False, [], {})

# (command line with {name} for each input path and {out} for an output
# path, the input whose document is mutated)
TARGETS = {
    "cluster": (["cluster", "{sampling}", "--labels", "-o", "{out}"], "sampling"),
    "fit": (["fit", "{space}", "-o", "{out}"], "space"),
    "cut": (["cut", "{dendrogram}", "-r", "2", "-o", "{out}"], "dendrogram"),
    "reduce": (["reduce", "{graph}", "-o", "{out}"], "graph"),
    "witness-graph": (["witness", "{graph}", "{coloring}", "-o", "{out}"], "graph"),
    "witness-coloring": (["witness", "{graph}", "{coloring}", "-o", "{out}"], "coloring"),
    "verify-instance": (["verify", "{instance}", "{witness}", "--chi", "1", "--rho", "0"],
                        "instance"),
    "verify-witness": (["verify", "{instance}", "{witness}", "--chi", "1", "--rho", "0"],
                       "witness"),
}


def _main(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def session(tmp_path_factory) -> dict[str, Path]:
    """The session's input files, each checked to run clean."""
    root = tmp_path_factory.mktemp("session")
    rng = np.random.default_rng(5)
    vertices = [f"v{i}" for i in range(9)]
    color = {v: "rgb"[i % 3] for i, v in enumerate(vertices)}
    edges = [[u, v] for i, u in enumerate(vertices) for v in vertices[i + 1:]
             if color[u] != color[v] and rng.random() < 0.5]
    docs = {
        "sampling": {"sampling": run(SimConfig(actor_count=12, seed=0)).to_dict()},
        "space": {"space": cloud_space(rng, 30).to_dict()},
        "graph": {"graph": {"vertices": vertices, "edges": edges}},
        "coloring": {"coloring": color},
    }
    paths = {name: root / f"{name}.json" for name in
             ("sampling", "space", "dendrogram", "graph", "coloring", "instance", "witness")}
    for name, doc in docs.items():
        paths[name].write_text(json.dumps(doc))
    for argv in (["fit", str(paths["space"]), "-o", str(paths["dendrogram"])],
                 ["reduce", str(paths["graph"]), "-o", str(paths["instance"])],
                 ["witness", str(paths["graph"]), str(paths["coloring"]),
                  "-o", str(paths["witness"])]):
        assert _main(argv) == (0, ""), argv
    for template, _ in TARGETS.values():
        with tempfile.TemporaryDirectory() as tmp:
            argv = [arg.format(out=Path(tmp) / "out", **paths) for arg in template]
            assert _main(argv) == (0, ""), argv
    return paths


def _nodes(doc, path=()):
    """The path of every node of a JSON document, the root's included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield from _nodes(child, (*path, key))


@st.composite
def mutations(draw, doc):
    """``doc`` after one or two mutations."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_nodes(doc))))
        ops = ["replace"]
        if path:
            ops += ["delete"] if isinstance(path[-1], str) else ["drop", "duplicate"]
        op = draw(st.sampled_from(ops))
        value = draw(st.sampled_from(REPLACEMENTS))
        if not path:
            doc = copy.deepcopy(value)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if op == "replace":
            parent[key] = copy.deepcopy(value)
        elif op == "duplicate":
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            del parent[key]
    return doc


@pytest.mark.parametrize("target", sorted(TARGETS))
@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_mutated_input_exits_cleanly(session, target, data):
    template, mutated = TARGETS[target]
    doc = data.draw(mutations(json.loads(session[mutated].read_text())), label="document")
    with tempfile.TemporaryDirectory() as tmp:
        paths = {**session, mutated: Path(tmp) / f"{mutated}.json"}
        paths[mutated].write_text(json.dumps(doc))
        code, err = _main([arg.format(out=Path(tmp) / "out", **paths) for arg in template])
    assert code in (0, 1, 2), err
    if code == 1:
        assert err.startswith(("input error:", "error:")), err
