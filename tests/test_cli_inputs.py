"""Mutated inputs of a small CLI session never escape ``main``, and
mutated arguments never escape the library's entry points.

The session: a 12-actor flock's sampling for ``cluster``, a 30-point space
for ``fit``, its dendrogram for ``cut``, and a graph with a planted
3-coloring for ``reduce``, ``witness`` and ``verify``. Each example applies
one or two mutations to one input document: delete a key, drop or duplicate
a list item, or replace a value with null, a string, +-1e308, 10**30, a
boolean or an empty container. Whatever the document, ``main`` returns 0, 1
or 2, and an input error (exit 1) is printed as ``input error:`` or
``error:``. ``simulate`` configs are left out: an accepted large count
would run for a very long time, so its refusals are tested on their own.

The library half mutates the same way the JSON arguments of
``MetricSpace.from_dict``, ``Dendrogram.from_dict``, ``LocalSolution``
and its ``from_dict``, ``Labeling`` and its ``from_list``,
``Correspondence`` and its ``from_pairs``, ``shortest_path_closure``,
``FlowNetwork``, ``IntegralFlow``, and the radii of ``cut_at_height``,
``check_contiguity`` and ``instability_family``, and edits the array
state that ``step`` takes. Each call raises ``ValidationError`` or
returns outputs that their consumers take: finite numbers, a flow network
that ``min_feasible_flow`` and ``decompose_paths`` run on, and solutions
and labelings that ``certify`` passes or refuses with
``CertificationError``.
"""

import contextlib
import copy
import functools
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import cloud_space, dense_space, perturb, run
from thclust import (
    CertificationError,
    Correspondence,
    Dendrogram,
    FlowNetwork,
    IntegralFlow,
    Labeling,
    LocalSolution,
    MetricSpace,
    SimConfig,
    ValidationError,
    certify,
    check_contiguity,
    cut_at_height,
    decompose_paths,
    initial_state,
    instability_family,
    min_feasible_flow,
    shortest_path_closure,
    solve_labeled,
    step,
    to_dendrogram,
)
from thclust.cli import main
from thclust.flocking import TYPE_COUNT

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
def mutations(draw, doc, fixed=0):
    """``doc`` after one or two mutations. The nodes above depth ``fixed``
    are kept, and those at it are only replaced."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from([path for path in _nodes(doc) if len(path) >= fixed]))
        ops = ["replace"]
        if len(path) > fixed:
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


# ---------------------------------------------------------------- library entry points


def _finite(*arrays) -> bool:
    return all(np.isfinite(np.asarray(a, dtype=float)).all() for a in arrays)


def _certifies_or_refuses(local, labelings=()) -> bool:
    """``certify`` passes or raises ``CertificationError``, and nothing else."""
    try:
        certify(local, labelings)
    except CertificationError:
        pass
    return True


LIBRARY_TARGETS = ("closure", "contiguity", "correspondence", "correspondence-pairs", "cut",
                   "dendrogram", "figure4", "flow-network", "integral-flow", "labeling",
                   "labeling-holders", "local-solution", "metric-space-coords",
                   "metric-space-matrix", "solution")


@pytest.fixture(scope="module")
def library_calls():
    """Each entry point's call, its keyword arguments as JSON values (the
    document that is mutated), and the check of what it returns."""
    rng = np.random.default_rng(9)
    sampling = run(SimConfig(actor_count=6, total_ticks=100, seed=0))
    labeled = solve_labeled(sampling)
    local, flow = labeled.local, labeled.flow
    levels = sampling.levels
    corr = local.correspondences[0]
    closure = perturb(dense_space(rng, 5), 0.3, seed=1).dist
    return {
        "metric-space-coords": (MetricSpace.from_dict, {"data": cloud_space(rng, 8).to_dict()},
                                lambda space: _finite(space.dist)),
        "metric-space-matrix": (MetricSpace.from_dict, {"data": dense_space(rng, 6).to_dict()},
                                lambda space: _finite(space.dist)),
        "dendrogram": (Dendrogram.from_dict,
                       {"data": to_dendrogram(local.ultrametrics[1]).to_dict()},
                       lambda tree: _finite(tree.to_ultrametric().mu)),
        "solution": (LocalSolution.from_dict, {"data": local.to_dict()},
                     lambda sol: _finite(sol.chi, sol.delta, sol.rho, sol.sampling.ambient.dist,
                                         *(u.mu for u in sol.ultrametrics))),
        "labeling": (Labeling.from_list, {"entries": labeled.labelings[1].to_list(),
                                          "k": labeled.k},
                     lambda labeling: all(isinstance(p, str) for p in labeling.holders)),
        "correspondence-pairs": (Correspondence.from_pairs,
                                 {"pairs": corr.to_list(), "first": list(levels[0]),
                                  "second": list(levels[1])},
                                 lambda c: c.left.dtype.kind == c.right.dtype.kind == "i"),
        "correspondence": (Correspondence, {"first": list(levels[0]), "second": list(levels[1]),
                                            "left": corr.left.tolist(),
                                            "right": corr.right.tolist()},
                           lambda c: c.left.dtype.kind == c.right.dtype.kind == "i"),
        "closure": (shortest_path_closure, {"weights": closure.tolist()},
                    lambda w: not np.isnan(w).any() and (w >= 0).all()),
        "cut": (functools.partial(cut_at_height, local.ultrametrics[1]), {"r": 1.0},
                lambda blocks: sorted(p for b in blocks for p in b) == sorted(levels[1])),
        "contiguity": (functools.partial(check_contiguity, labeled.labelings[0],
                                         labeled.labelings[1], ambient=sampling.ambient),
                       {"delta": local.delta},
                       lambda result: result[0] == (result[1] is None)),
        "figure4": (instability_family, {"n": 6, "eps": 0.1},
                    lambda pair: _finite(*(space.dist for space in pair))),
        "integral-flow": (functools.partial(IntegralFlow, flow.network),
                          {"flow": list(flow.flow), "value": flow.value},
                          lambda f: f.value >= 0),
        "flow-network": (FlowNetwork, {"levels": [list(level) for level in levels],
                                       "ids": list(flow.network.ids),
                                       "edges": flow.network.edges.tolist()},
                         lambda net: len(decompose_paths(min_feasible_flow(net))) <= net.size),
        "local-solution": (functools.partial(LocalSolution, sampling,
                                             ultrametrics=local.ultrametrics,
                                             correspondences=local.correspondences),
                           {"scheme": local.scheme, "chi": local.chi, "delta": local.delta,
                            "rho": local.rho},
                           lambda sol: _finite(sol.chi, sol.delta, sol.rho)
                           and _certifies_or_refuses(sol)),
        "labeling-holders": (Labeling, {"holders": list(labeled.labelings[1].holders)},
                             lambda labeling: _certifies_or_refuses(
                                 local, (labeled.labelings[0], labeling,
                                         *labeled.labelings[2:]))),
    }


@pytest.mark.parametrize("target", LIBRARY_TARGETS)
@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_mutated_library_input_is_refused_or_finite(library_calls, target, data):
    """The JSON values of an entry point's arguments, mutated as the CLI
    documents are: the call raises ValidationError or returns finite
    outputs, and nothing else (tier-1 turns warnings into errors)."""
    call, kwargs, check = library_calls[target]
    kwargs = data.draw(mutations(kwargs, fixed=1), label="arguments")
    try:
        result = call(**kwargs)
    except ValidationError:
        return
    assert check(result)


_STEP_CONFIG = SimConfig(actor_count=8, arena_side=10.0, interact_prob=1.0, interact_radius=3.0,
                         clump_radius=10.0, avoid_radius=3.0)
_STEP_STATE = initial_state(_STEP_CONFIG, np.random.default_rng(4))

# Entry values per state field: small ones and refused ones.
_STEP_VALUES = {
    "idents": (5, None, "a00003", "zz", ""),
    "serials": (-1, 10**6, 0.5, np.nan, np.iinfo(np.int64).max),
    "kinds": (-1, 3, 4, 7, 0.5, np.nan),
    "pos": (np.nan, np.inf, -np.inf, 1e308, -1e308, -0.5, 0.0, 10.0, 10.5),
    "vel": (np.nan, np.inf, -np.inf, 0.0, -50.0, 50.0, 1e154, 1e200, 1e308),
}
_STEP_CONTAINERS = (list, tuple, np.array)
_STEP_DTYPES = (float, np.float32, np.int32, np.uint64, bool, object, str)


def test_step_refuses_a_newcomer_whose_ident_is_held():
    """A last serial of -1 used to make the next newcomer a second
    ``a00007``, a state the next tick refuses."""
    idents, serials, kinds, pos, vel = _STEP_STATE
    serials = serials.copy()
    serials[-1] = -1
    with pytest.raises(ValidationError,
                       match="newcomer ident 'a00007' after state serial 6 is already held"):
        step((idents, serials, kinds, pos, vel), _STEP_CONFIG, np.random.default_rng(4))


@st.composite
def step_states(draw):
    """``_STEP_STATE`` after one or two edits, each to one field: an entry
    set to one of the field's values, another container or dtype, a row
    dropped, the array transposed, or the field replaced by None."""
    state = dict(zip(_STEP_VALUES, _STEP_STATE))
    for _ in range(draw(st.integers(1, 2))):
        name = draw(st.sampled_from(list(state)))
        value = state[name]
        # an entry edit, the one that reaches the value checks, is drawn most
        op = draw(st.sampled_from(("entry",) * 4 + ("container", "dtype", "drop", "transpose",
                                                      "none")))
        if op == "none":
            state[name] = None
        elif not isinstance(value, (list, tuple, np.ndarray)) or not len(value):
            continue
        elif op == "entry":
            new = draw(st.sampled_from(_STEP_VALUES[name]))
            at = draw(st.integers(0, np.size(value) - 1))
            if isinstance(value, np.ndarray):
                value = value.astype(np.result_type(value, np.asarray(new)))
                value.flat[at] = new
                state[name] = value
            elif at < len(value):
                state[name] = [*value[:at], new, *value[at + 1:]]
        elif op == "container":
            state[name] = draw(st.sampled_from(_STEP_CONTAINERS))(value)
        elif op == "dtype":
            try:
                with np.errstate(all="ignore"):  # NaN to an int, -1 to a uint
                    state[name] = np.asarray(value).astype(draw(st.sampled_from(_STEP_DTYPES)))
            except (TypeError, ValueError):  # ids to numbers, a ragged list
                continue
        elif op == "drop":
            state[name] = value[:-1]
        else:
            state[name] = np.asarray(value).T
    return tuple(state.values())


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(state=step_states())
def test_mutated_step_state_is_refused_or_finite(state):
    """``step`` on a malformed state raises ValidationError; on any other
    it returns a state it would take again, with finite arrays."""
    try:
        idents, serials, kinds, pos, vel = step(state, _STEP_CONFIG, np.random.default_rng(0))
    except ValidationError:
        return
    assert all(isinstance(ident, str) for ident in idents) and idents == sorted(set(idents))
    assert serials.dtype.kind == kinds.dtype.kind == "i" and len(serials) == len(idents)
    assert ((0 <= kinds) & (kinds < TYPE_COUNT)).all()
    assert _finite(pos, vel) and pos.shape == vel.shape == (len(idents), 2)
