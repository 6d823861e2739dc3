"""The three benchmark workloads: input generation, one pass, and its checks.

Each workload is driven closed-loop by one client: the next call starts
only after the previous one returned, on one thread. A pass is made of ops
(one pipeline instance, or one CLI command); an op fails on an exception,
an unexpected exit code, a certifier rejection, or a mismatch against the
recorded reference. Library calls go through module attributes
(``thclust.solve_labeled``) so the traced run can wrap them.

Why these three (see README.md for the full table):

* ``flock-label`` is the reference instance of the roadmap: flow and the
  KxK merge distortion dominate, and no dendrogram, cut or JSON work runs.
* ``fit-large`` loads large matrix spaces and does only metric and
  ultrametric work (fits, dendrograms, round trips, cuts).
* ``cli-session`` runs the command line on small inputs, the only workload
  that writes artifacts, reads them back and runs the hardness commands.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import thclust
import thclust.cli

TOL = 1e-9
DEFAULT_SEED = 0

# Input sizes; "toy" runs every code path quickly for the harness smoke test.
# A run makes several distinct input sets from its seed ("flocks", "fit_sets",
# "cli_sets"): on this class of 2-core host one 200-actor flock pass varies by
# about 25% between seeds and over time, so flock-label takes the median of
# six 100-actor flocks instead of one 200-actor flock.
SIZES = {
    "full": {"actors": 100, "flocks": 6, "fit_n": (200, 400, 800), "fit_sets": 2,
             "cli_actors": 100, "cli_n": 300, "graph_n": 150, "cli_sets": 3},
    "toy": {"actors": 10, "flocks": 2, "fit_n": (20,), "fit_sets": 1,
            "cli_actors": 10, "cli_n": 20, "graph_n": 12, "cli_sets": 1},
}


class CheckFailed(AssertionError):
    """An output disagrees with its certificate, its reference or its twin."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def digest(obj) -> str:
    """Short hash of a JSON-able value, floats rounded to 1e-9 relative
    precision so that last-bit arithmetic changes do not count."""
    def canon(x):
        if isinstance(x, float):
            return float(f"{x:.9e}")
        if isinstance(x, dict):
            return {str(k): canon(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [canon(v) for v in x]
        return x
    text = json.dumps(canon(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Ops:
    """Counts ops and checks the values they produce against a reference.

    ``reference`` maps value keys to recorded values; floats must agree
    within 1e-9, everything else exactly. Without a reference (other seeds,
    toy sizes) only the certifiers and the internal checks judge an op.
    """

    reference: dict | None = None
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    values: dict = field(default_factory=dict)

    def run(self, name: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # any failure of an op is counted, the run goes on
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return None

    def record(self, key: str, value) -> None:
        self.values[key] = value
        if self.reference is None:
            return
        require(key in self.reference, f"no reference value for {key}")
        want = self.reference[key]
        if isinstance(want, float):
            require(abs(value - want) <= TOL, f"{key} = {value!r}, reference {want!r}")
        else:
            require(value == want, f"{key} = {value!r}, reference {want!r}")


# ------------------------------------------------------------ flock-label

def flock_setup(seed: int, index: int, sizes: dict, workdir: Path):
    """The index-th flock of a run; its SimConfig seed is seed * flocks + index,
    so runs with different seeds share no flock."""
    flock_seed = seed * sizes["flocks"] + index
    cfg = thclust.SimConfig(actor_count=sizes["actors"], seed=flock_seed)
    sampling, _ = thclust.run_detailed(cfg)
    return f"flock{flock_seed}", sampling


def flock_pass(ops: Ops, inputs, workdir: Path, state: dict) -> dict:
    tag, sampling = inputs

    def pipeline():
        sol = thclust.solve_labeled(sampling, scheme="fkw")
        cert = thclust.evaluate_general(sol.local)
        for i in range(len(sol.labelings) - 1):
            ok, violation = thclust.check_contiguity(
                sol.labelings[i], sol.labelings[i + 1], cert.delta, sampling.ambient
            )
            require(ok, f"labelings {i}, {i + 1} not contiguous: {violation}")
        require(1 <= sol.k <= sampling.size, f"k = {sol.k} outside [1, n]")
        quality = {"labels_k": sol.k, "chi": cert.chi, "delta": cert.delta, "rho": cert.rho}
        for key, value in quality.items():
            ops.record(f"{tag}.{key}", value)
        ops.record(f"{tag}.labelings", digest([lab.to_list() for lab in sol.labelings]))
        return quality

    quality = ops.run(f"pipeline[{tag}]", pipeline)
    return {"quality": quality or {}, "artifact_bytes": 0}


# ------------------------------------------------------------ fit-large

def uniform_space(rng: np.random.Generator, n: int):
    """n uniform points in the unit square, as ids plus a distance matrix."""
    xy = rng.uniform(0.0, 1.0, size=(n, 2))
    dist = np.sqrt(((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=-1))
    width = len(str(n - 1))
    return [f"x{i:0{width}d}" for i in range(n)], dist


def fit_setup(seed: int, index: int, sizes: dict, workdir: Path):
    rng = np.random.default_rng([seed, 1, index])
    return f"set{index}", [(n, *uniform_space(rng, n)) for n in sizes["fit_n"]]


def blocks_from_merges(dendrogram, r: float) -> list[list[str]]:
    """Cut computed from the merge list alone, independent of the library."""
    leaves = dendrogram.leaves
    parent = list(range(len(leaves)))
    index = {p: i for i, p in enumerate(leaves)}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    first_leaf: list[int] = []
    for h, a, b in dendrogram.merges:
        ia = index[a] if isinstance(a, str) else first_leaf[a]
        ib = index[b] if isinstance(b, str) else first_leaf[b]
        first_leaf.append(ia)
        if h <= r + TOL:
            parent[find(ib)] = find(ia)
    blocks: dict[int, list[str]] = {}
    for i, p in enumerate(leaves):
        blocks.setdefault(find(i), []).append(p)
    return sorted((sorted(b) for b in blocks.values()), key=lambda b: b[0])


def quantile_heights(dendrogram) -> list[float]:
    heights = sorted({h for h, _, _ in dendrogram.merges})
    return [heights[int(q * (len(heights) - 1))] for q in (0.2, 0.4, 0.6, 0.8)]


def fit_pass(ops: Ops, inputs, workdir: Path, state: dict) -> dict:
    tag, spaces = inputs
    chis = []

    def fit_space(n, points, dist):
        space = thclust.MetricSpace(points, dist=dist)
        fkw = thclust.fkw_fit(space)
        sub = thclust.subdominant_ultrametric(space)
        require(bool((sub.mu <= space.dist + TOL).all()), "subdominant exceeds the input")
        sub_error = thclust.linf_distance(space, sub)
        require(abs(sub_error - 2 * fkw.shift) <= TOL, "fkw shift is not half the subdominant error")
        for scheme, fitted in (("fkw", fkw.ultrametric), ("subdominant", sub)):
            dendrogram = thclust.to_dendrogram(fitted)
            back = dendrogram.to_ultrametric()
            require(float(np.abs(back.mu - fitted.mu).max()) <= TOL,
                    f"{scheme} dendrogram does not round-trip")
            if scheme == "fkw":
                chi = thclust.linf_distance(space, back)
                require(chi <= fkw.shift + TOL, f"fkw error {chi} above its bound {fkw.shift}")
                if not fkw.clamped_pairs:
                    require(abs(chi - fkw.shift) <= TOL, "fkw error is not half the subdominant's")
                ops.record(f"{tag}.n{n}.chi", chi)
                chis.append(chi)
            ops.record(f"{tag}.n{n}.{scheme}.merges", digest(dendrogram.to_dict()))
            cuts = []
            for r in quantile_heights(dendrogram):
                blocks = thclust.cut_at_height(fitted, r)
                require(blocks == blocks_from_merges(dendrogram, r),
                        f"{scheme} cut at {r} disagrees with the merge list")
                cuts.append(blocks)
            ops.record(f"{tag}.n{n}.{scheme}.cuts", digest(cuts))

    for n, points, dist in spaces:
        ops.run(f"fit[{tag} n={n}]", fit_space, n, points, dist)
    return {"quality": {"chi": max(chis)} if chis else {}, "artifact_bytes": 0}


# ------------------------------------------------------------ cli-session

def planted_graph(rng: np.random.Generator, n: int, p: float = 0.05):
    """Random graph with a planted proper 3-coloring that uses all colors."""
    width = len(str(n - 1))
    vertices = [f"v{i:0{width}d}" for i in range(n)]
    colors = [thclust.COLORS[i % 3] for i in rng.permutation(n)]
    edges = [
        [vertices[i], vertices[j]]
        for i in range(n) for j in range(i + 1, n)
        if colors[i] != colors[j] and rng.random() < p
    ]
    return {"vertices": vertices, "edges": edges}, dict(zip(vertices, colors))


def cli_setup(seed: int, index: int, sizes: dict, workdir: Path):
    rng = np.random.default_rng([seed, 2, index])
    inputs = workdir / f"inputs{index}"
    inputs.mkdir(parents=True, exist_ok=True)
    write = lambda name, doc: (inputs / name).write_text(json.dumps(doc))
    write("flock.json", {"actor_count": sizes["cli_actors"],
                         "seed": seed * sizes["cli_sets"] + index})
    points, dist = uniform_space(rng, sizes["cli_n"])
    write("space.json", {"space": {"points": points, "matrix": dist.tolist()}})
    graph, coloring = planted_graph(rng, sizes["graph_n"])
    write("graph.json", {"graph": graph})
    write("coloring.json", {"coloring": coloring})
    return inputs


def cli_pass(ops: Ops, inputs: Path, workdir: Path, state: dict) -> dict:
    """Run the command sequence in a fresh directory; artifacts must match
    byte for byte those of the run's first pass on the same inputs."""
    out = workdir / "pass"
    shutil.rmtree(out, ignore_errors=True)
    first = state.setdefault(inputs.name, {})
    tag = inputs.name
    written: dict[str, int] = {}
    quality: dict = {}

    def command(argv: list[str], expect: int = 0) -> dict:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = thclust.cli.main(argv)
        require(code == expect, f"exit {code}, expected {expect}: {stderr.getvalue().strip()}")
        report = json.loads(stdout.getvalue())
        for path in report["outputs"]:
            data = Path(path).read_bytes()
            rel = str(Path(path).relative_to(out))
            written[rel] = len(data)
            sha = hashlib.sha256(data).hexdigest()
            require(first.setdefault(rel, sha) == sha, f"{rel} differs from the first pass")
        return report

    def simulate():
        report = command(["simulate", str(inputs / "flock.json"),
                                      "-o", str(out / "sim.json")])
        ops.record(f"{tag}.simulate.points", report["metrics"]["points"])

    def cluster():
        report = command(["cluster", str(out / "sim.json"), "--labels",
                                     "--emit", "svg", "-o", str(out / "cluster")])
        labels = json.loads((out / "cluster" / "labels.json").read_text())
        m = report["metrics"]
        quality.update(labels_k=m["k"], chi=m["chi"], delta=m["delta"], rho=m["rho"])
        require(labels["k"] == m["k"], "labels.json disagrees with the reported k")
        for key, value in quality.items():
            ops.record(f"{tag}.cluster.{key}", value)
        ops.record(f"{tag}.cluster.labelings", digest(labels["labelings"]))

    def fit():
        command(["fit", str(inputs / "space.json"), "-o", str(out / "space.dend.json")])
        doc = json.loads((out / "space.dend.json").read_text())
        ops.record(f"{tag}.fit.fit_error", doc["fit_error"])
        ops.record(f"{tag}.fit.merges", digest(doc["dendrogram"]))
        heights = sorted({m[0] for m in doc["dendrogram"]["merges"]})
        state["cut_r"] = heights[len(heights) // 2]

    def cut():
        command(["cut", str(out / "space.dend.json"), "-r", repr(state["cut_r"]),
                        "-o", str(out / "blocks.json")])
        blocks = json.loads((out / "blocks.json").read_text())["blocks"]
        dendrogram = thclust.Dendrogram.from_dict(
            json.loads((out / "space.dend.json").read_text())["dendrogram"])
        require(blocks == blocks_from_merges(dendrogram, state["cut_r"]),
                "cut blocks disagree with the merge list")
        ops.record(f"{tag}.cut.blocks", digest(blocks))

    def reduce():
        command(["reduce", str(inputs / "graph.json"), "-o", str(out / "instance.json")])

    def witness():
        command(["witness", str(inputs / "graph.json"), str(inputs / "coloring.json"),
                            "-o", str(out / "witness.json")])

    def verify():
        report = command(["verify", str(out / "instance.json"),
                                    str(out / "witness.json"), "--chi", "1", "--rho", "0"])
        planted = json.loads((inputs / "coloring.json").read_text())["coloring"]
        require(report["metrics"]["accepted"] is True, "witness rejected")
        require(report["metrics"].get("coloring") == planted,
                "extracted coloring differs from the planted one")

    def verify_tampered():
        doc = json.loads((out / "witness.json").read_text())
        anchor, vertex = doc["correspondence"][0]
        other = next(c for c in thclust.COLORS if c != anchor)
        doc["correspondence"][0] = [other, vertex]
        (out / "tampered.json").write_text(json.dumps(doc))
        report = command(["verify", str(out / "instance.json"),
                                    str(out / "tampered.json"), "--chi", "1", "--rho", "0"],
                         expect=2)
        require(report["metrics"]["accepted"] is False, "tampered witness accepted")

    try:
        for name, fn in (("simulate", simulate), ("cluster", cluster), ("fit", fit),
                         ("cut", cut), ("reduce", reduce), ("witness", witness),
                         ("verify", verify), ("verify-tampered", verify_tampered)):
            ops.run(name, fn)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return {"quality": quality, "artifact_bytes": sum(written.values())}


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # (seed, index, sizes, workdir) -> inputs
    run_pass: Callable  # (ops, inputs, workdir, state) -> {"quality", "artifact_bytes"}
    input_sets: str  # key of SIZES: distinct input sets per run
    setups: int  # set-ups per run, cycling over the input sets; setup_s is their median
    passes_per_input: int  # minimum passes over each input set
    # Scale times by calibrate.Calibrator's host speed. Only flock-label is:
    # on fit-large and cli-session the kernel readings' own noise exceeded
    # the host noise they would remove, so wall time is reported as is.
    calibrated: bool


WORKLOADS = {
    "flock-label": Workload("flock-label", flock_setup, flock_pass, "flocks", 6, 1, True),
    "fit-large": Workload("fit-large", fit_setup, fit_pass, "fit_sets", 5, 1, False),
    "cli-session": Workload("cli-session", cli_setup, cli_pass, "cli_sets", 6, 2, False),
}
