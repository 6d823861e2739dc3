"""Command-line surface for the fitting, clustering, and labeling pipeline.

Artifacts are JSON files tagged with format_version "2"; inputs may also
carry "1", whose ``solution.json`` stored height matrices, not dendrograms.
Each ``cmd_*`` returns its metrics and outputs, and :func:`main` prints them
as one JSON run report with the command, its config and the timing, so files
stay byte-identical across reruns with the same inputs. Exit codes: 0
success, 1 input error, 2 certification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from .flocking import SimConfig, run_detailed
from .hardness import (
    Graph,
    ThcInstance,
    Witness,
    coloring_from_witness,
    pad_to_three_colors,
    reduce_from_graph,
    verify_witness,
    witness_from_coloring,
)
from .labeling import Labeling, check_contiguity, solve_labeled
from .metric import MetricSpace, TemporalSampling, ValidationError, linf_distance
from .metric import _json_list, _json_object, _json_str
from .temporal import (
    SCHEMES,
    CertificationError,
    LocalSolution,
    _fit,
    evaluate_general,
    solve_local,
)
from .ultrametric import (
    Dendrogram,
    _layout,
    cut_at_height,
    fkw_fit,
    instability_family,
    to_dendrogram,
)

FORMAT_VERSION = "2"

PALETTE = (
    "#4c72b0", "#dd8452", "#55a868", "#c44e52", "#8172b3",
    "#937860", "#da8bc3", "#8c8c8c", "#ccb974", "#64b5cd",
)


class CliError(Exception):
    """User-facing input problem; maps to exit code 1."""


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}") from exc


def _parse_json(text: str, path: str):
    """Strict JSON: the non-standard NaN, Infinity and -Infinity tokens that
    ``json`` accepts by default are input errors."""
    def reject(token: str):
        raise CliError(f"{path}: non-finite number {token} is not allowed")

    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _inf_as_text(value):
    """``value``, or the string "inf" or "-inf" in place of an infinite
    float: strict JSON has no infinity."""
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _write_json(path: Path, payload: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"format_version": FORMAT_VERSION, **payload}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return str(path)


def _load(path: str, key: str | None, parse, text: str | None = None):
    """Parse one JSON artifact of format 1 or 2: the body under ``key`` when
    present, else the document without its format_version. Other versions,
    and any :class:`ValidationError`, become input errors naming the file."""
    doc = _parse_json(_read_text(path) if text is None else text, path)
    try:
        version = _json_object(doc, "top level").pop("format_version", None)
        if version not in (None, "1", FORMAT_VERSION):
            raise CliError(f"{path}: unsupported format_version {version!r}")
        return parse(doc.get(key, doc))
    except ValidationError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _output(args: argparse.Namespace, source: str, suffix: str) -> Path:
    """The ``-o`` path, else the source file's stem plus ``suffix``."""
    return Path(args.output or Path(source).stem + suffix)


def _resolved_config(args: argparse.Namespace) -> dict:
    return {key: _inf_as_text(value) for key, value in vars(args).items()
            if key not in ("func", "command")}


def _load_graph(path: str) -> Graph:
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return _load(path, "graph", Graph.from_dict, text)
    try:
        return Graph.from_dimacs(text)
    except ValidationError as exc:
        raise CliError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------- fit

def cmd_fit(args: argparse.Namespace) -> dict:
    space = _load(args.input, "space", MetricSpace.from_dict)
    if args.method == "fkw":
        fit = fkw_fit(space)
        fitted = fit.ultrametric
        extras = {"shift": fit.shift, "clamped_pairs": fit.clamped_pairs}
    else:
        fitted, extras = _fit(args.method, space), {}
    written = _write_json(_output(args, args.input, ".dendrogram.json"), {
        "method": args.method,
        "fit_error": linf_distance(space, fitted),
        "dendrogram": to_dendrogram(fitted).to_dict(),
    })
    # Recompute the reported error from the artifact, not from live state.
    reread = _load(written, "dendrogram", Dendrogram.from_dict).to_ultrametric()
    return {
        "metrics": {"fit_error": linf_distance(space, reread), **extras},
        "outputs": [written],
    }


# ---------------------------------------------------------------- cluster

def _dendrogram_layout(dendrogram: Dendrogram):
    """Leaf order and node coordinates for drawing: (leaf order, segments).

    Leaves sit in the slots of :func:`~thclust.ultrametric._layout`, each
    merge midway between its children. Segments are (x1, h1, x2, h2) in
    leaf-slot and height units.
    """
    leaves, merges = dendrogram.leaves, dendrogram.merges
    kids, start, _ = _layout(leaves, merges)
    order = [""] * len(leaves)
    for leaf, slot in zip(leaves, start):
        order[slot] = leaf
    xs = [float(slot) for slot in start[:len(leaves)]]
    hs = [0.0] * len(leaves)
    segments = []
    for (h, _, _), (a, b) in zip(merges, kids):
        segments.append((xs[a], hs[a], xs[a], h))
        segments.append((xs[b], hs[b], xs[b], h))
        segments.append((xs[a], h, xs[b], h))
        xs.append((xs[a] + xs[b]) / 2.0)
        hs.append(h)
    return order, segments


def _render_svg(panels) -> str:
    """Stack per-level dendrogram panels into one standalone SVG document."""
    slot = 16
    panel_h = 170
    pad = 46
    width = max(len(p["order"]) for p in panels) * slot + 2 * pad
    height = len(panels) * panel_h + pad
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for i, panel in enumerate(panels):
        top = pad // 2 + i * panel_h
        base = top + panel_h - 40
        maxh = max((s[3] for s in panel["segments"]), default=0.0) or 1.0

        def y(h):
            return base - (h / maxh) * (panel_h - 70)

        parts.append(
            f'<text x="{pad}" y="{top + 12}" fill="#333">{panel["title"]}</text>'
        )
        for x1, h1, x2, h2 in panel["segments"]:
            parts.append(
                f'<line x1="{pad + x1 * slot:.1f}" y1="{y(h1):.1f}" '
                f'x2="{pad + x2 * slot:.1f}" y2="{y(h2):.1f}" '
                'stroke="#333" stroke-width="1"/>'
            )
        for slot_i, leaf in enumerate(panel["order"]):
            color = panel["colors"].get(leaf, "#333")
            parts.append(
                f'<circle cx="{pad + slot_i * slot}" cy="{base + 8}" r="4" '
                f'fill="{color}"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_cluster(args: argparse.Namespace) -> dict:
    if args.delta is not None and args.delta < 0:
        raise CliError(f"--delta {args.delta:g} is not a radius")
    sampling = _load(args.input, "sampling", TemporalSampling.from_dict)
    outdir = Path(args.outdir)
    labelings: tuple[Labeling, ...] = ()
    k = None
    if args.labels:
        labeled = solve_labeled(sampling, scheme=args.method)
        solution, labelings, k = labeled.local, labeled.labelings, labeled.k
    else:
        solution = solve_local(sampling, scheme=args.method)
    document = solution.to_dict()
    outputs = [_write_json(outdir / "solution.json", document)]
    if args.labels:
        outputs.append(_write_json(outdir / "labels.json", {
            "k": k,
            "labelings": [lab.to_list() for lab in labelings],
        }))

    levels = []
    panels = []
    for i, (fitted, entry) in enumerate(zip(solution.ultrametrics, document["ultrametrics"])):
        dendrogram = Dendrogram.from_dict(entry)
        heights = sorted({h for h, _, _ in dendrogram.merges})
        levels.append({
            "dendrogram": entry,
            "cuts": [{"r": h, "blocks": cut_at_height(fitted, h)} for h in heights],
        })
        order, segments = _dendrogram_layout(dendrogram)
        colors = {}  # a point's colour follows its smallest label
        for j, point in enumerate(labelings[i].holders if labelings else ()):
            colors.setdefault(point, PALETTE[j % len(PALETTE)])
        panels.append({
            "title": f"level {i} ({len(order)} points)",
            "order": order,
            "segments": segments,
            "colors": colors,
        })
    outputs.append(_write_json(outdir / "plots.json", {"levels": levels}))
    if args.emit == "svg":
        svg_path = outdir / "plots.svg"
        svg_path.write_text(_render_svg(panels))
        outputs.append(str(svg_path))

    # Certify from the written artifacts rather than in-memory objects.
    certification = evaluate_general(
        _load(str(outdir / "solution.json"), None, LocalSolution.from_dict)
    )
    metrics = {
        "chi": certification.chi,
        "delta": certification.delta,
        "rho": certification.rho,
        "rho_bound": certification.bound,
    }
    report = {"metrics": metrics, "outputs": outputs}
    if labelings:
        metrics["k"] = k
        loaded = _load(str(outdir / "labels.json"), None, _labelings_from_dict)
        radius = args.delta if args.delta is not None else certification.delta
        for i in range(len(loaded) - 1):
            ok, violation = check_contiguity(
                loaded[i], loaded[i + 1], radius, sampling.ambient
            )
            if not ok:
                raise CertificationError(
                    f"labelings {i} and {i + 1} break contiguity at delta "
                    f"{radius:g}: label {violation.label} near point "
                    f"{violation.point!r} (condition {violation.condition})"
                )
        report["contiguity"] = {"delta": _inf_as_text(radius),
                                "adjacent_pairs_checked": len(loaded) - 1}
    return report


def _labelings_from_dict(doc) -> list[Labeling]:
    """The labelings of a ``labels.json`` body."""
    _json_object(doc, "labels document", ("k", "labelings"))
    return [Labeling.from_list(entries, doc["k"])
            for entries in _json_list(doc["labelings"], "labelings")]


# ---------------------------------------------------------------- cut

def cmd_cut(args: argparse.Namespace) -> dict:
    blocks = _load(args.input, "dendrogram", lambda body: cut_at_height(
        Dendrogram.from_dict(body).to_ultrametric(), args.r
    ))
    written = _write_json(_output(args, args.input, ".cut.json"), {
        "r": _inf_as_text(args.r),
        "blocks": blocks,
    })
    return {"metrics": {"blocks": len(blocks)}, "outputs": [written]}


# ---------------------------------------------------------------- hardness

def cmd_reduce(args: argparse.Namespace) -> dict:
    graph = _load_graph(args.input)
    instance = reduce_from_graph(graph)
    written = _write_json(_output(args, args.input, ".instance.json"), instance.to_dict())
    return {
        "metrics": {"vertices": len(graph.vertices), "edges": len(graph.edges)},
        "outputs": [written],
    }


def cmd_witness(args: argparse.Namespace) -> dict:
    graph = _load_graph(args.graph)

    def witness(coloring) -> Witness:
        coloring = {vertex: _json_str(color, f"color of {vertex!r}")
                    for vertex, color in _json_object(coloring, "coloring").items()}
        if args.pad:
            coloring = pad_to_three_colors(graph, coloring)
        return witness_from_coloring(graph, coloring)

    written = _write_json(
        _output(args, args.graph, ".witness.json"),
        _load(args.coloring, "coloring", witness).to_dict(),
    )
    return {"metrics": {"vertices": len(graph.vertices)}, "outputs": [written]}


def cmd_verify(args: argparse.Namespace) -> dict:
    instance = _load(args.instance, None, ThcInstance.from_dict)
    witness = _load(args.witness, None, Witness.from_dict)
    accepted = verify_witness(instance, witness, args.chi, args.rho)
    metrics = {"accepted": accepted}
    if accepted and args.chi < 2 and args.rho == 0:
        metrics["coloring"] = coloring_from_witness(instance, witness)
    return {"metrics": metrics, "outputs": [], "exit": 0 if accepted else 2}


# ---------------------------------------------------------------- simulate

def cmd_simulate(args: argparse.Namespace) -> dict:
    def config(doc: dict) -> SimConfig:
        if args.seed is not None:
            doc = {**doc, "seed": args.seed}
        return SimConfig.from_dict(doc)

    cfg = _load(args.config, None, config) if args.config else config({})
    trace: list[dict] = []
    on_tick = (lambda tick, pop: trace.append({"tick": tick, "population": pop})) \
        if args.trace else None
    sampling, kinds = run_detailed(cfg, on_tick=on_tick)
    written = [_write_json(Path(args.output or "sampling.json"), {
        "sampling": sampling.to_dict(),
        "metadata": {
            "config": cfg.to_dict(),
            "kinds": kinds,
        },
    })]
    if args.trace:
        trace_path = Path(args.trace)
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(
            "".join(json.dumps(row, sort_keys=True) + "\n" for row in trace)
        )
        written.append(str(trace_path))
    return {
        "metrics": {
            "levels": sampling.t,
            "points": sampling.size,
            "final_population": len(sampling.levels[-1]),
        },
        "outputs": written,
    }


# ---------------------------------------------------------------- figure4

def cmd_figure4(args: argparse.Namespace) -> dict:
    m, m_prime = instability_family(args.n, args.eps)
    outdir = Path(args.outdir)
    outputs = [
        _write_json(outdir / "figure4_m.json", m.to_dict()),
        _write_json(outdir / "figure4_m_prime.json", m_prime.to_dict()),
    ]
    comparison = {}
    for scheme in SCHEMES:
        fit_a, fit_b = _fit(scheme, m), _fit(scheme, m_prime)
        comparison[scheme] = {
            "mu_uv": fit_a.distance("u", "v"),
            "mu_uv_perturbed": fit_b.distance("u", "v"),
            "gap_uv": abs(fit_a.distance("u", "v") - fit_b.distance("u", "v")),
            "linf_between_fits": linf_distance(fit_a, fit_b),
        }
    return {
        "metrics": {
            "diameter": float(m.dist.max()),
            "linf_between_inputs": linf_distance(m, m_prime),
            "comparison": comparison,
        },
        "outputs": outputs,
    }


# ---------------------------------------------------------------- parser

def _number(text: str) -> float:
    """Any float but NaN, which compares false and slips past every check."""
    value = float(text)
    if value != value:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thclust",
        description="Temporally coherent hierarchical clustering toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit one metric space and emit its dendrogram")
    p.add_argument("input", help="metric space JSON file")
    p.add_argument("--method", choices=SCHEMES, default="fkw")
    p.add_argument("-o", "--output", default=None, help="dendrogram output path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("cluster", help="solve a temporal sampling end to end")
    p.add_argument("input", help="temporal sampling JSON file")
    p.add_argument("--method", choices=SCHEMES, default="fkw")
    p.add_argument("--labels", action="store_true",
                   help="also compute flow-based labelings")
    p.add_argument("--delta", type=_number, default=None,
                   help="certify contiguity at this radius instead of the solved delta")
    p.add_argument("--emit", choices=("json", "svg"), default="json")
    p.add_argument("-o", "--outdir", default=".")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("cut", help="cut a dendrogram at a height")
    p.add_argument("input", help="dendrogram JSON file")
    p.add_argument("-r", type=_number, required=True, help="cut height (inf allowed)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_cut)

    p = sub.add_parser("reduce", help="encode a graph as a two-level instance")
    p.add_argument("input", help="graph file (edge-list JSON or DIMACS)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("witness", help="build the witness for a proper coloring")
    p.add_argument("graph", help="graph file")
    p.add_argument("coloring", help="JSON file mapping vertex to color")
    p.add_argument("--pad", action="store_true",
                   help="spread a <3-color proper coloring onto all three colors")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("verify", help="check a witness against an instance")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("witness", help="witness JSON file")
    p.add_argument("--chi", type=_number, required=True)
    p.add_argument("--rho", type=_number, required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="run the flocking generator")
    p.add_argument("config", nargs="?", default=None, help="config JSON file")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--trace", default=None,
                   help="write per-tick population trace to this path")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("figure4", help="emit the paired instability spaces")
    p.add_argument("-n", type=int, default=12, help="total number of points")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("-o", "--outdir", default=".")
    p.set_defaults(func=cmd_figure4)

    return parser


def main(argv=None) -> int:
    """Run one command and print its report as strict JSON: the command's
    metrics and outputs (and contiguity, for ``cluster --labels``) with the
    command name, the resolved config and the elapsed time."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 means certification failure here
        return 0 if exc.code in (0, None) else 1
    started = time.perf_counter()
    try:
        result = args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 2
    code = result.pop("exit", 0)
    print(json.dumps({
        "command": args.command,
        "config": _resolved_config(args),
        **result,
        "elapsed_s": round(time.perf_counter() - started, 6),
    }, indent=2, sort_keys=True, allow_nan=False))
    return code


if __name__ == "__main__":
    sys.exit(main())
