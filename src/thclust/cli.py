"""Command-line surface for the fitting, clustering, and labeling pipeline.

Artifacts are JSON files tagged with a format_version; run reports go to
stdout as JSON and carry the timing, while files stay byte-identical across
reruns with the same inputs. Exit codes: 0 success, 1 input error, 2
certification failure.
"""

from __future__ import annotations

import argparse
import json
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
from .temporal import CertificationError, LocalSolution, evaluate_general, solve_local
from .ultrametric import (
    Dendrogram,
    cut_at_height,
    fkw_fit,
    instability_family,
    subdominant_ultrametric,
    to_dendrogram,
)

FORMAT_VERSION = "1"

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


def _read_json(path: str) -> dict:
    return _parse_json(_read_text(path), path)


def _unwrap(doc: dict, path: str) -> dict:
    if not isinstance(doc, dict):
        raise CliError(f"{path}: top level must be a JSON object")
    version = doc.get("format_version")
    if version is not None and version != FORMAT_VERSION:
        raise CliError(f"{path}: unsupported format_version {version!r}")
    return doc


def _write_json(path: Path, payload: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")
    return str(path)


def _print_report(report: dict) -> None:
    print(json.dumps(report, indent=2, sort_keys=True))


def _resolved_config(args: argparse.Namespace) -> dict:
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in ("func", "command"):
            continue
        out[key] = value if not isinstance(value, Path) else str(value)
    return out


def _load_space(path: str) -> MetricSpace:
    doc = _unwrap(_read_json(path), path)
    body = doc.get("space", doc)
    try:
        return MetricSpace.from_dict(body)
    except ValidationError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _load_sampling(path: str) -> TemporalSampling:
    doc = _unwrap(_read_json(path), path)
    body = doc.get("sampling", doc)
    try:
        return TemporalSampling.from_dict(body)
    except ValidationError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _load_graph(path: str) -> Graph:
    text = _read_text(path)
    try:
        if text.lstrip().startswith("{"):
            doc = _unwrap(_parse_json(text, path), path)
            return Graph.from_dict(doc.get("graph", doc))
        return Graph.from_dimacs(text)
    except ValidationError as exc:
        raise CliError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------- fit

def cmd_fit(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    space = _load_space(args.input)
    if args.method == "fkw":
        fit = fkw_fit(space)
        fitted = fit.ultrametric
        extras = {"shift": fit.shift, "clamped_pairs": len(fit.clamped_pairs)}
    else:
        fitted = subdominant_ultrametric(space)
        extras = {}
    dendrogram = to_dendrogram(fitted)
    error = linf_distance(space, fitted)
    out = Path(args.output) if args.output else Path(Path(args.input).stem + ".dendrogram.json")
    written = _write_json(out, {
        "format_version": FORMAT_VERSION,
        "method": args.method,
        "fit_error": error,
        "dendrogram": dendrogram.to_dict(),
    })
    # Recompute the reported error from the artifact, not from live state.
    reread = Dendrogram.from_dict(
        _unwrap(_read_json(written), written)["dendrogram"]
    ).to_ultrametric()
    _print_report({
        "command": "fit",
        "config": _resolved_config(args),
        "metrics": {"fit_error": linf_distance(space, reread), **extras},
        "outputs": [written],
        "elapsed_s": round(time.perf_counter() - started, 6),
    })
    return 0


# ---------------------------------------------------------------- cluster

def _dendrogram_layout(dendrogram: Dendrogram):
    """Leaf order and node coordinates for drawing: (leaf order, segments).

    Segments are (x1, h1, x2, h2) in leaf-slot and height units.
    """
    children: dict[int | str, tuple] = {}
    for idx, (h, a, b) in enumerate(dendrogram.merges):
        children[idx] = (h, a, b)

    roots = set(dendrogram.leaves) | set(range(len(dendrogram.merges)))
    for h, a, b in dendrogram.merges:
        roots.discard(a)
        roots.discard(b)

    order: list[str] = []

    def walk(ref) -> None:
        if isinstance(ref, str):
            order.append(ref)
        else:
            _, a, b = children[ref]
            walk(a)
            walk(b)

    for root in sorted(roots, key=lambda r: (isinstance(r, str), str(r))):
        walk(root)

    xs: dict[int | str, float] = {}
    hs: dict[int | str, float] = {}
    for slot, leaf in enumerate(order):
        xs[leaf] = float(slot)
        hs[leaf] = 0.0
    segments = []
    for idx, (h, a, b) in enumerate(dendrogram.merges):
        segments.append((xs[a], hs[a], xs[a], h))
        segments.append((xs[b], hs[b], xs[b], h))
        segments.append((xs[a], h, xs[b], h))
        xs[idx] = (xs[a] + xs[b]) / 2.0
        hs[idx] = h
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


def cmd_cluster(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    sampling = _load_sampling(args.input)
    outdir = Path(args.outdir)
    labelings: tuple[Labeling, ...] = ()
    k = None
    if args.labels:
        labeled = solve_labeled(sampling, scheme=args.method)
        solution, labelings, k = labeled.local, labeled.labelings, labeled.k
    else:
        solution = solve_local(sampling, scheme=args.method)
    outputs = [
        _write_json(outdir / "solution.json", {
            "format_version": FORMAT_VERSION,
            **solution.to_dict(),
        })
    ]
    if args.labels:
        outputs.append(_write_json(outdir / "labels.json", {
            "format_version": FORMAT_VERSION,
            "k": k,
            "labelings": [lab.to_list() for lab in labelings],
        }))

    dendrograms = [to_dendrogram(u) for u in solution.ultrametrics]
    plot_doc: dict = {"format_version": FORMAT_VERSION, "levels": []}
    panels = []
    for i, dendrogram in enumerate(dendrograms):
        heights = sorted({h for h, _, _ in dendrogram.merges})
        fitted = solution.ultrametrics[i]
        cuts = [
            {"r": h, "blocks": cut_at_height(fitted, h)} for h in heights
        ]
        plot_doc["levels"].append({
            "dendrogram": dendrogram.to_dict(),
            "cuts": cuts,
        })
        order, segments = _dendrogram_layout(dendrogram)
        colors = {}
        if labelings:
            for point, group in labelings[i].labels.items():
                colors[point] = PALETTE[(min(group) - 1) % len(PALETTE)]
        panels.append({
            "title": f"level {i} ({len(order)} points)",
            "order": order,
            "segments": segments,
            "colors": colors,
        })
    outputs.append(_write_json(outdir / "plots.json", plot_doc))
    if args.emit == "svg":
        svg_path = outdir / "plots.svg"
        svg_path.write_text(_render_svg(panels))
        outputs.append(str(svg_path))

    # Certify from the written artifacts rather than in-memory objects.
    reread = LocalSolution.from_dict(
        _unwrap(_read_json(str(outdir / "solution.json")), "solution.json")
    )
    certification = evaluate_general(reread)
    contiguity_report = None
    if labelings:
        doc = _unwrap(_read_json(str(outdir / "labels.json")), "labels.json")
        loaded = [
            Labeling.from_list(entries, k=doc["k"]) for entries in doc["labelings"]
        ]
        radius = args.delta if args.delta is not None else certification.delta
        checks = []
        for i in range(len(loaded) - 1):
            ok, violation = check_contiguity(
                loaded[i], loaded[i + 1], radius, sampling.ambient
            )
            checks.append(ok)
            if not ok:
                raise CertificationError(
                    f"labelings {i} and {i + 1} break contiguity at delta "
                    f"{radius:g}: label {violation.label} near point "
                    f"{violation.point!r} (condition {violation.condition})"
                )
        contiguity_report = {"delta": radius, "adjacent_pairs_checked": len(checks)}

    metrics = {
        "chi": certification.chi,
        "delta": certification.delta,
        "rho": certification.rho,
        "rho_bound": certification.bound,
    }
    if k is not None:
        metrics["k"] = k
    report = {
        "command": "cluster",
        "config": _resolved_config(args),
        "metrics": metrics,
        "outputs": outputs,
        "elapsed_s": round(time.perf_counter() - started, 6),
    }
    if contiguity_report is not None:
        report["contiguity"] = contiguity_report
    _print_report(report)
    return 0


# ---------------------------------------------------------------- cut

def cmd_cut(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    doc = _unwrap(_read_json(args.input), args.input)
    body = doc.get("dendrogram", doc)
    try:
        dendrogram = Dendrogram.from_dict(body)
        fitted = dendrogram.to_ultrametric()
        blocks = cut_at_height(fitted, args.r)
    except ValidationError as exc:
        raise CliError(f"{args.input}: {exc}") from exc
    out = Path(args.output) if args.output else Path(Path(args.input).stem + ".cut.json")
    written = _write_json(out, {
        "format_version": FORMAT_VERSION,
        "r": "inf" if args.r == float("inf") else args.r,
        "blocks": blocks,
    })
    _print_report({
        "command": "cut",
        "config": _resolved_config(args),
        "metrics": {"blocks": len(blocks)},
        "outputs": [written],
        "elapsed_s": round(time.perf_counter() - started, 6),
    })
    return 0


# ---------------------------------------------------------------- hardness

def cmd_reduce(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    graph = _load_graph(args.input)
    instance = reduce_from_graph(graph)
    out = Path(args.output) if args.output else Path(Path(args.input).stem + ".instance.json")
    written = _write_json(out, {
        "format_version": FORMAT_VERSION,
        **instance.to_dict(),
    })
    _print_report({
        "command": "reduce",
        "config": _resolved_config(args),
        "metrics": {"vertices": len(graph.vertices), "edges": len(graph.edges)},
        "outputs": [written],
        "elapsed_s": round(time.perf_counter() - started, 6),
    })
    return 0


def cmd_witness(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    graph = _load_graph(args.graph)
    doc = _unwrap(_read_json(args.coloring), args.coloring)
    coloring = doc.get("coloring", doc)
    if not isinstance(coloring, dict):
        raise CliError(f"{args.coloring}: coloring must map vertices to colors")
    coloring = {str(k): str(v) for k, v in coloring.items()
                if k != "format_version"}
    try:
        if args.pad:
            coloring = pad_to_three_colors(graph, coloring)
        witness = witness_from_coloring(graph, coloring)
    except ValidationError as exc:
        raise CliError(f"{args.coloring}: {exc}") from exc
    out = Path(args.output) if args.output else Path(Path(args.graph).stem + ".witness.json")
    written = _write_json(out, {
        "format_version": FORMAT_VERSION,
        **witness.to_dict(),
    })
    _print_report({
        "command": "witness",
        "config": _resolved_config(args),
        "metrics": {"vertices": len(graph.vertices)},
        "outputs": [written],
        "elapsed_s": round(time.perf_counter() - started, 6),
    })
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    inst_doc = _unwrap(_read_json(args.instance), args.instance)
    wit_doc = _unwrap(_read_json(args.witness), args.witness)
    try:
        instance = ThcInstance.from_dict(inst_doc)
        witness = Witness.from_dict(wit_doc)
    except ValidationError as exc:
        raise CliError(f"{exc}") from exc
    accepted = verify_witness(instance, witness, args.chi, args.rho)
    extraction = None
    if accepted and args.chi < 2 and args.rho == 0:
        extraction = coloring_from_witness(instance, witness)
    _print_report({
        "command": "verify",
        "config": _resolved_config(args),
        "metrics": {
            "accepted": accepted,
            **({"coloring": extraction} if extraction else {}),
        },
        "outputs": [],
        "elapsed_s": round(time.perf_counter() - started, 6),
    })
    return 0 if accepted else 2


# ---------------------------------------------------------------- simulate

def cmd_simulate(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.config:
        doc = _unwrap(_read_json(args.config), args.config)
        body = {k: v for k, v in doc.items() if k != "format_version"}
        try:
            cfg = SimConfig.from_dict(body)
        except (ValidationError, TypeError) as exc:
            raise CliError(f"{args.config}: {exc}") from exc
    else:
        cfg = SimConfig()
    if args.seed is not None:
        cfg = SimConfig.from_dict({**cfg.to_dict(), "seed": args.seed})

    trace: list[dict] = []
    on_tick = (lambda tick, pop: trace.append({"tick": tick, "population": pop})) \
        if args.trace else None
    sampling, kinds = run_detailed(cfg, on_tick=on_tick)
    out = Path(args.output) if args.output else Path("sampling.json")
    written = [_write_json(out, {
        "format_version": FORMAT_VERSION,
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
    _print_report({
        "command": "simulate",
        "config": _resolved_config(args),
        "metrics": {
            "levels": sampling.t,
            "points": sampling.size,
            "final_population": len(sampling.levels[-1]),
        },
        "outputs": written,
        "elapsed_s": round(time.perf_counter() - started, 6),
    })
    return 0


# ---------------------------------------------------------------- figure4

def cmd_figure4(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    try:
        m, m_prime = instability_family(args.n, args.eps)
    except ValidationError as exc:
        raise CliError(str(exc)) from exc
    outdir = Path(args.outdir)
    outputs = [
        _write_json(outdir / "figure4_m.json", {
            "format_version": FORMAT_VERSION, **m.to_dict(),
        }),
        _write_json(outdir / "figure4_m_prime.json", {
            "format_version": FORMAT_VERSION, **m_prime.to_dict(),
        }),
    ]
    diameter = float(m.dist.max())
    comparison = {}
    for method in ("fkw", "subdominant"):
        if method == "fkw":
            fit_a = fkw_fit(m).ultrametric
            fit_b = fkw_fit(m_prime).ultrametric
        else:
            fit_a = subdominant_ultrametric(m)
            fit_b = subdominant_ultrametric(m_prime)
        comparison[method] = {
            "mu_uv": fit_a.value("u", "v"),
            "mu_uv_perturbed": fit_b.value("u", "v"),
            "gap_uv": abs(fit_a.value("u", "v") - fit_b.value("u", "v")),
            "linf_between_fits": linf_distance(fit_a, fit_b),
        }
    _print_report({
        "command": "figure4",
        "config": _resolved_config(args),
        "metrics": {
            "diameter": diameter,
            "linf_between_inputs": linf_distance(m, m_prime),
            "comparison": comparison,
        },
        "outputs": outputs,
        "elapsed_s": round(time.perf_counter() - started, 6),
    })
    return 0


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
    p.add_argument("--method", choices=("fkw", "subdominant"), default="fkw")
    p.add_argument("-o", "--output", default=None, help="dendrogram output path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("cluster", help="solve a temporal sampling end to end")
    p.add_argument("input", help="temporal sampling JSON file")
    p.add_argument("--method", choices=("fkw", "subdominant"), default="fkw")
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 means certification failure here
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
