"""Run every workload in its own process and compare two sets of results.

    python3 bench/suite.py run --runs 10 --out bench-results
    python3 bench/suite.py run --tree parent=../parent/src --tree change=src --out bench-results
    python3 bench/suite.py compare bench-results/parent.json bench-results/change.json

``run`` makes ``--runs`` untraced runs per workload and tree (seeds
``--seed``, ``--seed`` + 1, ...), alternating which tree goes first in each
pair, then ``--traced`` traced runs per workload and tree. Each tree's
records go to ``<out>/<label>.json``, and a table of every end-to-end metric
(median and quartiles) and the traced layer breakdown is printed.

``compare`` prints, per workload and end-to-end metric, each side's median
and quartiles, the pair win count, and a verdict by the rule of the
benchmark README: a gain needs wins in at least nine tenths of the pairs and
a median difference larger than the parent's own quartile spread; a change
is a regression when its median is worse than the parent's by more than the
metric's bound in BENCHMARK.json. It then lists the per-layer ``self_s``
deltas of the traced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("flock-label", "fit-large", "cli-session")
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); quartiles as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def one_run(src: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        record = Path(tmp) / "record.json"
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--src", src, "--record", str(record)]
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **PINNED},
                              capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
        return json.loads(record.read_text())


def cmd_run(args) -> int:
    trees = [t.split("=", 1) for t in args.tree] or [["current", str(ROOT / "src")]]
    results = {label: {"label": label, "src": src, "runs": []} for label, src in trees}
    for workload in args.workloads:
        for i in range(args.runs):
            order = trees if i % 2 == 0 else trees[::-1]
            for label, src in order:
                rec = one_run(src, workload, args.seed + i, args.seconds, 0)
                rec["pair"] = i
                results[label]["runs"].append(rec)
                print(f"{label} {workload} seed={args.seed + i} "
                      f"solve_s={rec['e2e']['solve_s']:.3f} failed={rec['failed']}", flush=True)
        for j in range(args.traced):
            for label, src in trees:
                results[label]["runs"].append(
                    one_run(src, workload, args.seed + j, args.seconds, 1))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for label, doc in results.items():
        (out / f"{label}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print_table(doc)
    return 0


def print_table(doc: dict) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(setup_s="s", solve_s="s", setup_wall_s="s", solve_wall_s="s",
                 host_speed="ratio", peak_rss_mb="MB", fail_ratio="ratio",
                 labels_k="count", delta="distance", rho="distance", artifact_mb="MB")
    print(f"\n== {doc['label']} ({doc['src']})")
    for workload in WORKLOADS:
        runs = [r for r in doc["runs"] if r["workload"] == workload]
        plain = [r for r in runs if not r["trace"]]
        if plain:
            env = plain[0]["environment"]
            print(f"\n{workload}: {len(plain)} runs, nproc={env['nproc']}, "
                  f"{env['cpu_model']}, python {env['python']}, numpy {env['numpy']}")
            for name in plain[0]["e2e"]:
                vals = [r["e2e"][name] for r in plain if name in r["e2e"]]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else 0.0
                print(f"  {name:<12} {med:12.6g} {units.get(name, ''):<8} "
                      f"[q1 {q1:.6g}, q3 {q3:.6g}, spread {spread:.1%}]")
        for rec in (r for r in runs if r["trace"]):
            print_layers(rec)


def print_layers(rec: dict) -> None:
    layers = rec["layers"]
    spans = {k[:-len(".self_s")]: v for k, v in layers.items() if k.endswith(".self_s")}
    covered = sum(spans.values())
    traced = layers["trace.setup_s"] + layers["trace.solve_s"]
    print(f"  traced seed={rec['seed']}: solve_s {layers['trace.solve_s']:.3f} "
          f"(untraced {layers['trace.untraced_solve_s']:.3f}, overhead "
          f"{layers['trace.overhead_s']:+.3f}); self times cover "
          f"{covered:.3f} of {traced:.3f} s traced set-up + pass")
    for name, value in sorted(spans.items(), key=lambda kv: -kv[1]):
        if value > 0.005 * traced:
            print(f"    {name:<44} self {value:9.3f} s  total "
                  f"{layers[name + '.total_s']:9.3f} s  calls {layers.get(name + '.calls', 1):g}")
    counts = {k: v for k, v in layers.items()
              if not k.endswith(("_s", ".calls")) and v}
    print("    counts: " + ", ".join(f"{k}={v:.6g}" for k, v in counts.items()))


def cmd_compare(args) -> int:
    parent = json.loads(Path(args.parent).read_text())
    change = json.loads(Path(args.change).read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in WORKLOADS:
        p_runs = {r["pair"]: r for r in parent["runs"]
                  if r["workload"] == workload and not r["trace"]}
        c_runs = {r["pair"]: r for r in change["runs"]
                  if r["workload"] == workload and not r["trace"]}
        pairs = sorted(set(p_runs) & set(c_runs))
        if not pairs:
            continue
        print(f"\n{workload}: {len(pairs)} pairs "
              f"({parent['label']} -> {change['label']}; lower is better)")
        for name in p_runs[pairs[0]]["e2e"]:
            pv = [p_runs[i]["e2e"].get(name) for i in pairs]
            cv = [c_runs[i]["e2e"].get(name) for i in pairs]
            if None in pv or None in cv:
                continue
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            wins = sum(c < p for p, c in zip(pv, cv))
            losses = sum(c > p for p, c in zip(pv, cv))
            bound = bounds.get(name)
            if wins >= 0.9 * len(pairs) and pm - cm > p3 - p1:
                verdict = "gain"
            elif bound is not None and pm and (p3 - p1) / pm > bound:
                verdict = "unresolved (parent spread above bound)"
            elif bound is not None and cm > pm * (1 + bound):
                verdict = f"REGRESSION (bound {bound:.0%})"
            else:
                verdict = "no change" if bound is not None else "-"
            rel = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
            print(f"  {name:<12} {pm:11.5g} [{p1:.5g}, {p3:.5g}] -> {cm:11.5g} "
                  f"[{c1:.5g}, {c3:.5g}] {rel:>7}  wins {wins}/{len(pairs)} "
                  f"losses {losses}  {verdict}")
        p_tr = [r["layers"] for r in parent["runs"] if r["workload"] == workload and r["trace"]]
        c_tr = [r["layers"] for r in change["runs"] if r["workload"] == workload and r["trace"]]
        if p_tr and c_tr:
            deltas = []
            for key in p_tr[0]:
                if key.endswith(".self_s") or key.startswith("trace."):
                    pm = statistics.median(l[key] for l in p_tr)
                    cm = statistics.median(l[key] for l in c_tr)
                    deltas.append((cm - pm, key, pm, cm))
            print("  traced self_s deltas (largest first):")
            for delta, key, pm, cm in sorted(deltas, key=lambda d: -abs(d[0]))[:args.top]:
                print(f"    {key:<50} {pm:9.3f} -> {cm:9.3f} s  ({delta:+.3f})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run the workloads and record the results")
    p.add_argument("--tree", action="append", default=[],
                   help="LABEL=SRC_DIR; give two to alternate parent and change")
    p.add_argument("--workloads", type=lambda s: s.split(","), default=list(WORKLOADS))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--traced", type=int, default=1)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--out", default="bench-results")
    p.set_defaults(func=cmd_run)
    p = sub.add_parser("compare", help="compare two result files")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--top", type=int, default=15)
    p.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
