"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload flock-label --seed 0 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/`` (or
``--src``). The run generates its inputs from ``--seed``, then makes
closed-loop passes over them until ``--seconds`` have elapsed (and at least
the workload's minimum number of passes), checking every output. The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``. ``--record PATH``
also writes the full record: every metric of README.md, the reference
checks and the environment.

With ``--trace 1`` each unit is: one traced set-up, one untraced pass and
one traced pass on the same inputs, so the tracing overhead is measured in
the same process.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported: one client, one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))


def environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "seed": seed,
        "loadavg_start": list(os.getloadavg()),
        "threads_env": {v: os.environ[v] for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def load_reference(workload: str, seed: int) -> dict | None:
    from workloads import DEFAULT_SEED

    if seed != DEFAULT_SEED:
        return None
    return json.loads((BENCH / "reference.json").read_text())[workload]


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
            workdir: Path | None = None, reference: dict | None = None) -> dict:
    """One run of one workload; returns the full record."""
    import tracing
    from calibrate import Calibrator
    from workloads import SIZES, WORKLOADS, Ops

    wl = WORKLOADS[name]
    sizes = SIZES[size]
    input_sets = sizes[wl.input_sets]
    shared = ROOT / ".bench_work"
    workdir = workdir or shared / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ops = Ops(reference=reference)
    tracer = tracing.Tracer() if trace else None
    cal = Calibrator() if wl.calibrated else None
    readings = [cal.kernel_s()] if cal else []  # kernel times between measured intervals
    wall = {"setup": [], "pass": [], "traced": []}
    normalized = {"setup": [], "pass": [], "traced": []}
    quality: dict[str, float] = {}
    artifact_bytes = []
    state: dict = {}

    def measured(kind: str, fn, *args):
        """Run fn, record its wall time, and scale it by the host speed read
        from the calibration kernel just before and just after it."""
        start = time.perf_counter()
        out = fn(*args)
        elapsed = time.perf_counter() - start
        wall[kind].append(elapsed)
        if cal is None:
            normalized[kind].append(elapsed)
        else:
            readings.append(cal.kernel_s())
            normalized[kind].append(elapsed * 2 * cal.reference / (readings[-2] + readings[-1]))
        return out

    def traced_call(root: str, fn, *args):
        tracer.install()
        try:
            return tracer.root(root, fn, *args)
        finally:
            tracer.uninstall()

    def one_pass(item, traced: bool):
        if traced:
            out = measured("traced", traced_call, "bench.pass", wl.run_pass, ops, item, workdir, state)
        else:
            out = measured("pass", wl.run_pass, ops, item, workdir, state)
        for key, value in out["quality"].items():
            quality[key] = max(quality.get(key, value), value)
        artifact_bytes.append(out["artifact_bytes"])

    try:
        started = time.perf_counter()
        if trace:
            units = 0
            while units < 1 or time.perf_counter() - started < seconds:
                item = measured("setup", traced_call, "bench.setup", wl.setup, seed,
                                units % input_sets, sizes, workdir)
                one_pass(item, traced=False)
                one_pass(item, traced=True)
                units += 1
        else:
            # Several set-ups per run, so set-up time is a median too.
            inputs = [measured("setup", wl.setup, seed, i % input_sets, sizes, workdir)
                      for i in range(max(wl.setups, input_sets))][-input_sets:]
            started = time.perf_counter()
            while (len(wall["pass"]) < input_sets * wl.passes_per_input
                   or time.perf_counter() - started < seconds):
                one_pass(inputs[len(wall["pass"]) % input_sets], traced=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent == shared:
            with contextlib.suppress(OSError):
                shared.rmdir()  # only succeeds once no other run uses it

    e2e = {
        "setup_s": statistics.median(normalized["setup"]),
        "solve_s": statistics.median(normalized["pass"]),
        "setup_wall_s": statistics.median(wall["setup"]),
        "solve_wall_s": statistics.median(wall["pass"]),
        "host_speed": cal.reference / statistics.median(readings) if cal else 1.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_ratio": ops.failed / ops.attempted,
        **quality,
        "artifact_mb": statistics.median(artifact_bytes) / 1e6,
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "passes": len(wall["pass"]),
        "setups": len(wall["setup"]),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "errors": ops.errors[:20],
        "reference_checked": reference is not None,
        "values": ops.values,
        "wall_s": wall,
        "normalized_s": normalized,
        "kernel_s": readings,
        "e2e": e2e,
        "environment": environment(seed),
    }
    if trace:
        # Per-unit means in wall seconds, like the layer figures, so the self
        # times add up to trace.setup_s + trace.solve_s; the overhead
        # compares the traced and untraced passes of the same units.
        layers = tracer.metrics(len(wall["traced"]))
        layers["trace.setup_s"] = statistics.mean(wall["setup"])
        layers["trace.solve_s"] = statistics.mean(wall["traced"])
        layers["trace.untraced_solve_s"] = statistics.mean(wall["pass"])
        layers["trace.overhead_s"] = layers["trace.solve_s"] - layers["trace.untraced_solve_s"]
        record["layers"] = layers
    return record


def result_line(record: dict, spec: dict) -> dict:
    """The contract's last line: the metrics BENCHMARK.json names, with units."""
    if record["trace"]:
        names, source = spec["per_layer"], record["layers"]
    else:
        names, source = spec["end_to_end"], record["e2e"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        # A metric is missing only when the op producing it failed, and then
        # the run is already reported as incorrect.
        "metrics": {m["name"]: {"value": source.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the thclust package")
    parser.add_argument("--record", default=None, help="write the full record here")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's checked values as the workload's reference")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (Path(args.src) / "thclust" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: need {spec_path} and the thclust package under {args.src}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(args.src).resolve()))
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = json.loads(spec_path.read_text())
    reference = None if args.write_reference else load_reference(
        args.workload, args.seed)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    record = measure(args.workload, args.seed, seconds, bool(args.trace), reference=reference)
    if args.write_reference:
        if record["failed"] or args.seed != DEFAULT_SEED:
            print("error: a reference needs a clean run at the default seed",
                  file=sys.stderr)
            return 2
        path = BENCH / "reference.json"
        stored = json.loads(path.read_text()) if path.is_file() else {}
        stored[args.workload] = record["values"]
        path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for err in record["errors"]:
        print(f"failed op: {err}", file=sys.stderr)
    summary = {k: round(v, 6) for k, v in record["e2e"].items()}
    print(f"{args.workload} seed={args.seed} passes={record['passes']} {json.dumps(summary)}")
    print(json.dumps(result_line(record, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
