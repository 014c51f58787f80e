"""Reconfiguration benchmark: one closed-loop client, one process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table4-p4 --seed 7 --seconds 10 --trace 0

Workloads: ``table4-p4`` and ``w5-recorded`` drive the
``repro.engine`` simulator and the ``repro.core`` planner and checker.
The last line of standard output is one JSON object: ``correct``, ``attempted`` and ``failed`` count
the output checks, and ``metrics`` holds every end-to-end metric named in
``BENCHMARK.json`` (``--trace 0``) or every per-layer metric (``--trace 1``).

``--trace 1`` first runs the same workload untraced in a child process,
then runs it traced in this one. It reports the tracing overhead (traced
minus untraced ``wall_s``), checks that every simulated output is the same
in both processes, and writes the spans to ``perfbench/out/``. The
``engine.sim_delay_ms`` of the other workload's experiments reads 0; any
other per-layer metric the run does not produce fails a check.

Every run also writes a record (metrics, outputs, checks, run metadata)
to ``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import pathlib
import platform
import resource
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

import simwork  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

HELD_OUT_SEED = 1009  # re-check any claimed gain here, never tune on it


def _unexercised(workload: str, names: list[str]) -> set[str]:
    """The other workload's simulated delays; they read 0. Any other
    metric the run does not produce fails a check."""
    own = {f"engine.sim_delay_ms.{e.name}" for e in simwork.WORKLOADS[workload].experiments}
    return {n for n in names if n.startswith("engine.sim_delay_ms.") and n not in own}


def _metadata(args) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        sha = None
    digest = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        digest.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "reference_seed": args.seed == simwork.REFERENCE_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "pyspark": version("pyspark"),
        "duckdb": version("duckdb"),
        "warmup": simwork.WARMUP,
        "client": "closed loop, one client, one process",
    }


def _run_untraced_child(args) -> dict:
    """The same workload, untraced, in a fresh process; its record. It runs
    a single measured round (``--seconds 0``) to keep the traced run short."""
    record = OUT / f"{args.workload}-seed{args.seed}-untraced.json"
    cmd = [
        sys.executable, str(pathlib.Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--trace", "0", "--record", str(record),
    ]
    subprocess.run(cmd, stdout=subprocess.DEVNULL, check=True, timeout=80)
    return json.loads(record.read_text())


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(simwork.WORKLOADS))
    ap.add_argument("--seed", type=int, default=simwork.REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=pathlib.Path, help="where to write the run record")
    args = ap.parse_args()

    OUT.mkdir(exist_ok=True)

    checks: list[tuple[str, bool, str]] = []
    untraced = None
    if args.trace:
        untraced = _run_untraced_child(args)
        checks += [tuple(c) for c in untraced["checks"]]
        tracer = Tracer()
    else:
        tracer = NullTracer()

    t0 = time.perf_counter()
    with tracer.instrument():
        result = simwork.run(args.workload, args.seed, args.seconds, tracer)
    elapsed = time.perf_counter() - t0
    checks += [(name, bool(ok), detail) for name, ok, detail in result["checks"]]

    if args.trace:
        same = result["outputs"] == untraced["outputs"]
        checks.append(("outputs_equal_traced_vs_untraced_process", same, ""))
        layers = dict(result["per_layer"])
        layers["trace.overhead_s"] = (
            result["end_to_end"]["wall_s"] - untraced["metrics"]["wall_s"]["value"]
        )
        unexercised = _unexercised(args.workload, [m["name"] for m in spec["per_layer"]])
        metrics = {}
        for m in spec["per_layer"]:
            name = m["name"]
            if name not in layers and name not in unexercised:
                checks.append((f"per_layer.{name}.measured", False, "missing"))
            metrics[name] = {"value": layers.get(name, 0.0), "unit": m["unit"]}
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
    else:
        e2e = dict(result["end_to_end"])
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}

    failed = sum(1 for _, ok, _ in checks if not ok)
    line = {"correct": failed == 0, "attempted": len(checks), "failed": failed, "metrics": metrics}
    record = {
        **line,
        "error_rate": failed / len(checks),
        "checks": checks,
        "outputs": result["outputs"],
        "rounds": result["rounds"],
        "run_wall_s": elapsed,
        "meta": _metadata(args),
    }
    path = args.record or OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for name, ok, detail in checks:
        if not ok:
            print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)
    print(
        f"[perfbench] {args.workload} seed={args.seed} trace={args.trace} "
        f"rounds={result['rounds']} error_rate={record['error_rate']:.3g} record={path}",
        file=sys.stderr,
    )
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
