"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload closed-point --seed 1 --seconds 40 --trace 0

``--trace 0`` times the workload's calls with nothing but three set-up
probes installed and reports the end-to-end metrics of
``BENCHMARK.json``.  A fixed pure-Python calibration loop runs before
and after every call; ``sim_ops_per_s`` and ``setup_s`` are the wall
figures scaled by it to the reference machine's speed, so the speed
this shared machine happens to run at cancels out (the unscaled
medians are in the manifest as ``wall_sim_ops_per_s`` and
``wall_setup_s``).  ``--trace 1`` alternates untraced and traced
repetitions, reports the per-layer metrics, and fails the run when a
wrapper count disagrees with the program's own counter.

Repetitions run back to back until the next one would end after
``--seconds``; every figure is the median over them.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the run manifest.  A report with every
repetition (and, traced, the span file) goes to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"


def _commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _source_digest() -> str:
    """SHA-256 over the simulator's sources, names and bytes, in order.

    Identifies the code under test where no ``.git`` is checked out.
    """
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(args: argparse.Namespace, argv: list[str]) -> dict:
    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": argv,
    }


def check_repeats(reps: list) -> None:
    """Fail every cell whose digest differs from the first repetition's."""
    reference = {cell.label: cell.digest for cell in reps[0].cells}
    for rep in reps[1:]:
        for cell in rep.cells:
            if cell.digest != reference.get(cell.label):
                cell.errors.append(
                    f"output digest {cell.digest} differs from the first "
                    f"repetition's {reference.get(cell.label)}"
                )


def _repeat(seconds: float, step) -> list:
    """Call ``step()`` until the next call would end past ``seconds``.

    Each step's repetitions are released and the heap collected before
    the next step, so every repetition starts from a clean heap.
    """
    began = time.perf_counter()
    reps = []
    longest = 0.0
    while True:
        started = time.perf_counter()
        done = step()
        for rep in done:
            rep.release()
        reps.extend(done)
        gc.collect()
        longest = max(longest, time.perf_counter() - started)
        if time.perf_counter() - began + longest > seconds:
            return reps


def timed_run(workload: str, seed: int, seconds: float, probe) -> tuple:
    """Calibrated repetitions; times are scaled to the reference speed."""
    from perfbench.workloads import run_rep, seal

    reps = _repeat(
        seconds, lambda: [seal(run_rep(workload, seed, probe, calibrated=True))]
    )
    check_repeats(reps)
    sim = reps[0].sim
    metrics = {
        "sim_ops_per_s": statistics.median(rep.ref_sim_ops_per_s for rep in reps),
        "setup_s": statistics.median(rep.ref_setup_s for rep in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name in (
        "sim.lsbm_hit_ratio",
        "sim.lsbm_vs_leveldb_reads_x",
        "sim.lsbm_goodput_qps",
        "sim.lsbm_read_p99_s",
    ):
        metrics[name] = sim.get(name, 0.0)
    return reps, metrics, []


def traced_run(workload: str, seed: int, seconds: float, probe) -> tuple:
    """Alternate untraced and traced repetitions; per-layer medians."""
    from perfbench import layers
    from perfbench.tracer import Tracer
    from perfbench.workloads import run_rep, seal

    per_rep: list[dict[str, float]] = []
    checks: list[dict] = []

    def pair() -> list:
        first = not per_rep
        ticks: list[float] = []
        last = [time.perf_counter()]

        def on_tick(tick, sessions):
            now = time.perf_counter()
            ticks.append(now - last[0])
            last[0] = now

        plain = run_rep(workload, seed, probe, on_tick=on_tick)
        plain.tick_walls_s = ticks[1:]
        seal(plain).release()
        gc.collect()
        tracer = Tracer()
        layers.install(tracer)
        try:
            rep = tracer.run(layers.ROOT, run_rep, workload, seed, probe)
        finally:
            tracer.uninstall()
        seal(rep)
        rep.tick_walls_s = plain.tick_walls_s
        metrics = layers.layer_metrics(tracer, rep)
        metrics["trace.overhead_x"] = rep.wall_s / plain.wall_s
        per_rep.append(metrics)
        rows = layers.cross_checks(tracer, rep, workload)
        if first:
            checks.extend(rows)
            tracer.write(OUT_DIR / f"spans-{workload}-s{seed}.bin")
        else:
            checks.extend(row for row in rows if not row["ok"])
        return [plain, rep]

    reps = _repeat(seconds, pair)
    check_repeats(reps)
    metrics = {
        name: statistics.median(values[name] for values in per_rep)
        for name in per_rep[0]
    }
    return reps, metrics, checks


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS, SetupProbe, calibrate

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {WORKLOADS}")
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    wanted = {metric["name"]: metric["unit"] for metric in contract[section]}

    run_manifest = manifest(args, argv)
    run_manifest["slowness_before"] = calibrate()
    probe = SetupProbe()
    probe.install()
    try:
        run = traced_run if args.trace else timed_run
        reps, metrics, checks = run(args.workload, args.seed, args.seconds, probe)
    finally:
        probe.uninstall()
    run_manifest["slowness_after"] = calibrate()
    run_manifest["repetitions"] = len(reps)
    if not args.trace:
        run_manifest["wall_sim_ops_per_s"] = statistics.median(
            rep.sim_ops_per_s for rep in reps
        )
        run_manifest["wall_setup_s"] = statistics.median(
            rep.setup_s for rep in reps
        )

    missing = sorted(set(wanted) - set(metrics))
    if missing:
        raise RuntimeError(f"workload produced no value for {missing}")
    failures = [
        {"cell": cell.label, "errors": cell.errors}
        for rep in reps
        for cell in rep.cells
        if cell.errors
    ]
    mismatches = [row for row in checks if not row["ok"]]
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    correct = failed == 0 and not mismatches
    for item in failures + mismatches:
        print(f"FAILED: {json.dumps(item, default=repr)}", file=sys.stderr)

    report = {
        "manifest": run_manifest,
        "metrics": metrics,
        "cross_checks": checks,
        "failures": failures,
        "repetitions": [
            {
                "wall_s": rep.wall_s,
                "setup_s": rep.setup_s,
                "ref_wall_s": rep.ref_wall_s,
                "ref_setup_s": rep.ref_setup_s,
                "slowness": [cell.slowness for cell in rep.cells],
                "completed": rep.completed,
                "attempted": rep.attempted,
                "failed": rep.failed,
                "sim": rep.sim,
                "digests": {cell.label: cell.digest for cell in rep.cells},
            }
            for rep in reps
        ],
    }
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=1, default=repr) + "\n")

    print(json.dumps({"manifest": run_manifest}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
