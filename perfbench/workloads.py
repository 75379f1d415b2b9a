"""The benchmark's workloads: one repetition of each, with its checks.

Every workload drives the simulator from this process, one call at a
time (``jobs=1``, no threads), at the ``paper_scaled(2048)`` sizes:
10,240 keys (10,240 KB simulated) against a 3,072 KB DB cache, a
1,536 KB RangeHot hot range that fits in the cache, and 98% of reads on
that range.  The seed picks the read keys and arrivals; the program
receives only the spec built from it.

* ``closed-point``: the Fig. 8 cells (point reads from 8 modeled reader
  threads plus paced writes) for ``leveldb``, ``blsm`` and ``lsbm``
  through :func:`repro.sim.sweep.run_sweep`, the path the CLI and the
  figure benchmarks use.
* ``closed-scan``: the same cells in scan mode (Fig. 10, 100 KB range
  queries): same write stream, read side moved to iterator merges.
* ``cluster-split``: :func:`repro.cluster.run.run_coordinated` for
  ``leveldb`` and ``lsbm`` over 2 range shards, Poisson reads and
  writes, a live split at half time, oracle verification and the
  ``rules`` controller.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from perfbench.tracer import Tracer

SCALE = 2048
CLOSED_ENGINES = ("leveldb", "blsm", "lsbm")
CLOSED_POINT_DURATION_S = 20_000
CLOSED_SCAN_DURATION_S = 8_000
CLUSTER_ENGINES = ("leveldb", "lsbm")
CLUSTER_DURATION_S = 4_000
CLUSTER_READ_QPS = 6_000.0
CLUSTER_WRITE_QPS = 8_000.0

WORKLOADS = ("closed-point", "closed-scan", "cluster-split")


#: Seconds the reference machine takes for one sample of each
#: calibration loop; wall times scale to it (see :func:`calibrate`).
CAL_ARITH_REF_S = 0.010
CAL_DICT_REF_S = 0.014
#: Samples of each loop per calibration (the median is taken).
CAL_SAMPLES = 5


def _arith_loop() -> None:
    total = 0
    for i in range(100_000):
        total += i * i % 7


def _dict_loop() -> None:
    table: dict[int, int] = {}
    for i in range(50_000):
        key = i * 7919 % 50021
        table[key] = table.get(key, 0) + i


def _median_time(loop) -> float:
    samples = []
    for _ in range(CAL_SAMPLES):
        began = time.perf_counter()
        loop()
        samples.append(time.perf_counter() - began)
    return statistics.median(samples)


def calibrate() -> float:
    """How slow the machine runs Python now, relative to the reference.

    Two fixed pure-Python loops that touch no simulator code: integer
    arithmetic, and dict reads and writes over a growing table, the
    kind of work the simulator does.  Each is timed as the median of a
    few short samples and divided by the reference machine's time; the
    result is the geometric mean of the two ratios (1.0 on the
    reference machine, 1.25 on one that runs Python 25% slower).
    """
    arith = _median_time(_arith_loop) / CAL_ARITH_REF_S
    table = _median_time(_dict_loop) / CAL_DICT_REF_S
    return (arith * table) ** 0.5


@dataclass
class Cell:
    """One engine's workload call inside a repetition."""

    label: str
    #: Simulated ops offered (closed loop: completed reads + writes).
    attempted: int = 0
    #: Simulated reads + writes completed.
    completed: int = 0
    #: Output digest: op counts plus a hash of the lossless result dict.
    digest: str = ""
    #: Why the cell failed; empty when it passed every check.
    errors: list[str] = field(default_factory=list)
    result: object = None
    #: Wall seconds of the call, and of its set-up before the first tick.
    wall_s: float = 0.0
    setup_s: float = 0.0
    #: Mean :func:`calibrate` slowness just before and just after the
    #: call (0 when the repetition ran without calibration).
    slowness: float = 0.0

    @property
    def failed(self) -> int:
        return self.attempted if self.errors else 0

    @property
    def to_ref(self) -> float:
        """Reference-machine seconds per wall second during this call."""
        return 1.0 / self.slowness if self.slowness else 1.0


@dataclass
class Rep:
    """One repetition of a workload: its cells and headline values."""

    cells: list[Cell]
    #: The deterministic ``sim.*`` metrics of this repetition.
    sim: dict[str, float]
    #: Inputs the cross-checks read (the engine setups built).
    setups: list = field(default_factory=list)
    tick_walls_s: list[float] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(cell.wall_s for cell in self.cells)

    @property
    def setup_s(self) -> float:
        return sum(cell.setup_s for cell in self.cells)

    @property
    def ref_wall_s(self) -> float:
        """Wall seconds scaled to the reference machine's speed."""
        return sum(cell.wall_s * cell.to_ref for cell in self.cells)

    @property
    def ref_setup_s(self) -> float:
        return sum(cell.setup_s * cell.to_ref for cell in self.cells)

    @property
    def completed(self) -> int:
        return sum(cell.completed for cell in self.cells)

    @property
    def attempted(self) -> int:
        return sum(cell.attempted for cell in self.cells)

    @property
    def failed(self) -> int:
        return sum(cell.failed for cell in self.cells)

    @property
    def sim_ops_per_s(self) -> float:
        return self.completed / self.wall_s

    @property
    def ref_sim_ops_per_s(self) -> float:
        return self.completed / self.ref_wall_s

    def release(self) -> None:
        """Drop the results and engines once digests and checks are done.

        Later repetitions then start from the heap a fresh process has,
        instead of paying garbage-collector passes over earlier ones.
        """
        for cell in self.cells:
            cell.result = None
        self.setups = []


def digest(completed: int, payload: dict) -> str:
    """Op count plus a SHA-256 of the result's lossless dict."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return f"{completed}:{hashlib.sha256(text.encode()).hexdigest()}"


class SetupProbe:
    """Times the set-up calls a workload makes and keeps what they built.

    Spans over :func:`repro.sim.experiment.build_engine` and
    :func:`~repro.sim.experiment.preload` (the calls ``execute`` makes
    before the first tick) and :func:`repro.serve.service.generate_arrivals`
    (whose result sizes each cluster cell's arrival stream).  Three calls
    per cell, so the probe stays on in untraced runs.
    """

    def __init__(self) -> None:
        self.tracer = Tracer()

    def install(self) -> None:
        import repro.serve.service as service
        import repro.sim.experiment as experiment

        tracer = self.tracer
        tracer.wrap(
            experiment,
            "build_engine",
            "setup",
            lambda args, kwargs, setup: tracer.keep("setups", setup),
        )
        tracer.wrap(experiment, "preload", "setup")
        tracer.wrap(
            service,
            "generate_arrivals",
            "arrivals",
            lambda args, kwargs, stream: tracer.keep("streams", len(stream)),
        )

    def uninstall(self) -> None:
        self.tracer.uninstall()

    def reset(self) -> None:
        self.tracer.clear()

    @property
    def setup_s(self) -> float:
        return sum(self.tracer.durations("setup"))

    @property
    def setups(self) -> list:
        return self.tracer.kept["setups"]

    @property
    def stream_sizes(self) -> list[int]:
        return self.tracer.kept["streams"]


class Calibrator:
    """Calibrates between calls, so each call has a sample on both sides."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.last = calibrate() if enabled else 0.0

    def around(self, cell: Cell) -> Cell:
        if self.enabled:
            after = calibrate()
            cell.slowness = (self.last + after) / 2
            self.last = after
        return cell


def _failed(label: str, exc: BaseException, wall_s: float) -> Cell:
    traceback.print_exception(exc, file=sys.stderr)
    return Cell(label=label, attempted=1, errors=[f"raised {exc!r}"], wall_s=wall_s)


def closed_rep(
    seed: int, scan_mode: bool, probe: SetupProbe, calibrator: Calibrator
) -> Rep:
    """The three closed-loop cells, each one ``run_sweep(jobs=1)`` call."""
    from repro.sim.sweep import expand_grid, run_sweep

    duration = CLOSED_SCAN_DURATION_S if scan_mode else CLOSED_POINT_DURATION_S
    specs = expand_grid(
        CLOSED_ENGINES,
        seeds=(seed,),
        scale=SCALE,
        duration_s=duration,
        scan_mode=scan_mode,
    )
    cells = []
    results = {}
    setups = []
    for spec in specs:
        probe.reset()
        began = time.perf_counter()
        try:
            outcome = run_sweep([spec], jobs=1)
        except Exception as exc:  # A raising cell fails its own ops.
            wall = time.perf_counter() - began
            cells.append(calibrator.around(_failed(spec.engine, exc, wall)))
            continue
        wall = time.perf_counter() - began
        result = outcome.outcomes[0].result
        completed = result.reads_completed + result.writes_applied
        results[spec.engine] = result
        setups.extend(probe.setups)
        cell = Cell(
            label=spec.engine,
            attempted=completed,
            completed=completed,
            result=result,
            wall_s=wall,
            setup_s=probe.setup_s,
        )
        cells.append(calibrator.around(cell))
    sim = {}
    if "lsbm" in results and "leveldb" in results:
        lsbm, leveldb = results["lsbm"], results["leveldb"]
        sim = {
            "sim.lsbm_hit_ratio": lsbm.mean_hit_ratio(),
            "sim.lsbm_vs_leveldb_reads_x": lsbm.reads_completed
            / leveldb.reads_completed,
            "sim.lsbm_goodput_qps": lsbm.mean_throughput(),
            "sim.lsbm_read_p99_s": lsbm.latency_percentile_s(99),
        }
    return Rep(cells, sim, setups=setups)


def cluster_spec(engine: str, seed: int):
    from repro.cluster.spec import ClusterSpec

    return ClusterSpec(
        engine=engine,
        num_shards=2,
        partitioner="range",
        scale=SCALE,
        duration_s=CLUSTER_DURATION_S,
        seed=seed,
        read_rate_qps=CLUSTER_READ_QPS,
        write_rate_qps=CLUSTER_WRITE_QPS,
        split_at_s=CLUSTER_DURATION_S // 2,
        verify=True,
        controller="rules",
    )


def cluster_checks(result, stream_size: int) -> list[str]:
    """The split run's own correctness conditions."""
    errors = []
    verify = result.verify or {}
    if verify.get("read_mismatches", 1) != 0:
        errors.append(f"oracle read mismatches: {verify}")
    if verify.get("reads_checked", 0) != result.reads_completed:
        errors.append(
            f"oracle checked {verify.get('reads_checked')} of "
            f"{result.reads_completed} reads"
        )
    migration = result.migration
    if migration is None or migration.entries <= 0:
        errors.append(f"no migration happened: {migration}")
    arrived = sum(
        stats.arrived
        for shard in result.shards
        for stats in shard.class_stats.values()
    )
    if arrived != stream_size:
        errors.append(
            f"arrivals not conserved: {arrived} arrived of {stream_size}"
        )
    return errors


def cluster_rep(
    seed: int, probe: SetupProbe, calibrator: Calibrator, on_tick=None
) -> Rep:
    """One verified split run per engine through ``run_coordinated``."""
    from repro.cluster.run import run_coordinated

    cells: list[Cell] = []
    results = {}
    setups = []
    for engine in CLUSTER_ENGINES:
        spec = cluster_spec(engine, seed)
        probe.reset()
        attached: list[float] = []

        def attach(session, shard, attached=attached):
            if not attached:
                attached.append(time.perf_counter())

        began = time.perf_counter()
        try:
            result = run_coordinated(spec, on_tick=on_tick, attach=attach)
        except Exception as exc:  # A raising cell fails its own ops.
            wall = time.perf_counter() - began
            cells.append(calibrator.around(_failed(engine, exc, wall)))
            continue
        wall = time.perf_counter() - began
        setups.extend(probe.setups)
        completed = result.reads_completed + result.writes_applied
        stream = probe.stream_sizes[0] if probe.stream_sizes else 0
        results[engine] = result
        cell = Cell(
            label=engine,
            attempted=max(stream, 1),
            completed=completed,
            errors=cluster_checks(result, stream),
            result=result,
            wall_s=wall,
            setup_s=attached[0] - began,
        )
        cells.append(calibrator.around(cell))
    sim = {}
    if len(results) == len(CLUSTER_ENGINES):
        lsbm, leveldb = results["lsbm"], results["leveldb"]
        sim = {
            "sim.lsbm_hit_ratio": sum(
                shard.mean_hit_ratio() for shard in lsbm.shards
            )
            / len(lsbm.shards),
            "sim.lsbm_vs_leveldb_reads_x": lsbm.reads_completed
            / leveldb.reads_completed,
            "sim.lsbm_goodput_qps": lsbm.goodput_qps(),
            "sim.lsbm_read_p99_s": lsbm.read_percentile_ms(99) / 1000.0,
        }
    return Rep(cells, sim, setups=setups)


def seal(rep: Rep) -> Rep:
    """Digest every cell's output (kept out of the timed and traced call)."""
    for cell in rep.cells:
        if cell.result is not None:
            cell.digest = digest(cell.completed, cell.result.to_dict())
    return rep


def run_rep(
    workload: str,
    seed: int,
    probe: SetupProbe,
    on_tick=None,
    calibrated: bool = False,
) -> Rep:
    """One repetition; ``calibrated`` samples machine speed around each call."""
    calibrator = Calibrator(calibrated)
    if workload == "closed-point":
        return closed_rep(seed, False, probe, calibrator)
    if workload == "closed-scan":
        return closed_rep(seed, True, probe, calibrator)
    if workload == "cluster-split":
        return cluster_rep(seed, probe, calibrator, on_tick=on_tick)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
