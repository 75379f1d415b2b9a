"""Which entry points belong to which layer, and the per-layer ledger.

:func:`install` wraps the public entry points of every layer the three
workloads run (the classes they instantiate: the FIFO scheduler, the
range partitioner and split router, the ``rules`` controller), from
this file, before anything is built.  Span names
are the layer metric prefixes (``lsm.get``, ``cache``, ``serve.step``,
...), so a layer's self time is the summed self time of its spans.

:func:`layer_metrics` turns one traced repetition into the per-layer
metrics, and :func:`cross_checks` compares the wrappers' counts with
the program's own counters.  A hot path that bypasses a wrapped entry
(say a fused descent probing Bloom filters without going through the
bloom module) shows up there as a mismatch instead of a silent gap.
"""

from __future__ import annotations

import json
import statistics

from perfbench.tracer import Tracer

#: Span names whose self time is reported as ``<name>.self_s``.
SELF_TIMED = (
    "sim.driver",
    "sim.kernel",
    "sim.transport",
    "workload",
    "lsm.get",
    "lsm.scan",
    "lsm.put",
    "lsm.tick",
    "core.trim",
    "sstable.build",
    "sstable.merge",
    "bloom",
    "cache",
    "storage",
    "serve.step",
    "serve.scheduler",
    "serve.admission",
    "cluster.route",
    "check.oracle",
    "control.tick",
    "control.resize",
    "obs.bus",
    "obs.snapshot",
)

#: Spans reported by inclusive duration as ``<name>.s``.
INCLUSIVE = ("serve.arrivals", "cluster.migrate", "setup.preload")

#: The root span around one workload call.
ROOT = "bench.workload"


def _own(cls, attr: str) -> bool:
    """Whether ``cls`` itself defines a concrete ``attr``."""
    member = vars(cls).get(attr)
    return member is not None and not getattr(
        member, "__isabstractmethod__", False
    )


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points; :meth:`Tracer.uninstall` undoes it."""
    import repro.cluster.run as cluster_run
    import repro.cluster.shard as cluster_shard
    import repro.core.lsbm as core_lsbm
    import repro.lsm.base as lsm_base
    import repro.lsm.blsm as lsm_blsm
    import repro.lsm.leveldb as lsm_leveldb
    import repro.serve.service as service
    import repro.sim.experiment as experiment
    import repro.sstable.block as sstable_block
    from repro.bloom.bloom import BloomFilter
    from repro.cache.db_cache import DBBufferCache
    from repro.cache.policy import LRUPolicy
    from repro.check.oracle import KVOracle
    from repro.cluster.ring import RangePartitioner, SplitRouter
    from repro.control.controller import RulesController
    from repro.core.lsbm import LSbMTree
    from repro.core.trim import TrimProcess
    from repro.lsm.base import LSMEngine
    from repro.lsm.blsm import BLSMTree
    from repro.lsm.leveldb import LevelDBTree
    from repro.obs.events import EventBus
    from repro.obs.metrics import MetricsRegistry
    from repro.serve.admission import DEFER, AdmissionController
    from repro.serve.scheduler import FIFOScheduler
    from repro.sim.driver import MixedReadWriteDriver
    from repro.sim.kernel import ReadKernel
    from repro.sim.metrics import RunResult
    from repro.sstable.builder import TableBuilder
    from repro.storage.disk import SimulatedDisk
    from repro.workload.ycsb import RangeHotWorkload

    count = tracer.count
    wrap = tracer.wrap

    def on_kernel(args, kwargs, result):
        count("sim.kernel.reads", result[0])

    def on_to_dict(args, kwargs, result):
        count("sim.transport.calls")
        tracer.keep("sim.transport", result)

    def on_get(args, kwargs, result):
        cost = result.cost
        count("lsm.get.calls")
        count("lsm.get.tables", cost.tables_checked)
        count("lsm.get.bloom_probes", cost.bloom_probes)
        count(
            "lsm.get.block_reads",
            cost.cache_hit_blocks + cost.os_hit_blocks + cost.disk_random_blocks,
        )

    def on_scan(args, kwargs, result):
        count("lsm.scan.calls")

    def on_put(args, kwargs, result):
        count("lsm.put.calls")

    def on_trim(args, kwargs, result):
        count("core.trim.runs")

    def on_build(args, kwargs, result):
        kb = float(sum(file.size_kb for file in result))
        cause = kwargs.get("cause", "unattributed")
        count("sstable.build.calls")
        count("sstable.build.kb", kb)
        if kwargs.get("charge_write", True):
            count(f"sstable.build.kb:{cause}", kb)

    def on_probe(args, kwargs, result):
        count("bloom.probes")

    def on_access(args, kwargs, result):
        count("cache.db.accesses")
        count("cache.db.hits", result)

    def on_access_many(args, kwargs, result):
        count("cache.db.accesses", len(args[1]))
        count("cache.db.hits", result)

    def on_invalidate(args, kwargs, result):
        count("cache.db.invalidations", result)

    def on_evict(args, kwargs, result):
        count("cache.db.evictions")

    def on_bg_write(args, kwargs, result):
        count("storage.bg_write_kb", args[1] if len(args) > 1 else kwargs["size_kb"])

    def on_random_read(args, kwargs, result):
        count(
            "storage.random_read_blocks",
            args[1] if len(args) > 1 else kwargs.get("blocks", 1),
        )

    def on_decide(args, kwargs, result):
        count("serve.admission.decisions")
        if result[0] == DEFER:
            count("serve.admission.defers")

    def on_oracle_read(args, kwargs, result):
        count("check.reads_checked")

    def on_control(args, kwargs, result):
        count("control.decisions", len(result))

    def on_emit(args, kwargs, result):
        if args[0].active:
            count("obs.events")

    def on_count(args, kwargs, result):
        count("obs.events")

    # sim: driver loop, read kernel, sweep transport.
    wrap(MixedReadWriteDriver, "run", "sim.driver")
    wrap(ReadKernel, "run_tick", "sim.kernel", on_kernel)
    wrap(RunResult, "to_dict", "sim.transport", on_to_dict)
    wrap(RunResult, "from_dict", "sim.transport")
    # workload: key and range draws.
    for attr in ("next_write_key", "next_read_key", "next_scan_range"):
        wrap(RangeHotWorkload, attr, "workload")
    # lsm (and core.lsbm's overrides): read, scan, write, tick, preload.
    hooks = {"get": on_get, "scan": on_scan, "put": on_put}
    names = {
        "get": "lsm.get",
        "scan": "lsm.scan",
        "put": "lsm.put",
        "tick": "lsm.tick",
        "bulk_load": "setup.preload",
        "set_memtable_budget": "control.resize",
    }
    for cls in (LSMEngine, LevelDBTree, BLSMTree, LSbMTree):
        for attr, name in names.items():
            if _own(cls, attr):
                wrap(cls, attr, name, hooks.get(attr))
    # core: the LSbM trim pass.
    wrap(TrimProcess, "run", "core.trim", on_trim)
    # sstable: table builds and merges (scan merges are generators, so
    # they are drained inside the span).
    wrap(TableBuilder, "build", "sstable.build", on_build)
    wrap(lsm_base, "merge_with_obsolete_count", "sstable.merge")
    for module in (lsm_blsm, lsm_leveldb, core_lsbm):
        wrap(module, "merge_entries", "sstable.merge", consume=True)
    # bloom: every probe site binds ``probe_mask`` by name.
    for module in (lsm_base, lsm_blsm, lsm_leveldb, core_lsbm, sstable_block):
        wrap(module, "probe_mask", "bloom", on_probe)
    wrap(BloomFilter, "may_contain", "bloom", on_probe)
    # cache: the DB block cache's access, insert and invalidation paths.
    wrap(DBBufferCache, "access", "cache", on_access)
    wrap(DBBufferCache, "access_many", "cache", on_access_many)
    wrap(DBBufferCache, "insert", "cache")
    wrap(DBBufferCache, "invalidate_file", "cache", on_invalidate)
    wrap(DBBufferCache, "resize", "control.resize")
    wrap(LRUPolicy, "evict", None, on_evict)
    # storage: the simulated disk.
    for attr in (
        "allocate",
        "free",
        "background_read",
        "foreground_sequential_read",
        "utilization",
        "note_temp_space",
        "tick_temp_space_kb",
    ):
        wrap(SimulatedDisk, attr, "storage")
    wrap(SimulatedDisk, "background_write", "storage", on_bg_write)
    wrap(
        SimulatedDisk,
        "foreground_random_read",
        "storage",
        on_random_read,
    )
    # serve: the tick, scheduler, admission and arrival generation.
    wrap(service.ServiceSimulator, "step", "serve.step")
    for attr in ("offer", "pop", "drain"):
        wrap(FIFOScheduler, attr, "serve.scheduler")
    wrap(AdmissionController, "decide", "serve.admission", on_decide)
    wrap(service, "generate_arrivals", "serve.arrivals")
    # cluster: routing and the migration.
    for cls in (RangePartitioner, SplitRouter):
        wrap(cls, "shard_for", "cluster.route")
    wrap(cluster_run, "_migrate", "cluster.migrate")
    # check: the oracle shadow.
    wrap(cluster_run.OracleObserver, "on_read", "check.oracle", on_oracle_read)
    wrap(cluster_run.OracleObserver, "on_write", "check.oracle")
    for attr in ("put", "get"):
        wrap(KVOracle, attr, "check.oracle")
    # control: the controller tick (resizes are wrapped above).
    wrap(RulesController, "tick", "control.tick", on_control)
    # obs: the event bus and registry snapshots.
    wrap(EventBus, "emit", "obs.bus", on_emit)
    wrap(EventBus, "count", "obs.bus", on_count)
    wrap(EventBus, "flush_buffer", "obs.bus")
    wrap(MetricsRegistry, "snapshot", "obs.snapshot")
    # set-up: engine builds and the serve/shard preparation.
    wrap(experiment, "build_engine", "setup.build")
    wrap(cluster_shard, "prepare_serve", "setup.prepare")


def _p(values: list[float], percentile: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[
        percentile - 1
    ]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def engines_of(rep) -> list:
    return [setup.engine for setup in rep.setups]


def layer_metrics(tracer: Tracer, rep) -> dict[str, float]:
    """The per-layer metrics of one traced repetition."""
    counts = tracer.counts
    self_s = tracer.self_by_name()
    out: dict[str, float] = {
        f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_TIMED
    }
    for name in INCLUSIVE:
        out[f"{name}.s"] = sum(tracer.durations(name))
    out["setup.warm.s"] = sum(tracer.child_durations("lsm.get", "setup.prepare"))
    out["sim.kernel.reads"] = counts["sim.kernel.reads"]
    out["sim.transport.bytes"] = float(
        sum(len(json.dumps(payload)) for payload in tracer.kept["sim.transport"])
    )
    out["lsm.get.calls"] = counts["lsm.get.calls"]
    out["lsm.get.tables_per_call"] = _ratio(
        counts["lsm.get.tables"], counts["lsm.get.calls"]
    )
    out["lsm.scan.calls"] = counts["lsm.scan.calls"]
    ticks_ms = [seconds * 1000.0 for seconds in tracer.durations("lsm.tick")]
    out["lsm.tick.wall_ms.p99"] = _p(ticks_ms, 99)
    engines = engines_of(rep)
    user_kb = sum(
        (engine.stats.puts + engine.stats.deletes) * engine.config.pair_size_kb
        for engine in engines
    )
    rewritten_kb = sum(
        kb
        for key, kb in counts.items()
        if key.startswith("sstable.build.kb:")
        and (key.endswith(":flush") or ":compaction" in key)
    )
    out["lsm.compactions"] = float(
        sum(engine.stats.compactions for engine in engines)
    )
    out["lsm.write_amp"] = _ratio(rewritten_kb, user_kb)
    out["lsm.stall_s"] = sum(engine.stats.stall_seconds for engine in engines)
    out["core.trim.runs"] = counts["core.trim.runs"]
    out["sstable.build.calls"] = counts["sstable.build.calls"]
    out["sstable.build.kb"] = counts["sstable.build.kb"]
    out["bloom.probes"] = counts["bloom.probes"]
    out["bloom.negative_ratio"] = _ratio(
        counts["lsm.get.bloom_probes"] - counts["lsm.get.block_reads"],
        counts["lsm.get.bloom_probes"],
    )
    out["cache.db.hit_ratio"] = _ratio(
        counts["cache.db.hits"], counts["cache.db.accesses"]
    )
    out["cache.db.evictions"] = counts["cache.db.evictions"]
    out["cache.db.invalidations"] = counts["cache.db.invalidations"]
    out["storage.bg_write_kb"] = counts["storage.bg_write_kb"]
    out["storage.random_read_blocks"] = counts["storage.random_read_blocks"]
    out["serve.admission.defer_ratio"] = _ratio(
        counts["serve.admission.defers"], counts["serve.admission.decisions"]
    )
    completions = sum(
        stats.completed
        for cell in rep.cells
        for shard in getattr(cell.result, "shards", ())
        for stats in shard.class_stats.values()
    )
    out["serve.offers_per_completion"] = _ratio(
        counts["serve.admission.decisions"], completions
    )
    tick_ms = [seconds * 1000.0 for seconds in rep.tick_walls_s]
    out["cluster.tick_wall_ms.p50"] = _p(tick_ms, 50)
    out["cluster.tick_wall_ms.p99"] = _p(tick_ms, 99)
    out["check.reads_checked"] = counts["check.reads_checked"]
    out["check.read_mismatches"] = float(
        sum(
            (getattr(cell.result, "verify", None) or {}).get("read_mismatches", 0)
            for cell in rep.cells
        )
    )
    out["control.decisions"] = counts["control.decisions"]
    out["obs.events"] = counts["obs.events"]
    root = tracer.durations(ROOT)
    out["trace.unattributed_frac"] = _ratio(self_s.get(ROOT, 0.0), sum(root))
    return out


def cross_checks(tracer: Tracer, rep, workload: str) -> list[dict]:
    """Wrapper counts against the program's counters; one row each."""
    counts = tracer.counts
    engines = engines_of(rep)
    results = [cell.result for cell in rep.cells if cell.result is not None]
    reads = sum(result.reads_completed for result in results)
    rows = []

    def check(name: str, wrapped: float, program: float) -> None:
        rows.append(
            {
                "check": name,
                "wrapped": wrapped,
                "program": program,
                "ok": abs(wrapped - program) <= 1e-6 * max(1.0, abs(program)),
            }
        )

    check(
        "lsm.get.calls == engine stats.gets",
        counts["lsm.get.calls"],
        sum(engine.stats.gets for engine in engines),
    )
    check(
        "lsm.scan.calls == engine stats.scans",
        counts["lsm.scan.calls"],
        sum(engine.stats.scans for engine in engines),
    )
    check(
        "lsm.put.calls == engine stats.puts",
        counts["lsm.put.calls"],
        sum(engine.stats.puts for engine in engines),
    )
    if workload.startswith("closed"):
        path = "lsm.scan.calls" if workload == "closed-scan" else "lsm.get.calls"
        check(
            f"{path} == sim.kernel.reads",
            counts[path],
            counts["sim.kernel.reads"],
        )
        check(
            "sim.kernel.reads == reads_completed",
            counts["sim.kernel.reads"],
            reads,
        )
    check(
        "bloom.probes == ReadCost.bloom_probes of every get",
        counts["bloom.probes"],
        counts["lsm.get.bloom_probes"],
    )
    for field in ("hits", "evictions", "invalidations"):
        key = f"cache.db.{field}"
        check(
            f"{key} == registry snapshot",
            counts[key],
            sum(result.metrics.get(key, 0.0) for result in _shard_results(results)),
        )
    check(
        "cache.db.accesses == registry hits + misses",
        counts["cache.db.accesses"],
        sum(
            result.metrics.get("cache.db.hits", 0.0)
            + result.metrics.get("cache.db.misses", 0.0)
            for result in _shard_results(results)
        ),
    )
    compaction_kb = sum(
        kb
        for key, kb in counts.items()
        if key.startswith("sstable.build.kb:compaction")
    )
    check(
        "sstable.build.kb (compaction causes) == stats.compaction_write_kb",
        compaction_kb,
        sum(engine.stats.compaction_write_kb for engine in engines),
    )
    check(
        "storage.bg_write_kb == disk stats.seq_write_kb",
        counts["storage.bg_write_kb"],
        sum(engine.disk.stats.seq_write_kb for engine in engines),
    )
    check(
        "storage.random_read_blocks == disk stats.random_read_blocks",
        counts["storage.random_read_blocks"],
        sum(engine.disk.stats.random_read_blocks for engine in engines),
    )
    check(
        "core.trim.runs == TrimProcess.runs",
        counts["core.trim.runs"],
        sum(engine.trim.runs for engine in engines if hasattr(engine, "trim")),
    )
    if workload == "cluster-split":
        check(
            "check.reads_checked == ClusterResult.verify",
            counts["check.reads_checked"],
            sum(result.verify["reads_checked"] for result in results),
        )
        check(
            "control.decisions == ServeResult.control_decisions",
            counts["control.decisions"],
            sum(len(shard.control_decisions) for shard in _shard_results(results)),
        )
    return rows


def _shard_results(results: list) -> list:
    """Cluster results flattened to their per-shard serve results."""
    flat = []
    for result in results:
        flat.extend(getattr(result, "shards", None) or [result])
    return flat
