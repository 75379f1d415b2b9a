"""Tests of the benchmark itself: tracer arithmetic, failure accounting,
the metric contract, and a short traced run of each workload shape.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import layers, workloads
from perfbench.run import check_repeats
from perfbench.tracer import NO_PARENT, Tracer, load_spans, self_times
from perfbench.workloads import Cell, Rep

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------------------
# Self time from span trees.
# ----------------------------------------------------------------------
def test_self_time_of_a_synthetic_tree():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    parents = [NO_PARENT, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert self_times(parents, starts, ends) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(parents, starts, ends)) == ends[0] - starts[0]


class Box:
    def outer(self, n):
        return self.inner(n) + self.again(n)

    def inner(self, n):
        return n + 1

    def again(self, n):
        return n if n <= 0 else self.again(n - 1)

    @classmethod
    def make(cls):
        return cls()


def _numbers(n):
    yield from range(n)


def test_tracer_nests_spans_counts_and_restores():
    tracer = Tracer()
    original = Box.__dict__["inner"]
    tracer.wrap(Box, "outer", "outer")
    tracer.wrap(Box, "inner", "inner", lambda a, k, r: tracer.count("inner", r))
    tracer.wrap(Box, "again", "again", lambda a, k, r: tracer.count("again"))
    tracer.wrap(Box, "make", "make")
    try:
        assert tracer.run("root", lambda: Box.make().outer(3)) == 4
    finally:
        tracer.uninstall()
    assert Box.__dict__["inner"] is original
    names = [tracer.names[nid] for nid in tracer.span_name]
    # The recursive ``again`` is one logical call: one span, one count.
    assert names == ["root", "make", "outer", "inner", "again"]
    assert tracer.counts == {"inner": 4, "again": 1}
    parents = [
        tracer.names[tracer.span_name[p]] if p != NO_PARENT else None
        for p in tracer.parent
    ]
    assert parents == [None, "root", "root", "outer", "outer"]
    by_name = tracer.self_by_name()
    assert sum(by_name.values()) == pytest.approx(
        tracer.end[0] - tracer.start[0], abs=1e-12
    )


def test_consume_runs_a_generator_inside_its_span(tmp_path):
    import types

    module = types.ModuleType("fake")
    module.numbers = _numbers
    tracer = Tracer()
    tracer.wrap(module, "numbers", "gen", consume=True)
    result = module.numbers(3)
    tracer.uninstall()
    assert list(result) == [0, 1, 2]
    assert module.numbers is _numbers
    path = tracer.write(tmp_path / "spans.bin")
    loaded = load_spans(path)
    assert loaded["names"] == ["gen"]
    assert list(loaded["parent"]) == [NO_PARENT]
    assert loaded["end"][0] >= loaded["start"][0] > 0


def test_count_only_wrapper_needs_a_hook():
    with pytest.raises(ValueError):
        Tracer().wrap(Box, "inner", None)


# ----------------------------------------------------------------------
# Failure accounting.
# ----------------------------------------------------------------------
def test_a_failing_cell_counts_all_its_ops():
    good = Cell(label="a", attempted=10, completed=10, digest="x")
    bad = Cell(label="b", attempted=7, completed=5, digest="y", errors=["boom"])
    rep = Rep(cells=[good, bad], sim={})
    assert (rep.attempted, rep.failed, rep.completed) == (17, 7, 15)


def test_a_digest_that_changes_between_repeats_fails_the_cell():
    first = Rep([Cell("a", 3, 3, "d1"), Cell("b", 4, 4, "d2")], {})
    second = Rep([Cell("a", 3, 3, "d1"), Cell("b", 4, 4, "XX")], {})
    check_repeats([first, second])
    assert first.failed == 0
    assert second.failed == 4
    assert "differs" in second.cells[1].errors[0]


def test_times_scale_to_the_reference_machine_speed():
    # Half as fast as the reference: 4 wall seconds are 2 reference
    # seconds.
    slow = Cell("a", 10, 10, wall_s=4.0, setup_s=1.0, slowness=2.0)
    uncalibrated = Cell("b", 10, 10, wall_s=1.0, setup_s=0.5)
    rep = Rep([slow, uncalibrated], {})
    assert rep.wall_s == 5.0
    assert rep.ref_wall_s == pytest.approx(3.0)
    assert rep.ref_setup_s == pytest.approx(1.0)
    assert rep.ref_sim_ops_per_s == pytest.approx(20 / 3.0)
    assert workloads.calibrate() > 0


class _Stats:
    def __init__(self, arrived):
        self.arrived = arrived


class _Shard:
    def __init__(self, arrived):
        self.class_stats = {"readers": _Stats(arrived)}


class _Migration:
    entries = 5


class _Cluster:
    def __init__(self, verify, migration, arrivals, reads=4):
        self.verify = verify
        self.migration = migration
        self.shards = [_Shard(n) for n in arrivals]
        self.reads_completed = reads


def test_cluster_checks_catch_each_failure():
    ok = {"reads_checked": 4, "read_mismatches": 0}
    assert workloads.cluster_checks(_Cluster(ok, _Migration(), [3, 4]), 7) == []
    mismatch = {"reads_checked": 4, "read_mismatches": 1}
    errors = workloads.cluster_checks(_Cluster(mismatch, _Migration(), [3, 4]), 7)
    assert len(errors) == 1 and "mismatch" in errors[0]
    errors = workloads.cluster_checks(_Cluster(ok, None, [3, 4]), 7)
    assert len(errors) == 1 and "migration" in errors[0]
    errors = workloads.cluster_checks(_Cluster(ok, _Migration(), [3, 3]), 7)
    assert len(errors) == 1 and "conserved" in errors[0]
    unchecked = {"reads_checked": 3, "read_mismatches": 0}
    errors = workloads.cluster_checks(_Cluster(unchecked, _Migration(), [3, 4]), 7)
    assert len(errors) == 1 and "checked" in errors[0]


# ----------------------------------------------------------------------
# The metric contract.
# ----------------------------------------------------------------------
def test_contract_names_and_units_are_valid():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [w["name"] for w in CONTRACT["workloads"]]
    assert tuple(names) == workloads.WORKLOADS
    for section in ("end_to_end", "per_layer"):
        for metric in CONTRACT[section]:
            assert NAME.match(metric["name"]), metric
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower")
    every = names + [
        m["name"] for s in ("end_to_end", "per_layer") for m in CONTRACT[s]
    ]
    assert len(every) == len(set(every))
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in CONTRACT["end_to_end"]
    )


def test_every_per_layer_metric_is_produced():
    tracer = Tracer()
    rep = Rep(cells=[], sim={})
    produced = set(layers.layer_metrics(tracer, rep)) | {"trace.overhead_x"}
    assert produced == {m["name"] for m in CONTRACT["per_layer"]}


# ----------------------------------------------------------------------
# Short real runs: the wrappers agree with the program's counters and
# leave its results unchanged.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "workload, constant, seconds",
    [
        ("closed-point", "CLOSED_POINT_DURATION_S", 600),
        ("closed-scan", "CLOSED_SCAN_DURATION_S", 300),
        ("cluster-split", "CLUSTER_DURATION_S", 200),
    ],
)
def test_short_traced_run_matches_program_counters(
    monkeypatch, workload, constant, seconds
):
    monkeypatch.setattr(workloads, constant, seconds)
    probe = workloads.SetupProbe()
    probe.install()
    try:
        plain = workloads.seal(workloads.run_rep(workload, 3, probe))
        tracer = Tracer()
        layers.install(tracer)
        try:
            traced = tracer.run(
                layers.ROOT, workloads.run_rep, workload, 3, probe
            )
        finally:
            tracer.uninstall()
        workloads.seal(traced)
    finally:
        probe.uninstall()
    assert plain.failed == 0 and traced.failed == 0
    assert [c.digest for c in plain.cells] == [c.digest for c in traced.cells]
    rows = layers.cross_checks(tracer, traced, workload)
    assert [row for row in rows if not row["ok"]] == []
    metrics = layers.layer_metrics(tracer, traced)
    assert 0.0 <= metrics["trace.unattributed_frac"] < 0.5


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed-point",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
