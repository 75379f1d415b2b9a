"""In-memory span tracer that wraps a program's entry points from outside.

The benchmark's traced run installs a :class:`Tracer` over public
methods and module-level functions of each layer *before* anything is
built, runs one workload call, and uninstalls it again.  Every wrapped
call records one span — name, start, end and the enclosing span — in
flat arrays, so a million spans cost a few tens of MB and no per-span
objects.  Counting hooks see each call's arguments and return value, so
counts are taken where the work happens.

A re-entrant call under a span of the same name (an engine's ``get``
delegating to its base class, a cache method calling another) records
no second span and fires no second count: one logical call is one span.

Self time is a span's duration minus the durations of its direct
children (:func:`self_times`); the workload call itself is the root, so
the self times of all spans sum to the root's duration exactly.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable

#: Parent index of a span opened outside every other span.
NO_PARENT = -1


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        #: Counters filled by wrapper hooks: name -> float.
        self.counts: dict[str, float] = defaultdict(float)
        #: Objects hooks keep for measuring after the run: name -> list.
        self.kept: dict[str, list] = defaultdict(list)
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Spans.
    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
        return index

    def run(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` under a span called ``name`` (the root span)."""
        return self._traced(fn, self.name_id(name), None)(*args, **kwargs)

    def _traced(self, fn: Callable, nid: int, hook) -> Callable:
        stack = self._stack
        names = self.span_name
        parents = self.parent
        starts = self.start
        ends = self.end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if stack and names[stack[-1]] == nid:
                return fn(*args, **kwargs)
            index = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else NO_PARENT)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            began = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = began
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    def _counted(self, fn: Callable, hook) -> Callable:
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    # ------------------------------------------------------------------
    # Installing wrappers.
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str | None,
        hook: Callable | None = None,
        consume: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a traced version.

        ``name`` is the span name; ``None`` installs a count-only
        wrapper (``hook`` required) that records no span.  ``hook(args,
        kwargs, result)`` runs after each outermost call.  ``consume``
        drains an iterator result inside the span (for generators whose
        work would otherwise run after the span closed) and hands the
        caller an iterator over the drained items.  Only attributes the
        owner defines itself are wrapped, so a subclass never wraps the
        method it inherits twice.
        """
        if attr not in vars(owner):
            raise AttributeError(f"{owner!r} defines no {attr!r}")
        original = vars(owner)[attr]
        kind = None
        fn = original
        if isinstance(original, (classmethod, staticmethod)):
            kind = type(original)
            fn = original.__func__
        if consume:
            producer = fn

            @functools.wraps(producer)
            def fn(*args, **kwargs):
                return iter(list(producer(*args, **kwargs)))

        if name is None:
            if hook is None:
                raise ValueError("a count-only wrapper needs a hook")
            replacement = self._counted(fn, hook)
        else:
            replacement = self._traced(fn, self.name_id(name), hook)
        if kind is not None:
            replacement = kind(replacement)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def keep(self, name: str, item: object) -> None:
        self.kept[name].append(item)

    def clear(self) -> None:
        """Forget every span, count and kept object; wrappers stay."""
        for values in (self.span_name, self.parent, self.start, self.end):
            del values[:]
        self.counts.clear()
        self.kept.clear()

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Analysis and output.
    # ------------------------------------------------------------------
    def self_by_name(self) -> dict[str, float]:
        """Summed self time per span name."""
        totals = [0.0] * len(self.names)
        spans = self_times(self.parent, self.start, self.end)
        for nid, seconds in zip(self.span_name, spans):
            totals[nid] += seconds
        return {name: totals[nid] for nid, name in enumerate(self.names)}

    def durations(self, name: str) -> list[float]:
        """Inclusive durations of every span called ``name``."""
        nid = self._ids.get(name)
        if nid is None:
            return []
        return [
            end - start
            for span_nid, start, end in zip(self.span_name, self.start, self.end)
            if span_nid == nid
        ]

    def child_durations(self, name: str, parent_name: str) -> list[float]:
        """Durations of ``name`` spans whose parent is a ``parent_name`` span."""
        nid = self._ids.get(name)
        pid = self._ids.get(parent_name)
        if nid is None or pid is None:
            return []
        names = self.span_name
        return [
            self.end[i] - self.start[i]
            for i, span_nid in enumerate(names)
            if span_nid == nid
            and self.parent[i] != NO_PARENT
            and names[self.parent[i]] == pid
        ]

    def write(self, path: Path) -> Path:
        """Write the spans out: a JSON header line, then the raw arrays.

        The header names the arrays, their type codes and lengths; each
        array follows as machine-order bytes (``array.tofile``), which
        :func:`load_spans` reads back.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = {
            "span_name": self.span_name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
        }
        header = {
            "names": self.names,
            "arrays": [
                [key, values.typecode, len(values)]
                for key, values in arrays.items()
            ],
        }
        with path.open("wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for values in arrays.values():
                values.tofile(handle)
        return path


def self_times(parents, starts, ends) -> list[float]:
    """Self time of each span: its duration minus its children's.

    ``parents[i]`` is the index of span ``i``'s parent (or
    :data:`NO_PARENT`).  Spans of one thread nest, so children never
    overlap and subtracting their durations leaves exactly the time the
    parent spent outside every child.
    """
    result = [end - start for start, end in zip(starts, ends)]
    for index, parent in enumerate(parents):
        if parent != NO_PARENT:
            result[parent] -= ends[index] - starts[index]
    return result


def load_spans(path: Path) -> dict[str, object]:
    """Read a file written by :meth:`Tracer.write`."""
    with Path(path).open("rb") as handle:
        header = json.loads(handle.readline())
        out: dict[str, object] = {"names": header["names"]}
        for key, typecode, length in header["arrays"]:
            values = array(typecode)
            values.fromfile(handle, length)
            out[key] = values
    return out
