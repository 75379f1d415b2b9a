"""The merge kernel shared by compactions and range scans.

A merge combines several sorted sources into one, keeping only the
newest version of each key (the version with the largest sequence number)
and optionally dropping tombstones — when a compaction's output lands in
the last level no older version can exist below, so the tombstone has
done its job; a range scan drops them because a deleted key is absent.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain

from repro.sstable.entry import Entry, Kind

_DELETE = Kind.DELETE


def merge_entries(
    sources: Iterable[Iterable[Entry]],
    drop_tombstones: bool = False,
) -> list[Entry]:
    """Merge entry sources with newest-wins deduplication.

    Each source holds unique keys; across sources the same key may
    appear with different sequence numbers.  A ``(key, seq)`` pair names
    one write, so copies of it in several sources are equal entries.
    Returns the newest version of every key in ascending key order.

    One C-level sort does the merge: sorting the ``Entry`` tuples orders
    them by key, then by ascending seq, so the last entry of each key is
    its newest version and a dict keyed by key keeps exactly that one.
    """
    entries = list(chain.from_iterable(sources))
    entries.sort()
    newest = {entry.key: entry for entry in entries}
    if drop_tombstones:
        return [entry for entry in newest.values() if entry.kind != _DELETE]
    return list(newest.values())


def merge_with_obsolete_count(
    sources: list[list[Entry]],
    drop_tombstones: bool = False,
) -> tuple[list[Entry], int]:
    """Merge ``sources`` fully, returning (result, obsolete entry count).

    The obsolete count — how many input entries were shadowed by newer
    versions or dropped as expired tombstones — is what LSbM's freeze
    detector (Section IV-A) reacts to: when a merge into level ``i+1``
    drops data, the level received repeated keys and ``B(i+1)`` must be
    frozen.  ``sources`` must be materialized lists so they can be both
    counted and merged.
    """
    merged = merge_entries(sources, drop_tombstones)
    return merged, sum(map(len, sources)) - len(merged)
