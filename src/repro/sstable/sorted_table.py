"""Sorted tables (Section II-A).

"The data in each of those levels are organized as one or multiple sorted
structures ... called sorted tables.  Each sorted table is a B-tree-like
directory structure."  A sorted table here is an ordered collection of
non-overlapping files with binary-search access by key and by range.

The same class backs both the underlying LSM-tree's runs and the
compaction-buffer lists; the only compaction-buffer peculiarity is that
member files may carry the ``removed`` marker (data gone, key range kept),
which lookups surface to the caller instead of hiding — Algorithms 3/4
must *stop* when they meet a removed file.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator

from repro.errors import TableError
from repro.sstable.entry import Entry
from repro.sstable.sstable import SSTableFile


class SortedTable:
    """An ordered, non-overlapping collection of files."""

    __slots__ = ("_files", "_max_keys", "_size_cache", "_size_epoch")

    def __init__(self, files: Iterable[SSTableFile] = ()) -> None:
        self._files: list[SSTableFile] = []
        self._max_keys: list[int] = []
        # ``size_kb`` is read on nearly every engine operation (gear
        # scheduling, pacing, sampling) but membership changes only at
        # compaction boundaries, so the sum is cached.  Two things
        # invalidate it: our own mutators (set the cache to None) and a
        # member being marked removed externally, which bumps the global
        # ``SSTableFile.removal_epoch`` the cache is keyed on.
        self._size_cache: int | None = None
        self._size_epoch: int = -1
        for file in files:
            self.append(file)

    # ------------------------------------------------------------------
    # Mutation (compactions install/remove whole files).
    # ------------------------------------------------------------------
    def append(self, file: SSTableFile) -> None:
        """Add ``file`` at the high end (files arrive in key order)."""
        if self._files and file.min_key <= self._files[-1].max_key:
            raise TableError(
                f"file {file.file_id} overlaps the table tail "
                f"({file.min_key} <= {self._files[-1].max_key})"
            )
        self._files.append(file)
        self._max_keys.append(file.max_key)
        self._size_cache = None

    def remove(self, file: SSTableFile) -> None:
        """Detach ``file`` from the table (it keeps its own state)."""
        try:
            position = self._files.index(file)
        except ValueError:
            raise TableError(f"file {file.file_id} not in table") from None
        del self._files[position]
        del self._max_keys[position]
        self._size_cache = None

    def replace_range(
        self, old: list[SSTableFile], new: list[SSTableFile]
    ) -> None:
        """Atomically substitute a contiguous run of files.

        This is the install step of a compaction: the overlapping input
        files ``old`` leave the table and the freshly written ``new`` files
        take their place.
        """
        if not old:
            for file in new:
                self.insert_sorted(file)
            return
        start = self._files.index(old[0])
        if self._files[start : start + len(old)] != old:
            raise TableError("replace_range: old files are not contiguous")
        self._files[start : start + len(old)] = new
        self._max_keys[start : start + len(old)] = [f.max_key for f in new]
        self._size_cache = None
        self._check_sorted_around(start - 1, start + len(new))

    def insert_sorted(self, file: SSTableFile) -> None:
        """Insert ``file`` at its key-order position."""
        position = bisect_left(self._max_keys, file.min_key)
        self._files.insert(position, file)
        self._max_keys.insert(position, file.max_key)
        self._size_cache = None
        self._check_sorted_around(position - 1, position + 1)

    def pop_first(self) -> SSTableFile:
        """Remove and return the file with the smallest keys."""
        if not self._files:
            raise TableError("pop from an empty sorted table")
        self._max_keys.pop(0)
        self._size_cache = None
        return self._files.pop(0)

    def _check_sorted(self) -> None:
        for left, right in zip(self._files, self._files[1:]):
            if left.max_key >= right.min_key:
                raise TableError(
                    f"files {left.file_id} and {right.file_id} overlap"
                )

    def _check_sorted_around(self, lo: int, hi: int) -> None:
        """Validate ordering across the just-edited slice ``[lo, hi]``.

        A local edit can only introduce overlaps between the new members
        and each other or their immediate neighbours, so checking the
        touched window (inclusive of one neighbour on each side) gives
        the same protection as the full :meth:`_check_sorted` walk
        without re-scanning hundreds of untouched files per compaction.
        """
        files = self._files
        lo = max(lo, 0)
        hi = min(hi, len(files) - 1)
        for position in range(lo, hi):
            left = files[position]
            right = files[position + 1]
            if left.max_key >= right.min_key:
                raise TableError(
                    f"files {left.file_id} and {right.file_id} overlap"
                )

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._files)

    def __bool__(self) -> bool:
        return bool(self._files)

    def __iter__(self) -> Iterator[SSTableFile]:
        return iter(self._files)

    @property
    def files(self) -> list[SSTableFile]:
        return list(self._files)

    @property
    def size_kb(self) -> int:
        """Live data size (removed markers contribute nothing)."""
        epoch = SSTableFile.removal_epoch
        if self._size_cache is None or self._size_epoch != epoch:
            self._size_cache = sum(
                f.size_kb for f in self._files if not f.removed
            )
            self._size_epoch = epoch
        return self._size_cache

    @property
    def min_key(self) -> int | None:
        return self._files[0].min_key if self._files else None

    @property
    def max_key(self) -> int | None:
        return self._files[-1].max_key if self._files else None

    # ------------------------------------------------------------------
    # Lookups.
    # ------------------------------------------------------------------
    def find_file(self, key: int) -> SSTableFile | None:
        """The file whose range covers ``key`` (may carry ``removed``)."""
        max_keys = self._max_keys
        position = bisect_left(max_keys, key)
        if position == len(max_keys):
            return None
        file = self._files[position]
        # bisect_left guarantees key <= file.max_key here, so covering
        # reduces to the lower bound.
        return file if file.min_key <= key else None

    def files_overlapping(self, low: int, high: int) -> list[SSTableFile]:
        """All files intersecting ``[low, high]`` in key order."""
        if high < low:
            return []
        max_keys = self._max_keys
        start = bisect_left(max_keys, low)
        # Files are disjoint and sorted, so the overlap is one slice.  It
        # ends at the first file reaching ``high``, which belongs to it
        # when it starts at or below ``high``; every later file starts
        # past that file's max key.
        end = bisect_left(max_keys, high, start)
        if end < len(max_keys) and self._files[end].min_key <= high:
            end += 1
        return self._files[start:end]

    def entries(self) -> Iterator[Entry]:
        """All live entries in key order (skips removed markers)."""
        for file in self._files:
            if not file.removed:
                yield from file.entries()
