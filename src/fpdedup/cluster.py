"""The cluster table: index key text -> ordered list of record ids.

Built in a single pass over (record_id, key) pairs; lookup is expected
constant time. Bucketing relies on Python's built-in string-keyed dict.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

from .grid import IndexKey
from .signature import _read_text, check_record_ids

TABLE_FORMAT_HEADER = "fpdedup-cluster-table v1"


class DuplicateRecordIdError(ValueError):
    """A record id appeared more than once while building a table."""


@dataclass
class ClusterTable:
    """Buckets of record ids sharing one index key, in insertion order."""

    buckets: dict[str, list[str]] = field(default_factory=dict)
    size: int = 0

    def lookup(self, key: IndexKey | str) -> list[str]:
        """The bucket for a key, or an empty list when absent."""
        key_text = key.key_text if isinstance(key, IndexKey) else key
        return self.buckets.get(key_text, [])

    def max_bucket_size(self) -> int:
        return max(map(len, self.buckets.values()), default=0)


def build_table(entries: Iterable[tuple[str, str]]) -> ClusterTable:
    """Load a cluster table from (record_id, key_text) pairs in one pass.

    Bucket lists preserve input order. Raises DuplicateRecordIdError,
    naming the offending id, if a record id repeats.
    """
    buckets: dict[str, list[str]] = {}
    seen: set[str] = set()
    for record_id, key_text in entries:
        if record_id in seen:
            raise DuplicateRecordIdError(f"duplicate record id {record_id!r}")
        seen.add(record_id)
        buckets.setdefault(key_text, []).append(record_id)
    return ClusterTable(buckets, len(seen))


# ---------------------------------------------------------------------------
# Persistence: versioned line-oriented text, human-diffable


def save_table(table: ClusterTable, path: str | Path) -> None:
    """Write ``key_text<TAB>id1,id2,...`` lines under a version header."""
    check_record_ids(chain.from_iterable(table.buckets.values()))
    lines = [TABLE_FORMAT_HEADER]
    for key_text, ids in table.buckets.items():
        lines.append(f"{key_text}\t{','.join(ids)}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_table(path: str | Path) -> ClusterTable:
    """Read a table written by save_table; lossless including order.

    The records go through build_table, so a record id listed twice
    (for example in a repeated bucket line) raises
    DuplicateRecordIdError; an empty record id raises ValueError.
    """
    text = _read_text(Path(path))
    lines = text.splitlines()
    if not lines or lines[0] != TABLE_FORMAT_HEADER:
        raise ValueError(f"{path}: not a cluster table file (missing {TABLE_FORMAT_HEADER!r})")

    def entries() -> Iterator[tuple[str, str]]:
        for line_no, line in enumerate(lines[1:], start=2):
            if not line:
                continue
            try:
                key_text, joined = line.split("\t")
            except ValueError:
                raise ValueError(f"{path}:{line_no}: expected 'key<TAB>ids'") from None
            for record_id in joined.split(","):
                if not record_id:
                    raise ValueError(f"{path}:{line_no}: empty record id")
                yield record_id, key_text

    try:
        return build_table(entries())
    except DuplicateRecordIdError as exc:
        raise DuplicateRecordIdError(f"{path}: {exc}") from None
