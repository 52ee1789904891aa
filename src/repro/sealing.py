"""Incremental pickling of append-only logs (DESIGN.md §5.8).

The span buffer and the decision journal only ever grow, so a periodic
checkpoint that re-pickled them whole would cost more at every save.
:func:`seal` cuts such a list into chunks of :data:`CHUNK_ENTRIES`
entries, pickles each *full* chunk exactly once and keeps the bytes in
a caller-owned cache; every later checkpoint reuses those bytes and
pickles only the unsealed tail.  Chunk boundaries are fixed by entry
count, never by when checkpoints happen, so the sealed form of a list
is the same whatever the checkpoint cadence.

Chunking is safe only for entries that are pure data (ints, floats,
strings, dicts of scalars): each chunk has its own pickle memo, so an
object shared between two chunks, or between a chunk and the rest of
the state, would revive as two objects.
"""

from __future__ import annotations

import pickle

__all__ = ["CHUNK_ENTRIES", "PICKLE_PROTOCOL", "seal", "unseal"]

#: Entries per sealed chunk.
CHUNK_ENTRIES = 2048

#: Fixed pickle protocol so checkpoints written by any supported
#: interpreter (3.10–3.12) load on any other.
PICKLE_PROTOCOL = 4


def seal(items: list, cache: list[bytes]) -> tuple[tuple[bytes, ...], list]:
    """Return ``(sealed chunk bytes, unsealed tail)`` for ``items``.

    ``cache`` holds the bytes of the leading full chunks already sealed;
    newly full chunks are pickled and appended to it.  A list that shrank
    below the sealed prefix invalidates the cache.
    """
    n = CHUNK_ENTRIES
    if len(items) < len(cache) * n:
        cache.clear()
    full = len(items) - len(items) % n
    for start in range(len(cache) * n, full, n):
        cache.append(pickle.dumps(items[start : start + n], protocol=PICKLE_PROTOCOL))
    return tuple(cache), items[full:]


def unseal(blobs: tuple[bytes, ...], tail: list) -> tuple[list, list[bytes]]:
    """Inverse of :func:`seal`: return ``(items, cache)``.

    The restored object keeps the blobs it was loaded from as its cache,
    so its next checkpoint is incremental too — unless a chunk does not
    hold exactly :data:`CHUNK_ENTRIES` entries (written under another
    chunk size), in which case the cache starts empty.
    """
    items: list = []
    aligned = True
    for blob in blobs:
        chunk = pickle.loads(blob)
        aligned = aligned and len(chunk) == CHUNK_ENTRIES
        items.extend(chunk)
    items.extend(tail)
    return items, list(blobs) if aligned else []
