"""Sequence primitives: 1-based inclusive slicing, subsequence tests,
next-occurrence tables.

Sequences are plain tuples of small positive integers (letters).  All index
arithmetic in the public functions is 1-based and inclusive at both ends;
negative indices count from the back (-1 is the last element).
"""

from __future__ import annotations

from typing import Iterable, Sequence as Seq

import numpy as np

__all__ = [
    "SliceRangeError",
    "resolve_index",
    "pslice",
    "is_subsequence",
    "elements_after",
    "NextOccurrenceTable",
]


class SliceRangeError(ValueError):
    """Raised when a 1-based slice index is zero, out of range or crossed."""


def resolve_index(raw: int, length: int) -> int:
    """Resolve a 1-based index (negative = from the back) to 1..length."""
    if raw == 0:
        raise SliceRangeError("index 0 is not valid (indices are 1-based)")
    pos = raw if raw > 0 else length + raw + 1
    if not 1 <= pos <= length:
        raise SliceRangeError(
            f"index {raw} resolves to {pos}, outside 1..{length}"
        )
    return pos


def pslice(seq: Seq[int], i: int, j: int) -> tuple[int, ...]:
    """Inclusive slice seq[i..j] with 1-based, possibly negative indices.

    Crossed indices (resolved i > resolved j) are rejected rather than
    producing an empty sequence; the generators never need empty slices and
    rejecting catches transcription bugs early.
    """
    length = len(seq)
    lo = resolve_index(i, length)
    hi = resolve_index(j, length)
    if lo > hi:
        raise SliceRangeError(f"crossed slice: {i} (={lo}) > {j} (={hi})")
    return tuple(seq[lo - 1 : hi])


def is_subsequence(candidate: Iterable[int], word: Seq[int]) -> bool:
    """Greedy left-to-right subsequence test (complete for this relation)."""
    it = iter(word)
    return all(c in it for c in candidate)


def elements_after(seq: Seq[int], a: int) -> set[int]:
    """Set of letters occurring strictly after the unique occurrence of a."""
    hits = [i for i, b in enumerate(seq) if b == a]
    if len(hits) != 1:
        raise ValueError(
            f"letter {a} occurs {len(hits)} times, expected exactly once"
        )
    return set(seq[hits[0] + 1 :])


class NextOccurrenceTable:
    """For each position 0..L and letter 1..m, the smallest 1-based index
    greater than the position holding that letter.

    ``absent`` (= L+1) is the sentinel for "no further occurrence"; row L+1
    exists too and maps every letter to ``absent``, which makes chained
    lookups sticky past a failure.
    """

    def __init__(self, word: Seq[int], m: int):
        word = tuple(word)
        for a in word:
            if not 1 <= a <= m:
                raise ValueError(f"letter {a} outside alphabet 1..{m}")
        L = len(word)
        self.word = word
        self.m = m
        self.absent = L + 1
        row = [self.absent] * (m + 1)
        rows = [row, row.copy()]  # rows L+1 and L, built back to front
        for p in range(L - 1, -1, -1):
            row = row.copy()
            row[word[p]] = p + 1
            rows.append(row)
        rows.reverse()
        self._rows = rows

    def next_after(self, pos: int, letter: int) -> int:
        """Smallest index > pos holding letter, or ``absent``."""
        if not 1 <= letter <= self.m:
            raise ValueError(f"letter {letter} outside alphabet 1..{self.m}")
        return self._rows[pos][letter]

    def match(self, candidate: Iterable[int]) -> int:
        """Greedy-match candidate; final matched position, or ``absent``."""
        pos = 0
        for a in candidate:
            pos = self._rows[pos][a]
            if pos == self.absent:
                return self.absent
        return pos

    def as_array(self) -> np.ndarray:
        """(L+2, m+1) int array view of the table, for vectorized matching."""
        return np.array(self._rows, dtype=np.int64)
