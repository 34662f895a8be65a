"""Sequence primitives: 1-based inclusive slicing, subsequence tests,
next-occurrence tables (dense, or segmented into blocks for long words).

Sequences are plain tuples of small positive integers (letters).  All index
arithmetic in the public functions is 1-based and inclusive at both ends;
negative indices count from the back (-1 is the last element).
The array forms of the table import numpy when first built, so that
importing this module does not load it.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Sequence as Seq

__all__ = [
    "SliceRangeError",
    "resolve_index",
    "pslice",
    "is_subsequence",
    "checked_word",
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


def checked_word(word: Iterable[int], m: int) -> tuple[int, ...]:
    """word as a tuple of ints (itself if it is one), or ValueError naming
    its first letter that is not an integer in 1..m: the one letter check,
    read by the table and every verifier.  operator.index rejects 1.5, 1.0
    and '1' and turns numpy integers and bools into ints; only the distinct
    letters are compared, and the word is walked only to name a bad one."""
    word = tuple(word)
    try:
        ints = word if {*map(type, word)} == {int} else tuple(map(index, word))
        letters = set(ints)
        if not letters or 1 <= min(letters) and max(letters) <= m:
            return ints
    except TypeError:
        pass
    for a in word:
        try:
            if 1 <= index(a) <= m:
                continue
        except TypeError:
            a = repr(a)  # '1' and 1.5 as typed
        raise ValueError(f"letter {a} outside alphabet 1..{m}")


class NextOccurrenceTable:
    """For each position 0..L and letter 1..m, the smallest 1-based index
    greater than the position holding that letter.

    ``absent`` (= L+1) is the sentinel for "no further occurrence"; row L+1
    exists too and maps every letter to ``absent``, which makes chained
    lookups sticky past a failure.

    For vectorized matching, ``as_array`` builds the whole table as an int32
    array of (L+2)·(m+1) cells, and ``as_blocks`` a segmented form of
    (B+2)·(m+1) + L+2 cells for a word of B blocks of distinct letters:
    about m² for the paper's words of length about m², against the dense
    table's m³. B reaches L only for a word such as 1,1,1,…
    """

    def __init__(self, word: Seq[int], m: int):
        self.m = index(m)  # 14.0 is rejected here, not by as_array
        self.word = checked_word(word, self.m)
        self.absent = len(self.word) + 1

    def as_array(self) -> np.ndarray:
        """(L+2, m+1) int32 array of the table, for vectorized matching:
        the segmented ``first`` of the word cut into one-letter blocks."""
        import numpy as np

        return self._first(np.arange(len(self.word)), len(self.word) + 2)

    def as_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """Segmented form of the table: ``(first, block)`` int32 arrays.

        The word is cut into maximal runs of distinct letters (blocks),
        numbered from 0, and block B = ``block[L]`` closes the word.
        ``block[g]`` is the block holding index g+1 (B for g = L and L+1),
        and ``first[b, a]`` is the first index at or after block b's start
        that holds a, or ``absent``, in B+2 rows built by a running minimum
        over blocks. A letter occurs at most once per block, so the
        smallest index > g holding a is ``first[block[g], a]`` when that
        exceeds g, and ``first[block[g] + 1, a]`` otherwise.
        """
        import numpy as np

        L = len(self.word)
        block = np.zeros(L + 2, dtype=np.int32)
        last = [-1] * (self.m + 1)
        start = 0
        for p, a in enumerate(self.word):
            if last[a] >= start:
                start = p
                block[p] = 1
            last[a] = p
        block[L] = 1
        np.cumsum(block, out=block)
        return self._first(block[:L], block[L] + 2), block

    def _first(self, block: np.ndarray, rows: int) -> np.ndarray:
        """(rows, m+1) int32 table whose row b holds, per letter, the first
        index at or after block b's start that holds it, or ``absent``,
        where index p+1 lies in block ``block[p]``: each index goes to its
        block's row, and a running minimum from the last row up carries it
        back to every earlier row; the scatter's one intp array is each
        index's flat cell, block·(m+1) + letter."""
        import numpy as np

        table = np.full((rows, self.m + 1), self.absent, dtype=np.int32)
        cells = np.multiply(block, self.m + 1, dtype=np.intp)
        cells += np.fromiter(self.word, np.int32, len(self.word))
        table.ravel()[cells] = np.arange(1, self.absent, dtype=np.int32)
        back = table[::-1]
        np.minimum.accumulate(back, axis=0, out=back)
        return table
