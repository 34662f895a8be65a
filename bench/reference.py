"""Independent reference checks for the benchmark's outputs.

Nothing here imports ``skipseq``: every verdict the benchmark accepts is
re-derived from first principles (greedy subsequence tests and plain
``itertools.permutations`` enumeration) or compared with a frozen digest of
output that must stay byte-identical. These checks run outside the timed
region.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from typing import Optional, Sequence

# Largest alphabet the naive permutation enumeration is used for (7! = 5040).
NAIVE_LIMIT = 7

# sha256 of `skipseq analyze --m-range 5:1000 --format csv` stdout.
ANALYZE_CSV_SHA256 = (
    "dfe2fca26ed9333e418ee1cdf3e3425595389a4cc6e9b5089458872fe99d288b"
)
# sha256 of `skipseq generate --s 3 --n 598 --format json` stdout.
GENERATE_JSON_SHA256 = (
    "2c4749c222743141ab3cf1af84d307a88be7a0fba5ca6347356a7c7430e701c3"
)
# sha256 of comparison_table(range(5, 401), with_actual=True), serialised by
# `rows_digest` in increasing m.
COMPARISON_ROWS_SHA256 = (
    "1dc3cd29cf8d61550a5cc81b6855179d28a2e2d1113b02cfb4de79d4180b00b5"
)
# Sum of the lengths of construct_for_m(m, "restrict") over m = 5..300.
RESTRICT_LETTERS_5_300 = 8_948_505
# Seeded random permutations `spot_check_universal` tries per word.
SPOT_SAMPLES = 2
# Shortest supersequence lengths over 3 and 4 letters.
SHORTEST_LENGTH = {3: 7, 4: 12}


def is_subsequence(pattern: Sequence[int], word: Sequence[int]) -> bool:
    """Greedy left-to-right subsequence test."""
    it = iter(word)
    return all(c in it for c in pattern)


def witness_error(
    witness: Optional[Sequence[int]], word: Sequence[int], m: int, k: int
) -> Optional[str]:
    """Why `witness` does not prove that `word` misses a distinct-letter
    k-sequence over {1..m}, or None when it does."""
    if witness is None:
        return "no witness given for a failing verdict"
    w = tuple(witness)
    if len(w) != k or len(set(w)) != k or not all(1 <= a <= m for a in w):
        return f"witness {w} is not {k} distinct letters from 1..{m}"
    if is_subsequence(w, word):
        return f"witness {w} is a subsequence of the word"
    return None


def first_missing(
    word: Sequence[int], n: int, k: int
) -> Optional[tuple[int, ...]]:
    """Lexicographically least distinct-letter k-sequence over {1..n} that
    is not a subsequence of word, by plain enumeration."""
    if n > NAIVE_LIMIT:
        raise ValueError(f"naive enumeration limited to n <= {NAIVE_LIMIT}")
    for perm in itertools.permutations(range(1, n + 1), k):
        if not is_subsequence(perm, word):
            return perm
    return None


def quasi_palindrome_map(
    sequences: Sequence[Sequence[int]],
) -> Optional[dict[int, int]]:
    """The letter bijection taking the concatenation to its reversal, with
    symmetric sequence lengths, or None when there is none."""
    lengths = [len(seq) for seq in sequences]
    if lengths != lengths[::-1]:
        return None
    word = [a for seq in sequences for a in seq]
    mapping: dict[int, int] = {}
    for a, b in zip(word, reversed(word)):
        if mapping.setdefault(a, b) != b:
            return None
    if len(set(mapping.values())) != len(mapping):
        return None
    return mapping


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def rows_digest(rows: Sequence[Sequence[object]]) -> str:
    """sha256 of comparison rows given as (m, classical, zalinescu,
    radomirovic, best_s, best_len, actual) tuples, in increasing m."""
    lines = [",".join("" if v is None else str(v) for v in row) for row in
             sorted(rows, key=lambda row: row[0])]
    return sha256_text("\n".join(lines) + "\n")


def classical_length(m: int) -> int:
    return m * m - 2 * m + 4


def spot_check_universal(
    word: Sequence[int], m: int, rng: random.Random
) -> Optional[str]:
    """Necessary conditions for a supersequence over {1..m}: exactly the
    letters 1..m occur, and the identity, its reversal and a few seeded
    random permutations are subsequences."""
    if set(word) != set(range(1, m + 1)):
        return f"letters of the m={m} word are not exactly 1..{m}"
    identity = list(range(1, m + 1))
    probes = [identity, identity[::-1]]
    for _ in range(SPOT_SAMPLES):
        perm = identity[:]
        rng.shuffle(perm)
        probes.append(perm)
    for perm in probes:
        if not is_subsequence(perm, word):
            return f"m={m} word misses permutation {tuple(perm)}"
    return None
