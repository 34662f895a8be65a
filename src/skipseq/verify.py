"""Independent checks of every claimed combinatorial property.

Nothing in here trusts the generators: completeness and exhaustive
supersequence checks share one subset DP over letter sets, which covers
every distinct-letter sequence without enumerating them; sampled checks
match seeded random permutations; and the quasi-palindrome bijection is
reconstructed position by position from the concatenation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence as Seq

import numpy as np

from .core import NextOccurrenceTable, elements_after
from .construct import (
    GeneratedList,
    TAG_SKIP,
    generate,
    skip_letters,
)

__all__ = [
    "EXHAUSTIVE_LIMIT",
    "Witness",
    "VerificationReport",
    "BijectionReport",
    "MSetTrace",
    "is_k_complete",
    "forward_complete",
    "backward_complete",
    "strongly_complete",
    "quasi_palindrome",
    "verify_supersequence_exhaustive",
    "verify_supersequence_sampled",
    "skip_chain_rho",
    "adversarial_permutations",
    "trace_m_sets",
    "shortest_supersequence_oracle",
]

# Beyond this alphabet size the exhaustive subset DP (2**m letter sets)
# exceeds desk scale; callers must opt in explicitly with allow_long=True.
EXHAUSTIVE_LIMIT = 14

_SAMPLE_BATCH = 100_000


@dataclass(frozen=True)
class Witness:
    """A distinct-letter sequence that the checked word does not contain."""

    permutation: tuple[int, ...]
    failed_k: int
    direction: Optional[str] = None


@dataclass(frozen=True)
class VerificationReport:
    verdict: str  # "pass" | "fail"
    mode: str  # "exhaustive" | "sampled"
    witness: Optional[Witness] = None
    stats: dict = field(default_factory=dict)
    seed: Optional[int] = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


@dataclass(frozen=True)
class BijectionReport:
    found: bool
    mapping: Optional[dict[int, int]] = None
    involution: bool = False
    conflict: Optional[tuple[int, int]] = None  # first conflicting positions


@dataclass(frozen=True)
class MSetTrace:
    steps: tuple[tuple[int, frozenset[int]], ...]
    terminated_at: int
    max_size: int


def _suffix_dp(word: tuple[int, ...], n: int, k: int) -> list[int]:
    """Subset DP over the letter sets U of {1..n}, bit a-1 standing for a.

    G[U] is the most letters, counted from the end of word, that the
    backward greedy match of any distinct-letter sequence of length k - |U|
    over the letters outside U consumes: G[U] = max over a not in U of
    next(G[U + a], a) in the reversed word, and G[U] = 0 once |U| >= k.
    Greedy positions are monotone, so every such sequence is contained in
    the suffix after position p iff p + G[U] <= len(word); in particular
    word is k-complete iff G[0] <= len(word).  A sequence that runs off
    the word yields len(word) + 1, which the table's sentinel row keeps
    sticky.
    """
    rows = NextOccurrenceTable(word[::-1], n)._rows
    full = (1 << n) - 1
    G = [0] * (full + 1)
    for U in range(full, -1, -1):
        if U.bit_count() >= k:
            continue
        best = 0
        free = full ^ U
        while free:
            bit = free & -free
            p = rows[G[U | bit]][bit.bit_length()]
            if p > best:
                best = p
            free ^= bit
        G[U] = best
    return G


def is_k_complete(word: Seq[int], n: int, k: int) -> Optional[Witness]:
    """None if every distinct-letter k-sequence over {1..n} is a subsequence
    of word, else the lexicographically least failing one."""
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside 1..{n}")
    word = tuple(word)
    G = _suffix_dp(word, n, k)
    L = len(word)
    if G[0] <= L:
        return None
    # Walk forward: the smallest unused letter after which some sequence
    # still fails, i.e. whose next position p leaves p + G[U + a] > L.
    witness: list[int] = []
    U = pos = 0
    for _ in range(k):
        for a in range(1, n + 1):
            bit = 1 << (a - 1)
            if U & bit:
                continue
            try:
                p = word.index(a, pos) + 1
            except ValueError:
                p = L + 1
            if p + G[U | bit] > L:
                break
        witness.append(a)
        U |= bit
        pos = p
    return Witness(tuple(witness), k)


def forward_complete(
    sequences: Seq[Seq[int]], n: int, k_max: Optional[int] = None
) -> Optional[Witness]:
    """Check that each k-prefix concatenation is k-complete, k = 1..k_max."""
    k_max = len(sequences) if k_max is None else k_max
    word: list[int] = []
    for k in range(1, k_max + 1):
        word.extend(sequences[k - 1])
        w = is_k_complete(word, n, k)
        if w is not None:
            return Witness(w.permutation, k, "forward")
    return None


def backward_complete(
    sequences: Seq[Seq[int]], n: int, k_max: Optional[int] = None
) -> Optional[Witness]:
    """Mirror of forward_complete over suffix concatenations."""
    k_max = len(sequences) if k_max is None else k_max
    word: list[int] = []
    for k in range(1, k_max + 1):
        word[:0] = sequences[len(sequences) - k]
        w = is_k_complete(word, n, k)
        if w is not None:
            return Witness(w.permutation, k, "backward")
    return None


def strongly_complete(
    sequences: Seq[Seq[int]], n: int, k_max: Optional[int] = None
) -> Optional[Witness]:
    """Both directions; the returned witness records which one failed."""
    w = forward_complete(sequences, n, k_max)
    if w is not None:
        return w
    return backward_complete(sequences, n, k_max)


def quasi_palindrome(sequences: Seq[Seq[int]]) -> BijectionReport:
    """Recover the unique candidate bijection mapping the concatenation to
    its own reversal, if it exists."""
    word = [a for seq in sequences for a in seq]
    L = len(word)
    mapping: dict[int, int] = {}
    for p in range(L):
        a, b = word[p], word[L - 1 - p]
        if mapping.setdefault(a, b) != b:
            return BijectionReport(False, conflict=(p + 1, L - p))
    if len(set(mapping.values())) != len(mapping):
        return BijectionReport(False)
    lengths = [len(seq) for seq in sequences]
    if lengths != lengths[::-1]:
        return BijectionReport(False)
    involution = all(mapping.get(b) == a for a, b in mapping.items())
    return BijectionReport(True, mapping, involution)


def verify_supersequence_exhaustive(
    word: Seq[int], m: int, allow_long: bool = False
) -> VerificationReport:
    """Check that every permutation of {1..m} is a subsequence of word."""
    if m > EXHAUSTIVE_LIMIT and not allow_long:
        raise ValueError(
            f"m={m} exceeds the exhaustive ceiling {EXHAUSTIVE_LIMIT}; "
            "pass allow_long=True or use sampled mode"
        )
    start = time.perf_counter()
    witness = is_k_complete(word, m, m)
    stats = {"elapsed_s": time.perf_counter() - start}
    if witness is None:
        return VerificationReport("pass", "exhaustive", stats=stats)
    return VerificationReport("fail", "exhaustive", witness, stats)


def _check_rows(nxt: np.ndarray, perms: np.ndarray, absent: int) -> int:
    """Vectorized greedy match of permutation rows; index of the first
    failing row, or -1."""
    pos = np.zeros(len(perms), dtype=np.int64)
    for j in range(perms.shape[1]):
        pos = nxt[pos, perms[:, j]]
    bad = np.flatnonzero(pos >= absent)
    return int(bad[0]) if len(bad) else -1


def verify_supersequence_sampled(
    word: Seq[int],
    m: int,
    count: int,
    seed: int,
    extra: Seq[Seq[int]] = (),
) -> VerificationReport:
    """Check `count` uniformly drawn permutations (Fisher-Yates shuffles from
    a seeded PRNG) plus the deterministic `extra` family.

    Bit-identical for identical (word, m, count, seed, extra).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    start = time.perf_counter()
    table = NextOccurrenceTable(word, m)
    nxt = table.as_array()
    absent = table.absent
    checked = 0

    def report(verdict, witness=None):
        stats = {
            "permutations_checked": checked,
            "elapsed_s": time.perf_counter() - start,
        }
        return VerificationReport(verdict, "sampled", witness, stats, seed)

    for perm in extra:
        checked += 1
        if table.match(perm) == absent:
            return report("fail", Witness(tuple(perm), m))
    rng = np.random.default_rng(seed)
    base = np.arange(1, m + 1, dtype=np.int64)
    remaining = count
    while remaining > 0:
        b = min(_SAMPLE_BATCH, remaining)
        perms = np.tile(base, (b, 1))
        rng.permuted(perms, axis=1, out=perms)
        bad = _check_rows(nxt, perms, absent)
        if bad >= 0:
            checked += bad + 1
            return report("fail", Witness(tuple(int(x) for x in perms[bad]), m))
        checked += b
        remaining -= b
    return report("pass")


def trace_m_sets(
    glist: GeneratedList, rho: Seq[int], k: int
) -> MSetTrace:
    """Replay the backward M-set recursion for a sequence rho whose element
    at position k is a skip letter.

    M_{k-1} = sigma_{k-1}[> rho[k]]; thereafter
    M_{k-i} = sigma_{k-i}[> rho[k-i+1]] \\ {rho[k], ..., rho[k-i+2]}.
    The trace stops when a set empties, when rho leaves the M chain (two
    consecutive elements land in one sigma), or at sigma_1.
    """
    n, s = glist.n, glist.s
    if glist.tag(k) != TAG_SKIP:
        raise ValueError(f"k={k} is not a skip-sequence index")
    if len(rho) != k:
        raise ValueError(f"rho has length {len(rho)}, expected k={k}")
    if len(set(rho)) != len(rho) or not all(1 <= a <= n for a in rho):
        raise ValueError("rho must have distinct letters from 1..n")
    if rho[k - 1] not in skip_letters(s, n):
        raise ValueError(f"rho[{k}]={rho[k - 1]} is not a skip letter")
    steps: list[tuple[int, frozenset[int]]] = []
    removed: set[int] = set()
    idx = k - 1
    terminated = idx
    max_size = 0
    while idx >= 1:
        seq = glist.seq(idx)
        prev_elem = rho[idx]  # rho[idx+1] in 1-based terms
        if prev_elem not in seq:
            terminated = idx
            break
        m_set = frozenset(elements_after(seq, prev_elem) - removed)
        steps.append((idx, m_set))
        max_size = max(max_size, len(m_set))
        terminated = idx
        if not m_set or idx == 1:
            break
        if rho[idx - 1] not in m_set:
            break  # two consecutive rho elements land in sigma_idx
        removed.add(prev_elem)
        idx -= 1
    return MSetTrace(tuple(steps), terminated, max_size)


def skip_chain_rho(
    glist: GeneratedList, k: int, last: int
) -> tuple[int, ...]:
    """A length-k distinct-letter sequence ending in the skip letter `last`
    whose tail walks the M-set recursion greedily, maximizing occupancy.

    At each backward step the next element is chosen from the current M set
    to maximize the size of the following set (ties to the smallest letter);
    once the chain dies the front is padded with unused letters ascending.
    """
    n = glist.n
    if glist.tag(k) != TAG_SKIP:
        raise ValueError(f"k={k} is not a skip-sequence index")
    rho: dict[int, int] = {k: last}
    removed: set[int] = set()
    idx = k - 1
    while idx >= 1:
        seq = glist.seq(idx)
        prev_elem = rho[idx + 1]
        if prev_elem not in seq:
            break
        m_set = elements_after(seq, prev_elem) - removed
        if not m_set or idx == 1:
            break

        def next_size(a: int) -> int:
            nseq = glist.seq(idx - 1)
            if a not in nseq:
                return -1
            return len(elements_after(nseq, a) - removed - {prev_elem})

        pick = max(sorted(m_set), key=next_size)
        rho[idx] = pick
        removed.add(prev_elem)
        idx -= 1
    unused = [a for a in range(1, n + 1) if a not in rho.values()]
    out: list[int] = []
    for p in range(1, k + 1):
        out.append(rho[p] if p in rho else unused.pop(0))
    return tuple(out)


def adversarial_permutations(s: int, n: int) -> list[tuple[int, ...]]:
    """Deterministic stress family of permutations over {1..n+1} for the
    interposed supersequence: identity, reversal-then-new-letter, all
    rotations, and max-occupancy skip chains ending in each skip letter."""
    glist = generate(s, n)
    m = n + 1
    identity = tuple(range(1, m + 1))
    family: list[tuple[int, ...]] = [identity]
    family.append(tuple(range(n, 0, -1)) + (m,))
    for r in range(1, m):
        family.append(identity[r:] + identity[:r])
    if s >= 2:
        for k in glist.skip_indices():
            for a in skip_letters(s, n):
                chain = skip_chain_rho(glist, k, a)
                pad = tuple(x for x in range(1, m + 1) if x not in chain)
                family.append(pad + chain)
    return family


def shortest_supersequence_oracle(
    m: int, length_cap: Optional[int] = None, canonical: bool = True
) -> tuple[int, tuple[int, ...]]:
    """Smallest length admitting a supersequence over {1..m}, found by
    iterative deepening over candidate words.

    With canonical=True words start with letter 1 and contain no adjacent
    equal letters; both prunings preserve at least one minimal supersequence.
    Only desk-scale alphabets (m <= 4) are supported.
    """
    if not 1 <= m <= 4:
        raise ValueError(f"oracle supports 1 <= m <= 4, got m={m}")
    cap = length_cap if length_cap is not None else m * m
    for L in range(m, cap + 1):
        found = _search_words(m, L, canonical)
        if found is not None:
            return L, found
    raise ValueError(f"no supersequence over {m} letters up to length {cap}")


def _search_words(
    m: int, L: int, canonical: bool
) -> Optional[tuple[int, ...]]:
    word = [0] * L

    def rec(i: int) -> Optional[tuple[int, ...]]:
        if i == L:
            w = tuple(word)
            return w if _suffix_dp(w, m, m)[0] <= L else None
        start = 1
        for a in range(start, m + 1):
            if canonical and (i == 0 and a != 1 or i > 0 and a == word[i - 1]):
                continue
            word[i] = a
            hit = rec(i + 1)
            if hit is not None:
                return hit
        return None

    return rec(0)
