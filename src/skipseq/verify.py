"""Independent checks of every claimed combinatorial property.

Nothing in here trusts the generators: completeness and exhaustive
supersequence checks share one subset DP over letter sets, which covers
every distinct-letter sequence without enumerating them (completeness
runs it once per direction for all prefix or suffix depths); the
shortest-length oracle searches breadth-first over the states of the same
DP carried forward one letter at a time;
sampled checks match seeded random permutations; and the quasi-palindrome
bijection is reconstructed position by position from the concatenation.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence as Seq

import numpy as np

from .core import NextOccurrenceTable
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


def _first_incomplete(
    sequences: Seq[Seq[int]],
    n: int,
    k_max: Optional[int],
    direction: str,
) -> Optional[Witness]:
    """The witness of the smallest depth k <= k_max whose k sequences
    nearest the checked end ("forward": the first) are not k-complete.

    One _suffix_dp with cutoff c = min(k_max, n), with the checked end
    last, answers every depth: the sets U with |U| = c - k cover every
    k-sequence, so depth k fails iff the largest such G[U] exceeds the
    length of its k sequences.  is_k_complete then finds the witness of
    the failing depth.  If k_max > n and depths 1..n pass, depth n + 1 is
    rejected as is_k_complete would reject it.
    """
    count = len(sequences)
    k_max = count if k_max is None else k_max
    if not 0 <= k_max <= count:
        raise ValueError(f"k_max={k_max} outside 0..{count}")
    c = min(k_max, n)
    forward = direction == "forward"
    chosen = sequences[:c] if forward else sequences[count - c :]
    word = tuple(a for seq in chosen for a in seq)
    G = _suffix_dp(word[::-1] if forward else word, n, c)
    most = [0] * (c + 1)
    for U, g in enumerate(G):
        k = c - U.bit_count()
        if k > 0 and g > most[k]:
            most[k] = g
    nearest_first = chosen if forward else chosen[::-1]
    ends = itertools.accumulate(len(seq) for seq in nearest_first)
    for k, end in enumerate(ends, 1):
        if most[k] > end:
            part = word[:end] if forward else word[len(word) - end :]
            w = is_k_complete(part, n, k)
            return Witness(w.permutation, k, direction)
    if k_max > n:
        raise ValueError(f"k={n + 1} outside 1..{n}")
    return None


def forward_complete(
    sequences: Seq[Seq[int]], n: int, k_max: Optional[int] = None
) -> Optional[Witness]:
    """Check that each k-prefix concatenation is k-complete, k = 1..k_max."""
    return _first_incomplete(sequences, n, k_max, "forward")


def backward_complete(
    sequences: Seq[Seq[int]], n: int, k_max: Optional[int] = None
) -> Optional[Witness]:
    """Mirror of forward_complete over suffix concatenations."""
    return _first_incomplete(sequences, n, k_max, "backward")


def strongly_complete(
    sequences: Seq[Seq[int]], n: int, k_max: Optional[int] = None
) -> Optional[Witness]:
    """Both directions; the returned witness records which one failed."""
    return forward_complete(sequences, n, k_max) or backward_complete(
        sequences, n, k_max
    )


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
    failing row, or -1.

    Gathers from the flattened table at pos * width + letter, computed in
    np.intp so that an int32 table cannot overflow the index.
    """
    width = nxt.shape[1]
    flat = nxt.ravel()
    pos = np.zeros(len(perms), dtype=np.intp)
    for j in range(perms.shape[1]):
        idx = np.multiply(pos, width, dtype=np.intp)
        idx += perms[:, j]
        pos = flat[idx]
    bad = np.flatnonzero(pos >= absent)
    return int(bad[0]) if len(bad) else -1


def verify_supersequence_sampled(
    word: Seq[int],
    m: int,
    count: int,
    seed: int,
    extra: Seq[Seq[int]] = (),
) -> VerificationReport:
    """Check the deterministic `extra` family, then `count` uniformly drawn
    permutations (Fisher-Yates shuffles from a seeded PRNG).

    Every `extra` member must have length m and letters in 1..m.
    Bit-identical for identical (word, m, count, seed, extra).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    extra = list(extra)
    if any(len(perm) != m for perm in extra):
        raise ValueError(f"every extra permutation must have length m={m}")
    family = np.array(extra, dtype=np.int64).reshape(len(extra), m)
    if family.size and not (1 <= family.min() and family.max() <= m):
        raise ValueError(f"extra permutations must use letters 1..{m}")
    start = time.perf_counter()
    table = NextOccurrenceTable(word, m)
    nxt = table.as_array()
    absent = table.absent

    def report(verdict, witness=None):
        stats = {
            "permutations_checked": checked,
            "elapsed_s": time.perf_counter() - start,
        }
        return VerificationReport(verdict, "sampled", witness, stats, seed)

    bad = _check_rows(nxt, family, absent)
    if bad >= 0:
        checked = bad + 1
        return report("fail", Witness(tuple(extra[bad]), m))
    checked = len(extra)
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
    after = _letters_after(glist)
    steps: list[tuple[int, frozenset[int]]] = []
    removed = 0
    idx = k - 1
    terminated = idx
    max_size = 0
    while idx >= 1:
        prev_elem = rho[idx]  # rho[idx+1] in 1-based terms
        tail = after(idx, prev_elem)
        terminated = idx
        if tail is None:
            break
        mask = tail & ~removed
        m_set = frozenset(a for a in range(1, n + 1) if mask >> a & 1)
        steps.append((idx, m_set))
        max_size = max(max_size, len(m_set))
        if not m_set or idx == 1:
            break
        if rho[idx - 1] not in m_set:
            break  # two consecutive rho elements land in sigma_idx
        removed |= 1 << prev_elem
        idx -= 1
    return MSetTrace(tuple(steps), terminated, max_size)


def _letters_after(
    glist: GeneratedList,
) -> Callable[[int, int], Optional[int]]:
    """after(i, a): the bitmask (bit x for letter x) of the letters after a
    in sigma_i, or None if a is not in sigma_i, built on first use."""
    memo: dict[tuple[int, int], Optional[int]] = {}

    def after(i: int, a: int) -> Optional[int]:
        if (i, a) not in memo:
            seq = glist.seq(i)
            mask = None
            if a in seq:
                mask = 0
                for x in seq[seq.index(a) + 1 :]:
                    mask |= 1 << x
            memo[i, a] = mask
        return memo[i, a]

    return after


def skip_chain_rho(
    glist: GeneratedList, k: int, last: int
) -> tuple[int, ...]:
    """A length-k distinct-letter sequence ending in the skip letter `last`
    whose tail walks the M-set recursion greedily, maximizing occupancy.

    At each backward step the next element is chosen from the current M set
    to maximize the size of the following set (ties to the smallest letter);
    once the chain dies the front is padded with unused letters ascending.
    """
    if glist.tag(k) != TAG_SKIP:
        raise ValueError(f"k={k} is not a skip-sequence index")
    return _skip_chain(_letters_after(glist), glist.n, k, last)


def _skip_chain(
    after: Callable[[int, int], Optional[int]], n: int, k: int, last: int
) -> tuple[int, ...]:
    """skip_chain_rho over a _letters_after lookup, which chains of one
    list share; M sets and letter sets are bitmasks."""
    rho: dict[int, int] = {k: last}
    removed = 0
    idx = k - 1
    while idx >= 1:
        prev = rho[idx + 1]
        tail = after(idx, prev)
        if tail is None:
            break
        m_set = tail & ~removed
        if not m_set or idx == 1:
            break
        removed |= 1 << prev
        best = -2
        while m_set:
            bit = m_set & -m_set
            a = bit.bit_length() - 1
            rest = after(idx - 1, a)
            size = -1 if rest is None else (rest & ~removed).bit_count()
            if size > best:
                best, pick = size, a
            m_set ^= bit
        rho[idx] = pick
        idx -= 1
    used = set(rho.values())
    unused = iter(a for a in range(1, n + 1) if a not in used)
    return tuple(rho[p] if p in rho else next(unused) for p in range(1, k + 1))


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
        after = _letters_after(glist)
        for k in glist.skip_indices():
            for a in skip_letters(s, n):
                chain = _skip_chain(after, n, k, a)
                in_chain = set(chain)
                pad = tuple(x for x in range(1, m + 1) if x not in in_chain)
                family.append(pad + chain)
    return family


def shortest_supersequence_oracle(
    m: int, length_cap: Optional[int] = None
) -> tuple[int, tuple[int, ...]]:
    """Smallest length admitting a supersequence over {1..m}, found by a
    breadth-first search over the states of the forward subset DP.

    Level L of the search holds the states first reached by a word of
    length L, each recorded with the lexicographically least such word:
    a level is expanded in order, trying letters 1..m ascending, so the
    next level is again sorted by those words.  The first complete state
    found therefore ends the lexicographically least supersequence of the
    smallest length.  A state is expanded only when first reached, so each
    (state, letter) pair is stepped once.  Only desk-scale alphabets
    (m <= 4) are supported.
    """
    if not 1 <= m <= 4:
        raise ValueError(f"oracle supports 1 <= m <= 4, got m={m}")
    cap = length_cap if length_cap is not None else m * m
    step, goal = _prefix_dp(m)
    parent: dict[int, tuple[int, int]] = {0: (0, 0)}
    frontier = [0]
    for length in range(1, cap + 1):
        level = []
        for state in frontier:
            for a in range(1, m + 1):
                nxt = step(state, a)
                if nxt in parent:
                    continue
                parent[nxt] = (state, a)
                if nxt & goal == goal:
                    # only the empty prefix has state 0: any letter c
                    # sets the bit of the one-letter set {c}
                    word = []
                    while nxt:
                        nxt, letter = parent[nxt]
                        word.append(letter)
                    return length, tuple(reversed(word))
                level.append(nxt)
        frontier = level
    raise ValueError(f"no supersequence over {m} letters up to length {cap}")


def _prefix_dp(m: int) -> tuple[Callable[[int, int], int], int]:
    """The subset DP carried forward over a word read one letter at a time.

    The state is an int with one bit per pair (S, a), S a set of letters
    from {1..m} and a in S, set iff every ordering of S that ends in a is
    a subsequence of the prefix read so far; S is complete when all of its
    bits are set.  Appending c sets bit (S, c) for every S containing c
    whose remainder S - c is empty or complete, and changes no other bit,
    so a repeated letter leaves the state as it is.  Returns step(state, c),
    starting from state 0 (the empty prefix), and the bits of the full
    alphabet: a word is a supersequence iff its state has all of them set.
    """
    full = (1 << m) - 1
    complete = [
        sum(1 << (S * m + a) for a in range(m) if S >> a & 1)
        for S in range(full + 1)
    ]
    rules = [[]] + [
        [
            (complete[S ^ (1 << (c - 1))], 1 << (S * m + c - 1))
            for S in range(full + 1)
            if S >> (c - 1) & 1
        ]
        for c in range(1, m + 1)
    ]

    def step(state: int, c: int) -> int:
        nxt = state
        for need, bit in rules[c]:
            if state & need == need:
                nxt |= bit
        return nxt

    return step, complete[full]
