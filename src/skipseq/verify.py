"""Independent checks of every claimed combinatorial property.

Nothing in here trusts the generators: completeness and exhaustive
supersequence checks share one pass over the word that keeps, as Python
ints with a bit per letter set, the sets all of whose orderings are
subsequences of the prefix read (completeness runs it once per direction
for all prefix or suffix depths); the shortest-length oracle searches
breadth-first over the states of the same pass that canonical words (each
new letter the least unused one) reach; sampled checks match
seeded random permutations in batches of at most 4096 rows and a sixth
of the run against the dense or, for long words, the segmented
next-occurrence table (a cell budget bounds the batches and the dense
table, not the segmented one), and draw each batch on a worker thread
while the one before it is matched, the first while the table is built,
through an int64 scratch into an array of its own with rows at the
letters' width, at most two batches alive at once, but build no table
for a word that fails the first row checked; and
the quasi-palindrome bijection is reconstructed position by position
from the concatenation.  Only the sampled checks use numpy, and they
import it on their first call, so that the other checks never load it.
"""

from __future__ import annotations

import functools
import itertools
import operator
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence as Seq

from .core import NextOccurrenceTable, checked_word, is_subsequence
from .construct import GeneratedList, TAG_SKIP, skip_letters

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

# The exhaustive pass holds about 5m + 2 bitsets of 2**m bits: about
# 0.5 GiB at m = 25, the paper's largest alphabet, doubling with each
# further letter, so m = 26 would pass 1 GiB.
EXHAUSTIVE_LIMIT = 25

# Cells that the two live batches of sampled permutations together
# (rows at the letters' width: uint8 up to m = 255, uint16 up to 65 535,
# else uint32) or the dense next-occurrence table (int32, 8 MiB) may
# hold; the segmented table, about m**2 cells for the paper's words, is
# outside it, and so is the worker's int64 scratch of `_DRAW_CELLS`.
_CELL_BUDGET = 1 << 21

# Cells of the int64 scratch that the sampled check's worker shuffles a
# batch through (0.5 MiB, one row if that is more, at most one batch):
# each chunk of a batch costs the worker a fill, a shuffle and a cast, at
# each of which it trades the GIL with the caller that matches, so chunks
# of an eighth of a batch made the m = 25 run, whose draws are its
# critical path, about 7% slower on two cores; this size draws an m = 25
# batch in two chunks, as fast as whole (x86-64, numpy 2.4).
_DRAW_CELLS = _CELL_BUDGET // 32

# Rows in a sampled batch, within the budget (which is smaller from
# m = 257 on): the draw costs the same per letter at any batch size, so
# larger batches only hold more memory, while 2048-row ones ran slower
# at m = 25 with worker and caller on one core (x86-64, numpy 2.4).
_ROWS = 4096

# Batches a sampled run is cut into at least, within those caps: no match
# overlaps the first draw and no draw the last match, so a run of two or
# three batches would leave a third of its draws or matches unoverlapped.
_BATCHES = 6


@dataclass(frozen=True)
class Witness:
    """A distinct-letter sequence that the checked word does not contain."""

    permutation: tuple[int, ...]
    direction: Optional[str] = field(default=None, kw_only=True)
    failed_k = property(lambda self: len(self.permutation))  # failed depth


@dataclass(frozen=True, kw_only=True)
class VerificationReport:
    witness: Optional[Witness] = None
    stats: dict = field(default_factory=dict)
    seed: Optional[int] = None
    mode = property(  # a run is sampled exactly when it has a seed
        lambda self: "exhaustive" if self.seed is None else "sampled"
    )
    passed = property(lambda self: self.witness is None)
    verdict = property(lambda self: "pass" if self.passed else "fail")


@dataclass(frozen=True, kw_only=True)
class BijectionReport:
    mapping: Optional[dict[int, int]] = None
    conflict: Optional[tuple[int, int]] = None  # first conflicting positions
    found = property(lambda self: self.mapping is not None)
    involution = property(lambda self: self.found)  # phi maps b back to a


@dataclass(frozen=True)
class MSetTrace:
    steps: tuple[tuple[int, frozenset[int]], ...]
    terminated_at: int
    max_size = property(
        lambda self: max((len(m) for _, m in self.steps), default=0)
    )


def _universe(u: int, top: int) -> tuple[Seq[int], Seq[int], list[int]]:
    """Bitsets over the sets of u letters 0..u-1 (bit S: the set of the
    bits of S): without[c], the sets that lack c; atmost[s], s <= top, the
    sets of at most s letters; and the pass before any letter is read, a
    product tree: leaf u + c holds B_c, the sets S that lack c or whose
    S - c was in C at the last c, node i < u the AND of nodes 2i and
    2i + 1, so node 1 holds C, the sets all of whose orderings are
    subsequences of the word read.  Universes of at most 8 letters are
    kept; the tree is a fresh copy, which _read changes in place."""
    u, top = operator.index(u), operator.index(top)
    without, atmost, tree = (_kept if u <= 8 else _widened)(u, top)
    return without, atmost, list(tree)


def _widened(u: int, top: int) -> tuple[tuple[int, ...], ...]:
    """_universe(u, top) as tuples, widened a letter at a time (each one
    doubles the width) from the kept universe of its first min(u - 1, 8)."""
    b = max(0, min(u - 1, 8))
    without, atmost, _ = _kept(b, min(top, b)) if b else ((), (), ())
    width = 1 << b
    atmost = list(atmost) + [(1 << width) - 1] * (top + 1 - len(atmost))
    for _ in range(b, u):
        without = [x | x << width for x in without]
        without.append((1 << width) - 1)
        atmost = [x | y << width for x, y in zip(atmost, [0] + atmost)]
        width <<= 1
    tree = [0] * u + list(without)
    for i in range(u - 1, 0, -1):
        tree[i] = tree[2 * i] & tree[2 * i + 1]
    return tuple(without), tuple(atmost), tuple(tree)


_kept = functools.cache(_widened)


@functools.cache
def _steps(u: int) -> tuple[tuple[int, int, tuple], ...]:
    """For each letter c of a u-letter tree: its leaf u + c, 1 << c, and
    the nodes above the leaf, each with its left child, leaf to root."""

    def up(i):
        return tuple((i >> d, i >> d << 1) for d in range(1, i.bit_length()))

    return tuple((u + c, 1 << c, up(u + c)) for c in range(u))


def _read(tree: list[int], without: Seq[int], labels, history=None) -> int:
    """Advance the tree in place over labels (None: a letter outside the
    universe), appending C to history after each letter if it is a list;
    return C.  Exact, as S is in C iff every a in S has S - a in C as it
    was at the last a: reading c sets B_c to the sets without c and T + c
    for each T in C, and changes only the nodes above leaf c."""
    steps = _steps(len(without))
    for c in labels:
        if c is not None:
            leaf, bit, path = steps[c]
            lack = without[c]
            tree[leaf] = lack | (tree[1] & lack) << bit
            for i, j in path:
                tree[i] = tree[j] & tree[j + 1]
        if history is not None:
            history.append(tree[1])
    return tree[1]


def is_k_complete(word: Seq[int], n: int, k: int) -> Optional[Witness]:
    """None if every distinct-letter k-sequence over {1..n} is a subsequence
    of word, else the lexicographically least failing one.

    A pass over the reversed word gives C_q, the sets all of whose
    orderings fit in the last q letters: word is k-complete iff every
    k-set is in C_L.  The witness is built forward: with pos the greedy
    match of the letters used and r letters left, take the least unused a
    whose next position p after pos is past the end or leaves a set of
    r - 1 letters, unused and not a, outside C_{L-p} (as C holds the
    subsets of its sets, one of at most r - 1 letters).  A step's C_q come
    from a pass over the unused letters (the first step's from the
    verdict's pass) until keeping every C_q fits in the bytes the first
    pass held; that pass then answers the remaining steps.
    """
    n, k = operator.index(n), operator.index(k)  # 0.0 is not a depth
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside 1..{n}")
    word = checked_word(word, n)
    L = len(word)
    rev = word[::-1]
    # one copy of every letter past the end: index finds any letter, at
    # L or later when the letter is not after pos
    word += tuple(range(1, n + 1))
    # bytes the first pass holds (a bitset: digits, int header, list slot):
    # 2n tree nodes, n masks, k + 1 layers, n + 1 snapshots, 2 word copies
    budget = (4 * n + k + 2) * ((1 << n) // 8 + 32) + 16 * L
    free = list(range(1, n + 1))
    witness: list[int] = []
    pos, history = 0, False
    for r in range(k, 0, -1):
        if not history:
            without = atmost = snaps = tree = None  # free the last pass
            u = len(free)
            labels = {a: i for i, a in enumerate(free)}
            without, atmost, tree = _universe(u, r if k < n else -1)
            rest = (1 << (1 << u)) - 1  # the sets of the unused letters
            atmost = atmost or [rest] * (r + 1)  # k = n: all subsets of a set
            cs = list(map(labels.get, rev))
            history = (L + 1) * ((1 << u) // 8 + 32) <= budget
            if history:
                snaps = [tree[1]]
                _read(tree, without, cs, snaps)
            else:
                want = {L} if r == k else set()
                if r > 1:
                    ends = (word.index(a, pos) + 1 for a in free)
                    want.update(L - p for p in ends if p <= L)
                snaps, done = {}, 0
                for q in sorted(want):
                    snaps[q] = _read(tree, without, cs[done:q])
                    done = q
        if r == k and not atmost[k] & ~snaps[L]:
            return None
        for a in free:
            p = word.index(a, pos) + 1
            lack = without[labels[a]]
            if p > L or r > 1 and atmost[r - 1] & rest & lack & ~snaps[L - p]:
                break
        witness.append(a)
        free.remove(a)
        rest &= lack
        pos = min(p, L)
    return Witness(tuple(witness))


def _first_incomplete(
    sequences: Seq[Seq[int]], n: int, direction: str
) -> Optional[Witness]:
    """The witness of the smallest depth k whose k sequences nearest the
    checked end ("forward": the first) are not k-complete.

    One pass over the c = min(len(sequences), n) nearest sequences, read
    from the checked end (backward: reversed), answers every depth: depth
    k fails iff some k-set is not in C after the k-th sequence, and
    is_k_complete finds its witness.  If there are more than n sequences
    and depths 1..n pass, depth n + 1 is rejected as is_k_complete would
    reject it.
    """
    c = min(len(sequences), n)
    forward = direction == "forward"
    chosen = sequences[:c] if forward else sequences[len(sequences) - c :]
    word = checked_word((a for seq in chosen for a in seq), n)
    letters = iter(word) if forward else reversed(word)
    without, atmost, tree = _universe(n, c)
    end = 0
    for k, seq in enumerate(chosen if forward else chosen[::-1], 1):
        labels = [a - 1 for a in itertools.islice(letters, len(seq))]
        end += len(seq)
        if atmost[k] & ~_read(tree, without, labels):
            part = word[:end] if forward else word[len(word) - end :]
            return replace(is_k_complete(part, n, k), direction=direction)
    if len(sequences) > n:
        raise ValueError(f"k={n + 1} outside 1..{n}")
    return None


def forward_complete(sequences: Seq[Seq[int]], n: int) -> Optional[Witness]:
    """Check that each k-prefix concatenation is k-complete, k = 1..the
    number of sequences; pass sequences[:k] for the depths 1..k only."""
    return _first_incomplete(sequences, n, "forward")


def backward_complete(sequences: Seq[Seq[int]], n: int) -> Optional[Witness]:
    """Mirror of forward_complete over suffix concatenations; pass
    sequences[len(sequences) - k:] for the depths 1..k only."""
    return _first_incomplete(sequences, n, "backward")


def strongly_complete(sequences: Seq[Seq[int]], n: int) -> Optional[Witness]:
    """Both directions; the returned witness records which one failed.

    The backward pass runs only when quasi_palindrome finds no bijection
    phi: with one, the last k sequences are the reversed phi-image of the
    first k, and as the forward pass found every letter of 1..n in the
    first sequence, phi permutes 1..n; k-completeness survives relabelling
    by a permutation and reversal, so backward follows from forward."""
    witness = forward_complete(sequences, n)
    if witness is None and quasi_palindrome(sequences).found:
        return None
    return witness or backward_complete(sequences, n)


def quasi_palindrome(sequences: Seq[Seq[int]]) -> BijectionReport:
    """The bijection phi mapping the concatenation to its reversal, found
    by one mirror scan, if it exists and the sequence lengths are symmetric.

    Position p maps a = word[p] to b = word[L-1-p]; the scan also visits
    L-1-p and maps b back to a there, so a phi that survives the scan is
    an injective involution on the letters of the word."""
    word = [operator.index(a) for seq in sequences for a in seq]
    L = len(word)
    mapping: dict[int, int] = {}
    for p, (a, b) in enumerate(zip(word, reversed(word))):
        if mapping.setdefault(a, b) != b:
            return BijectionReport(conflict=(p + 1, L - p))
    lengths = [len(seq) for seq in sequences]
    if lengths != lengths[::-1]:
        return BijectionReport()
    return BijectionReport(mapping=mapping)


def verify_supersequence_exhaustive(
    word: Seq[int], m: int
) -> VerificationReport:
    """Check that every permutation of {1..m} is a subsequence of word,
    for m up to EXHAUSTIVE_LIMIT; is_k_complete(word, m, m) has no
    ceiling."""
    m = operator.index(m)  # 26.0 is not a size
    if m < 1:
        raise ValueError(f"alphabet size m={m} must be at least 1")
    if m > EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"m={m} exceeds the exhaustive ceiling {EXHAUSTIVE_LIMIT}; "
            "use sampled mode"
        )
    start = time.perf_counter()
    witness = is_k_complete(word, m, m)
    stats = {"elapsed_s": time.perf_counter() - start}
    return VerificationReport(witness=witness, stats=stats)


class _Matcher:
    """Greedy matching of batches of permutation rows against a word's
    table: the dense form when its (L+2)·(m+1) cells fit `_CELL_BUDGET`,
    else the segmented one.

    Dense: the int32 ``as_array`` table scaled by its width, so that a
    position is held as the offset of its row and a step is one add and
    one gather. Segmented (``as_blocks``): a step gathers each position's
    block, then the letter's first index in that block and in the next,
    and keeps the first that lies past the position. Positions are held
    times `scale`. Both tables stay int32; every array used as gather
    indices is np.intp, which np.take reads without a converted copy.
    """

    def __init__(self, table: NextOccurrenceTable):
        import numpy as np

        self.dense = (len(table.word) + 2) * (table.m + 1) <= _CELL_BUDGET
        self.scale = table.m + 1 if self.dense else 1
        if self.dense:
            self.flat = table.as_array().ravel()
            self.flat *= self.scale
        else:
            first, block = table.as_blocks()
            self.flat = first.ravel()
            self.after = self.flat[first.shape[1] :]
            self.block = block.astype(np.intp)
            self.block *= first.shape[1]
        self.limit = table.absent * self.scale

    def advance(self, pos: np.ndarray, perms: np.ndarray) -> None:
        """Greedy-match each row of perms from its entry of pos (int32 if
        dense, else np.intp) and overwrite it with the end position, up to
        the first column at which row 0 fails; work arrays are per call.
        The letters are read at their width, which np.add widens."""
        import numpy as np

        idx = np.empty(len(pos), dtype=np.intp)
        if not self.dense:
            near, far = np.empty((2, len(pos)), dtype=np.int32)
            mask = np.empty(len(pos), dtype=bool)
        for letters in perms.T:
            if self.dense:
                np.add(pos, letters, out=idx)
                np.take(self.flat, idx, out=pos, mode="clip")
            else:
                np.take(self.block, pos, out=idx, mode="clip")
                np.add(idx, letters, out=idx)
                np.take(self.flat, idx, out=near, mode="clip")
                np.take(self.after, idx, out=far, mode="clip")
                np.greater(near, pos, out=mask)
                np.copyto(pos, far)
                np.copyto(pos, near, where=mask)
            if pos[0] >= self.limit:
                return

    def first_failure(self, perms: np.ndarray) -> int:
        """Index of the first row of perms the word does not contain, or -1.
        A failing row 0, then the first failing row, stops `advance`: a
        permutation that fails at its first letter costs one column."""
        import numpy as np

        pos = np.zeros(len(perms), dtype=np.int32 if self.dense else np.intp)
        self.advance(pos, perms)
        bad = np.flatnonzero(pos >= self.limit)
        return int(bad[0]) if len(bad) else -1


def _check_sampled_alphabet(m: int) -> int:
    """m as an int, or ValueError unless in 1.._CELL_BUDGET, the alphabets
    a sampled row fits."""
    m = operator.index(m)  # m is a letter of the rows: keep it a plain int
    if m < 1:
        raise ValueError(f"alphabet size m={m} must be at least 1")
    if m > _CELL_BUDGET:
        raise ValueError(f"m={m} exceeds the sampled ceiling {_CELL_BUDGET}")
    return m


def _checked_row(row: Seq[int], n: int) -> Optional[tuple[int, ...]]:
    """row as checked_word reads it if its letters are distinct ones from
    1..n, else None: the check of every row a caller hands in."""
    try:
        row = checked_word(row, n)
    except ValueError:
        return None
    return row if len(set(row)) == len(row) else None


def verify_supersequence_sampled(
    word: Seq[int],
    m: int,
    count: int,
    seed: int,
    extra: Seq[Seq[int]] = (),
) -> VerificationReport:
    """Check the deterministic `extra` family, then `count` uniformly drawn
    permutations (Fisher-Yates shuffles from a seeded PRNG).

    Every `extra` row must be a permutation of 1..m.
    Bit-identical for identical (word, m, count, seed, extra): the
    permutations are drawn row by row from one stream, so the batch size
    changes neither them nor the witness nor ``permutations_checked``.

    `_CELL_BUDGET`, 2**21 cells, which m may not exceed, bounds the two
    live batches and the dense table: permutations are matched in batches
    of at most `_ROWS` (4096) and budget // (2m) rows (one row above
    m = 2**20, at most 2m cells in all), each drawn into an array of its
    own whose rows are stored at the letters' width (np.min_scalar_type(m):
    uint8 up to m = 255, uint16 up to 65 535), and the dense table is built
    only when its (L+2)·(m+1) cells fit the budget. Generator.permuted is
    fast on 8-byte items alone, so a batch is shuffled in chunks of at most
    `_DRAW_CELLS` // m rows (at least one) in an int64 scratch of the
    worker's and cast into the batch; permuted draws row by row, so the
    chunks change no row. A longer word is matched on the segmented table:
    (B+2)·(m+1) cells for B runs of distinct letters, outside the budget,
    about m**2 for the paper's words and up to L·m for a word such as
    1, 2, …, m, 1, 1, 1, …. No table is built until the rows the caller
    names, every `extra` row in order or else the first drawn, pass
    `is_subsequence`; the first that fails is the witness. So a word that
    lacks a letter, or that one, whose first row fails within a few
    letters, builds none, but a word whose first row passes builds its
    whole table. A batch also holds at most ceil(count / `_BATCHES`)
    rows, so the first draw and the last match, which no match or draw
    overlaps, are at most a sixth of the run. One worker thread draws
    every batch, in order, while the caller matches the one before it:
    the first is queued once the word is checked and drawn while `extra`
    is checked and the table built (with no `extra`, the check waits for
    it). Each draw is queued before the caller waits for the one before
    it and after it drops the batch it matched, so at most two batches
    are alive and the worker writes none that the caller holds; the
    worker is joined before the call returns or raises.
    """
    m = _check_sampled_alphabet(m)
    count, seed = operator.index(count), operator.index(seed)
    if count < 1:
        raise ValueError("count must be >= 1")
    if seed < 0:
        raise ValueError(f"seed={seed} must be non-negative")
    extra = [_checked_row(perm, m) for perm in extra]
    if any(perm is None or len(perm) != m for perm in extra):
        raise ValueError(f"every extra row must be a permutation of 1..{m}")
    # imported here: every other check runs without numpy, which takes
    # about 40 ms and 13 MiB to load
    import numpy as np

    letter = np.min_scalar_type(m)  # the rows' dtype, not the draws'
    # imported here: logging, which it loads, would add about 5 ms to
    # every import of skipseq
    from concurrent.futures import ThreadPoolExecutor

    start = time.perf_counter()
    table = NextOccurrenceTable(word, m)
    cap = min(_ROWS, max(1, _CELL_BUDGET // (2 * m)))
    rows = min(cap, -(-count // _BATCHES))
    rng = np.random.default_rng(seed)
    base = np.arange(1, m + 1, dtype=np.int64)
    # the worker's int64 scratch: _DRAW_CELLS, one row if that is more,
    # at most one batch
    step = max(1, min(rows, _DRAW_CELLS // m))
    scratch = np.empty((step, m), dtype=np.int64)

    def draw(batch):
        # the next rows of the stream into batch, a chunk of rows at a
        # time; permuted draws row by row, so chunks change no row
        for at in range(0, len(batch), step):
            chunk = scratch[: len(batch) - at]
            chunk[:] = base
            rng.permuted(chunk, axis=1, out=chunk)
            batch[at : at + step] = chunk
        return batch

    checked = 0
    with ThreadPoolExecutor(1) as pool:
        # the first draw runs while `extra` is checked and the table built;
        # leaving the pool joins the worker, also when the build raises.
        # The caller allocates every batch: ones allocated on the worker come
        # from its own malloc arena, which raised peak RSS by 2 to 4 MiB
        pending = [pool.submit(draw, np.empty((rows, m), letter))]
        # the rows the caller names, `extra` or else the first drawn
        # (counted with its batch), need no table; a numpy letter would
        # compare slowly with the word's ints
        batch = extra or pending[0].result()[:1]
        bad = next(
            (i for i, row in enumerate(batch)
             if not is_subsequence(map(int, row), table.word)),
            -1,
        )
        if bad < 0:
            checked = len(extra)
            matcher = _Matcher(table)
            for lo in range(rows, count + rows, rows):
                batch = None  # a matched batch is freed before the next draw
                if lo < count:
                    shape = (min(rows, count - lo), m)
                    pending.append(pool.submit(draw, np.empty(shape, letter)))
                batch = pending.pop(0).result()
                bad = matcher.first_failure(batch)
                if bad >= 0:
                    break
                checked += len(batch)
        for draw_left in pending:  # a draw left by a failure still raises
            draw_left.result()
    witness = None
    if bad >= 0:
        checked += bad + 1
        witness = Witness(tuple(int(x) for x in batch[bad]))
    stats = {
        "permutations_checked": checked,
        "elapsed_s": time.perf_counter() - start,
    }
    return VerificationReport(witness=witness, stats=stats, seed=seed)


def trace_m_sets(glist: GeneratedList, rho: Seq[int]) -> MSetTrace:
    """Replay the backward M-set recursion for a sequence rho whose last
    element, at position k = len(rho), is a skip letter.

    M_{k-1} = sigma_{k-1}[> rho[k]]; thereafter
    M_{k-i} = sigma_{k-i}[> rho[k-i+1]] \\ {rho[k], ..., rho[k-i+2]}.
    The trace stops when rho[k-i+1] is not in sigma_{k-i}, when a set
    empties, when rho leaves the M chain (two consecutive elements land in
    one sigma), or at sigma_1.
    """
    k = len(rho)
    _check_chain_end(glist, k, rho[-1:])
    rho = _checked_row(rho, glist.n)
    if rho is None:
        raise ValueError("rho must have distinct letters from 1..n")
    steps: list[tuple[int, frozenset[int]]] = []
    removed: set[int] = set()
    for idx in range(k - 1, 0, -1):
        m_set = _m_set(glist, idx, rho[idx], removed)
        if m_set is None:
            break
        steps.append((idx, frozenset(m_set)))
        # two consecutive rho elements in sigma_idx leave the chain
        if not m_set or idx == 1 or rho[idx - 1] not in m_set:
            break
        removed.add(rho[idx])
    return MSetTrace(tuple(steps), idx)


def skip_chain_rho(
    glist: GeneratedList, k: int, last: int
) -> tuple[int, ...]:
    """A length-k distinct-letter sequence ending in the skip letter `last`
    whose tail walks the M-set recursion greedily, maximizing occupancy.

    At each backward step from sigma_idx the next element is the member of
    the current M set that occurs first in sigma_{idx-1}, or the least
    member when none occurs there.  This is the pick maximizing the size of
    the following set: a later member b of M lies after an earlier one a in
    sigma_{idx-1} and is not removed, so a's set strictly contains b's.
    Once the chain dies the front is padded with unused letters ascending.
    """
    last = _check_chain_end(glist, k, (last,))
    chain = [last]  # rho[k], rho[k-1], ...
    used = {last}  # M_idx never holds prev, the letter it follows
    for idx in range(k - 1, 1, -1):
        m_set = _m_set(glist, idx, chain[-1], used)
        if not m_set:
            break
        members = set(m_set)
        before = glist.sequences[idx - 2]
        chain.append(next((a for a in before if a in members), min(m_set)))
        used.add(chain[-1])
    pad = [a for a in range(1, glist.n + 1) if a not in used]
    return tuple(pad[: k - len(chain)] + chain[::-1])


def _check_chain_end(glist: GeneratedList, k: int, end: Seq[int]) -> int:
    """Reject k unless a skip index, and rho[k], the one letter of `end`,
    unless a skip letter; return it as checked_word reads it."""
    if glist.tag(k) != TAG_SKIP:
        raise ValueError(f"k={k} is not a skip-sequence index")
    last = _checked_row(end, glist.n)
    if last is None or last[0] not in skip_letters(glist.s, glist.n):
        raise ValueError(f"rho[{k}]={end[0]} is not a skip letter")
    return last[0]


def _m_set(
    glist: GeneratedList, idx: int, prev: int, removed: set[int]
) -> Optional[list[int]]:
    """M_idx, the letters of sigma_idx after prev less those in removed, in
    sigma_idx order, found by one scan of sigma_idx; None when prev is not
    in sigma_idx."""
    sigma = glist.sequences[idx - 1]
    if prev not in sigma:
        return None
    return [a for a in sigma[sigma.index(prev) + 1 :] if a not in removed]


def adversarial_permutations(m: int) -> list[tuple[int, ...]]:
    """The stress family of the sampled check: one row, the reversal of
    1..m-1 followed by m.  It is the tight row: in a built word
    m·σ_1·m·…·σ_n·m its greedy embedding ends on the last letter, while
    the identity's ends by letter m + 1 and each rotation's by 2m - 1."""
    m = _check_sampled_alphabet(m)
    return [tuple(range(m - 1, 0, -1)) + (m,)]


def shortest_supersequence_oracle(m: int) -> tuple[int, tuple[int, ...]]:
    """Smallest length admitting a supersequence over {1..m}, found by a
    breadth-first search over the states of the completeness pass.

    Only canonical words are searched, those whose each new letter is the
    least unused one: relabelling letters maps supersequences to
    supersequences, so if the least shortest supersequence first brought in
    b where a < b was unused, swapping a and b would give a smaller one.  A
    state fixes the letters read (leaf m + c differs from without[c]
    exactly when c has been read, as C always holds the empty set), so a
    state is stepped only by letters 1..min(m, j + 1), j the letters its
    words have used.

    Level L of the search holds the states first reached by a canonical
    word of length L, each recorded with the lexicographically least such
    word: a level is expanded in order, trying letters ascending, so the
    next level is again sorted by those words.  The first complete state
    found therefore ends the lexicographically least supersequence of the
    smallest length.  A state is expanded only when first reached, so each
    (state, allowed letter) pair is stepped once; the states are finitely
    many and a supersequence exists, so the search ends.  Only desk-scale
    alphabets (m <= 5) are supported: m = 5 steps 709 633 pairs in about
    a second and 65 MiB.
    """
    m = operator.index(m)  # 6.0 is not a size
    if not 1 <= m <= 5:
        raise ValueError(f"oracle supports 1 <= m <= 5, got m={m}")
    without, _, tree = _universe(m, 0)
    full = (1 << m) - 1  # the bit of the whole alphabet
    start = tuple(tree)
    parent: dict[tuple[int, ...], tuple] = {start: ()}
    frontier = [(start, 0)]
    for length in itertools.count(1):
        level = []
        for state, used in frontier:
            for a in range(1, min(m, used + 1) + 1):
                tree = list(state)
                done = _read(tree, without, (a - 1,)) >> full & 1
                nxt = tuple(tree)
                if nxt in parent:
                    continue
                parent[nxt] = (state, a)
                if done:
                    word = []
                    while nxt != start:
                        nxt, letter = parent[nxt]
                        word.append(letter)
                    return length, tuple(reversed(word))
                level.append((nxt, max(used, a)))
        frontier = level
