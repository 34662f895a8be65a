import collections
import concurrent.futures
import dataclasses
import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import golden
from skipseq import (
    backward_complete,
    build_supersequence,
    construct_for_m,
    forward_complete,
    gen_t1,
    gen_t2,
    gen_ts,
    generate,
    is_k_complete,
    is_subsequence,
    quasi_palindrome,
    shortest_supersequence_oracle,
    strongly_complete,
    trace_m_sets,
    verify_supersequence_exhaustive,
    verify_supersequence_sampled,
)
from skipseq import verify
from skipseq.core import NextOccurrenceTable, checked_word
from skipseq.construct import skip_letters, valid_levels
from skipseq.verify import (
    EXHAUSTIVE_LIMIT,
    adversarial_permutations,
    skip_chain_rho,
)

ROOT = Path(__file__).resolve().parent.parent

# the seeded stream of verify_supersequence_sampled(word, 25, count,
# seed=11) at 0-based indices 83 885 and 83 886, the boundary of the
# second and third batches when a batch held budget // 2m = 41 943 rows
M25_SEED11_LAST_OF_BATCH = (
    11, 16, 13, 18, 5, 23, 15, 6, 10, 1, 20, 25, 17, 3, 21, 2, 24, 22, 9, 14,
    12, 7, 19, 4, 8,
)
M25_SEED11_FIRST_OF_NEXT = (
    10, 13, 3, 2, 24, 7, 14, 5, 4, 20, 23, 17, 15, 9, 21, 8, 16, 11, 25, 18,
    19, 1, 6, 22, 12,
)
# ... at 0-based indices 41 942 and 41 943, the boundary of the first
# and second such batches
M25_SEED11_LAST_OF_HALF = (
    10, 1, 21, 3, 24, 7, 9, 18, 14, 22, 11, 6, 23, 17, 19, 4, 20, 8, 13, 2,
    15, 16, 25, 12, 5,
)
M25_SEED11_FIRST_OF_NEXT_HALF = (
    3, 16, 24, 4, 9, 22, 6, 15, 2, 14, 5, 18, 10, 17, 19, 8, 25, 23, 20, 12,
    7, 11, 21, 13, 1,
)
# ... and at 0-based indices 4095, 4096, 8191 and 8192, the boundaries of
# the first three batches of _ROWS = 4096 rows
M25_SEED11_LAST_OF_CAP = (
    4, 12, 11, 9, 2, 17, 3, 22, 1, 24, 16, 10, 25, 13, 20, 6, 23, 7, 19, 8,
    15, 18, 5, 21, 14,
)
M25_SEED11_FIRST_OF_NEXT_CAP = (
    23, 13, 22, 15, 2, 1, 10, 19, 25, 18, 20, 21, 4, 12, 17, 9, 6, 8, 7, 14,
    11, 24, 3, 5, 16,
)
M25_SEED11_LAST_OF_2CAP = (
    5, 3, 21, 19, 25, 16, 11, 17, 7, 24, 2, 20, 22, 15, 12, 1, 9, 23, 6, 14,
    18, 8, 4, 10, 13,
)
M25_SEED11_FIRST_OF_NEXT_2CAP = (
    7, 6, 22, 9, 14, 20, 24, 8, 4, 15, 23, 10, 19, 5, 1, 17, 12, 16, 13, 21,
    11, 18, 3, 25, 2,
)

# the witness of the 573-letter word over 25 letters with its letter at
# 0-based position 286 deleted, as the subset DP over letter sets that the
# bit-parallel pass replaced found it (in 78 s)
M25_DELETION_WITNESS = (
    2, 1, 21, 20, 19, 18, 17, 24, 23, 22, 16, 15, 25, 5, 4, 3, 14, 13, 12,
    11, 10, 9, 8, 7, 6,
)

# 15 rows over {1..14} for the multi-row `extra` pins below, recorded with
# them: the identity, the reversal of 1..13 followed by 14, then the 13
# rotations of the identity
EXTRA_14 = [tuple(range(1, 15)), tuple(range(13, 0, -1)) + (14,)] + [
    tuple(range(r, 15)) + tuple(range(1, r)) for r in range(2, 15)
]


def naive_least_missing(word, n, k):
    """Lexicographically least distinct-letter k-sequence over 1..n that is
    not a subsequence of word, or None."""
    return next(
        (
            p
            for p in itertools.permutations(range(1, n + 1), k)
            if not is_subsequence(p, word)
        ),
        None,
    )


def naive_supersequence_check(word, m):
    return naive_least_missing(word, m, m) is None


def naive_m_sets(glist, rho, k):
    """trace_m_sets from its docstring, 1-based: M_{k-i} is the letters of
    sigma_{k-i} after rho_{k-i+1}, less rho_k, ..., rho_{k-i+2}, as sorted
    tuples; with the reason the walk stopped."""
    r = dict(enumerate(rho, 1))
    steps = []
    for i in range(1, k):
        sigma = glist.seq(k - i)
        if r[k - i + 1] not in sigma:
            reason = "absent"
            break
        later = set(sigma[sigma.index(r[k - i + 1]) + 1 :])
        m_set = later - {r[j] for j in range(k - i + 2, k + 1)}
        steps.append((k - i, tuple(sorted(m_set))))
        if k - i == 1:
            reason = "sigma_1"
            break
        if not m_set:
            reason = "empty"
            break
        if r[k - i] not in m_set:
            reason = "left"
            break
    max_size = max((len(m_set) for _, m_set in steps), default=0)
    return (tuple(steps), k - i, max_size), reason


def naive_skip_chain(glist, k, last):
    """skip_chain_rho from its docstring, with the reason its walk stopped:
    from sigma_{k-1} down to sigma_2, M is the letters of sigma_idx after
    the last pick, less the letters picked, and the next pick is the member
    of M that occurs first in sigma_{idx-1}, else the least member; the
    walk dies when the last pick is not in sigma_idx or M is empty, and the
    front is padded with unused letters ascending."""
    chain = [last]
    reason = "sigma_2"
    for idx in range(k - 1, 1, -1):
        sigma = list(glist.seq(idx))
        if chain[-1] not in sigma:
            reason = "absent"
            break
        m_set = set(sigma[sigma.index(chain[-1]) + 1 :]) - set(chain)
        if not m_set:
            reason = "empty"
            break
        before = list(glist.seq(idx - 1))
        present = [a for a in m_set if a in before]
        chain.append(min(present, key=before.index) if present else min(m_set))
    pad = sorted(set(range(1, glist.n + 1)) - set(chain))
    return tuple(pad[: k - len(chain)] + chain[::-1]), reason


def naive_max_occupancy(glist, k, last):
    """The largest |M| over every walk down the M sets from the skip letter
    `last` (rho_k): each step may take any member of M_idx as rho_idx, and
    a walk ends at sigma_1, at an empty set or when its letter is not in
    the next sigma, reading each sigma with index as naive_m_sets does."""

    def walk(idx, prev, used):
        sigma = glist.seq(idx)
        if prev not in sigma:
            return 0
        m_set = [a for a in sigma[sigma.index(prev) + 1 :] if a not in used]
        if idx == 1:
            return len(m_set)
        deeper = [walk(idx - 1, a, used | {a}) for a in m_set]
        return max([len(m_set)] + deeper)

    return walk(k - 1, last, {last})


def trace_corpus():
    """(glist, rho, k) for each skip chain of five lists: the chain; the
    chain with two letters before its end swapped; a seeded random distinct
    rho ending in the chain's skip letter; a seeded random walk down the M
    sets from that letter, padded in front with unused letters; and the
    chain over a copy of the list with rho_{idx+1} deleted from sigma_idx
    at a random idx (no walk down a built list meets a letter missing from
    sigma_idx)."""
    rng = random.Random(16)
    for s, n in [(2, 12), (3, 13), (3, 18), (4, 24), (5, 39)]:
        glist = generate(s, n)
        for k in glist.skip_indices():
            for last in range(n - s + 2, n + 1):
                chain = skip_chain_rho(glist, k, last)
                yield glist, chain, k
                swapped = list(chain)
                i, j = rng.sample(range(k - 1), 2)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                yield glist, tuple(swapped), k
                rest = [a for a in range(1, n + 1) if a != last]
                yield glist, tuple(rng.sample(rest, k - 1)) + (last,), k
                walk = [last]
                for idx in range(k - 1, 1, -1):
                    sigma = glist.seq(idx)
                    if walk[-1] not in sigma:
                        break
                    later = sigma[sigma.index(walk[-1]) + 1 :]
                    m_set = [a for a in later if a not in walk]
                    if not m_set:
                        break
                    walk.append(rng.choice(m_set))
                rest = [a for a in range(1, n + 1) if a not in walk]
                front = rng.sample(rest, k - len(walk))
                yield glist, tuple(front + walk[::-1]), k
                idx = rng.randrange(2, k)
                sequences = list(glist.sequences)
                sequences[idx - 1] = tuple(
                    a for a in sequences[idx - 1] if a != chain[idx]
                )
                cut = dataclasses.replace(glist, sequences=tuple(sequences))
                yield cut, chain, k


@pytest.mark.parametrize(
    "bad",
    [0, 5, 1.5, "1", 1.0, np.float64(2.0)],
    ids=["0", "5", "float", "str", "float-equal-to-1", "numpy-float-equal-to-2"],
)
@pytest.mark.parametrize(
    "check",
    [
        lambda w: is_k_complete(w, 3, 2),
        lambda w: forward_complete([w[:2], w[2:]], 3),
        lambda w: backward_complete([w[:2], w[2:]], 3),
        lambda w: strongly_complete([w[:2], w[2:]], 3),
        lambda w: verify_supersequence_exhaustive(w, 3),
        lambda w: verify_supersequence_sampled(w, 3, 10, seed=1),
    ],
    ids=[
        "is_k_complete",
        "forward_complete",
        "backward_complete",
        "strongly_complete",
        "exhaustive",
        "sampled",
    ],
)
def test_letter_outside_alphabet_rejected(check, bad):
    # a letter must be an integer: 1.5 compares within 1..3 and numpy
    # would truncate it to 1; 1.0 and 2.0 equal letters met before them
    message = f"^letter {re.escape(repr(bad))} outside alphabet 1..3$"
    with pytest.raises(ValueError, match=message):
        check((1, 2, bad, 3, 1))


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
def test_numpy_integer_word_reads_as_its_ints(dtype):
    word = build_supersequence(generate(2, 9)).word
    cut = word[:40] + word[41:]
    for w in (word, cut):
        given = np.array(w, dtype=dtype)
        assert is_k_complete(given, 10, 6) == is_k_complete(w, 10, 6)
        got = verify_supersequence_exhaustive(given, 10)
        expected = verify_supersequence_exhaustive(w, 10)
        assert (got.verdict, got.witness) == (expected.verdict, expected.witness)
        reversal = np.array(adversarial_permutations(10), dtype=dtype)
        got = verify_supersequence_sampled(given, 10, 500, 3, reversal)
        expected = verify_supersequence_sampled(
            w, 10, 500, 3, adversarial_permutations(10)
        )
        assert (got.witness, got.stats["permutations_checked"]) == (
            expected.witness, expected.stats["permutations_checked"]
        )
    assert not verify_supersequence_exhaustive(cut, 10).passed


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
@pytest.mark.parametrize("s, n", [(2, 9), (3, 13)])
def test_numpy_integer_lists_complete_as_their_ints(dtype, s, n):
    # the completeness passes read only the ints checked_word returns: a
    # numpy letter once reached the bitset shifts and overflowed
    sequences = generate(s, n).sequences
    # intact, and one letter deleted from the first, last or middle list
    for idx in (None, 0, n - 1, n // 2):
        lists = list(sequences)
        if idx is not None:
            lists[idx] = lists[idx][1:]
        given = [np.array(seq, dtype=dtype) for seq in lists]
        for check in (forward_complete, backward_complete, strongly_complete):
            got, expected = check(given, n), check(lists, n)
            assert got == expected
            if got is not None:
                assert all(type(a) is int for a in got.permutation)
    assert strongly_complete(lists, n) is not None


@pytest.mark.parametrize(
    "given",
    [np.array([1, 2, 1], dtype=np.uint8), [np.int64(1), 2, np.int32(1)],
     (True, 2, True), [1, 2, 1]],
    ids=["uint8-array", "numpy-scalars", "bool", "int-list"],
)
def test_checked_word_returns_plain_ints(given):
    word = checked_word(given, 2)
    assert word == (1, 2, 1)
    assert all(type(a) is int for a in word)
    assert all(type(a) is int for a in NextOccurrenceTable(given, 2).word)


def test_int_tuple_is_checked_without_a_copy():
    # the table holds the caller's word, not a second copy of it
    word = build_supersequence(generate(3, 13)).word
    assert checked_word(word, 14) is word
    assert NextOccurrenceTable(word, 14).word is word


def _exhaustive_t3_13(m):
    word = build_supersequence(gen_ts(3, 13)).word
    return verify_supersequence_exhaustive(word, m).witness


def _k_complete_t3_13(k):
    return is_k_complete(build_supersequence(gen_ts(3, 13)).word, 14, k)


@pytest.mark.parametrize(
    "call, size",
    [
        (lambda s: gen_ts(s, 13), 2),
        (lambda s: gen_ts(s, 13), 3),
        (construct_for_m, 4),
        (construct_for_m, 6),
        (shortest_supersequence_oracle, 6),
        (shortest_supersequence_oracle, 3),
        (_exhaustive_t3_13, 26),
        (_exhaustive_t3_13, 0),
        (_exhaustive_t3_13, 14),
        (_k_complete_t3_13, 0),
        (_k_complete_t3_13, 3),
    ],
    ids=[
        "gen_ts-s2", "gen_ts-s3", "construct_for_m-4", "construct_for_m-6",
        "oracle-6", "oracle-3", "exhaustive-26", "exhaustive-0",
        "exhaustive-14", "is_k_complete-k0", "is_k_complete-k3",
    ],
)
def test_float_size_raises_type_error_whatever_its_value(call, size):
    # a float size is read through operator.index before any range check,
    # so an out-of-range one raises TypeError, not the range's ValueError;
    # numpy sizes give what the int gives, a result or the same ValueError
    with pytest.raises(TypeError):
        call(float(size))

    def outcome(x):
        try:
            return call(x)
        except ValueError as e:
            return type(e), str(e)

    expected = outcome(size)
    for numpy_size in (np.int64(size), np.int32(size)):
        assert outcome(numpy_size) == expected


class TestIsKComplete:
    def test_t1_prefix_2_complete(self):
        glist = gen_t1(6)
        word = glist.seq(1) + glist.seq(2)
        assert is_k_complete(word, 6, 2) is None

    def test_increasing_word_witness(self):
        w = is_k_complete((1, 2, 3), 3, 2)
        assert w.permutation == (2, 1)

    def test_intro_word_3_complete(self):
        assert is_k_complete(golden.INTRO_WORD_3, 3, 3) is None

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            is_k_complete((1, 2), 2, 3)

    def test_witness_is_lex_least(self):
        rng = random.Random(3)
        passed = 0
        for _ in range(200):
            n = rng.randint(2, 6)
            word = tuple(
                rng.randint(1, n) for _ in range(rng.randint(0, 4 * n))
            )
            k = rng.randint(1, n)
            w = is_k_complete(word, n, k)
            expected = naive_least_missing(word, n, k)
            if expected is None:
                assert w is None
                passed += 1
            else:
                assert w.permutation == expected
                assert w.failed_k == k
        assert passed  # the passing branch is exercised too


    def test_pass_and_walk_agree_with_naive(self, monkeypatch):
        # every k for random n <= 7; long words make the witness walk
        # start with passes that keep only the positions a step needs, and
        # a tail without one letter makes it meet letters that no longer
        # occur after its position
        kept_all = []
        read = verify._read

        def recorded(tree, without, labels, history=None):
            kept_all.append(history is not None)
            return read(tree, without, labels, history)

        monkeypatch.setattr(verify, "_read", recorded)
        rng = random.Random(23)
        # after 1 at position 3 the walk finds 3 only behind it; 2 first
        # occurs as the last letter, so the walk reads C_0 after it
        cases = [((2, 3, 1) + (1, 2) * 30, 3), ((1,) * 22 + (2,), 2)]
        for _ in range(400):
            n = rng.randint(1, 7)
            letters = range(1, n + 1)
            head = rng.choices(letters, k=rng.randint(0, 3 * n))
            tail = rng.choices(letters, k=rng.randint(0, 8 * n))
            gone = rng.choice(letters)
            cases.append((tuple(head + [a for a in tail if a != gone]), n))
        verdicts = set()
        for word, n in cases:
            for k in range(1, n + 1):
                w = is_k_complete(word, n, k)
                expected = naive_least_missing(word, n, k)
                assert (w and w.permutation) == expected, (word, n, k)
                assert w is None or w.failed_k == k
                verdicts.add(w is None)
        assert verdicts == {True, False}
        assert set(kept_all) == {True, False}


def _universe_by_definition(u, top):
    """without, atmost and the unread tree of _universe(u, top), from the
    sets' bits one by one: bit S stands for the set of the bits of S."""
    sets = range(1 << u)
    without = [
        sum(1 << S for S in sets if not S >> c & 1) for c in range(u)
    ]
    atmost = [
        sum(1 << S for S in sets if S.bit_count() <= s) for s in range(top + 1)
    ]
    tree = [0] * u + without
    for i in range(u - 1, 0, -1):
        tree[i] = tree[2 * i] & tree[2 * i + 1]
    return tuple(without), tuple(atmost), tree


class TestKeptTables:
    """_universe keeps the universes of at most 8 letters, and _read takes
    each letter's leaf, shift and path to the root from a table built once
    per alphabet size: no call may see what another left behind."""

    def test_kept_universes_survive_reading(self):
        for u in range(1, 9):
            for top in range(-1, u + 1):
                expected = _universe_by_definition(u, top)
                without, atmost, tree = verify._universe(u, top)
                assert (without, atmost, tree) == expected, (u, top)
                verify._read(tree, without, [c % u for c in range(2 * u)])
                assert tree != expected[2]
                assert verify._universe(u, top) == expected, (u, top)

    def test_widened_universes_match_their_definition(self):
        # the kept 8-letter universes are the base that larger ones widen;
        # a larger one is not kept, as one at 24 letters takes tens of MB
        for u in range(9, 12):
            for top in (-1, 0, 3, u):
                assert verify._universe(u, top) == _universe_by_definition(
                    u, top
                ), (u, top)
        assert verify._universe(8, 0)[0] is verify._universe(8, 0)[0]
        assert verify._universe(9, 0)[0] is not verify._universe(9, 0)[0]
        # no letters at all, as in forward_complete([], 0)
        for top in (-1, 0, 1):
            assert verify._universe(0, top) == _universe_by_definition(0, top)
        assert forward_complete([], 0) is None

    def test_read_matches_a_full_recompute(self):
        # each letter updates its leaf and the nodes on its path only;
        # recomputing every node after each letter must give the same tree
        rng = random.Random(41)
        for u in range(1, 13):
            without, _, tree = verify._universe(u, 0)
            full = list(tree)
            letters = [None] + list(range(u)) * 2
            for c in rng.choices(letters, k=4 * u):
                if c is not None:
                    lack = without[c]
                    full[u + c] = lack | (full[1] & lack) << (1 << c)
                    for i in range(u - 1, 0, -1):
                        full[i] = full[2 * i] & full[2 * i + 1]
                assert verify._read(tree, without, [c]) == full[1]
                assert tree == full, (u, c)

    def test_mixed_sizes_agree_with_naive(self):
        # n = 8 is the last kept size, n = 9 and 10 widen the kept base;
        # the sizes alternate at random so that each one's tables are read
        # after a pass over another size.  k concatenated permutations
        # hold every k-sequence, so they pass unless a letter is deleted.
        rng = random.Random(97)
        sizes = rng.choices((8, 9, 10), k=150)
        cases = [(n, rng.randint(1, 4)) for n in sizes] + [(8, 8)] * 8
        rng.shuffle(cases)
        verdicts = set()
        for n, k in cases:
            letters = range(1, n + 1)
            if rng.random() < 0.3:
                word = rng.choices(letters, k=rng.randint(0, 3 * n))
            else:
                word = [a for _ in range(k) for a in rng.sample(letters, n)]
                if rng.random() < 0.5:
                    del word[rng.randrange(len(word))]
            w = is_k_complete(word, n, k)
            expected = naive_least_missing(word, n, k)
            assert (w and w.permutation) == expected, (word, n, k)
            verdicts.add((n, k, w is None))
        assert len(verdicts) == 2 * (3 * 4 + 1)  # each (n, k) passes and fails


class TestCompleteness:
    def test_t2_12_prefix_8(self):
        glist = gen_t2(12)
        assert forward_complete(glist.sequences[:8], 12) is None

    def test_t1_full_depth(self):
        glist = gen_t1(6)
        assert forward_complete(glist.sequences, 6) is None
        assert backward_complete(glist.sequences, 6) is None

    def test_t2_12_backward_prefix(self):
        glist = gen_t2(12)
        assert backward_complete(glist.sequences[12 - 8 :], 12) is None

    def test_non_example_forward_not_backward(self):
        bad = [(1, 2, 3), (1, 2), (1, 3)]
        assert forward_complete(bad, 3) is None
        w = backward_complete(bad, 3)
        assert w.permutation == (2,)
        assert w.failed_k == 1
        assert w.direction == "backward"
        sw = strongly_complete(bad, 3)
        assert sw.direction == "backward"

    def test_agrees_with_naive_per_prefix_check(self):
        def naive(sequences, n, direction):
            word = ()
            for k in range(1, len(sequences) + 1):
                if k > n:
                    return "ValueError"
                if direction == "forward":
                    word += tuple(sequences[k - 1])
                else:
                    word = tuple(sequences[-k]) + word
                missing = naive_least_missing(word, n, k)
                if missing is not None:
                    return missing, k, direction
            return None

        def outcome(check, *args):
            try:
                w = check(*args)
            except ValueError:
                return "ValueError"
            if w is None:
                return None
            return w.permutation, w.failed_k, w.direction

        def kind(result):
            if result is None:
                return "pass"
            return "ValueError" if result == "ValueError" else "fail"

        rng = random.Random(11)
        outcomes = set()
        for _ in range(400):
            n = rng.randint(1, 6)
            letters = range(1, n + 1)
            if rng.random() < 0.3:
                depth = rng.randint(1, n + 2)  # may exceed n
            else:
                depth = rng.randint(1, n)
            if rng.random() < 0.5:
                sequences = [
                    tuple(rng.sample(letters, rng.randint(1, n)))
                    for _ in range(depth)
                ]
            else:  # repeated letters within a sequence
                sequences = [
                    tuple(rng.choices(letters, k=rng.randint(0, 2 * n)))
                    for _ in range(depth)
                ]
            fwd = naive(sequences, n, "forward")
            bwd = naive(sequences, n, "backward")
            assert outcome(forward_complete, sequences, n) == fwd
            assert outcome(backward_complete, sequences, n) == bwd
            assert outcome(strongly_complete, sequences, n) == (fwd or bwd)
            outcomes.add((kind(fwd), kind(bwd)))
        # pass/fail in each direction occurs, and so do depths beyond n
        assert set(itertools.product(["pass", "fail"], repeat=2)) <= outcomes
        assert ("ValueError", "ValueError") in outcomes

    def test_k_max_range(self):
        # the deepest depth checked is the number of sequences given
        for check in (forward_complete, backward_complete, strongly_complete):
            assert check([], 5) is None
            # depths 1..n pass, then depth n + 1 does not exist
            with pytest.raises(ValueError, match="k=6 outside 1..5"):
                check([(1, 2, 3, 4, 5)] * 6, 5)

    def test_one_dp_per_direction(self, monkeypatch):
        # Every pass sets up its bitsets with one _universe call, recorded
        # as (letters, depth). A pass over all 12 letters is the
        # completeness pass or the witness's first pass; the witness walk's
        # later passes cover only the letters it has not used.
        calls = []
        universe = verify._universe

        def counted(u, top):
            calls.append((u, top))
            return universe(u, top)

        monkeypatch.setattr(verify, "_universe", counted)
        sequences = gen_t2(12).sequences
        assert strongly_complete(sequences, 12) is None
        # the list has its bijection, so no backward pass runs
        assert calls == [(12, 12)]
        damaged = list(sequences)
        damaged[5] = damaged[5][1:]
        for check, direction in (
            (forward_complete, "forward"),
            (backward_complete, "backward"),
        ):
            calls.clear()
            w = check(damaged, 12)
            assert w is not None and w.direction == direction
            # the pass, then the witness
            assert [k for u, k in calls if u == 12] == [12, w.failed_k]
            assert calls[:2] == [(12, 12), (12, w.failed_k)]

    def test_strong_is_forward_or_backward(self):
        # strongly_complete skips the backward pass when quasi_palindrome
        # finds the bijection. On the proof table's lists with n <= 21 and
        # on damaged ones (a mirrored pair of positions deleted, which
        # keeps the bijection; one position deleted; two neighbours
        # swapped) it equals both passes.
        lists = [
            (generate(s, n).sequences, n)
            for n in range(9, 22)
            for s in [1] + valid_levels(n)
        ]
        rng = random.Random(41)
        damaged = []
        for sequences, n in lists:
            if n > 13:
                continue
            for kind in ("mirror", "delete", "swap") * 6:
                word = [a for seq in sequences for a in seq]
                cut = [i for i, seq in enumerate(sequences) for _ in seq]
                p = rng.randrange(len(word))
                if kind == "swap":
                    q = min(p + 1, len(word) - 1)
                    word[p], word[q] = word[q], word[p]
                    drop = set()
                else:
                    drop = {p, len(word) - 1 - p} if kind == "mirror" else {p}
                seqs = [[] for _ in sequences]
                for i, (a, c) in enumerate(zip(word, cut)):
                    if i not in drop:
                        seqs[c].append(a)
                damaged.append((seqs, n))
        outcomes = collections.Counter()
        for sequences, n in lists + damaged:
            expected = (
                forward_complete(sequences, n)
                or backward_complete(sequences, n)
            )
            assert strongly_complete(sequences, n) == expected
            outcomes[quasi_palindrome(sequences).found, expected is None] += 1
        assert len(lists) == 22 and outcomes[True, True] >= 22
        assert outcomes[True, False] and outcomes[False, False], outcomes

    def test_bijection_skips_the_backward_pass(self, monkeypatch):
        calls = []
        backward = verify.backward_complete
        monkeypatch.setattr(
            verify, "backward_complete",
            lambda *args: calls.append(args) or backward(*args),
        )
        assert strongly_complete(generate(3, 13).sequences, 13) is None
        assert calls == []
        # without a bijection the backward pass runs, and may fail alone
        bad = [(1, 2, 3), (1, 2), (1, 3)]
        assert strongly_complete(bad, 3).direction == "backward"
        assert calls == [(bad, 3)]

    @pytest.mark.slow
    def test_t4_24_strongly_complete(self):
        # the level-4 list behind the 573-letter word over 25 letters
        start = time.perf_counter()
        assert strongly_complete(gen_ts(4, 24).sequences, 24) is None
        assert time.perf_counter() - start < 15.0

    def test_t3_18_strongly_complete(self):
        # the paper's level-3 list over 18 letters, both directions
        assert strongly_complete(gen_ts(3, 18).sequences, 18) is None

    def test_monotone_in_k(self):
        # a pass at depth k implies no re-failure at any smaller depth
        glist = gen_t2(9)
        for k in range(1, 10):
            assert forward_complete(glist.sequences[:k], 9) is None


class TestQuasiPalindrome:
    def test_alternating_word(self):
        report = quasi_palindrome([(1, 2), (1, 2)])
        assert report.found
        assert report.mapping == {1: 2, 2: 1}

    def test_not_a_quasi_palindrome(self):
        # 1213: position 1 maps 1 to 3, position 3 maps it to 2
        report = quasi_palindrome([(1, 2), (1, 3)])
        assert report == verify.BijectionReport(conflict=(3, 2))

    @pytest.mark.parametrize(
        "sequences, conflict",
        [
            # 112: position 1 maps 1 to 2, position 2 maps it to 1
            ([(1, 1, 2)], (2, 2)),
            # 12331: 2 goes to 3 at position 2, 3 to itself at 3, so
            # position 4 cannot map 3 to 2
            ([(1, 2, 3), (3, 1)], (4, 2)),
            # 1222: 1 goes to 2 at position 1, 2 to 2 at 2, so position 4
            # cannot map 2 to 1
            ([(1, 2, 2, 2)], (4, 1)),
        ],
    )
    def test_conflict_positions(self, sequences, conflict):
        # the first 1-based position p whose letter is already mapped to
        # another letter than the one at its mirror L + 1 - p
        report = quasi_palindrome(sequences)
        assert report == verify.BijectionReport(conflict=conflict)

    def test_mirror_length_condition(self):
        # concatenation palindromic but per-sequence lengths asymmetric
        report = quasi_palindrome([(1, 2, 1), (2,)])
        assert report == verify.BijectionReport()
        # a concatenation with a bijection and asymmetric lengths
        report = quasi_palindrome([(1, 2, 3, 4), (5,)])
        assert report == verify.BijectionReport()

    @given(
        st.lists(
            st.lists(st.integers(1, 4), max_size=4).map(tuple), max_size=6
        ),
        st.lists(st.integers(1, 4), min_size=4, max_size=4),
        st.booleans(),
    )
    def test_found_mapping_is_an_injective_involution(
        self, sequences, image, mirrored
    ):
        # mirrored: the list followed by its reversed image under the
        # letter map a -> image[a - 1], which is found when that map is
        # consistent with the scan
        if mirrored:
            sequences = sequences + [
                tuple(image[a - 1] for a in reversed(seq))
                for seq in reversed(sequences)
            ]
        report = quasi_palindrome(sequences)
        assert report.involution == report.found
        if not report.found:
            return
        phi = report.mapping
        word = [a for seq in sequences for a in seq]
        assert report.conflict is None
        assert set(phi) == set(word)
        assert len(set(phi.values())) == len(phi)
        assert all(phi[phi[a]] == a for a in phi)
        assert [phi[a] for a in word] == word[::-1]

    def test_golden_bijections(self):
        assert quasi_palindrome(golden.T1_6).mapping == golden.T1_6_BIJECTION
        assert quasi_palindrome(golden.T2_12).mapping == golden.T2_12_BIJECTION
        assert quasi_palindrome(golden.T3_18).mapping == golden.T3_18_BIJECTION


class TestResultTypes:
    # each fact is stored once: the verdict, the failed depth, whether a
    # bijection was found and the largest M-set follow from the fields
    DERIVED = [
        (verify.Witness, "failed_k"),
        (verify.VerificationReport, "verdict"),
        (verify.VerificationReport, "passed"),
        (verify.BijectionReport, "found"),
        (verify.MSetTrace, "max_size"),
    ]

    @pytest.mark.parametrize("cls, name", DERIVED)
    def test_derived_fields_are_read_only_properties(self, cls, name):
        assert isinstance(getattr(cls, name), property)
        assert name not in {f.name for f in dataclasses.fields(cls)}

    @pytest.mark.parametrize(
        "call",
        [
            lambda: verify.Witness((2, 1), 2),
            lambda: verify.Witness((2, 1), 2, "forward"),
            lambda: verify.VerificationReport("pass", "exhaustive"),
            lambda: verify.VerificationReport("fail", "sampled", None, {}, 7),
            lambda: verify.BijectionReport(False),
            lambda: verify.BijectionReport(True, {1: 1}),
            lambda: verify.MSetTrace(((3, frozenset({1})),), 3, 1),
        ],
        ids=[
            "witness", "witness-direction", "report-pass", "report-fail",
            "bijection-false", "bijection-true", "m-set-trace",
        ],
    )
    def test_old_positional_calls_rejected(self, call):
        # before, these bound the verdict, depth or found flag positionally;
        # now each would bind another field, so it raises instead
        with pytest.raises(TypeError):
            call()

    def test_reports_cannot_contradict_themselves(self):
        witness = verify.Witness((3, 1, 2), direction="backward")
        assert witness.failed_k == 3
        report = verify.VerificationReport(mode="exhaustive", witness=witness)
        assert (report.verdict, report.passed) == ("fail", False)
        report = verify.VerificationReport(mode="sampled", seed=7)
        assert (report.verdict, report.passed) == ("pass", True)
        assert verify.BijectionReport(conflict=(3, 2)).found is False
        assert verify.BijectionReport().found is False
        report = verify.BijectionReport(mapping={1: 2, 2: 1})
        assert report.found is report.involution is True
        assert verify.MSetTrace((), 12).max_size == 0
        steps = ((11, frozenset({17, 18})), (10, frozenset({3})))
        assert verify.MSetTrace(steps, 10).max_size == 2

    def test_numpy_alphabet_gives_int_failed_k(self):
        # T2_9's word with its sixth letter deleted, checked at m = 10
        word = build_supersequence(gen_t2(9)).word
        word = word[:5] + word[6:]
        exhaustive = verify_supersequence_exhaustive(word, np.int64(10))
        assert exhaustive.verdict == "fail"
        sampled = verify_supersequence_sampled(
            word,
            np.int64(10),
            10,
            np.int64(1),
            extra=[exhaustive.witness.permutation],
        )
        assert sampled.witness == exhaustive.witness
        # the report stores the int seed its stream was drawn from
        assert (sampled.seed, type(sampled.seed)) == (1, int)
        json.dumps(dataclasses.asdict(sampled))
        for report in (exhaustive, sampled):
            assert report.witness.failed_k == 10
            assert type(report.witness.failed_k) is int
        cut = list(gen_t2(9).sequences)
        cut[3] = cut[3][1:]
        for check in (forward_complete, strongly_complete):
            witness = check(cut, np.int64(9))
            assert (witness.failed_k, type(witness.failed_k)) == (4, int)

    def test_numpy_sizes_give_int_m_set_sizes(self):
        glist = generate(np.int64(3), np.int64(18))
        assert (type(glist.s), type(glist.n)) == (int, int)
        rho = skip_chain_rho(glist, 12, 17)
        assert rho == skip_chain_rho(gen_ts(3, 18), 12, 17)
        trace = trace_m_sets(glist, rho, 12)
        assert trace == trace_m_sets(gen_ts(3, 18), rho, 12)
        assert (trace.max_size, type(trace.max_size)) == (2, int)
        assert type(trace.terminated_at) is int

    def test_numpy_letters_give_an_int_bijection(self):
        report = quasi_palindrome([np.array([1, 2]), np.array([2, 1])])
        assert report.mapping == {1: 1, 2: 2}
        assert {type(a) for pair in report.mapping.items() for a in pair} == {int}

    @pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc"
    )
    def test_nothing_built_at_import(self, child_report):
        out = child_report(
            "import skipseq\n"
            "print('kept', skipseq.verify._kept.cache_info().currsize)\n"
        )
        assert out["kept"] == "0"

    @pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc"
    )
    @pytest.mark.parametrize("size", ["int64", "int32"])
    def test_numpy_sizes_in_a_fresh_interpreter(self, child_report, size):
        # a fresh process, so that no int call has built a universe first;
        # repr tells a numpy integer from an int, and a cut list fails with
        # a witness
        checks = (forward_complete, backward_complete, strongly_complete)
        expected = []
        for n in range(4, 9):
            cut = list(gen_t1(n).sequences)
            cut[1] = cut[1][1:]
            for sequences in (gen_t1(n).sequences, cut):
                expected += [check(sequences, n) for check in checks]
        expected += [shortest_supersequence_oracle(m) for m in range(1, 5)]
        assert any(expected) and None in expected
        out = child_report(
            "import numpy as np\n"
            "from skipseq import backward_complete, forward_complete, gen_t1\n"
            "from skipseq import shortest_supersequence_oracle\n"
            "from skipseq import strongly_complete\n"
            f"size = np.{size}\n"
            "checks = (forward_complete, backward_complete, strongly_complete)\n"
            "results = []\n"
            "for n in range(4, 9):\n"
            "    cut = list(gen_t1(n).sequences)\n"
            "    cut[1] = cut[1][1:]\n"
            "    for sequences in (gen_t1(n).sequences, cut):\n"
            "        results += [check(sequences, size(n)) for check in checks]\n"
            "results += [shortest_supersequence_oracle(size(m)) for m in range(1, 5)]\n"
            "print('results', repr(results))\n"
        )
        assert out["results"] == repr(expected)


class TestProofRoute:
    """The paper's proof route: forward completeness plus a quasi-palindrome
    bijection phi give backward completeness, since the last k sequences
    are the reversed phi-image of the first k."""

    def test_mirror_damage_keeps_forward_and_backward_equal(self):
        # Deleting concatenation positions p and L-1-p keeps a list a
        # quasi-palindrome; trial 0 keeps the list undamaged
        rng = random.Random(17)
        verdicts = collections.Counter()
        for s, n in [(1, 6), (1, 9), (2, 9), (2, 12), (3, 13)]:
            sequences = generate(s, n).sequences
            for trial in range(31):
                damaged = [list(seq) for seq in sequences]
                for _ in range(trial and rng.randint(1, 3)):
                    cells = [
                        (i, j)
                        for i, seq in enumerate(damaged)
                        for j in range(len(seq))
                    ]
                    p = rng.randrange(len(cells))
                    for q in sorted({p, len(cells) - 1 - p}, reverse=True):
                        i, j = cells[q]
                        del damaged[i][j]
                assert quasi_palindrome(damaged).found
                forward = forward_complete(damaged, n)
                backward = backward_complete(damaged, n)
                assert (forward is None) == (backward is None)
                if forward is not None:
                    assert forward.failed_k == backward.failed_k
                verdicts[forward is None] += 1
        # the five undamaged lists pass; nearly every damaged one fails
        assert verdicts[True] >= 5 and verdicts[False] > 0

    @pytest.mark.slow
    @pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc"
    )
    def test_proof_table(self, child_report):
        # every valid (s, n) with 9 <= n <= 25, proven by the route
        rows = [(1, n) for n in range(9, 26)] + [
            (2, 9), (2, 12), (2, 15), (2, 18), (2, 21), (2, 24),
            (3, 13), (3, 18), (3, 23),
            (4, 17), (4, 24),
            (5, 21),
            (6, 25),
        ]
        valid = [(s, n) for n in range(9, 26) for s in [1] + valid_levels(n)]
        assert len(rows) == 30 and sorted(rows) == sorted(valid)
        out = child_report(
            "from skipseq import *\n"
            f"for s, n in {rows!r}:\n"
            "    seqs = generate(s, n).sequences\n"
            "    forward = forward_complete(seqs, n) is None\n"
            "    print(f'T{s}_{n}', forward, quasi_palindrome(seqs).found)\n"
        )
        assert int(out.pop("hwm")) < 1024 * 1024
        assert out == {f"T{s}_{n}": "True True" for s, n in rows}


class TestExhaustive:
    def test_intro_examples(self):
        assert verify_supersequence_exhaustive(golden.INTRO_WORD_3, 3).passed
        assert verify_supersequence_exhaustive(golden.INTRO_WORD_4, 4).passed

    def test_repeated_alphabet_fails(self):
        word = (1, 2, 3, 4) * 2
        report = verify_supersequence_exhaustive(word, 4)
        assert not report.passed
        assert not is_subsequence(report.witness.permutation, word)

    def test_ceiling_enforced(self):
        word = tuple(range(1, EXHAUSTIVE_LIMIT + 2))
        with pytest.raises(ValueError, match="ceiling"):
            verify_supersequence_exhaustive(word, EXHAUSTIVE_LIMIT + 1)

    @pytest.mark.parametrize(
        "s, n, p, witness",
        [
            (3, 13, 65, (1, 13, 12, 11, 10, 9, 8, 7, 6, 5, 14, 4, 3, 2)),
            (3, 13, 5, (5, 1, 10, 9, 8, 13, 12, 7, 6, 14, 4, 3, 2, 11)),
            (3, 13, 150, (1, 14, 5, 3, 2, 12, 7, 6, 10, 9, 13, 4, 11, 8)),
            (3, 18, 100,
             (1, 19, 3, 2, 18, 17, 7, 4, 16, 15, 14, 13, 12, 11, 10, 9, 8,
              6, 5)),
            (3, 18, 250,
             (1, 4, 3, 2, 19, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 17,
              18)),
        ],
    )
    def test_deletion_witness_pinned(self, s, n, p, witness):
        # the built word with position p (0-based) deleted; the witnesses
        # were recorded from the subset DP over letter sets that the
        # bit-parallel pass replaced
        word = build_supersequence(gen_ts(s, n)).word
        word = word[:p] + word[p + 1 :]
        report = verify_supersequence_exhaustive(word, n + 1)
        assert report.witness == verify.Witness(witness)

    @pytest.mark.parametrize("m", [0, -3])
    def test_alphabet_size_below_1_rejected(self, m):
        message = f"alphabet size m={m} must be at least 1"
        with pytest.raises(ValueError, match=message):
            verify_supersequence_exhaustive((1, 2, 1), m)
        with pytest.raises(ValueError, match=message):
            verify_supersequence_sampled((1, 2, 1), m, 10, seed=1)

    @pytest.mark.slow
    @pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc"
    )
    @pytest.mark.parametrize("deleted", [None, 286], ids=["readme", "deletion"])
    def test_m25_peak_rss(self, deleted):
        # The README quick start (the 573-letter word over 25 letters
        # passes) and the same word with its middle letter deleted (the
        # witness walk runs too), each in a child reporting its VmHWM.
        code = (
            "import sys\n"
            "from skipseq import *\n"
            "word = build_supersequence(gen_ts(4, 24)).word\n"
            f"p = {deleted}\n"
            "if p is not None:\n"
            "    word = word[:p] + word[p + 1:]\n"
            "r = verify_supersequence_exhaustive(word, 25)\n"
            "hwm = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')]\n"
            "print(r.witness.permutation if r.witness else None)\n"
            "print(hwm[0].split()[1])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        witness, peak_kib = result.stdout.split("\n")[-3:-1]
        if deleted is None:
            assert witness == "None"
        else:
            assert witness == str(M25_DELETION_WITNESS)
        assert int(peak_kib) < 1024 * 1024

    @pytest.mark.slow
    @pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc"
    )
    def test_cli_m25_exhaustive(self):
        # the README's command line for the 573-letter word, in a child
        # that reports its exit code, elapsed time and VmHWM
        code = (
            "import time\n"
            "from skipseq import cli\n"
            "start = time.perf_counter()\n"
            "code = cli.main(['verify', '--s', '4', '--n', '24', '--exhaustive',"
            " '--format', 'json'])\n"
            "elapsed = time.perf_counter() - start\n"
            "hwm = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')]\n"
            "print(code, elapsed, hwm[0].split()[1])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert '"verdict": "pass"' in result.stdout
        code, elapsed, peak_kib = result.stdout.split("\n")[-2].split()
        assert int(code) == 0
        assert float(elapsed) < 15.0
        assert int(peak_kib) < 1024 * 1024

    @pytest.mark.slow
    @pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc"
    )
    def test_m24_word_shorter_than_radomirovic(self, child_report):
        # the 526-letter word over 24 letters of gen_ts(3, 23), the
        # smallest alphabet where a built word beats Radomirovic's 527
        out = child_report(
            "from skipseq import *\n"
            "word = build_supersequence(gen_ts(3, 23)).word\n"
            "print('length', len(word))\n"
            "print('passed', verify_supersequence_exhaustive(word, 24).passed)\n"
        )
        assert out["length"] == "526"
        assert out["passed"] == "True"
        assert int(out["hwm"]) < 512 * 1024

    def test_agrees_with_naive_on_random_words(self):
        rng = random.Random(5)
        for _ in range(100):
            m = rng.randint(2, 5)
            word = tuple(
                rng.randint(1, m) for _ in range(rng.randint(0, 3 * m))
            )
            report = verify_supersequence_exhaustive(word, m)
            expected = naive_least_missing(word, m, m)
            assert report.passed == (expected is None)
            if expected is not None:
                assert report.witness.permutation == expected

    def test_agrees_with_naive_on_built_words(self):
        for n in range(4, 7):
            word = build_supersequence(gen_t1(n)).word
            report = verify_supersequence_exhaustive(word, n + 1)
            assert report.passed
            assert naive_supersequence_check(word, n + 1)


class TestSampled:
    @pytest.fixture
    def drawn(self, monkeypatch):
        """The row count of every sampled batch, in the order drawn: the
        worker draws each batch, in chunks, as one task of the pool."""
        pool = concurrent.futures.ThreadPoolExecutor
        drawn = []

        class Counting(pool):
            def submit(self, draw, *args):
                def counted():
                    batch = draw(*args)
                    drawn.append(len(batch))
                    return batch

                return super().submit(counted)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counting)
        return drawn

    @staticmethod
    def traced_peak(*args):
        """A sampled run's report and the bytes it allocates at its peak.
        A small run first loads the sampled check's imports (its thread
        pool, numpy's random module), so the window holds the call only."""
        verify_supersequence_sampled((1, 2, 1), 2, 1, 0)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            report = verify_supersequence_sampled(*args)
            return report, tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    def test_negative_seed_rejected_before_any_build(self, monkeypatch):
        monkeypatch.setattr(verify, "NextOccurrenceTable", None)
        with pytest.raises(ValueError, match="seed=-1 must be non-negative"):
            verify_supersequence_sampled((1, 2, 1), 2, 10, seed=-1)

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_1_rejected(self, count):
        with pytest.raises(ValueError, match="^count must be >= 1$"):
            verify_supersequence_sampled((1, 2, 1), 2, count, seed=1)

    def test_alphabet_above_cell_budget_rejected(self):
        # one permutation row holds m cells, so no batch fits the budget
        for m in ((1 << 21) + 1, 1 << 22):
            with pytest.raises(ValueError, match="exceeds the sampled ceiling"):
                verify_supersequence_sampled((1, 2), m, 1, 0)

    def test_pass_on_built_word(self):
        word = build_supersequence(gen_ts(3, 13)).word
        report = verify_supersequence_sampled(word, 14, 5000, seed=1)
        assert report.passed
        assert report.seed == 1

    def test_identity_always_contained(self):
        word = build_supersequence(gen_t2(9)).word
        assert is_subsequence(range(1, 11), word)

    def test_missing_letter_fails(self):
        full = build_supersequence(gen_t1(6)).word
        word = tuple(a for a in full if a != 7)
        report = verify_supersequence_sampled(word, 7, 100, seed=3)
        assert not report.passed
        assert 7 in report.witness.permutation
        assert not is_subsequence(report.witness.permutation, word)

    def test_deterministic_replay(self):
        word = build_supersequence(gen_t2(9)).word
        a = verify_supersequence_sampled(word, 10, 2000, seed=99)
        b = verify_supersequence_sampled(word, 10, 2000, seed=99)
        assert a.verdict == b.verdict
        assert a.stats["permutations_checked"] == b.stats["permutations_checked"]

    def test_extra_first_failure_is_witness(self):
        rng = random.Random(17)
        full = build_supersequence(gen_t1(6)).word
        failures = 0
        for _ in range(60):
            p = rng.randrange(len(full))
            word = full[:p] + full[p + 1 :]
            extra = [tuple(rng.sample(range(1, 8), 7)) for _ in range(30)]
            report = verify_supersequence_sampled(word, 7, 50, 1, extra)
            first = next(
                (i for i, q in enumerate(extra) if not is_subsequence(q, word)),
                None,
            )
            if first is None:
                continue
            failures += 1
            assert report.witness.permutation == extra[first]
            assert report.stats["permutations_checked"] == first + 1
        assert failures >= 10

    @pytest.mark.parametrize(
        "extra",
        [[(1, 2)], [(1, 2, 3), (1, 2)], [(1, 2, 4)], [(0, 1, 2)], [(1, 1, 2)],
         [(1.5, 2.2, 3.9)], [("1", "2", "3")], [(1, 2.0, 3)]],
        ids=["short", "short-later", "letter-above-m", "letter-0",
             "repeated-letter", "floats", "strs", "float-equal-to-2"],
    )
    def test_malformed_extra_rejected(self, extra):
        # repeated-letter: (1, 1, 2) fits in the word but is no permutation;
        # np.array(dtype=int64) would truncate 1.5 to 1 and parse '1'
        with pytest.raises(ValueError, match="extra"):
            verify_supersequence_sampled(golden.INTRO_WORD_3, 3, 10, 1, extra)

    def test_seeded_failure_replays_pinned_values(self):
        # T3 n=13 word with position 65 (a 9) deleted; the values were
        # recorded from the per-member, int64-table implementation
        word = build_supersequence(gen_ts(3, 13)).word
        word = word[:65] + word[66:]
        report = verify_supersequence_sampled(word, 14, 300_000, seed=2)
        assert report.witness.permutation == (
            12, 10, 8, 3, 14, 9, 7, 5, 1, 13, 4, 2, 11, 6,
        )
        assert report.stats["permutations_checked"] == 138_595
        report = verify_supersequence_sampled(word, 14, 300_000, 2, EXTRA_14)
        assert report.witness.permutation == tuple(range(13, 0, -1)) + (14,)
        assert report.stats["permutations_checked"] == 2

    @pytest.mark.parametrize(
        "s, n, cut, letter, dense, checked, digest",
        [
            (3, 98, 3725, 50, True, 47_250, "f1b89b8ea2def209"),
            (3, 298, 40_000, 150, False, 14_470, "43e0360ee4fd1423"),
        ],
        ids=["m99-dense", "m299-segmented"],
    )
    def test_failure_past_second_batch_replays_pinned_values(
        self, s, n, cut, letter, dense, checked, digest
    ):
        # the built word with `letter` deleted from its last `cut` letters;
        # the values were recorded from the implementation that drew
        # 100 000-row batches with np.tile
        m = n + 1
        word = build_supersequence(generate(s, n)).word
        head = len(word) - cut
        word = word[:head] + tuple(a for a in word[head:] if a != letter)
        assert ((len(word) + 2) * (m + 1) <= verify._CELL_BUDGET) == dense
        assert checked > 2 * min(verify._ROWS, verify._CELL_BUDGET // (2 * m))
        report = verify_supersequence_sampled(word, m, 100_000, seed=7)
        assert report.stats["permutations_checked"] == checked
        perm = report.witness.permutation
        assert hashlib.sha256(repr(perm).encode()).hexdigest()[:16] == digest
        assert not is_subsequence(perm, word)

    def test_reject_stops_within_two_batches(self, drawn):
        # The m = 99 word with letter 17 deleted from its second half fails
        # at random permutation 86, so only the batch queued while the
        # first is matched is drawn past it: two batches of _ROWS rows,
        # where budget // 2m = 10 591-row batches drew 21 182. The witness
        # and count were recorded from that implementation.
        word = build_supersequence(generate(3, 98)).word
        half = len(word) // 2
        word = word[:half] + tuple(a for a in word[half:] if a != 17)
        report = verify_supersequence_sampled(word, 99, 100_000, seed=7)
        assert report.stats["permutations_checked"] == 86
        perm = report.witness.permutation
        digest = hashlib.sha256(repr(perm).encode()).hexdigest()[:16]
        assert digest == "aa0dc4a28340e93a"
        assert sum(drawn) <= 2 * verify._ROWS

    @pytest.mark.parametrize(
        "perm, count, checked, fails",
        [
            (M25_SEED11_LAST_OF_BATCH, 83_885, 83_885, False),
            (M25_SEED11_LAST_OF_BATCH, 83_886, 83_886, True),
            (M25_SEED11_LAST_OF_BATCH, 83_887, 83_886, True),
            (M25_SEED11_FIRST_OF_NEXT, 83_885, 83_885, False),
            (M25_SEED11_FIRST_OF_NEXT, 83_886, 83_886, False),
            (M25_SEED11_FIRST_OF_NEXT, 83_887, 83_887, True),
            (M25_SEED11_LAST_OF_HALF, 41_942, 41_942, False),
            (M25_SEED11_LAST_OF_HALF, 41_943, 41_943, True),
            (M25_SEED11_LAST_OF_HALF, 41_944, 41_943, True),
            (M25_SEED11_FIRST_OF_NEXT_HALF, 41_942, 41_942, False),
            (M25_SEED11_FIRST_OF_NEXT_HALF, 41_943, 41_943, False),
            (M25_SEED11_FIRST_OF_NEXT_HALF, 41_944, 41_944, True),
            (M25_SEED11_LAST_OF_CAP, 4095, 4095, False),
            (M25_SEED11_LAST_OF_CAP, 4096, 4096, True),
            (M25_SEED11_LAST_OF_CAP, 4097, 4096, True),
            (M25_SEED11_FIRST_OF_NEXT_CAP, 4095, 4095, False),
            (M25_SEED11_FIRST_OF_NEXT_CAP, 4096, 4096, False),
            (M25_SEED11_FIRST_OF_NEXT_CAP, 4097, 4097, True),
            (M25_SEED11_LAST_OF_2CAP, 8191, 8191, False),
            (M25_SEED11_LAST_OF_2CAP, 8192, 8192, True),
            (M25_SEED11_LAST_OF_2CAP, 8193, 8192, True),
            (M25_SEED11_FIRST_OF_NEXT_2CAP, 8191, 8191, False),
            (M25_SEED11_FIRST_OF_NEXT_2CAP, 8192, 8192, False),
            (M25_SEED11_FIRST_OF_NEXT_2CAP, 8193, 8193, True),
        ],
        ids=["last-rows-1", "last-rows", "last-rows+1",
             "next-rows-1", "next-rows", "next-rows+1",
             "last-half-1", "last-half", "last-half+1",
             "next-half-1", "next-half", "next-half+1",
             "last-cap-1", "last-cap", "last-cap+1",
             "next-cap-1", "next-cap", "next-cap+1",
             "last-2cap-1", "last-2cap", "last-2cap+1",
             "next-2cap-1", "next-2cap", "next-2cap+1"],
    )
    def test_batch_boundary_replays_pinned_values(
        self, perm, count, checked, fails, monkeypatch
    ):
        # The reversal of a permutation repeated m - 1 times contains every
        # other permutation, so the word fails exactly at that permutation
        # of the seeded stream. Batches hold _ROWS = 4096 rows at m = 25
        # when there are at least _BATCHES of them, and always with
        # _BATCHES = 1: the "cap" permutations are the last of the first
        # batch and the first of the second, the "2cap" ones the last of
        # the second and the first of the third, queued once the first
        # is matched; count runs over one less than, equal to and one more
        # than the boundary between the two. The "rows" and "half"
        # permutations pin the stream where earlier 41 943-row batches
        # met, now inside a batch. The "rows" values were recorded from
        # the implementation that drew 100 000-row batches with np.tile,
        # the "half" ones from one that drew 83 886-row batches into one
        # buffer, the "cap" ones from one that drew 41 943-row batches.
        assert min(verify._ROWS, verify._CELL_BUDGET // 50) == 4096
        word = tuple(reversed(perm)) * 24
        for batches in (verify._BATCHES, 1):
            monkeypatch.setattr(verify, "_BATCHES", batches)
            report = verify_supersequence_sampled(word, 25, count, seed=11)
            assert report.stats["permutations_checked"] == checked
            assert report.passed != fails
            if fails:
                assert report.witness.permutation == perm

    def test_pass_counts_every_batch(self):
        # 41 batches at m = 25: forty of 4096 rows and one of 3933
        word = build_supersequence(gen_ts(4, 24)).word
        report = verify_supersequence_sampled(word, 25, 167_773, seed=11)
        assert report.passed
        assert report.stats["permutations_checked"] == 167_773

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "segmented"])
    def test_matcher_step_matches_next_after(self, dense, monkeypatch):
        # one step from every position 0..L+1 with every letter, on
        # repeated, absent and single letters and the empty word
        if not dense:
            monkeypatch.setattr(verify, "_CELL_BUDGET", 0)
        rng = random.Random(23)
        words = [((), 3), ((1,) * 15, 2), ((2, 1, 2, 1, 1), 3)]
        for _ in range(40):
            m = rng.randint(1, 8)
            used = rng.randint(1, m)
            words.append(
                (tuple(rng.randint(1, used) for _ in range(rng.randint(0, 40))), m)
            )
        for word, m in words:
            table = verify.NextOccurrenceTable(word, m)
            g, a = np.divmod(np.arange((len(word) + 2) * m), m)
            a += 1
            matcher = verify._Matcher(table)
            assert matcher.dense == dense
            pos = (g * matcher.scale).astype(np.int32 if dense else np.intp)
            matcher.advance(pos, a[:, None])
            expected = [
                golden.next_after(word, int(p), int(c)) for p, c in zip(g, a)
            ]
            assert (pos // matcher.scale).tolist() == expected, word

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "segmented"])
    def test_matcher_first_failure_matches_naive(self, dense, monkeypatch):
        if not dense:
            monkeypatch.setattr(verify, "_CELL_BUDGET", 0)
        rng = random.Random(29)
        for _ in range(150):
            m = rng.randint(1, 6)
            word = tuple(rng.randint(1, m) for _ in range(rng.randint(0, 30)))
            perms = [tuple(rng.sample(range(1, m + 1), m))
                     for _ in range(rng.randint(1, 40))]
            expected = next(
                (i for i, p in enumerate(perms) if not is_subsequence(p, word)),
                -1,
            )
            table = verify.NextOccurrenceTable(word, m)
            matcher = verify._Matcher(table)
            assert matcher.dense == dense
            batch = np.array(perms, dtype=np.int64)
            assert matcher.first_failure(batch) == expected, (word, perms)
            # the same matcher takes a batch of any length
            assert matcher.first_failure(batch[:1]) == (0 if expected == 0 else -1)

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "segmented"])
    def test_matcher_first_failure_past_a_chunk(self, dense, monkeypatch):
        # m > 64, and a row after row 0 often fails past column 63, so
        # only a walk over every column while row 0 passes finds it. The
        # word starts with a base permutation, sometimes with one letter
        # cut; row 0 is the base and the other rows are the base, the base
        # with two letters swapped (often both past column 62) or fresh
        # draws.
        if not dense:
            monkeypatch.setattr(verify, "_CELL_BUDGET", 0)
        rng = random.Random(31)
        late = 0
        for _ in range(60):
            m = rng.randint(65, 200)
            base = rng.sample(range(1, m + 1), m)
            word = tuple(base)
            if rng.random() < 0.3:
                cut = rng.randrange(m)
                word = word[:cut] + word[cut + 1 :]
            word += tuple(rng.randint(1, m) for _ in range(rng.randint(0, m)))
            perms = [tuple(base)]
            for _ in range(rng.randint(0, 11)):
                perm = base[:]
                if rng.random() < 0.1:
                    perm = rng.sample(range(1, m + 1), m)
                elif rng.random() < 0.8:
                    # from column 63 on, the first 64 letters still match
                    i = rng.randrange(m - 1) if rng.random() < 0.3 else (
                        rng.randrange(63, m - 1))
                    j = rng.randrange(i + 1, m)
                    perm[i], perm[j] = perm[j], perm[i]
                perms.append(tuple(perm))
            expected = next(
                (i for i, p in enumerate(perms) if not is_subsequence(p, word)),
                -1,
            )
            if expected > 0:
                it = iter(word)
                late += sum(c in it for c in perms[expected]) >= 64
            table = verify.NextOccurrenceTable(word, m)
            matcher = verify._Matcher(table)
            assert matcher.dense == dense
            batch = np.array(perms, dtype=np.int64)
            assert matcher.first_failure(batch) == expected, (word, perms)
        # row 0 passes and a later row fails past its 64th letter
        assert late >= 20

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "segmented"])
    def test_advance_stops_at_the_column_where_row_0_fails(
        self, dense, monkeypatch
    ):
        # row 0 fails at its second letter, column 1: the walk stops
        # there, so row 1 holds its position after two letters, not after
        # all three
        if not dense:
            monkeypatch.setattr(verify, "_CELL_BUDGET", 0)
        word = (1, 2, 3, 2)
        perms = [(3, 1, 2), (1, 2, 3)]
        matcher = verify._Matcher(verify.NextOccurrenceTable(word, 3))
        assert matcher.dense == dense
        pos = np.zeros(2, dtype=np.int32 if dense else np.intp)
        matcher.advance(pos, np.array(perms, dtype=np.int64))
        row1 = golden.next_after(word, golden.next_after(word, 0, 1), 2)
        assert row1 == 2
        assert (pos // matcher.scale).tolist() == [len(word) + 1, row1]
        assert matcher.first_failure(np.array(perms, dtype=np.int64)) == 0

    def test_long_permutation_failing_early_stops_at_first_chunk(self):
        # The only row is the witness. (1, 2) lacks most letters, so no
        # table is built; on the identity word the row fails within its
        # first few letters, where matching stops. Matching all 2**19
        # columns would take about 2.4 s.
        for word in ((1, 2), tuple(range(1, (1 << 19) + 1))):
            start = time.perf_counter()
            report = verify_supersequence_sampled(word, 1 << 19, 1, 0)
            assert time.perf_counter() - start < 1.0
            assert report.verdict == "fail"
            assert report.stats["permutations_checked"] == 1
            perm = report.witness.permutation
            digest = hashlib.sha256(repr(perm).encode()).hexdigest()[:16]
            assert digest == "ad5f2e94f6f64d93"

    def test_word_missing_a_letter_builds_no_table(self, monkeypatch):
        # Every permutation holds every letter, so a word that lacks one
        # fails at the first row checked, the first of `extra` or else the
        # first drawn, and no table is built. The segmented table of 60
        # ones at m = 2**18, (61 + 2)(m + 1) int32 cells, peaked at
        # 78.2 MiB under tracemalloc; now the witness itself, 2**18 ints
        # in a tuple (9.0 MiB), is most of the peak (14.2 MiB measured).
        # The witness was recorded from the implementation that built the
        # table.
        report, peak = self.traced_peak((1,) * 60, 1 << 18, 1, 0)
        assert report.stats["permutations_checked"] == 1
        perm = report.witness.permutation
        digest = hashlib.sha256(repr(perm).encode()).hexdigest()[:16]
        assert digest == "840fc81234799255"
        assert peak < 16 << 20, peak
        monkeypatch.setattr(verify, "_Matcher", None)
        extra = [tuple(range(7, 0, -1)), tuple(range(1, 8))]
        report = verify_supersequence_sampled((1, 2, 3), 7, 100, 5, extra)
        assert report.witness.permutation == extra[0]
        assert report.stats["permutations_checked"] == 1
        report = verify_supersequence_sampled((1, 2, 3), 7, 100, 5)
        first = np.random.default_rng(5).permuted(np.arange(1, 8)[None], axis=1)
        assert report.witness.permutation == tuple(first[0].tolist())
        assert report.stats["permutations_checked"] == 1

    def test_first_row_failing_builds_no_table(self, monkeypatch):
        # 1..m followed by sixty 1s holds every letter, in 61 runs, and its
        # first drawn row fails within a few letters. Building the
        # segmented table first, (61 + 2)(m + 1) int32 cells at m = 2**18,
        # peaked at 81 MiB under tracemalloc; checking that row first
        # peaks at 14.2 MiB, most of it the witness, 2**18 ints in a tuple.
        # The witness was recorded from the implementation that built the
        # table.
        word = tuple(range(1, (1 << 18) + 1)) + (1,) * 60
        report, peak = self.traced_peak(word, 1 << 18, 1, 0)
        assert peak < 16 << 20, peak

        def no_table(table):
            raise AssertionError(f"a table of {len(table.word)} letters")

        monkeypatch.setattr(NextOccurrenceTable, "as_array", no_table)
        monkeypatch.setattr(NextOccurrenceTable, "as_blocks", no_table)
        again = verify_supersequence_sampled(word, 1 << 18, 1, 0)
        for r in (report, again):
            assert r.stats["permutations_checked"] == 1
            perm = r.witness.permutation
            digest = hashlib.sha256(repr(perm).encode()).hexdigest()[:16]
            assert digest == "840fc81234799255"

    def test_extra_is_decided_before_any_table(self, monkeypatch):
        # the pin of test_seeded_failure_replays_pinned_values: EXTRA_14's
        # second row, the reversal of 1..13 then 14, is the witness
        monkeypatch.setattr(verify, "_Matcher", None)
        word = build_supersequence(gen_ts(3, 13)).word
        report = verify_supersequence_sampled(
            word[:65] + word[66:], 14, 300_000, 2, EXTRA_14
        )
        assert report.witness.permutation == tuple(range(13, 0, -1)) + (14,)
        assert report.stats["permutations_checked"] == 2

    def test_whole_call_matches_naive_replay(self):
        # Seeded random words over at most 6 letters: some lack a letter,
        # some end in a long run of one letter, and some are m random
        # permutations, which hold every permutation, less one letter.
        # With 0-4 random `extra` rows, the witness and
        # `permutations_checked` are those of the first row that
        # is_subsequence rejects in `extra` and then in the rows of one
        # `permuted` call on all `count` rows.
        rng = random.Random(36)
        outcomes = collections.Counter()
        for case in range(400):
            m = rng.randint(1, 6)
            letters = range(1, m + 1)
            if case % 4 == 3:
                word = [a for _ in letters for a in rng.sample(letters, m)]
                del word[rng.randrange(m * m)]
            else:
                size = rng.randint(0, 3 * m * m)
                word = [rng.randint(1, m) for _ in range(size)]
            if case % 4 == 1:
                gone = rng.randint(1, m)
                word = [a for a in word if a != gone]
            elif case % 4 == 2:
                word += [rng.randint(1, m)] * rng.randint(10, 60)
            extra = [
                tuple(rng.sample(letters, m)) for _ in range(rng.randint(0, 4))
            ]
            count, seed = rng.randint(1, 60), rng.randrange(1 << 32)
            report = verify_supersequence_sampled(word, m, count, seed, extra)
            drawn = np.random.default_rng(seed).permuted(
                np.tile(np.arange(1, m + 1), (count, 1)), axis=1
            )
            stream = extra + [tuple(row) for row in drawn.tolist()]
            first = next(
                (i for i, row in enumerate(stream)
                 if not is_subsequence(row, word)),
                None,
            )
            witness = report.witness and report.witness.permutation
            checked = report.stats["permutations_checked"]
            if first is None:
                assert (witness, checked) == (None, len(stream))
                outcomes["pass"] += 1
            else:
                assert (witness, checked) == (stream[first], first + 1)
                where = (first >= len(extra)) + (first > len(extra))
                outcomes[("extra", "first drawn", "later drawn")[where]] += 1
        # 170, 168, 32 and 30 cases
        assert min(outcomes.values()) >= 25, outcomes

    @pytest.mark.parametrize(
        "m, digest", [(255, "524d697c25c3c5fb"), (256, "55da9d0330d3f41a")],
        ids=["uint8", "uint16"],
    )
    def test_last_uint8_letter_replays_pinned_values(self, m, digest):
        # Rows are stored as uint8 up to m = 255 and as uint16 from 256, so
        # a wrong width would wrap the letter 256 to 0. The word is the
        # reversal of row 700 of the seeded stream, repeated m - 1 times:
        # it holds every other permutation, so the run of six 200-row
        # batches fails exactly there, in the fourth. The values were
        # recorded from the implementation that stored int64 rows.
        perm = np.random.default_rng(3).permuted(
            np.tile(np.arange(1, m + 1), (701, 1)), axis=1
        )[700]
        word = tuple(perm[::-1].tolist()) * (m - 1)
        report = verify_supersequence_sampled(word, m, 1200, seed=3)
        assert report.stats["permutations_checked"] == 701
        assert report.witness.permutation == tuple(perm.tolist())
        witness = repr(report.witness.permutation).encode()
        assert hashlib.sha256(witness).hexdigest()[:16] == digest

    @pytest.mark.parametrize(
        "m, digest",
        [(65_535, "e17e3f6283b6d8f6"), (65_536, "3b64107059465276")],
        ids=["uint16", "uint32"],
    )
    def test_last_uint16_letter_replays_pinned_values(self, m, digest):
        # uint16 rows up to m = 65 535, uint32 from 65 536: on the identity
        # word, the identity row of `extra` passes through every column,
        # the letter m last, and the first drawn row fails. The values
        # were recorded from the implementation that stored int64 rows.
        word = tuple(range(1, m + 1))
        report = verify_supersequence_sampled(word, m, 3, 0, [word])
        assert report.stats["permutations_checked"] == 2
        perm = report.witness.permutation
        assert sorted(perm) == list(word)
        witness = repr(perm).encode()
        assert hashlib.sha256(witness).hexdigest()[:16] == digest

    @pytest.mark.parametrize(
        "budget, rows",
        [(28, None), (56, None), (196, None), (verify._CELL_BUDGET, 100),
         (verify._CELL_BUDGET, None), (verify._CELL_BUDGET, 1 << 20)],
        ids=["1-row", "2-rows", "7-rows", "100-rows", "default", "one-batch"],
    )
    def test_batch_size_changes_nothing(self, budget, rows, monkeypatch):
        # A draw into a batch still being matched, or out of stream
        # order, would change some triple at some batch size. The damaged
        # words fail in EXTRA_14 (at its second row) and at random
        # permutation 591; the budgets give m = 14 batches of 1, 2 and 7
        # rows, and _ROWS caps them at 100, or they hold 3000 / _BATCHES
        # = 500 rows by default, or with _ROWS = 2**20 and _BATCHES = 1
        # all 3000 random rows in one batch.
        word = build_supersequence(gen_ts(3, 13)).word
        words = [
            word,
            word[:65] + word[66:],
            word[:43] + word[44:128] + word[129:],
        ]

        def triples():
            for w in words:
                for family in ((), EXTRA_14):
                    r = verify_supersequence_sampled(w, 14, 3000, 5, family)
                    witness = r.witness and r.witness.permutation
                    yield r.verdict, witness, r.stats["permutations_checked"]

        expected = list(triples())
        assert [t[2] for t in expected] == [3000, 3015, 3000, 2, 591, 606]
        monkeypatch.setattr(verify, "_CELL_BUDGET", budget)
        if rows:
            monkeypatch.setattr(verify, "_ROWS", rows)
        if rows == 1 << 20:
            monkeypatch.setattr(verify, "_BATCHES", 1)
        assert list(triples()) == expected

    def test_no_two_batches_share_memory(self, monkeypatch):
        # Each batch is drawn into an array of its own, so the worker
        # writes no batch the caller has been handed: the six 500-row
        # batches of an m = 14 run, all kept alive here, share no memory.
        kept = []
        first_failure = verify._Matcher.first_failure

        def keeping(matcher, perms):
            kept.append(perms)
            return first_failure(matcher, perms)

        monkeypatch.setattr(verify._Matcher, "first_failure", keeping)
        word = build_supersequence(gen_ts(3, 13)).word
        assert verify_supersequence_sampled(word, 14, 3000, 5).passed
        assert [len(batch) for batch in kept] == [500] * 6
        for a, b in itertools.combinations(kept, 2):
            assert not np.shares_memory(a, b)

    def test_concurrent_calls_replay(self, monkeypatch):
        # eight callers, each with its own worker, switching threads every
        # 10 µs, in 7-row batches: every triple equals its serial value
        word = build_supersequence(gen_ts(3, 13)).word
        damaged = word[:43] + word[44:128] + word[129:]
        monkeypatch.setattr(verify, "_CELL_BUDGET", 196)

        def triple(seed):
            r = verify_supersequence_sampled(damaged, 14, 3000, seed)
            witness = r.witness and r.witness.permutation
            return r.verdict, witness, r.stats["permutations_checked"]

        seeds = range(5, 13)
        expected = {seed: triple(seed) for seed in seeds}
        results = {}
        threads = [
            threading.Thread(target=lambda s=seed: results.update({s: triple(s)}))
            for seed in seeds
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == expected

    @pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc"
    )
    def test_first_import_under_concurrency(self, child_report):
        # two threads make a fresh process's first sampled calls at once,
        # so both race its first import of numpy: each triple equals its
        # serial value (this module has already imported numpy, so only a
        # child sees the race)
        word = build_supersequence(gen_ts(3, 13)).word
        damaged = word[:43] + word[44:128] + word[129:]
        expected = {}
        for seed in (5, 6):
            r = verify_supersequence_sampled(damaged, 14, 3000, seed)
            witness = r.witness and r.witness.permutation
            expected[seed] = (r.verdict, witness, r.stats["permutations_checked"])
        out = child_report(
            "import sys, threading\n"
            "from skipseq import build_supersequence, gen_ts\n"
            "from skipseq import verify_supersequence_sampled\n"
            "word = build_supersequence(gen_ts(3, 13)).word\n"
            "damaged = word[:43] + word[44:128] + word[129:]\n"
            "print('numpy_before', 'numpy' in sys.modules)\n"
            "barrier, results = threading.Barrier(2), {}\n"
            "def triple(seed):\n"
            "    barrier.wait()\n"
            "    r = verify_supersequence_sampled(damaged, 14, 3000, seed)\n"
            "    witness = r.witness and r.witness.permutation\n"
            "    results[seed] = (r.verdict, witness,"
            " r.stats['permutations_checked'])\n"
            "threads = [threading.Thread(target=triple, args=(seed,))"
            " for seed in (5, 6)]\n"
            "sys.setswitchinterval(1e-5)\n"
            "for thread in threads:\n"
            "    thread.start()\n"
            "for thread in threads:\n"
            "    thread.join(timeout=60)\n"
            "print('alive', any(thread.is_alive() for thread in threads))\n"
            "print('results', repr(sorted(results.items())))\n"
        )
        assert out["numpy_before"] == "False"
        assert out["alive"] == "False"
        assert out["results"] == repr(sorted(expected.items()))

    def test_no_thread_outlives_the_call(self, monkeypatch):
        word = build_supersequence(gen_ts(3, 13)).word
        damaged = word[:43] + word[44:128] + word[129:]
        before = threading.active_count()
        assert verify_supersequence_sampled(word, 14, 100_000, 1).passed
        assert threading.active_count() == before
        # a failure in `extra`, while the first batch is being drawn
        report = verify_supersequence_sampled(
            word[:65] + word[66:], 14, 100_000, 1, EXTRA_14
        )
        assert report.stats["permutations_checked"] == 2
        assert threading.active_count() == before
        # a failure in a random batch, while the next is being drawn
        report = verify_supersequence_sampled(damaged, 14, 100_000, 5)
        assert report.stats["permutations_checked"] == 591
        assert threading.active_count() == before
        with pytest.raises(ValueError, match="extra"):
            verify_supersequence_sampled(word, 14, 100_000, 1, [(1, 2)])
        assert threading.active_count() == before

        # An exception raised by a draw reaches the caller, also from the
        # second batch, which the failure in the first leaves unmatched
        # (two batches of min(_ROWS, budget // 28) rows): the stream
        # fails at the first row of the first or of the second batch.
        default_rng = np.random.default_rng

        class Broken:
            def __init__(self, seed, fail_at):
                self.rng, self.fail_at = default_rng(seed), fail_at
                self.rows = 0  # drawn before this chunk

            def permuted(self, chunk, *args, **kwargs):
                if self.rows == self.fail_at:
                    raise RuntimeError(f"draw at row {self.rows} failed")
                self.rows += len(chunk)
                return self.rng.permuted(chunk, *args, **kwargs)

        rows = min(verify._ROWS, verify._CELL_BUDGET // 28)
        assert 591 < rows < 100_000
        for fail_at, w in ((0, word), (rows, damaged)):
            monkeypatch.setattr(
                np.random, "default_rng",
                lambda seed: Broken(seed, fail_at),
            )
            with pytest.raises(
                RuntimeError, match=f"draw at row {fail_at} failed"
            ):
                verify_supersequence_sampled(w, 14, 100_000, 5, EXTRA_14)
            assert threading.active_count() == before

    def test_batches_hold_at_most_a_sixth_of_the_run(self, drawn):
        # Besides the _ROWS and budget // 2m caps, a batch holds at most
        # ceil(count / 6) rows, so the first draw, which no match overlaps,
        # and the last match, which no draw overlaps, are each at most a
        # sixth of a run. At m = 299 the budget alone gave three batches
        # of 3506 rows.
        word = build_supersequence(generate(3, 298)).word
        assert verify_supersequence_sampled(word, 299, 10_000, 1).passed
        assert drawn == [1667] * 5 + [1665]
        # runs of at least six budget-sized batches keep their size
        drawn.clear()
        word = build_supersequence(gen_ts(4, 24)).word
        report = verify_supersequence_sampled(word, 25, 6 * 4096 + 1, 1)
        assert report.stats["permutations_checked"] == 6 * 4096 + 1
        assert drawn == [4096] * 6 + [1]
        # the word is checked before any draw starts
        drawn.clear()
        with pytest.raises(ValueError, match="letter 15 outside"):
            verify_supersequence_sampled((1, 2, 15), 14, 10_000, 1)
        assert drawn == []

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "segmented"])
    def test_failed_table_build_joins_the_worker(self, dense, drawn, monkeypatch):
        # The first draw is queued before the matcher builds its table, so
        # it runs, whole, when that build raises, and the call returns
        # only after the worker has finished it.
        word = tuple(range(1, 15)) * (20 if dense else 10_000)
        assert ((len(word) + 2) * 15 <= verify._CELL_BUDGET) == dense

        def fail(table):
            raise MemoryError("table build failed")

        monkeypatch.setattr(
            NextOccurrenceTable, "as_array" if dense else "as_blocks", fail
        )
        before = threading.active_count()
        with pytest.raises(MemoryError, match="table build failed"):
            verify_supersequence_sampled(word, 14, 10_000, 1)
        assert threading.active_count() == before
        assert drawn == [1667]


    def test_m99_tracemalloc_peak(self):
        # the benchmark's m = 99 run: two live uint8 batches of 4096 rows
        # (0.4 MiB each, each in an array of its own) and the worker's
        # int64 scratch of 662 rows (0.5 MiB) beside the dense table,
        # 9571 + 2 rows of 100 int32 cells (3.7 MiB), measured at 5.0 MiB
        # after a warm-up call and 5.7 MiB alone; a third batch, alive
        # when a matched one is kept past the next draw, took it to
        # 5.3 MiB, and two int64 batches to 9.9 MiB
        word = build_supersequence(generate(3, 98)).word
        report, peak = self.traced_peak(word, 99, 100_000, 1)
        assert report.passed
        assert peak < 6 << 20, peak

    def test_m299_tracemalloc_peak(self):
        # two live uint16 batches of 1667 rows (1.0 MiB each) and the
        # worker's int64 scratch of 219 rows beside the segmented table,
        # measured at 3.5 MiB; two int64 batches peaked at 8.7 MiB, and
        # three batches of 3506 rows in 8.0 MiB arrays at 18.4 MiB
        word = build_supersequence(generate(3, 298)).word
        report, peak = self.traced_peak(word, 299, 10_000, 1)
        assert report.passed
        assert peak < 5 << 20, peak

    @pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc"
    )
    def test_m25_cli_peak_rss(self, child_report):
        # the benchmark's proof-route run: two live 0.1 MiB uint8 batches
        # of _ROWS rows, the worker's 0.5 MiB int64 scratch, the 573-letter
        # word's dense table and the adversarial family; measured at
        # 36.6 MiB (37.6 MiB with int64 batches), bound with 3.4 MiB to
        # spare for other interpreter and numpy builds
        out = child_report(
            "import contextlib, io\n"
            "from skipseq import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['verify', '--s', '4', '--n', '24',"
            " '--sampled', '--count', '1000000'])\n"
            "print('code', code)\n"
        )
        assert out["code"] == "0"
        assert int(out["hwm"]) < 40 * 1024

    @pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc"
    )
    def test_m299_peak_rss(self):
        # The dense (L+2) x 300 table would take about 100 MiB at
        # L = 88 691. The child reports VmHWM, the peak RSS of
        # its own image: its ru_maxrss would also count this process's
        # RSS at the spawn, which earlier tests in the session inflate.
        code = (
            "from skipseq import cli\n"
            "code = cli.main(['verify', '--s', '3', '--n', '298', '--sampled',"
            " '--count', '10000', '--seed', '1', '--format', 'json'])\n"
            "hwm = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')]\n"
            "print(code, hwm[0].split()[1])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        code, peak_kib = map(int, result.stdout.split("\n")[-2].split())
        assert code == 0
        assert peak_kib < 256 * 1024

    @pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc"
    )
    def test_m299_segmented_peak_rss(self, child_report):
        # At m = 299 the dense table does not fit the cell budget, so the
        # CLI matches on the segmented table (about 1 MiB) in six batches
        # of ceil(10 000 / 6) = 1667 rows, fewer than budget // 2m = 3507
        # and _ROWS.
        out = child_report(
            "import contextlib, io\n"
            "from skipseq import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['verify', '--s', '3', '--n', '298',"
            " '--sampled', '--count', '10000', '--seed', '1'])\n"
            "print('code', code)\n"
        )
        assert out["code"] == "0"
        assert int(out["hwm"]) < 96 * 1024

    @pytest.mark.slow
    @pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc"
    )
    def test_m1000_sampled_time_and_peak_rss(self, child_report):
        # the m = 1000 word (L = 997 553), whose dense table would take
        # about 4 GB
        out = child_report(
            "import time\n"
            "from skipseq import build_supersequence, generate\n"
            "from skipseq import verify_supersequence_sampled\n"
            "word = build_supersequence(generate(42, 999)).word\n"
            "start = time.perf_counter()\n"
            "report = verify_supersequence_sampled(word, 1000, 10_000, seed=1)\n"
            "print('elapsed', time.perf_counter() - start)\n"
            "print('passed', report.passed)\n"
        )
        assert out["passed"] == "True"
        assert float(out["elapsed"]) < 5.0
        assert int(out["hwm"]) < 256 * 1024

    @pytest.mark.slow
    @pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc"
    )
    def test_m1000_cli_sampled_time_and_peak_rss(self, child_report):
        # the CLI run also builds the word and checks the adversarial
        # family of m = 1000, one row
        out = child_report(
            "import contextlib, io, time\n"
            "from skipseq import cli\n"
            "start = time.perf_counter()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['verify', '--s', '42', '--n', '999',"
            " '--sampled', '--count', '10000', '--seed', '1'])\n"
            "print('elapsed', time.perf_counter() - start)\n"
            "print('code', code)\n"
        )
        assert out["code"] == "0"
        assert float(out["elapsed"]) < 5.0
        assert int(out["hwm"]) < 112 * 1024


class TestAdversarial:
    # built words at levels 1..4 with their alphabet sizes m, which is
    # also how many of their single deletions the family catches
    BUILT = [
        (1, 13, 14), (2, 12, 13), (3, 13, 14), (2, 15, 16), (3, 18, 19),
        (4, 24, 25),
    ]

    @pytest.mark.parametrize(
        "m", [1, 2, 13, 14, 21, 25, 40, 48, 99, 299, 1000]
    )
    def test_family_pinned(self, m):
        # one row, so m = 1 gives [(1,)]
        expected = [tuple(range(m - 1, 0, -1)) + (m,)]
        assert adversarial_permutations(m) == expected

    def test_family_row_holds_ints_for_a_numpy_alphabet(self):
        (row,) = adversarial_permutations(np.int64(10))
        assert row == (9, 8, 7, 6, 5, 4, 3, 2, 1, 10)
        assert all(type(a) is int for a in row)

    def test_family_rejects_empty_alphabet(self):
        with pytest.raises(ValueError, match="^alphabet size m=0 must be"):
            adversarial_permutations(0)

    def test_family_rejects_alphabet_past_ceiling(self, monkeypatch):
        # checked before the row is built: at a budget of 28 cells m = 29
        # is rejected too, so a family built before the check fails here
        # rather than at 2**21 + 1 letters
        with monkeypatch.context() as patch:
            patch.setattr(verify, "_CELL_BUDGET", 28)
            with pytest.raises(ValueError, match="^m=29 exceeds the sampled"):
                adversarial_permutations(29)
        with pytest.raises(
            ValueError, match="^m=2097153 exceeds the sampled ceiling 2097152$"
        ):
            adversarial_permutations(2**21 + 1)

    @pytest.mark.parametrize("s, n, m", BUILT)
    def test_family_row_is_tight(self, s, n, m):
        # its greedy embedding ends on the word's last letter
        word = build_supersequence(generate(s, n)).word
        (row,) = adversarial_permutations(m)
        end = 0
        for a in row:
            end = word.index(a, end) + 1
        assert end == len(word)

    @pytest.mark.parametrize("s, n, caught", BUILT)
    def test_family_catches_single_deletions(self, s, n, caught):
        # the counts of the m + 1 rows it replaced (the identity, the
        # reversal, the m - 1 rotations): no other row caught a deletion
        # that the reversal missed
        word = build_supersequence(generate(s, n)).word
        family = adversarial_permutations(n + 1)
        cuts = [word[:i] + word[i + 1 :] for i in range(len(word))]
        caught_by_family = [
            cut for cut in cuts
            if any(not is_subsequence(p, cut) for p in family)
        ]
        assert len(caught_by_family) == caught

    def test_dead_chains_match_naive(self):
        # No chain down a built list dies before sigma_2, so each list is
        # edited at a chain step whose M_j has one member, prev, which the
        # chain picks wherever it lies in sigma_{j-1}: moving prev to the end
        # of sigma_{j-1} empties M_{j-1}, and deleting it there stops the
        # walk at sigma_{j-1}.  The edited lists keep their case tags.
        reasons = collections.Counter()
        for s, n in [(3, 13), (4, 24)]:
            glist = generate(s, n)
            chains = [
                (k, last)
                for k in glist.skip_indices()
                for last in range(n - s + 2, n + 1)
            ]
            for k, last in chains:
                trace = trace_m_sets(glist, skip_chain_rho(glist, k, last), k)
                step = next(
                    ((j, m_set) for j, m_set in trace.steps
                     if len(m_set) == 1 and j > 2),
                    None,
                )
                if step is None:
                    continue
                j, (prev,) = step[0], tuple(step[1])
                rest = tuple(a for a in glist.seq(j - 1) if a != prev)
                for sigma in (rest + (prev,), rest):
                    sequences = list(glist.sequences)
                    sequences[j - 2] = sigma
                    cut = dataclasses.replace(
                        glist, sequences=tuple(sequences)
                    )
                    rho, reason = naive_skip_chain(cut, k, last)
                    assert reason == ("empty" if prev in sigma else "absent")
                    reasons[reason] += 1
                    assert skip_chain_rho(cut, k, last) == rho
        assert reasons["empty"] == reasons["absent"] > 0, reasons

    def test_chain_matches_worked_recursion(self):
        glist = gen_ts(3, 18)
        rho = skip_chain_rho(glist, 12, 17)
        assert rho[-1] == 17
        assert rho[-2] == 18  # max-occupancy pick keeps both skip letters


class TestTraceMSets:
    def test_worked_example_first_steps(self):
        glist = gen_ts(3, 18)
        rho = (1, 2, 3, 4, 5, 6, 7, 9, 10, 8, 18, 17)
        trace = trace_m_sets(glist, rho, 12)
        assert trace.steps[0] == (11, frozenset({18, 8}))
        assert trace.steps[1] == (10, frozenset({8, 9}))

    def test_alternative_branch(self):
        glist = gen_ts(3, 18)
        rho = (1, 2, 3, 4, 5, 6, 7, 9, 10, 8, 8, 17)
        # rho must be distinct; route the branch via the chain helper instead
        rho = list(skip_chain_rho(glist, 12, 17))
        rho[10] = 8  # rho[11] = 8 branch
        rho[9] = 18  # keep letters distinct
        trace = trace_m_sets(glist, tuple(rho), 12)
        assert trace.steps[1] == (10, frozenset({9}))

    def test_max_occupancy_chain_reaches_sigma_1(self):
        glist = gen_ts(3, 18)
        trace = trace_m_sets(glist, skip_chain_rho(glist, 12, 17), 12)
        assert trace.steps[-1] == (1, frozenset())
        assert trace.terminated_at == 1
        assert trace.max_size <= 2

    def test_bound_on_all_chains(self):
        for s, n in [(3, 13), (3, 18), (4, 24)]:
            glist = generate(s, n)
            for k in glist.skip_indices():
                for a in range(n - s + 2, n + 1):
                    trace = trace_m_sets(glist, skip_chain_rho(glist, k, a), k)
                    assert trace.max_size <= s - 1

    def test_agrees_with_naive_on_seeded_rho(self):
        reasons = collections.Counter()
        outputs = []
        for glist, rho, k in trace_corpus():
            trace = trace_m_sets(glist, rho, k)
            steps = tuple((idx, tuple(sorted(m))) for idx, m in trace.steps)
            got = (steps, trace.terminated_at, trace.max_size)
            expected, reason = naive_m_sets(glist, rho, k)
            assert got == expected, (glist.s, glist.n, k, rho)
            reasons[reason] += 1
            outputs.append(got)
        # every way the walk can stop is exercised
        assert set(reasons) == {"absent", "empty", "sigma_1", "left"}, reasons
        # sha256 of the normalised outputs, 16 hex digits, recorded before
        # the trace and the skip chains shared one M-set step
        digest = hashlib.sha256(repr(outputs).encode()).hexdigest()[:16]
        assert digest == "c37fd4085cd34965"

    def test_greedy_chain_has_maximum_occupancy(self):
        # skip_chain_rho's claims: no walk down the M sets from the same
        # skip letter meets a larger set than its greedy chain does, and
        # each pick leaves the largest next set that any member of M would
        picks = 0
        for s, n in [(2, 9), (2, 12), (3, 13), (2, 15), (3, 18), (4, 24),
                     (3, 23)]:
            glist = generate(s, n)
            for k in glist.skip_indices():
                for last in skip_letters(s, n):
                    rho = skip_chain_rho(glist, k, last)
                    trace = trace_m_sets(glist, rho, k)
                    expected = naive_max_occupancy(glist, k, last)
                    assert trace.max_size == expected, (s, n, k, last)
                    for idx, m_set in trace.steps:
                        if idx == 1 or len(m_set) < 2:
                            continue
                        sigma = glist.seq(idx - 1)
                        used = set(rho[idx:])  # rho_{idx+1}, ..., rho_k
                        sizes = {
                            a: len(set(sigma[sigma.index(a) + 1 :]) - used)
                            if a in sigma else 0
                            for a in m_set
                        }
                        assert sizes[rho[idx - 1]] == max(sizes.values())
                        picks += 1
        assert picks > 0

    def test_walks_hold_no_position_table(self):
        # at n = 999 a letter-position table over the list would take
        # 7.76 MiB in skip_chain_rho and 9.56 MiB in trace_m_sets; the
        # trace's own 914 steps take about 1.9 MiB
        def peak(call):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                return call(), tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        glist = generate(42, 999)
        rho, chain_peak = peak(lambda: skip_chain_rho(glist, 915, 999))
        trace, trace_peak = peak(lambda: trace_m_sets(glist, rho, 915))
        assert chain_peak < 1 << 20, chain_peak
        assert trace_peak < 4 << 20, trace_peak
        # the chain and the trace as recorded with the table
        assert rho[-10:] == (94, 93, 92, 91, 90, 89, 88, 87, 86, 999)
        digest = hashlib.sha256(repr(rho).encode()).hexdigest()[:16]
        assert digest == "3c15ba6f975a69b2"
        steps = tuple((idx, tuple(sorted(m))) for idx, m in trace.steps)
        got = (steps, trace.terminated_at, trace.max_size)
        assert (len(steps), got[1], got[2]) == (914, 1, 41)
        digest = hashlib.sha256(repr(got).encode()).hexdigest()[:16]
        assert digest == "1c9d39a671a703d4"

    def test_precondition_checks(self):
        glist = gen_ts(3, 18)
        with pytest.raises(ValueError, match="k=-6 outside 1..18"):
            skip_chain_rho(glist, -6, 17)
        with pytest.raises(ValueError, match="k=19 outside 1..18"):
            trace_m_sets(glist, tuple(range(1, 19)) + (17,), 19)
        with pytest.raises(ValueError, match="skip-sequence"):
            trace_m_sets(glist, tuple(range(1, 12)), 11)
        with pytest.raises(ValueError, match="skip letter"):
            trace_m_sets(glist, tuple(range(1, 13)), 12)
        # the chain must end in a skip letter, 17 or 18 here
        for last in (-1, 0, 5, 40):
            message = f"rho\\[12\\]={last} is not a skip letter"
            with pytest.raises(ValueError, match=message):
                skip_chain_rho(glist, 12, last)
            with pytest.raises(ValueError, match=message):
                trace_m_sets(glist, tuple(range(1, 12)) + (last,), 12)
        # a short rho is judged by its last letter, an empty one by its length
        with pytest.raises(ValueError, match="rho\\[12\\]=3 is not a skip"):
            trace_m_sets(glist, (1, 2, 3), 12)
        with pytest.raises(ValueError, match="rho has length 2, expected k=12"):
            trace_m_sets(glist, (1, 17), 12)
        with pytest.raises(ValueError, match="rho has length 0, expected k=12"):
            trace_m_sets(glist, (), 12)
        with pytest.raises(ValueError, match="k=11 is not a skip-sequence"):
            trace_m_sets(glist, (), 11)
        with pytest.raises(ValueError, match="k=99 outside 1..18"):
            trace_m_sets(glist, (), 99)
        # the README's rho with its first letter repeated, out of range or
        # not an integer
        rho = (1, 16, 15, 14, 13, 12, 11, 10, 9, 8, 18, 17)
        for first in (16, 0, 19, 1.0, 1.5, "1"):
            message = "^rho must have distinct letters from 1..n$"
            with pytest.raises(ValueError, match=message):
                trace_m_sets(glist, (first,) + rho[1:], 12)
        # a skip letter must be an integer too, and a numpy one reads as
        # its int
        message = "^rho\\[12\\]=17.0 is not a skip letter$"
        with pytest.raises(ValueError, match=message):
            skip_chain_rho(glist, 12, 17.0)
        with pytest.raises(ValueError, match=message):
            trace_m_sets(glist, tuple(map(float, rho)), 12)
        chain = skip_chain_rho(glist, 12, np.int64(17))
        assert chain == skip_chain_rho(glist, 12, 17)
        assert all(type(a) is int for a in chain)
        expected = trace_m_sets(glist, rho, 12)
        assert trace_m_sets(glist, [np.int64(a) for a in rho], 12) == expected
        assert trace_m_sets(glist, np.array(rho, dtype=np.uint8), 12) == expected


def _unpruned_oracle(m):
    """The oracle's breadth-first search stepping every state by all m
    letters, not only the canonical ones: the reference for its pruning."""
    without, _, tree = verify._universe(m, 0)
    full = (1 << m) - 1
    start = tuple(tree)
    parent = {start: ()}
    frontier = [start]
    for length in itertools.count(1):
        level = []
        for state in frontier:
            for a in range(1, m + 1):
                tree = list(state)
                done = verify._read(tree, without, (a - 1,)) >> full & 1
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
                level.append(nxt)
        frontier = level


class TestOracle:
    # The lexicographically least shortest supersequences.
    @pytest.mark.parametrize(
        "m", [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)]
    )
    def test_agrees_with_unpruned_search(self, m):
        assert shortest_supersequence_oracle(m) == _unpruned_oracle(m)

    @pytest.mark.parametrize("m, reads", [(3, 34), (4, 1360)])
    def test_steps_canonical_words_only(self, monkeypatch, m, reads):
        # the unpruned search steps 121 and 8039 (state, letter) pairs
        calls = 0
        read = verify._read

        def counting(*args):
            nonlocal calls
            calls += 1
            return read(*args)

        monkeypatch.setattr(verify, "_read", counting)
        shortest_supersequence_oracle(m)
        assert calls == reads

    def test_state_fixes_letters_read(self):
        # the pruning's premise: leaf m + c differs from without[c] exactly
        # when letter c + 1 has been read, along random canonical words
        rng = random.Random(7)
        for _ in range(300):
            m = rng.randint(1, 5)
            without, _, tree = verify._universe(m, 0)
            used = 0
            for _ in range(rng.randint(0, 3 * m * m)):
                a = rng.randint(1, min(m, used + 1))
                used = max(used, a)
                verify._read(tree, without, (a - 1,))
                changed = sum(tree[m + c] != without[c] for c in range(m))
                assert changed == used

    def test_m_2(self):
        found = shortest_supersequence_oracle(2)
        assert found == (3, (1, 2, 1))
        assert naive_supersequence_check(found[1], 2)

    def test_m_3(self):
        found = shortest_supersequence_oracle(3)
        assert found == (7, (1, 2, 1, 3, 1, 2, 1))
        assert naive_supersequence_check(found[1], 3)

    def test_m_3_unpruned_cross_check(self):
        # exhaust all words over {1,2,3} up to length 6 and confirm none is
        # a supersequence
        for L in range(1, 7):
            for word in itertools.product((1, 2, 3), repeat=L):
                assert not naive_supersequence_check(word, 3)
        length, _ = shortest_supersequence_oracle(3)
        assert length == 7

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_lex_least_by_brute_force(self, m):
        # itertools.product yields the words of each length in
        # lexicographic order: no shorter word passes, and the first
        # passing word of the oracle's length is the oracle's word
        length, word = shortest_supersequence_oracle(m)
        letters = range(1, m + 1)
        for L in range(length):
            for w in itertools.product(letters, repeat=L):
                assert not naive_supersequence_check(w, m)
        first = next(
            w
            for w in itertools.product(letters, repeat=length)
            if naive_supersequence_check(w, m)
        )
        assert first == word

    def test_m_4(self):
        found = shortest_supersequence_oracle(4)
        assert found == (12, (1, 2, 3, 4, 1, 2, 3, 1, 4, 2, 1, 3))
        assert naive_supersequence_check(found[1], 4)

    @pytest.mark.parametrize("m", [0, 6])
    def test_alphabet_outside_1_to_5_rejected(self, m):
        message = f"oracle supports 1 <= m <= 5, got m={m}"
        with pytest.raises(ValueError, match=message):
            shortest_supersequence_oracle(m)

    @pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc"
    )
    def test_m_5_time_and_peak_rss(self, child_report):
        # 19 = m^2 - 2m + 4: the classical length is the minimum at m = 5
        out = child_report(
            "import time\n"
            "from skipseq import shortest_supersequence_oracle\n"
            "start = time.perf_counter()\n"
            "length, word = shortest_supersequence_oracle(5)\n"
            "print('elapsed', time.perf_counter() - start)\n"
            "print('length', length)\n"
            "print('word', ','.join(map(str, word)))\n"
        )
        assert out["length"] == "19"
        word = tuple(map(int, out["word"].split(",")))
        assert word == (
            1, 2, 3, 4, 5, 1, 2, 3, 4, 1, 5, 2, 3, 1, 4, 2, 3, 5, 1,
        )
        assert naive_supersequence_check(word, 5)
        assert float(out["elapsed"]) < 60.0
        # canonical words only, measured at about 1 s and 65 MiB
        assert int(out["hwm"]) < 160 * 1024

    def test_prefix_state_agrees_with_naive(self):
        # Drive the pass through every prefix of seeded random words:
        # half uniform words, half concatenations of m permutations (always
        # supersequences) with one letter replaced half of the time.
        rng = random.Random(5)
        passing = failing = 0
        for trial in range(1200):
            m = rng.randint(1, 4)
            letters = range(1, m + 1)
            if trial % 2:
                word = [a for _ in range(m) for a in rng.sample(letters, m)]
                if rng.random() < 0.5:
                    word[rng.randrange(len(word))] = rng.randint(1, m)
            else:
                word = rng.choices(letters, k=rng.randint(0, m * m + 2))
            without, _, tree = verify._universe(m, 0)
            for p in range(len(word) + 1):
                if p:
                    verify._read(tree, without, (word[p - 1] - 1,))
                    # a repeated letter leaves the state as it is
                    state = list(tree)
                    verify._read(tree, without, (word[p - 1] - 1,))
                    assert tree == state
                done = tree[1] >> (1 << m) - 1 & 1 == 1
                assert done == naive_supersequence_check(word[:p], m), word[:p]
            if done:
                passing += 1
            else:
                failing += 1
        assert passing >= 300 and failing >= 300
