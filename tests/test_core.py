import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import golden
from skipseq.core import (
    NextOccurrenceTable,
    SliceRangeError,
    is_subsequence,
    pslice,
)

letters = st.integers(min_value=1, max_value=8)
words = st.lists(letters, min_size=0, max_size=30)


class TestPslice:
    def test_paper_example(self):
        assert pslice((1, 2, 3, 4, 5, 6), 3, -2) == (3, 4, 5)

    def test_full_range_identity(self):
        assert pslice((1, 2, 3), 1, -1) == (1, 2, 3)

    def test_single_element(self):
        assert pslice((1, 2, 3), 2, 2) == (2,)

    @pytest.mark.parametrize("i,j", [(0, 2), (1, 4), (-4, 2), (3, 2), (2, -3)])
    def test_bad_indices_rejected(self, i, j):
        with pytest.raises(SliceRangeError):
            pslice((1, 2, 3), i, j)

    @given(st.lists(letters, min_size=2, max_size=30), st.data())
    def test_round_trip(self, word, data):
        word = tuple(word)
        k = data.draw(st.integers(min_value=1, max_value=len(word) - 1))
        assert pslice(word, 1, k) + pslice(word, k + 1, -1) == word

    @given(st.lists(letters, min_size=1, max_size=30), st.data())
    def test_negative_index_coherence(self, word, data):
        word = tuple(word)
        i = data.draw(st.integers(min_value=1, max_value=len(word)))
        assert pslice(word, i, -1) == pslice(word, i, len(word))


class TestIsSubsequence:
    def test_intro_word_contains_permutation(self):
        assert is_subsequence((3, 2, 1), (1, 2, 3, 1, 2, 1, 3))

    def test_empty_always_contained(self):
        assert is_subsequence((), (1, 2))
        assert is_subsequence((), ())

    def test_increasing_word_lacks_descent(self):
        assert not is_subsequence((2, 1), (1, 2, 3))

    @given(words)
    def test_reflexive(self, w):
        assert is_subsequence(w, w)

    @given(words, st.data())
    def test_single_deletion(self, w, data):
        if not w:
            return
        i = data.draw(st.integers(min_value=0, max_value=len(w) - 1))
        assert is_subsequence(w[:i] + w[i + 1 :], w)

    @given(words, st.data())
    def test_transitive_via_deletions(self, w, data):
        # delete some positions twice over; each stage stays a subsequence
        keep1 = data.draw(st.sets(st.integers(0, max(len(w) - 1, 0))))
        mid = [a for i, a in enumerate(w) if i in keep1]
        keep2 = data.draw(st.sets(st.integers(0, max(len(mid) - 1, 0))))
        small = [a for i, a in enumerate(mid) if i in keep2]
        assert is_subsequence(mid, w)
        assert is_subsequence(small, mid)
        assert is_subsequence(small, w)


class TestNextOccurrenceTable:
    def test_small_word(self):
        t = NextOccurrenceTable((1, 2, 1), 2)
        arr = t.as_array()
        assert arr[0, 1] == 1
        assert arr[1, 1] == 3
        assert arr[2, 2] == t.absent == 4

    def test_letter_out_of_range(self):
        with pytest.raises(ValueError):
            NextOccurrenceTable((1, 5), 3)

    def test_letter_not_an_integer(self):
        # 2.0 equals the letter 2 before it; numpy integers are letters
        for bad in (1.5, "2", 2.0):
            with pytest.raises(ValueError, match=f"^letter {bad!r} outside"):
                NextOccurrenceTable((1, 2, bad), 3)
        table = NextOccurrenceTable(np.array([1, 2, 1], dtype=np.uint8), 2)
        assert table.word == (1, 2, 1) and table.absent == 4

    def test_alphabet_size_read_as_index(self):
        # a float m fails when the table is built, not in as_array
        word = tuple(range(1, 15)) * 2
        with pytest.raises(TypeError):
            NextOccurrenceTable(word, 14.0)
        table = NextOccurrenceTable(word, np.int64(14))
        assert type(table.m) is int and table.m == 14
        assert table.as_array().shape == (30, 15)

    def test_invariants_random(self):
        rng = random.Random(7)
        for _ in range(50):
            m = rng.randint(1, 6)
            word = tuple(rng.randint(1, m) for _ in range(rng.randint(0, 25)))
            t = NextOccurrenceTable(word, m)
            arr = t.as_array()
            for p in range(len(word) + 1):
                for a in range(1, m + 1):
                    q = arr[p, a]
                    if q == t.absent:
                        assert a not in word[p:]
                    else:
                        assert q > p
                        assert word[q - 1] == a
                        assert a not in word[p : q - 1]

    def test_as_array_matches_rows(self):
        # the array must agree with a naive scan of the word in every
        # cell, including the sentinel row and column 0
        rng = random.Random(13)
        words = [((), 3)]
        for _ in range(60):
            m = rng.randint(1, 9)
            used = rng.randint(1, m)  # letters used..m never occur
            words.append(
                (tuple(rng.randint(1, used) for _ in range(rng.randint(0, 30))), m)
            )
        for word, m in words:
            t = NextOccurrenceTable(word, m)
            arr = t.as_array()
            assert arr.dtype == np.int32
            assert arr.shape == (len(word) + 2, m + 1)
            assert (arr[:, 0] == t.absent).all()
            for p in range(len(word) + 2):
                for a in range(1, m + 1):
                    assert arr[p, a] == golden.next_after(word, p, a)

    def test_as_blocks_lookup_matches_next_after(self):
        # the segmented lookup, read through the rule in as_blocks'
        # docstring, must equal a naive scan at every position 0..L+1 and
        # letter, on repeated letters, absent letters, one letter repeated
        # and the empty word
        rng = random.Random(19)
        words = [((), 3), ((1,) * 12, 2), ((1, 2, 3, 1, 2, 3), 4)]
        for _ in range(80):
            m = rng.randint(1, 9)
            used = rng.randint(1, m)  # letters used..m never occur
            words.append(
                (tuple(rng.randint(1, used) for _ in range(rng.randint(0, 40))), m)
            )
        for word, m in words:
            t = NextOccurrenceTable(word, m)
            first, block = t.as_blocks()
            assert block.shape == (len(word) + 2,)
            assert first.shape == (block[-1] + 2, m + 1)
            for g in range(len(word) + 2):
                b = block[g]
                for a in range(1, m + 1):
                    near = first[b, a]
                    got = near if near > g else first[b + 1, a]
                    assert got == golden.next_after(word, g, a), (word, g, a)

    def test_table_build_temporaries_per_letter(self):
        # beside the arrays it returns, a build holds one intp array of flat
        # cells and one int32 array of letters or positions (12 bytes a
        # letter), plus as_array's int64 positions; the scatter by
        # (block, letter) index pair with int64 positions held 16.5 and
        # 24.2 bytes a letter. numpy is imported above, before measuring
        rng = random.Random(3)
        word = tuple(rng.randint(1, 5) for _ in range(100_000))
        t = NextOccurrenceTable(word, 5)
        for build, per_letter in ((t.as_blocks, 14), (t.as_array, 22)):
            tracemalloc.start()
            try:
                built = build()
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            del built
            assert peak - held <= per_letter * len(word), (build, peak - held)

    def test_as_blocks_are_maximal_runs_of_distinct_letters(self):
        t = NextOccurrenceTable((1, 2, 1, 3, 2, 2, 4), 4)
        first, block = t.as_blocks()
        # blocks (1,2) (1,3,2) (2,4), then the closing block 3
        assert block.tolist() == [0, 0, 1, 1, 1, 2, 2, 3, 3]
        assert first.shape == (5, 5)
        assert (first[3:] == t.absent).all()
