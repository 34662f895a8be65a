import dataclasses
import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import golden
from skipseq import (
    GeneratedList,
    ValidationError,
    build_supersequence,
    gen_t1,
    gen_t2,
    gen_ts,
    generate,
    validate,
)
from skipseq.construct import (
    TAG_FINAL,
    TAG_INITIAL,
    TAG_SKIP,
    Supersequence,
    construct_for_m,
    phi_reverse,
    skip_letters,
    valid_levels,
)
from skipseq.verify import quasi_palindrome, verify_supersequence_exhaustive

ALL_VALID = (
    [(1, n) for n in range(4, 12)]
    + [(2, n) for n in range(9, 37, 3)]
    + [(3, n) for n in range(13, 60, 5)]
    + [(4, n) for n in range(17, 60, 7)]
    + [(5, 21), (5, 30), (6, 25), (6, 36), (7, 29), (8, 33)]
)


class TestValidate:
    def test_paper_parameters_accepted(self):
        assert validate(3, 18) is None
        assert validate(4, 24) is None
        assert validate(2, 12) is None

    def test_congruence_rejection_names_the_bound(self):
        with pytest.raises(ValidationError, match=r"= 3 \(mod 5\) at level 3"):
            validate(3, 17)

    def test_t2_n6_erratum(self):
        with pytest.raises(ValidationError, match="erratum"):
            validate(2, 6)

    def test_minimum_sizes(self):
        for s, n, reason in [
            (1, 3, "n=3 must be > 3 at level 1"),
            (2, 3, "n=3 must be >= 9 and divisible by 3 at level 2"),
            (3, 12, r"n=12 must be >= 13 and = 3 \(mod 5\) at level 3"),
            (5, 20, r"n=20 must be >= 21 and = 3 \(mod 9\) at level 5"),
        ]:
            with pytest.raises(ValidationError, match=f"^{reason}$"):
                validate(s, n)

    @pytest.mark.parametrize(
        "s, n, above", [(1, -14, 4), (2, -100, 9), (3, -30, 13)]
    )
    def test_far_below_range_reports_least_valid(self, s, n, above):
        # the reason names the size bound, whose least valid n is `above`
        bound = f"> {above - 1}" if s == 1 else f">= {above}"
        with pytest.raises(ValidationError, match=f"n={n} must be {bound}"):
            validate(s, n)
        assert validate(s, above) is None


    def test_float_size_rejected(self):
        # generate and the length formulas refuse 13.0 too
        for s, n in [(3, 13.0), (3.0, 13), (2, 9.0)]:
            with pytest.raises(TypeError):
                validate(s, n)
        assert validate(np.int64(3), np.int64(13)) is None


def _valid(s, n):
    try:
        validate(s, n)
    except ValidationError:
        return False
    return True


class TestValidLevels:
    def test_matches_validate(self):
        for n in range(0, 201):
            expected = [s for s in range(2, n + 1) if _valid(s, n)]
            assert valid_levels(n) == expected, n


class TestGeneratedList:
    @pytest.mark.parametrize("k", [-6, -1, 0, 19])
    def test_index_outside_list_rejected(self, k):
        glist = gen_ts(3, 18)
        with pytest.raises(ValueError, match=f"k={k} outside 1..18"):
            glist.seq(k)
        with pytest.raises(ValueError, match=f"k={k} outside 1..18"):
            glist.tag(k)

    def test_n_is_the_number_of_sequences(self):
        glist = gen_ts(3, 18)
        assert glist.n == len(glist.sequences) == 18
        assert "n" not in {f.name for f in dataclasses.fields(glist)}
        cut = dataclasses.replace(glist, sequences=glist.sequences[:-1])
        assert cut.n == 17
        # the old positional call, with n second, is refused
        with pytest.raises(TypeError):
            GeneratedList(3, 18, glist.sequences, glist.case_tags)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    @pytest.mark.parametrize("s, n", [(1, 9), (2, 9), (3, 13)])
    def test_numpy_sizes_build_int_words(self, s, n, dtype):
        # a size is never inserted as a letter: it is read as a plain int
        expected = build_supersequence(generate(s, n))
        level = {1: gen_t1, 2: gen_t2}.get(s)
        direct = level(dtype(n)) if level else gen_ts(dtype(s), dtype(n))
        for glist in (generate(dtype(s), dtype(n)), direct):
            assert (type(glist.s), type(glist.n)) == (int, int)
            word = build_supersequence(glist)
            assert word == expected
            assert type(word.m) is int
            assert all(type(a) is int for a in word.word)
            assert all(type(a) is int for seq in glist.sequences for a in seq)


class TestGenerate:
    @pytest.mark.parametrize("s", [0, -1])
    def test_level_below_1_rejected_with_validate_reason(self, s):
        with pytest.raises(ValidationError, match=f"level s={s} must be >= 1"):
            generate(s, 5)

    def test_gen_ts_below_level_3_rejected(self):
        message = "^gen_ts requires s >= 3, got s=2$"
        with pytest.raises(ValidationError, match=message):
            gen_ts(2, 9)

    def test_every_valid_list_pinned(self):
        # sha256 over (sequences, case_tags) of every valid (s, n) with
        # 4 <= n <= 120, levels ascending at each n
        digest = hashlib.sha256()
        for n in range(4, 121):
            for s in [1] + valid_levels(n):
                glist = generate(s, n)
                record = (glist.sequences, glist.case_tags)
                digest.update(repr(record).encode())
        assert digest.hexdigest() == (
            "83d2743ce52258b776aa1a2e4bea3916292bd9c61c2c5005f139e366f9b72be9"
        )

    @pytest.mark.parametrize("s,n", [v for v in ALL_VALID if v[0] >= 2])
    def test_levels_open_with_the_t1_head(self, s, n):
        head = generate(s, n).sequences[: s + 1]
        assert head == gen_t1(n).sequences[: s + 1]


class TestGolden:
    def test_t1_6(self):
        assert list(gen_t1(6).sequences) == golden.T1_6

    def test_t2_12(self):
        assert list(gen_t2(12).sequences) == golden.T2_12

    def test_t3_18(self):
        assert list(gen_ts(3, 18).sequences) == golden.T3_18

    def test_t4_24(self):
        glist = gen_ts(4, 24)
        assert list(glist.sequences) == golden.T4_24
        assert glist.total_elements == 548


class TestSkipLetters:
    def test_values(self):
        assert skip_letters(3, 18) == (17, 18)
        assert skip_letters(4, 24) == (22, 23, 24)
        assert phi_reverse(4, 24) == (24, 23, 22)
        assert len(skip_letters(5, 24)) == 4


@pytest.mark.parametrize("s,n", ALL_VALID)
class TestListInvariants:
    def test_shape(self, s, n):
        glist = generate(s, n)
        assert len(glist.sequences) == n
        assert glist.seq(1) == tuple(range(1, n + 1))
        for seq in glist.sequences:
            assert len(set(seq)) == len(seq)
            assert all(1 <= a <= n for a in seq)

    def test_length_profile(self, s, n):
        glist = generate(s, n)
        skips = set(glist.skip_indices())
        for k in range(1, n + 1):
            length = len(glist.seq(k))
            if k in (1, n):
                assert length == n
            elif k in skips:
                assert length == n - s
            else:
                assert length == n - 1

    def test_omission_profile(self, s, n):
        glist = generate(s, n)
        skips = set(glist.skip_indices())
        alphabet = set(range(1, n + 1))
        for k in range(2, n + 1):
            missing = alphabet - set(glist.seq(k))
            last_prev = glist.seq(k - 1)[-1]
            if k == n:
                assert missing == set()
            elif k in skips:
                expected = set(skip_letters(s, n)) | {last_prev}
                assert missing == expected
            else:
                assert missing == {last_prev}

    def test_forward_recurrence_conformance(self, s, n):
        glist = generate(s, n)
        for k in range(1, n + 1):
            if glist.tag(k) == "forward":
                prev2, prev = glist.seq(k - 2), glist.seq(k - 1)
                assert glist.seq(k) == (prev2[-1],) + prev[:-1]

    def test_case_tag_blocks(self, s, n):
        glist = generate(s, n)
        if s == 1:
            head, tail = 2, 1
        elif s == 2:
            head, tail = 3, 3
        else:
            head = tail = s + 1
        assert all(t == TAG_INITIAL for t in glist.case_tags[:head])
        assert all(t == TAG_FINAL for t in glist.case_tags[-tail:])
        if s >= 2:
            cyc = 2 * s - 1
            assert all(k % cyc == 2 % cyc for k in glist.skip_indices())

    def test_quasi_palindrome(self, s, n):
        report = quasi_palindrome(generate(s, n).sequences)
        assert report.found
        assert report.involution


class TestSupersequence:
    def test_interposition_shape(self):
        glist = gen_t1(6)
        sseq = build_supersequence(glist)
        assert sseq.m == 7
        assert sseq.word.count(7) == 7
        assert sseq.length == glist.total_elements + 7
        # x sigma_1 x sigma_2 x ... x sigma_n x
        chunks = []
        cur = []
        assert sseq.word[0] == 7
        for a in sseq.word[1:]:
            if a == 7:
                chunks.append(tuple(cur))
                cur = []
            else:
                cur.append(a)
        assert chunks == list(glist.sequences)

    def test_t4_24_length(self):
        assert build_supersequence(gen_ts(4, 24)).length == 573

    def test_t1_4_length(self):
        assert build_supersequence(gen_t1(4)).length == 19


class TestConstructForM:
    def test_exact_25(self):
        assert construct_for_m(25, "best_valid").length == 573

    def test_t1_fallback(self):
        assert construct_for_m(7, "t1_fallback").length == 39
        assert construct_for_m(5, "t1_fallback").length == 19

    def test_alphabet_below_5_rejected(self):
        with pytest.raises(ValidationError, match="^m=4 must be >= 5$"):
            construct_for_m(4)

    def test_exact_unavailable(self):
        with pytest.raises(ValidationError, match="unknown strategy 'exact'"):
            construct_for_m(5, "exact")

    def test_best_valid_falls_back(self):
        assert construct_for_m(5, "best_valid").length == 19
        assert construct_for_m(10, "best_valid").length == 83

    def test_restrict_produces_verified_word(self):
        for m in (5, 6, 7, 8):
            sseq = construct_for_m(m, "restrict")
            assert set(sseq.word) == set(range(1, m + 1))
            assert verify_supersequence_exhaustive(sseq.word, m).passed

    @pytest.mark.parametrize(
        "strategy", ["best_valid", "t1_fallback", "restrict"]
    )
    def test_strategy_is_its_definition(self, strategy):
        def shortest(n):
            # the shortest word built at a level s >= 2 valid at n, the
            # smaller s on a tie, else the level-1 word
            words = [build_supersequence(generate(s, n)) for s in valid_levels(n)]
            best = min(words, key=lambda sseq: sseq.length, default=None)
            return best or build_supersequence(gen_t1(n))

        for m in range(5, 121):
            if strategy == "t1_fallback":
                expected = build_supersequence(gen_t1(m - 1))
            elif strategy == "best_valid":
                expected = shortest(m - 1)
            else:  # the shortest word at the next n with a valid level, restricted
                n = next(v for v in itertools.count(m - 1) if valid_levels(v))
                word = tuple(a for a in shortest(n).word if a <= m)
                expected = Supersequence(word, m)
            assert construct_for_m(m, strategy) == expected, m

    def test_restrict_never_beats_best_valid(self):
        # restrict builds at a larger n' whenever no level s >= 2 is valid
        # at n = m - 1, and its restriction is then strictly longer
        for m in range(5, 201):
            restricted = construct_for_m(m, "restrict").length
            best = construct_for_m(m, "best_valid").length
            assert restricted >= best, m
            assert (restricted == best) == bool(valid_levels(m - 1)), m

    @pytest.mark.parametrize(
        "strategy", ["best_valid", "t1_fallback", "restrict"]
    )
    @pytest.mark.parametrize("m", [np.int64(20), np.int32(21), np.int64(25)])
    def test_numpy_sizes_build_int_words(self, m, strategy):
        # restrict at m = 20 and 21 builds at a larger n' and deletes the
        # letters above m: the word it returns must store m as an int too
        sseq = construct_for_m(m, strategy)
        assert type(sseq.m) is int and sseq.m == m
        assert all(type(a) is int for a in sseq.word)

    @pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc"
    )
    def test_held_words_peak_rss(self, child_report):
        # a held word keeps only its letters, not the list it was built from
        out = child_report(
            "from skipseq.construct import construct_for_m\n"
            "words = [construct_for_m(m, 'restrict') for m in range(5, 301)]\n"
        )
        assert int(out["hwm"]) < 136 * 1024

    def test_restriction_preserves_property(self):
        # deleting any single letter of a verified supersequence keeps the
        # property over the remaining letters (after renumbering), m <= 8
        for m in (5, 6, 7, 8):
            word = build_supersequence(gen_t1(m - 1)).word
            for drop in range(1, m + 1):
                relabel = {a: a - (a > drop) for a in range(1, m + 1)}
                reduced = tuple(relabel[a] for a in word if a != drop)
                assert verify_supersequence_exhaustive(reduced, m - 1).passed


@pytest.mark.parametrize("module", ["construct", "analyze", "cli"])
def test_construct_for_m_after_any_first_import(module):
    # construct_for_m imports analyze at call time; it must work whichever
    # module a fresh interpreter loads first
    root = Path(__file__).resolve().parent.parent
    code = (
        f"import skipseq.{module}\n"
        "from skipseq.construct import construct_for_m\n"
        "assert construct_for_m(25).length == 573\n"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
