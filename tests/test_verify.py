import itertools
import random

import pytest

import golden
from skipseq import (
    backward_complete,
    build_supersequence,
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
from skipseq.verify import (
    EXHAUSTIVE_LIMIT,
    adversarial_permutations,
    skip_chain_rho,
)


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


class TestCompleteness:
    def test_t2_12_prefix_8(self):
        glist = gen_t2(12)
        assert forward_complete(glist.sequences, 12, k_max=8) is None

    def test_t1_full_depth(self):
        glist = gen_t1(6)
        assert forward_complete(glist.sequences, 6) is None
        assert backward_complete(glist.sequences, 6) is None

    def test_t2_12_backward_prefix(self):
        glist = gen_t2(12)
        assert backward_complete(glist.sequences, 12, k_max=8) is None

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
        def naive(sequences, n, k_max, direction):
            word = ()
            for k in range(1, k_max + 1):
                if direction == "forward":
                    word += tuple(sequences[k - 1])
                else:
                    word = tuple(sequences[-k]) + word
                missing = naive_least_missing(word, n, k)
                if missing is not None:
                    return missing, k, direction
            return None

        def as_tuple(w):
            if w is None:
                return None
            return w.permutation, w.failed_k, w.direction

        rng = random.Random(11)
        outcomes = set()
        for _ in range(150):
            n = rng.randint(1, 5)
            sequences = [
                tuple(rng.sample(range(1, n + 1), rng.randint(1, n)))
                for _ in range(rng.randint(1, n + 2))
            ]
            k_max = rng.randint(1, min(n, len(sequences)))
            fwd = naive(sequences, n, k_max, "forward")
            bwd = naive(sequences, n, k_max, "backward")
            assert as_tuple(forward_complete(sequences, n, k_max)) == fwd
            assert as_tuple(backward_complete(sequences, n, k_max)) == bwd
            assert as_tuple(strongly_complete(sequences, n, k_max)) == (
                fwd or bwd
            )
            outcomes.add((fwd is None, bwd is None))
        assert len(outcomes) == 4  # pass/fail in each direction occurs

    def test_monotone_in_k(self):
        # a pass at depth k implies no re-failure at any smaller depth
        glist = gen_t2(9)
        for k in range(1, 10):
            assert forward_complete(glist.sequences, 9, k_max=k) is None


class TestQuasiPalindrome:
    def test_alternating_word(self):
        report = quasi_palindrome([(1, 2), (1, 2)])
        assert report.found
        assert report.mapping == {1: 2, 2: 1}

    def test_not_a_quasi_palindrome(self):
        report = quasi_palindrome([(1, 2), (1, 3)])
        assert not report.found
        assert report.conflict is not None

    def test_mirror_length_condition(self):
        # concatenation palindromic but per-sequence lengths asymmetric
        report = quasi_palindrome([(1, 2, 1), (2,)])
        assert not report.found

    def test_golden_bijections(self):
        assert quasi_palindrome(golden.T1_6).mapping == golden.T1_6_BIJECTION
        assert quasi_palindrome(golden.T2_12).mapping == golden.T2_12_BIJECTION
        assert quasi_palindrome(golden.T3_18).mapping == golden.T3_18_BIJECTION


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


class TestAdversarial:
    def test_family_is_deterministic_and_finite(self):
        fam1 = adversarial_permutations(3, 13)
        fam2 = adversarial_permutations(3, 13)
        assert fam1 == fam2
        assert all(sorted(p) == list(range(1, 15)) for p in fam1)

    def test_contains_reversal_with_new_letter_last(self):
        fam = adversarial_permutations(3, 13)
        assert tuple(range(13, 0, -1)) + (14,) in fam

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

    def test_precondition_checks(self):
        glist = gen_ts(3, 18)
        with pytest.raises(ValueError, match="skip-sequence"):
            trace_m_sets(glist, tuple(range(1, 12)), 11)
        with pytest.raises(ValueError, match="skip letter"):
            trace_m_sets(glist, tuple(range(1, 13)), 12)


class TestOracle:
    def test_m_2(self):
        length, word = shortest_supersequence_oracle(2)
        assert length == 3
        assert naive_supersequence_check(word, 2)

    def test_m_3(self):
        length, word = shortest_supersequence_oracle(3)
        assert length == 7
        assert naive_supersequence_check(word, 3)

    def test_m_3_unpruned_cross_check(self):
        # guard the canonicalization against pruning bugs: exhaust all words
        # over {1,2,3} up to length 6 and confirm none is a supersequence
        for L in range(1, 7):
            for word in itertools.product((1, 2, 3), repeat=L):
                assert not naive_supersequence_check(word, 3)
        length, _ = shortest_supersequence_oracle(3, canonical=False)
        assert length == 7

    def test_cap_exceeded(self):
        with pytest.raises(ValueError, match="up to length"):
            shortest_supersequence_oracle(3, length_cap=6)

    @pytest.mark.slow
    def test_m_4(self):
        length, word = shortest_supersequence_oracle(4)
        assert length == 12
        assert naive_supersequence_check(word, 4)
