"""Acceptance suite: one test per criterion, each printing a PASS line on
success (run with -s to see them).  Slow-tier checks carry the `slow`
marker and need --runslow."""

import time

import pytest

import golden
from skipseq import (
    backward_complete,
    build_supersequence,
    classical_length,
    concat_length,
    forward_complete,
    gen_t1,
    gen_t2,
    gen_ts,
    generate,
    is_subsequence,
    predicted_length,
    quasi_palindrome,
    shortest_supersequence_oracle,
    strongly_complete,
    trace_m_sets,
    verify_supersequence_exhaustive,
    verify_supersequence_sampled,
)
from skipseq.verify import adversarial_permutations, skip_chain_rho


def _ok(label):
    print(f"\nACCEPTANCE {label}: PASS")


def all_valid_pairs(s_max=12, n_max=60):
    pairs = [(2, n) for n in range(9, n_max + 1, 3)]
    for s in range(3, s_max + 1):
        pairs += [
            (s, n)
            for n in range(4 * s + 1, n_max + 1)
            if n % (2 * s - 1) == 3
        ]
    return pairs


def small_lists(n_max=9):
    out = [gen_t1(n) for n in range(4, n_max + 1)]
    out.append(gen_t2(9))
    return out


def test_criterion_1_golden_examples():
    start = time.perf_counter()
    assert list(gen_t1(6).sequences) == golden.T1_6
    assert list(gen_t2(12).sequences) == golden.T2_12
    assert list(gen_ts(3, 18).sequences) == golden.T3_18
    assert list(gen_ts(4, 24).sequences) == golden.T4_24
    assert time.perf_counter() - start < 1.0
    _ok("1 (golden-example fidelity)")


def test_criterion_2_length_reproduction():
    start = time.perf_counter()
    glist = gen_ts(4, 24)
    assert glist.total_elements == 548
    assert build_supersequence(glist).length == 573
    for s, n in all_valid_pairs():
        glist = generate(s, n)
        assert build_supersequence(glist).length == predicted_length(s, n + 1)
        assert glist.total_elements == concat_length(s, n + 1)
    assert time.perf_counter() - start < 5.0
    _ok("2 (length reproduction)")


def test_criterion_3_classical_closed_form():
    start = time.perf_counter()
    for m in range(5, 41):
        assert build_supersequence(gen_t1(m - 1)).length == classical_length(m)
    assert time.perf_counter() - start < 1.0
    _ok("3 (classical closed form)")


def test_criterion_4_exhaustive_verification():
    start = time.perf_counter()
    for n in range(4, 9):
        word = build_supersequence(gen_t1(n))
        assert verify_supersequence_exhaustive(word.word, word.m).passed
    word = build_supersequence(gen_t2(9))
    assert verify_supersequence_exhaustive(word.word, 10).passed
    assert verify_supersequence_exhaustive(golden.INTRO_WORD_3, 3).passed
    assert verify_supersequence_exhaustive(golden.INTRO_WORD_4, 4).passed
    assert time.perf_counter() - start < 30.0
    _ok("4 (exhaustive verification, fast tier)")


@pytest.mark.slow
def test_criterion_4_slow_tier_t2_12():
    start = time.perf_counter()
    word = build_supersequence(gen_t2(12))
    assert verify_supersequence_exhaustive(word.word, 13).passed
    assert time.perf_counter() - start < 3600.0
    _ok("4 (exhaustive verification, slow tier m=13)")


def test_criterion_5_strong_completeness():
    start = time.perf_counter()
    for glist in (gen_t1(7), gen_t1(8), gen_t2(9)):
        assert forward_complete(glist.sequences, glist.n) is None
        assert backward_complete(glist.sequences, glist.n) is None
    bad = [(1, 2, 3), (1, 2), (1, 3)]
    witness = backward_complete(bad, 3)
    assert witness.failed_k == 1
    assert witness.permutation == (2,)
    assert time.perf_counter() - start < 60.0
    _ok("5 (strong completeness brute force)")


def test_criterion_6_quasi_palindrome_bijections():
    assert quasi_palindrome(golden.T1_6).mapping == golden.T1_6_BIJECTION
    assert quasi_palindrome(golden.T2_12).mapping == golden.T2_12_BIJECTION
    assert quasi_palindrome(golden.T3_18).mapping == golden.T3_18_BIJECTION
    for s, n in [(1, 5), (1, 9), (2, 9), (2, 15), (3, 13), (3, 18), (4, 24)]:
        report = quasi_palindrome(generate(s, n).sequences)
        assert report.found
        assert report.involution
    _ok("6 (quasi-palindrome recovery)")


def test_criterion_7_oracle_m3():
    start = time.perf_counter()
    length, word = shortest_supersequence_oracle(3)
    assert length == 7
    assert verify_supersequence_exhaustive(word, 3).passed
    assert time.perf_counter() - start < 1.0
    _ok("7 (shortest-length oracle, m=3)")


def test_criterion_7_oracle_m4():
    length, word = shortest_supersequence_oracle(4)
    assert length == 12
    assert verify_supersequence_exhaustive(word, 4).passed
    _ok("7 (shortest-length oracle, m=4)")


def test_criterion_8_negative_controls():
    for n in (3, 4, 5):
        word = tuple(range(1, n + 1)) * (n - 2)
        report = verify_supersequence_exhaustive(word, n)
        assert not report.passed
        assert not is_subsequence(report.witness.permutation, word)
    for n in (5, 6):
        full = build_supersequence(gen_t1(n)).word
        for drop in range(1, n + 2):
            word = tuple(a for a in full if a != drop)
            report = verify_supersequence_exhaustive(word, n + 1)
            assert not report.passed
            assert drop in report.witness.permutation
            assert not is_subsequence(report.witness.permutation, word)
    _ok("8 (negative controls)")


def test_criterion_9_sampled_and_m_set_bound():
    start = time.perf_counter()
    for s, n in [(3, 13), (3, 18), (4, 24)]:
        glist = generate(s, n)
        word = build_supersequence(glist)
        extra = adversarial_permutations(word.m)
        report = verify_supersequence_sampled(
            word.word, word.m, 10**6, seed=2024, extra=extra
        )
        assert report.passed
        for k in glist.skip_indices():
            for a in range(n - s + 2, n + 1):
                trace = trace_m_sets(glist, skip_chain_rho(glist, k, a))
                assert trace.max_size <= s - 1
    assert time.perf_counter() - start < 120.0
    _ok("9 (sampled verification + M-set bound)")


def test_criterion_10_theorem_embodiment():
    for glist in small_lists():
        forward = forward_complete(glist.sequences, glist.n)
        palindrome = quasi_palindrome(glist.sequences)
        assert forward is None and palindrome.found, (
            f"forward completeness + quasi-palindromy must hold for "
            f"s={glist.s}, n={glist.n}"
        )
        # forward + quasi-palindrome => backward (no counterexample tolerated)
        assert backward_complete(glist.sequences, glist.n) is None
        # full strong completeness => interposed word is a supersequence
        assert strongly_complete(glist.sequences, glist.n) is None
        word = build_supersequence(glist)
        assert verify_supersequence_exhaustive(word.word, word.m).passed
    _ok("10 (property embodiment of the two structure theorems)")
