"""Check the structural properties the constructions rely on.

Three facts make the interposed word a supersequence: every k-prefix of the
list is k-complete (forward completeness), the list maps onto its own
reversal under a letter bijection (quasi-palindromy, which yields backward
completeness for free), and interposition turns strong completeness into
the full supersequence property.  All three are checked by brute force.
"""

from skipseq import (
    backward_complete,
    build_supersequence,
    forward_complete,
    gen_t2,
    quasi_palindrome,
    verify_supersequence_exhaustive,
    verify_supersequence_sampled,
)

glist = gen_t2(9)

print("Forward completeness:", forward_complete(glist.sequences, 9) is None)
print("Backward completeness:", backward_complete(glist.sequences, 9) is None)

report = quasi_palindrome(glist.sequences)
print("Quasi-palindrome bijection:", report.mapping)
print("Involution:", report.involution)

word = build_supersequence(glist)
result = verify_supersequence_exhaustive(word.word, word.m)
print(f"All 10! permutations contained: {result.passed} "
      f"(subset DP over 2**10 letter sets)")

# a deliberately broken word: drop the final letter
broken = word.word[:-1]
result = verify_supersequence_exhaustive(broken, word.m)
print(f"Truncated word verdict: {result.verdict}, "
      f"witness {result.witness.permutation}")

# sampled mode scales to alphabets where 'all permutations' is infeasible
sampled = verify_supersequence_sampled(word.word, word.m, 200_000, seed=7)
print(f"Sampled check: {sampled.verdict} after "
      f"{sampled.stats['permutations_checked']} permutations (seed 7)")
