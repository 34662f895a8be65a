"""Re-derive the known shortest supersequences for tiny alphabets.

A breadth-first search over the states of the completeness pass, which
reads a word one letter at a time, finds the minimal length exactly: level
L holds the states first reached by a word of length L, so the first level
with a complete state gives the minimum, and trying letters in ascending
order makes its word the lexicographically least one.  Only canonical
words are stepped, those whose each new letter is the least unused one:
relabelling letters maps supersequences to supersequences, so if the
least shortest word first brought in b while a < b was unused, swapping
a and b throughout would give a smaller one of the same length.  The optima
coincide with the interposed level-1 construction, which is why the small
classical words were long believed unbeatable.
"""

import time

from skipseq import shortest_supersequence_oracle

for m in (2, 3, 4):
    start = time.perf_counter()
    length, word = shortest_supersequence_oracle(m)
    elapsed = time.perf_counter() - start
    print(f"m={m}: shortest length {length}, e.g. {word}  ({elapsed:.2f}s)")
