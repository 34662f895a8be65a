"""Re-derive the known shortest supersequences for tiny alphabets.

Iterative deepening over candidate lengths finds the minimal length
exactly.  Each length is a depth-first search over word prefixes (first
letter fixed, no adjacent repeats) that carries the subset DP forward one
letter at a time and cuts any prefix whose DP state, last letter and
letters left are already proven to reach no supersequence.  The optima
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
