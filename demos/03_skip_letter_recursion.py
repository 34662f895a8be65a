"""Trace the bounded-set recursion behind the skip-letter argument.

When a candidate permutation ends in a skip letter, placing it requires
walking backward through the list while tracking a small set M of "still
dangerous" letters.  The whole saving hinges on |M| never exceeding s-1;
the tracer below replays the recursion and reports the sets.
"""

from skipseq import gen_ts, trace_m_sets
from skipseq.verify import skip_chain_rho

glist = gen_ts(3, 18)
k = 12  # a skip-sequence index: sigma_12 drops letters 17, 18 and 8

rho = skip_chain_rho(glist, k, 17)  # worst case ending in skip letter 17
print("Max-occupancy permutation suffix:", rho)

trace = trace_m_sets(glist, rho)  # k = len(rho)
for idx, m_set in trace.steps:
    print(f"  M[{idx:>2}] = {sorted(m_set)}")
print(f"Terminated at index {trace.terminated_at}; "
      f"max |M| = {trace.max_size} (bound s-1 = {glist.s - 1})")
