"""Construction and verification of short supersequences of all
permutations over a finite alphabet."""

from .core import (
    NextOccurrenceTable,
    SliceRangeError,
    is_subsequence,
    pslice,
)
from .construct import (
    GeneratedList,
    Supersequence,
    ValidationError,
    build_supersequence,
    construct_for_m,
    gen_t1,
    gen_t2,
    gen_ts,
    generate,
    validate,
)
from .verify import (
    BijectionReport,
    MSetTrace,
    VerificationReport,
    Witness,
    adversarial_permutations,
    backward_complete,
    forward_complete,
    is_k_complete,
    quasi_palindrome,
    shortest_supersequence_oracle,
    strongly_complete,
    trace_m_sets,
    verify_supersequence_exhaustive,
    verify_supersequence_sampled,
)
from .analyze import (
    ComparisonRow,
    classical_length,
    coefficient,
    comparison_table,
    concat_length,
    predicted_length,
)

__version__ = "0.1.0"
