"""Generators for the T1/T2/T_s sequence lists and the interposed
supersequences they induce.

Each generator transcribes its defining recurrence literally in terms of the
1-based slicing primitive, so the code can be diffed clause by clause against
the written definitions.  Levels:

* level 1 (``gen_t1``): the classical list, valid for any n > 3;
* level 2 (``gen_t2``): one skip letter, n >= 9 and n = 0 (mod 3);
* level s >= 3 (``gen_ts``): s-1 skip letters, n >= 4s+1 and n = 3 (mod 2s-1).

Levels s >= 2 open with sigma_1..sigma_{s+1} of the level-1 list and build
only that head of it (``_t1_head``), not the whole list.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .core import pslice

__all__ = [
    "ValidationError",
    "GeneratedList",
    "Supersequence",
    "validate",
    "valid_levels",
    "skip_letters",
    "phi_reverse",
    "gen_t1",
    "gen_t2",
    "gen_ts",
    "generate",
    "build_supersequence",
    "construct_for_m",
]

# case tags, recorded per sequence
TAG_INITIAL = "initial"
TAG_JUMP = "jump"
TAG_FORWARD = "forward"
TAG_SKIP = "skip"
TAG_RECOVER = "recover"
TAG_FINAL = "final"


class ValidationError(ValueError):
    """Construction parameters violate a size or congruence constraint."""


@dataclass(frozen=True)
class GeneratedList:
    """The list sigma_1..sigma_n for level s over the alphabet {1..n}."""

    s: int
    sequences: tuple[tuple[int, ...], ...]
    case_tags: tuple[str, ...]
    n = property(lambda self: len(self.sequences))
    total_elements = property(lambda self: sum(map(len, self.sequences)))

    def seq(self, k: int) -> tuple[int, ...]:
        """sigma_k, 1-based."""
        return self.sequences[self._index(k)]

    def tag(self, k: int) -> str:
        return self.case_tags[self._index(k)]

    def _index(self, k: int) -> int:
        if not 1 <= k <= self.n:
            raise ValueError(f"k={k} outside 1..{self.n}")
        return k - 1

    def skip_indices(self) -> list[int]:
        """Indices k whose sequence drops the skip letters."""
        return [k for k in range(1, self.n + 1) if self.tag(k) == TAG_SKIP]


@dataclass(frozen=True)
class Supersequence:
    """Word over {1..m}; for interposed builds m = n+1 and the new letter
    is encoded as m itself.  It holds only the letters: an interposed
    word's length is its list's total_elements + m."""

    word: tuple[int, ...]
    m: int

    @property
    def length(self) -> int:
        return len(self.word)


def _is_valid(s: int, n: int) -> bool:
    """The size/congruence rule for level s >= 1 at alphabet size n."""
    if s == 1:
        return n > 3
    # At s = 2 this reads n >= 9 and 3 | n.  The written definition also
    # admits n = 6, but its clause layout then produces a repeated letter
    # in sigma_4; we reject rather than guess.
    return n >= 4 * s + 1 and (n - 3) % (2 * s - 1) == 0


def validate(s: int, n: int) -> None:
    """None if level s meets its size/congruence constraints at alphabet
    size n; otherwise raise ValidationError naming the violated bound."""
    s, n = operator.index(s), operator.index(n)  # 13.0 is not a size
    if s < 1:
        reason = f"level s={s} must be >= 1"
    elif _is_valid(s, n):
        return
    elif s == 1:
        reason = f"n={n} must be > 3 at level 1"
    elif s == 2 and n == 6:
        reason = (
            "n=6 is unsupported at level 2: the defining clauses "
            "produce a repeated letter in sigma_4 (erratum)"
        )
    elif s == 2:
        reason = f"n={n} must be >= 9 and divisible by 3 at level 2"
    else:
        reason = (
            f"n={n} must be >= {4 * s + 1} and = 3 (mod {2 * s - 1}) "
            f"at level {s}"
        )
    raise ValidationError(reason)


def valid_levels(n: int) -> list[int]:
    """Levels s >= 2 valid at n, ascending.

    Level s needs 2s-1 to divide n-3, so the candidates are s = (d+1)/2 for
    the odd divisors d >= 3 of n-3; the size bound n >= 4s+1 filters them.
    """
    k = operator.index(n) - 3  # keep the levels plain ints
    divisors = set()
    for d in range(1, math.isqrt(max(k, 0)) + 1):
        if k % d == 0:
            divisors.update((d, k // d))
    levels = ((d + 1) // 2 for d in divisors if d % 2 and d >= 3)
    return sorted(s for s in levels if _is_valid(s, n))


def skip_letters(s: int, n: int) -> tuple[int, ...]:
    """The s-1 letters n-s+2..n."""
    return tuple(range(n - s + 2, n + 1))


def phi_reverse(s: int, n: int) -> tuple[int, ...]:
    """Descending word of skip letters."""
    return tuple(reversed(skip_letters(s, n)))


def _t1_head(n: int, count: int) -> tuple[list[tuple[int, ...]], list[str]]:
    """sigma_1..sigma_count of the level-1 list over {1..n}, with their
    tags, for 2 <= count <= n-1: the forward part, whose first s+1
    sequences level s >= 2 borrows."""
    seqs: list[tuple[int, ...]] = [tuple(range(1, n + 1)), tuple(range(1, n))]
    tags = [TAG_INITIAL, TAG_INITIAL]
    for k in range(3, count + 1):
        prev2, prev = seqs[k - 3], seqs[k - 2]
        seqs.append((prev2[-1],) + pslice(prev, 1, -2))
        tags.append(TAG_FORWARD)
    return seqs, tags


def gen_t1(n: int) -> GeneratedList:
    """Level-1 list: sigma_k = sigma_{k-2}[-1] . sigma_{k-1}[1,-2]."""
    validate(1, n)
    seqs, tags = _t1_head(n, n - 1)
    prev2, prev = seqs[n - 3], seqs[n - 2]
    seqs.append((prev2[-1],) + pslice(prev, 1, -1))
    tags.append(TAG_FINAL)
    return GeneratedList(1, tuple(seqs), tuple(tags))


def gen_t2(n: int) -> GeneratedList:
    """Level-2 list: one extra letter n skipped where k = 2 (mod 3)."""
    validate(2, n)
    n = operator.index(n)  # n is a letter below: keep it a plain int
    seqs, _ = _t1_head(n, 3)
    tags = [TAG_INITIAL] * 3
    for k in range(4, n - 2):
        prev2, prev = seqs[k - 3], seqs[k - 2]
        if k % 3 == 1:
            if k == 4:
                seq = (prev2[-1],) + pslice(prev, 2, -3) + (n,) + (prev[-2],)
            else:
                seq = (
                    (prev2[-1], prev[0])
                    + pslice(prev, 3, -3)
                    + (n,)
                    + (prev[-2],)
                )
            tag = TAG_JUMP
        elif k % 3 == 2:
            seq = (prev2[-1],) + pslice(prev, 1, -3)
            tag = TAG_SKIP
        else:
            seq = (prev2[-1], n) + pslice(prev, 1, -2)
            tag = TAG_RECOVER
        seqs.append(seq)
        tags.append(tag)
    # final three sequences
    prev2, prev = seqs[n - 5], seqs[n - 4]
    seqs.append((prev2[-1], prev[0]) + pslice(prev, 3, -2) + (n,))
    prev2, prev = seqs[n - 4], seqs[n - 3]
    seqs.append((prev2[-1],) + pslice(prev, 1, -2))
    prev2, prev = seqs[n - 3], seqs[n - 2]
    seqs.append((prev2[-1],) + pslice(prev, 1, -1))
    tags += [TAG_FINAL] * 3
    return GeneratedList(2, tuple(seqs), tuple(tags))


def gen_ts(s: int, n: int) -> GeneratedList:
    """Level-s list (s >= 3): s-1 skip letters cycle through jump / forward /
    skip / recover / forward blocks of 2s-1 sequences."""
    s, n = operator.index(s), operator.index(n)  # GeneratedList stores s
    if s < 3:
        raise ValidationError(f"gen_ts requires s >= 3, got s={s}")
    validate(s, n)
    cyc = 2 * s - 1
    fwd = pslice  # alias keeps the clauses below one line each
    ph = skip_letters(s, n)
    ph_rev = phi_reverse(s, n)
    seqs, _ = _t1_head(n, s + 1)
    tags = [TAG_INITIAL] * (s + 1)
    for k in range(s + 2, n - s):
        prev2, prev = seqs[k - 3], seqs[k - 2]
        r = k % cyc
        if r == (s + 2) % cyc:
            if k == s + 2:
                seq = (
                    (prev2[-1],)
                    + fwd(prev, s, -s - 1)
                    + ph
                    + fwd(prev, -s, -2)
                )
            else:
                seq = (
                    (prev2[-1],)
                    + fwd(prev, 1, s - 1)
                    + fwd(prev, 2 * s - 1, -s - 1)
                    + ph
                    + fwd(prev, -s, -2)
                )
            tag = TAG_JUMP
        elif r == 2:
            # the written clause says length n-1 here, but the formula (and
            # the worked examples) give n-s; the formula governs
            seq = (prev2[-1],) + fwd(prev, 1, -s - 1)
            tag = TAG_SKIP
        elif r == 3:
            seq = (prev2[-1],) + ph_rev + fwd(prev, 1, -2)
            tag = TAG_RECOVER
        else:
            seq = (prev2[-1],) + fwd(prev, 1, -2)
            tag = TAG_FORWARD
        seqs.append(seq)
        tags.append(tag)
    # final s+1 sequences mirror the initial block
    prev2, prev = seqs[n - s - 3], seqs[n - s - 2]
    seqs.append(
        (prev2[-1],)
        + fwd(prev, 1, s - 1)
        + fwd(prev, 2 * s - 1, -2)
        + ph_rev
    )
    tags.append(TAG_FINAL)
    for i in range(1, s):
        prev2, prev = seqs[n - s + i - 3], seqs[n - s + i - 2]
        seqs.append((prev2[-1],) + fwd(prev, 1, -2))
        tags.append(TAG_FINAL)
    prev2, prev = seqs[n - 3], seqs[n - 2]
    seqs.append((prev2[-1],) + fwd(prev, 1, -1))
    tags.append(TAG_FINAL)
    return GeneratedList(s, tuple(seqs), tuple(tags))


def generate(s: int, n: int) -> GeneratedList:
    """Dispatch to the level-appropriate generator."""
    validate(s, n)
    if s == 1:
        return gen_t1(n)
    if s == 2:
        return gen_t2(n)
    return gen_ts(s, n)


def build_supersequence(glist: GeneratedList) -> Supersequence:
    """Interpose n+1 copies of the new letter x = n+1 around the sequences."""
    m = glist.n + 1
    word: list[int] = [m]
    for seq in glist.sequences:
        word.extend(seq)
        word.append(m)
    return Supersequence(tuple(word), m)


def construct_for_m(m: int, strategy: str = "best_valid") -> Supersequence:
    """Build a supersequence over exactly m letters.

    strategy:
      best_valid  -- the shortest level s >= 2 valid at n = m-1, or else
                     the level-1 list
      t1_fallback -- always the level-1 list
      restrict    -- build at the smallest valid n' >= m-1 and delete every
                     letter above m (restriction preserves the property);
                     never shorter than best_valid: equal when a level
                     s >= 2 is valid at n = m-1, and longer at 85 of the
                     396 m in 5..400
    """
    # analyze imports this module, so the level choice is imported late
    from .analyze import best_level

    m = operator.index(m)  # Supersequence stores m: keep it a plain int
    if m < 5:
        raise ValidationError(f"m={m} must be >= 5")
    if strategy not in ("best_valid", "t1_fallback", "restrict"):
        raise ValidationError(f"unknown strategy {strategy!r}")
    n = m - 1
    if strategy == "restrict":  # 9 and every multiple of 3 above it are valid
        n = next(v for v in itertools.count(n) if valid_levels(v))
    best = None if strategy == "t1_fallback" else best_level(n + 1)
    full = build_supersequence(generate(best[0], n) if best else gen_t1(n))
    if n == m - 1:  # no letter exceeds m
        return full
    return Supersequence(tuple(a for a in full.word if a <= m), m)
