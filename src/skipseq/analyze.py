"""Exact length accounting: per-level predicted lengths, skip-cycle counts,
asymptotic coefficient, and comparison tables against the older baselines.

Everything is integer/rational arithmetic; the ceiling in each closed form
is computed exactly, as m*m minus an integer floor division, so large m
cannot drift.
"""

from __future__ import annotations

import csv
import io
import json
import operator
from dataclasses import dataclass, asdict, fields
from fractions import Fraction
from typing import Iterable, Optional

from .construct import (
    ValidationError,
    generate,
    valid_levels,
    validate,
)

__all__ = [
    "ComparisonRow",
    "classical_length",
    "zalinescu_length",
    "radomirovic_length",
    "coefficient",
    "constant_term",
    "skip_cycle_count",
    "concat_length",
    "predicted_length",
    "best_level",
    "comparison_table",
    "rows_to_csv",
    "rows_to_json",
]

# the largest m of a comparison table and s of --s-range (levels end at 2499)
_MAX_M = 10_000


@dataclass(frozen=True)
class ComparisonRow:
    m: int
    classical: int
    zalinescu: int
    radomirovic: int
    best_s: Optional[int] = None
    best_len: Optional[int] = None
    actual: Optional[int] = None


CSV_FIELDS = [f.name for f in fields(ComparisonRow)]


def classical_length(m: int) -> int:
    """Length of the classical 1970s constructions (level-1 interposed)."""
    m = operator.index(m)
    return m * m - 2 * m + 4


def zalinescu_length(m: int) -> int:
    # reported for comparison only; no generator exists for this family here
    m = operator.index(m)
    return m * m - 2 * m + 3


def radomirovic_length(m: int) -> int:
    # ceil(m^2 - (7m - 19)/3)
    m = operator.index(m)
    return m * m - (7 * m - 19) // 3


def coefficient(s: int) -> Fraction:
    """The linear-term coefficient (5s-3)/(2s-1); increases to 5/2."""
    s = operator.index(s)  # a Fraction of ints, whatever int type s is
    if s < 2:
        raise ValidationError(f"coefficient requires s >= 2, got {s}")
    return Fraction(5 * s - 3, 2 * s - 1)


def constant_term(s: int) -> Fraction:
    s = operator.index(s)
    if s < 2:
        raise ValidationError(f"constant_term requires s >= 2, got {s}")
    return Fraction(2 * s * s + 9 * s - 7, 2 * s - 1)


def _require_level(s: int, m: int) -> tuple[int, int]:
    s, m = operator.index(s), operator.index(m)
    if s < 2:
        raise ValidationError(f"length formulas require s >= 2, got s={s}")
    validate(s, m - 1)
    return s, m


def skip_cycle_count(s: int, m: int) -> int:
    """Number t of skip cycles (= skip sequences) in the level-s list."""
    s, m = _require_level(s, m)
    t, rem = divmod(m - 2 * s - 3, 2 * s - 1)
    assert rem == 0 and t >= 0, (s, m)
    return t


def concat_length(s: int, m: int) -> int:
    """Total element count of the level-s list over n = m-1 letters."""
    s, m = _require_level(s, m)
    t = skip_cycle_count(s, m)
    return 2 * (m - 1) + (2 * s + t * (2 * s - 2)) * (m - 2) + t * (m - s - 1)


def predicted_length(s: int, m: int) -> int:
    """Supersequence length via the closed form, exactly."""
    s, m = _require_level(s, m)
    # ceil(m^2 - coefficient(s)*m + constant_term(s)), with ceil(-x) = -floor(x)
    return m * m - ((5 * s - 3) * m - (2 * s * s + 9 * s - 7)) // (2 * s - 1)


def best_level(m: int) -> Optional[tuple[int, int]]:
    """(s, predicted length) minimizing length over valid levels s >= 2;
    ties break to the smaller s."""
    levels = ((s, predicted_length(s, m)) for s in valid_levels(m - 1))
    return min(levels, key=lambda level: level[::-1], default=None)


def comparison_table(
    ms: Iterable[int], with_actual: bool = False
) -> list[ComparisonRow]:
    """One row per m; best_s/best_len absent when no level is valid."""
    checked = []  # every m is checked before any row is computed
    for m in map(operator.index, ms):
        if not 5 <= m <= _MAX_M:
            raise ValidationError(f"m={m} outside supported range 5..{_MAX_M}")
        checked.append(m)
    rows = []
    for m in checked:
        best_s, best_len = best_level(m) or (None, None)
        actual = None
        if with_actual and best_s:  # interposition adds n + 1 = m letters
            actual = generate(best_s, m - 1).total_elements + m
        rows.append(
            ComparisonRow(
                m=m,
                classical=classical_length(m),
                zalinescu=zalinescu_length(m),
                radomirovic=radomirovic_length(m),
                best_s=best_s,
                best_len=best_len,
                actual=actual,
            )
        )
    return rows


def rows_to_csv(rows: Iterable[ComparisonRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for row in rows:  # csv writes None as an empty field
        writer.writerow([getattr(row, k) for k in CSV_FIELDS])
    return buf.getvalue()


def rows_to_json(rows: Iterable[ComparisonRow]) -> str:
    return json.dumps([asdict(row) for row in rows], indent=2)
