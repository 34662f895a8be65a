import itertools
import json
import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from skipseq import (
    build_supersequence,
    classical_length,
    coefficient,
    comparison_table,
    concat_length,
    generate,
    predicted_length,
)
from skipseq import analyze
from skipseq.analyze import (
    ValidationError,
    best_level,
    constant_term,
    radomirovic_length,
    rows_to_csv,
    rows_to_json,
    skip_cycle_count,
    zalinescu_length,
)
from skipseq.construct import valid_levels


def valid_pairs(s_max=12, n_max=60):
    for s in range(2, s_max + 1):
        if s == 2:
            ns = [n for n in range(9, n_max + 1) if n % 3 == 0]
        else:
            ns = [
                n
                for n in range(4 * s + 1, n_max + 1)
                if n % (2 * s - 1) == 3
            ]
        for n in ns:
            yield s, n


class TestFormulas:
    def test_t4_25(self):
        assert predicted_length(4, 25) == 573
        assert concat_length(4, 25) == 548

    def test_s2_equals_radomirovic(self):
        for n in range(9, 61, 3):
            m = n + 1
            assert predicted_length(2, m) == radomirovic_length(m)

    def test_s3_m14(self):
        assert skip_cycle_count(3, 14) == 1
        assert concat_length(3, 14) == 2 * 13 + 10 * 12 + 10
        assert predicted_length(3, 14) == 170

    def test_s3_m19(self):
        assert skip_cycle_count(3, 19) == 2
        assert concat_length(3, 19) == 2 * 18 + 14 * 17 + 2 * 15 == 304
        assert predicted_length(3, 19) == 323

    def test_s2_m13_reconciled_against_construction(self):
        glist = generate(2, 12)
        assert concat_length(2, 13) == glist.total_elements == 132
        assert predicted_length(2, 13) == 145

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            predicted_length(1, 10)
        with pytest.raises(ValidationError):
            predicted_length(3, 18)  # n=17 fails the congruence

    def test_closed_form_matches_accounting(self):
        for s, n in valid_pairs():
            m = n + 1
            assert predicted_length(s, m) == m + concat_length(s, m)

    def test_formula_matches_construction(self):
        for s, n in valid_pairs():
            glist = generate(s, n)
            assert glist.total_elements == concat_length(s, n + 1)
            sseq = build_supersequence(glist)
            assert sseq.length == predicted_length(s, n + 1)

    def test_t1_closed_form(self):
        for m in range(5, 41):
            word = build_supersequence(generate(1, m - 1))
            assert word.length == classical_length(m)


class TestCoefficient:
    def test_small_levels(self):
        assert coefficient(2) == Fraction(7, 3)
        assert coefficient(3) == Fraction(12, 5)
        assert coefficient(4) == Fraction(17, 7)
        assert constant_term(2) == Fraction(19, 3)
        assert constant_term(3) == Fraction(38, 5)
        assert constant_term(4) == Fraction(61, 7)

    def test_level_below_2_rejected(self):
        for term in (coefficient, constant_term):
            message = f"^{term.__name__} requires s >= 2, got 1$"
            with pytest.raises(ValidationError, match=message):
                term(1)

    def test_limit(self):
        c = coefficient(10**6)
        assert c < Fraction(5, 2)
        assert Fraction(5, 2) - c < Fraction(1, 10**5)

    def test_strictly_increasing_and_bounded(self):
        prev = coefficient(2)
        for s in range(3, 200):
            cur = coefficient(s)
            assert prev < cur < Fraction(5, 2)
            prev = cur

    def test_exceeds_any_epsilon_gap(self):
        for eps in (Fraction(1, 10), Fraction(1, 1000), Fraction(1, 10**6)):
            s = math.ceil((Fraction(5, 2) / eps + 1) / 2) + 1
            assert coefficient(s) > Fraction(5, 2) - eps


class TestLengthModel:
    def test_fields(self):
        assert (
            skip_cycle_count(4, 25),
            predicted_length(4, 25),
            concat_length(4, 25),
        ) == (2, 573, 548)

    def test_t_nonnegative_integer(self):
        for s, n in valid_pairs():
            assert skip_cycle_count(s, n + 1) >= 0


class TestComparisonTable:
    def test_m_25(self):
        (row,) = comparison_table([25])
        assert row.classical == 579
        assert row.best_len == 573
        # levels 2 and 4 tie at 573; ties break to the simpler construction
        assert row.best_s == 2

    def test_m_24_first_to_beat_radomirovic(self):
        (row,) = comparison_table([24], with_actual=True)
        assert (row.best_s, row.best_len, row.actual) == (3, 526, 526)
        assert row.radomirovic == 527
        assert all(
            row.best_len is None or row.best_len >= row.radomirovic
            for row in comparison_table(range(5, 24))
        )

    def test_m_7_no_valid_level(self):
        (row,) = comparison_table([7])
        assert row.classical == 39
        assert row.radomirovic == 39
        assert row.best_s is None

    def test_m_5(self):
        (row,) = comparison_table([5])
        assert row.classical == 19
        assert row.best_s is None

    def test_actual_matches_prediction(self):
        for row in comparison_table([10, 13, 14, 25], with_actual=True):
            assert row.actual == row.best_len

    def test_row_count_and_header(self):
        rows = comparison_table(range(5, 101))
        assert len(rows) == 96
        text = rows_to_csv(rows)
        header, *body = text.strip().split("\n")
        assert header == "m,classical,zalinescu,radomirovic,best_s,best_len,actual"
        assert len(body) == 96

    def test_zalinescu_is_report_only(self):
        (row,) = comparison_table([10])
        assert row.zalinescu == zalinescu_length(10) == 83

    def test_json_fields(self):
        records = json.loads(rows_to_json(comparison_table([25])))
        assert records[0]["m"] == 25
        assert set(records[0]) == {
            "m", "classical", "zalinescu", "radomirovic",
            "best_s", "best_len", "actual",
        }

    def test_best_level_search(self):
        assert best_level(25) == (2, 573)
        assert best_level(7) is None

    def test_numpy_sizes_give_int_rows(self):
        rows = comparison_table(np.arange(24, 26), with_actual=True)
        expected = comparison_table([24, 25], with_actual=True)
        assert rows == expected
        assert {type(v) for row in rows for v in vars(row).values()} == {int}
        assert rows_to_json(rows) == rows_to_json(expected)
        assert rows_to_csv(rows) == rows_to_csv(expected)

    def test_length_formulas_give_ints(self):
        # numpy sizes come back as ints, and a float size is rejected
        for size in (np.int64, np.int32):
            results = [
                classical_length(size(25)),
                zalinescu_length(size(25)),
                radomirovic_length(size(25)),
                skip_cycle_count(size(3), size(24)),
                concat_length(size(3), size(24)),
                predicted_length(size(3), size(24)),
                *best_level(size(25)),
                *best_level(size(10)),
            ]
            assert results == [579, 578, 573, 3, 502, 526, 2, 573, 2, 83]
            assert {type(v) for v in results} == {int}
            terms = [coefficient(size(3)), constant_term(size(3))]
            assert terms == [coefficient(3), constant_term(3)]
            parts = [(t.numerator, t.denominator) for t in terms]
            assert {type(v) for pair in parts for v in pair} == {int}
        for s, m in [(2.0, 10), (2, 10.0)]:
            with pytest.raises(TypeError):
                predicted_length(s, m)
        with pytest.raises(TypeError):
            classical_length(2.5)

    def test_out_of_range_m_rejected(self):
        with pytest.raises(ValidationError, match="m=10001"):
            comparison_table(range(5, 10002))

    def test_range_checked_before_any_row(self, monkeypatch):
        def no_rows(m):
            raise AssertionError(f"row for m={m} computed before the range check")

        monkeypatch.setattr(analyze, "best_level", no_rows)
        with pytest.raises(ValidationError):
            comparison_table([5, 6, 10_001])

    def test_reads_no_further_than_the_first_bad_m(self):
        def unread():
            raise AssertionError("m read past the first one out of range")
            yield

        with pytest.raises(ValidationError, match="m=10001"):
            comparison_table(itertools.chain([5, 6, 10_001], unread()))


def test_levels_match_congruence_rule():
    expected = defaultdict(list)
    for s, n in valid_pairs(s_max=750, n_max=3000):
        expected[n].append(s)
    for n in range(0, 3001):
        assert valid_levels(n) == expected[n], n
