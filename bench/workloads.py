"""The benchmark's four workloads, built from a seed.

Each workload is a list of `Op`s: a call into skipseq's public surface
(`skipseq.cli.main` in-process with stdout captured, or a library call)
plus a check against `reference`, which runs outside the timed region.
The seed decides every input the program sees; the same seed gives the
same ops.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

import skipseq
from skipseq import cli

import reference as ref


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


@dataclass
class Op:
    """One timed operation and the check of its result.

    `check` returns (operations attempted, error messages); a batch op
    counts each of its inputs as one operation. `replay` extracts what a
    seeded sampled run must reproduce exactly on every execution.
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[int, list[str]]]
    replay: Optional[Callable[[Any], Any]] = None


def run_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def _cli_op(label: str, argv: list[str], check, replay=None) -> Op:
    return Op(label, lambda: run_cli(argv), check, replay)


def _code_error(result: CliResult, expected: int) -> list[str]:
    if result.code != expected:
        return [f"exit code {result.code}, expected {expected}: "
                f"{result.stderr.strip()[:200]}"]
    return []


def _check_verify_json(
    word: Optional[tuple[int, ...]], m: int, passes: bool,
    seed: Optional[int] = None,
):
    """Check `verify --format json` output: exit code, verdict, seed and
    witness only (its stats are free to change)."""

    def check(result: CliResult) -> tuple[int, list[str]]:
        errors = _code_error(result, 0 if passes else 1)
        if errors:
            return 1, errors
        payload = json.loads(result.stdout)
        want = "pass" if passes else "fail"
        if payload["verdict"] != want:
            errors.append(f"verdict {payload['verdict']}, expected {want}")
        if payload["seed"] != seed:
            errors.append(f"seed {payload['seed']}, expected {seed}")
        witness = payload.get("witness")
        if passes and witness is not None:
            errors.append(f"witness {witness} given for a pass")
        if not passes:
            problem = ref.witness_error(witness, word, m, m)
            if problem:
                errors.append(problem)
        return 1, errors

    return check


def _sampled_replay(result: CliResult):
    payload = json.loads(result.stdout)
    return (payload["verdict"], payload.get("witness"),
            payload["stats"].get("permutations_checked"))


def _word_arg(word) -> str:
    return ",".join(map(str, word))


def _mid_deletions(word, count: int, rng: random.Random):
    L = len(word)
    for p in sorted(rng.sample(range(L // 4, 3 * L // 4), count)):
        yield word[:p] + word[p + 1:]


def proof(seed: int) -> tuple[list[Op], dict]:
    """Largest calls first, so that they are the ones repeated when the
    time budget allows only part of a second pass."""
    rng = random.Random(seed)
    ops: list[Op] = []
    for s, n in ((3, 13), (2, 12)):
        sequences = skipseq.generate(s, n).sequences
        ops.append(Op(
            f"strongly-complete-s{s}-n{n}",
            lambda seqs=sequences, n=n: skipseq.strongly_complete(seqs, n),
            lambda w: (1, [] if w is None else [f"not strongly complete: {w}"]),
        ))
        ops.append(Op(
            f"quasi-palindrome-s{s}-n{n}",
            lambda seqs=sequences: skipseq.quasi_palindrome(seqs),
            _check_quasi_palindrome(sequences),
        ))
    sample_seed = rng.randrange(2**32)
    ops.append(_cli_op(
        "verify-sampled-m25",
        ["verify", "--s", "4", "--n", "24", "--sampled", "--count", "1000000",
         "--seed", str(sample_seed), "--format", "json"],
        _check_verify_json(None, 25, True, sample_seed),
        _sampled_replay,
    ))
    for s, n in ((1, 13), (3, 13), (2, 12)):
        ops.append(_cli_op(
            f"verify-exhaustive-s{s}-n{n}",
            ["verify", "--s", str(s), "--n", str(n), "--exhaustive",
             "--format", "json"],
            _check_verify_json(None, n + 1, True),
        ))
    for s, n in ((1, 13), (3, 13), (2, 12)):
        word = skipseq.build_supersequence(skipseq.generate(s, n)).word
        for i, control in enumerate(_mid_deletions(word, 2, rng)):
            ops.append(_cli_op(
                f"control-s{s}-n{n}-{i}",
                ["verify", "--word", _word_arg(control), "--m", str(n + 1),
                 "--exhaustive", "--format", "json"],
                _check_verify_json(control, n + 1, False),
            ))
    return ops, {"controls": 6, "sample_seed": sample_seed}


def _check_quasi_palindrome(sequences):
    expected = ref.quasi_palindrome_map(sequences)

    def check(report) -> tuple[int, list[str]]:
        if expected is None:
            return 1, ["reference finds no quasi-palindrome bijection"]
        involution = all(expected[b] == a for a, b in expected.items())
        if not report.found or report.mapping != expected:
            return 1, [f"bijection {report.mapping} != reference"]
        if report.involution != involution:
            return 1, [f"involution {report.involution} != {involution}"]
        return 1, []

    return check


def _oracle_check(m: int):
    def check(result: CliResult) -> tuple[int, list[str]]:
        errors = _code_error(result, 0)
        if errors:
            return 1, errors
        lines = result.stdout.splitlines()
        length = ref.SHORTEST_LENGTH[m]
        if lines[0] != f"shortest length over {m} letters: {length}":
            return 1, [f"oracle reported {lines[0]!r}"]
        word = tuple(int(a) for a in lines[1].removeprefix("example: ").split(","))
        if len(word) != length or ref.first_missing(word, m, m) is not None:
            return 1, [f"oracle example {word} is not a supersequence"]
        return 1, []

    return check


def _tiny_batch(rng: random.Random, per_m: int):
    """Words over m = 4..7 letters: the level-1 words for m and m+1 letters
    restricted to 1..m (which stay supersequences), most of them with one
    random deletion, adjacent swap or replacement, so that about half pass."""
    batch = []
    for m in range(4, 8):
        bases = [
            tuple(a for a in skipseq.construct_for_m(big, "t1_fallback").word
                  if a <= m)
            for big in (max(m, 5), max(m, 5) + 1)
        ]
        for _ in range(per_m):
            word = list(rng.choice(bases))
            if rng.random() < 0.8:
                p = rng.randrange(len(word))
                mutation = rng.choice(("delete", "swap", "replace"))
                if mutation == "delete":
                    del word[p]
                elif mutation == "swap" and p + 1 < len(word):
                    word[p], word[p + 1] = word[p + 1], word[p]
                else:
                    word[p] = rng.randint(1, m)
            batch.append((tuple(word), m, rng.choice((m - 1, m))))
    return batch


def tiny(seed: int) -> tuple[list[Op], dict]:
    rng = random.Random(seed)
    batch = _tiny_batch(rng, per_m=300)
    missing: dict[tuple, Optional[tuple[int, ...]]] = {}

    def reference_missing(word, m, k):
        key = (word, m, k)
        if key not in missing:
            missing[key] = ref.first_missing(word, m, k)
        return missing[key]

    mix: dict = {"batch": len(batch)}

    def check_exhaustive(reports) -> tuple[int, list[str]]:
        errors = []
        mix["pass_share"] = sum(
            reference_missing(w, m, m) is None for w, m, _ in batch
        ) / len(batch)
        for (word, m, _), report in zip(batch, reports):
            expected = reference_missing(word, m, m)
            if report.passed != (expected is None):
                errors.append(f"{word}: verdict {report.verdict}")
            elif not report.passed:
                w = report.witness.permutation if report.witness else None
                problem = ref.witness_error(w, word, m, m)
                if problem:
                    errors.append(problem)
        return len(batch), errors

    def check_k_complete(witnesses) -> tuple[int, list[str]]:
        errors = []
        for (word, m, k), witness in zip(batch, witnesses):
            got = None if witness is None else witness.permutation
            expected = reference_missing(word, m, k)
            if got != expected:
                errors.append(f"{word} k={k}: witness {got} != {expected}")
        return len(batch), errors

    ops = [
        _cli_op("oracle-m3", ["oracle", "--m", "3"], _oracle_check(3)),
        _cli_op("oracle-m4", ["oracle", "--m", "4"], _oracle_check(4)),
        Op("batch-exhaustive",
           lambda: [skipseq.verify_supersequence_exhaustive(w, m)
                    for w, m, _ in batch],
           check_exhaustive),
        Op("batch-k-complete",
           lambda: [skipseq.is_k_complete(w, m, k) for w, m, k in batch],
           check_k_complete),
    ]
    return ops, mix


def wide(seed: int) -> tuple[list[Op], dict]:
    rng = random.Random(seed)
    seeds = [rng.randrange(2**32) for _ in range(3)]
    word = skipseq.build_supersequence(skipseq.generate(3, 98)).word
    dropped = rng.randint(1, 98)
    half = len(word) // 2
    reject = word[:half] + tuple(a for a in word[half:] if a != dropped)
    ops = [
        _cli_op(
            "verify-sampled-n98",
            ["verify", "--s", "3", "--n", "98", "--sampled", "--count",
             "100000", "--seed", str(seeds[0]), "--format", "json"],
            _check_verify_json(None, 99, True, seeds[0]),
            _sampled_replay,
        ),
        _cli_op(
            "verify-sampled-n298",
            ["verify", "--s", "3", "--n", "298", "--sampled", "--count",
             "10000", "--seed", str(seeds[1]), "--format", "json"],
            _check_verify_json(None, 299, True, seeds[1]),
            _sampled_replay,
        ),
        _cli_op(
            "verify-sampled-reject",
            ["verify", "--word", _word_arg(reject), "--m", "99", "--sampled",
             "--count", "100000", "--seed", str(seeds[2]), "--format", "json"],
            _check_verify_json(reject, 99, False, seeds[2]),
            _sampled_replay,
        ),
    ]
    return ops, {"sample_seeds": seeds, "reject_dropped_letter": dropped}


def sweep(seed: int) -> tuple[list[Op], dict]:
    rng = random.Random(seed)
    table_ms = list(range(5, 401))
    rng.shuffle(table_ms)
    restrict_ms = list(range(5, 301))
    rng.shuffle(restrict_ms)
    spot_seed = rng.randrange(2**32)
    checked: dict[tuple[int, int], Optional[str]] = {}

    def check_digest(expected: str):
        def check(result: CliResult) -> tuple[int, list[str]]:
            errors = _code_error(result, 0)
            if not errors and ref.sha256_text(result.stdout) != expected:
                errors.append("output differs from the reference digest")
            return 1, errors

        return check

    def check_rows(rows) -> tuple[int, list[str]]:
        errors = []
        records = [(r.m, r.classical, r.zalinescu, r.radomirovic, r.best_s,
                    r.best_len, r.actual) for r in rows]
        if [r[0] for r in records] != table_ms:
            errors.append("rows are not in the requested order")
        for m, classical, _, _, _, best_len, actual in records:
            if classical != ref.classical_length(m):
                errors.append(f"m={m}: classical length {classical}")
            if best_len != actual:
                errors.append(f"m={m}: predicted {best_len} != built {actual}")
        if ref.rows_digest(records) != ref.COMPARISON_ROWS_SHA256:
            errors.append("comparison rows differ from the reference digest")
        return 1, errors

    def check_restrict(words) -> tuple[int, list[str]]:
        errors = []
        for m, word in zip(restrict_ms, words):
            key = (m, hash(word.word))
            if key not in checked and word.m != m:
                checked[key] = f"m={word.m}, expected {m}"
            elif key not in checked:
                checked[key] = ref.spot_check_universal(
                    word.word, m, random.Random(spot_seed + m)
                )
            if checked[key]:
                errors.append(checked[key])
        total = sum(len(word.word) for word in words)
        if total != ref.RESTRICT_LETTERS_5_300:
            errors.append(f"{total} letters, expected "
                          f"{ref.RESTRICT_LETTERS_5_300}")
        return 1, errors

    ops = [
        _cli_op("analyze-csv-5-1000",
                ["analyze", "--m-range", "5:1000", "--format", "csv"],
                check_digest(ref.ANALYZE_CSV_SHA256)),
        Op("comparison-table-5-400",
           lambda: skipseq.comparison_table(table_ms, with_actual=True),
           check_rows),
        Op("construct-restrict-5-300",
           lambda: [skipseq.construct_for_m(m, "restrict")
                    for m in restrict_ms],
           check_restrict),
        _cli_op("generate-json-n598",
                ["generate", "--s", "3", "--n", "598", "--format", "json"],
                check_digest(ref.GENERATE_JSON_SHA256)),
    ]
    return ops, {}


WORKLOADS = {"proof": proof, "tiny": tiny, "wide": wide, "sweep": sweep}
