"""Command-line driver: generate, verify, analyze, oracle, trace.

Exit codes: 0 success/pass, 1 combinatorial failure (witness printed),
2 usage or validation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import secrets
import sys
from typing import Optional

from . import analyze, construct, verify
from .construct import ValidationError

PASS, FAIL, USAGE = 0, 1, 2


def _parse_word(text: str) -> tuple[int, ...]:
    tokens = text.replace(",", " ").split()
    try:
        return tuple(int(t) for t in tokens)
    except ValueError as exc:
        raise ValidationError(f"malformed word: {exc}") from None


def _emit(text: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_value(value, depth: int, names: list[str]) -> str:
    """json.dumps(value, indent=2) at nesting depth `depth` for an int or a
    non-empty list (or tuple) of ints or of such lists, where every int in
    a list is an index into names, the text of each letter.

    json.dumps with an indent runs the pure-Python encoder, one chunk per
    int; this joins each letter's text from names, built once per
    alphabet, for the same bytes.
    """
    if isinstance(value, int):
        return str(value)
    pad = "\n" + "  " * (depth + 1)
    if isinstance(value[0], int):
        items = map(names.__getitem__, value)
    else:
        items = (_json_value(v, depth + 1, names) for v in value)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


def _cmd_generate(args) -> int:
    glist = construct.generate(args.s, args.n)
    sseq = construct.build_supersequence(glist)
    # one string per letter of the alphabet, not one per letter emitted
    names = [str(a) for a in range(sseq.m + 1)]
    if args.format == "json":
        payload = {
            "s": glist.s,
            "n": glist.n,
            "sequences": glist.sequences,
            "supersequence": sseq.word,
            "length": sseq.length,
        }
        fields = (
            f"  {json.dumps(key)}: {_json_value(value, 1, names)}"
            for key, value in payload.items()
        )
        _emit("{\n" + ",\n".join(fields) + "\n}\n", args.output)
    else:
        lines = [
            ",".join(map(names.__getitem__, seq)) for seq in glist.sequences
        ]
        lines.append(",".join(map(names.__getitem__, sseq.word)))
        _emit("\n".join(lines) + "\n", args.output)
    return PASS


def _witness_payload(report: verify.VerificationReport) -> dict:
    # elapsed time is excluded so identical configs give identical output
    stats = {k: v for k, v in report.stats.items() if k != "elapsed_s"}
    payload = {
        "verdict": report.verdict,
        "mode": report.mode,
        "stats": stats,
        "seed": report.seed,
    }
    if report.witness is not None:
        payload["witness"] = list(report.witness.permutation)
    return payload


def _cmd_verify(args) -> int:
    if args.word is not None:
        word = _parse_word(args.word)
    elif args.word_file is not None:
        with open(args.word_file) as fh:
            word = _parse_word(fh.read())
    elif args.s is not None and args.n is not None:
        word = construct.build_supersequence(
            construct.generate(args.s, args.n)
        ).word
    else:
        raise ValidationError("supply --word, --word-file, or --s with --n")
    if args.m is None and not word:
        raise ValidationError("the word has no letters; supply --m")
    m = args.m if args.m is not None else max(word)
    if args.sampled:
        seed = args.seed if args.seed is not None else secrets.randbits(32)
        report = verify.verify_supersequence_sampled(
            word, m, args.count, seed, verify.adversarial_permutations(m)
        )
    else:
        report = verify.verify_supersequence_exhaustive(word, m)
    payload = _witness_payload(report)
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"verdict: {report.verdict} ({report.mode})")
        if report.seed is not None:
            print(f"seed: {report.seed}")
        for key, value in payload["stats"].items():
            print(f"{key}: {value}")
        if report.witness is not None:
            perm = ",".join(map(str, report.witness.permutation))
            print(f"witness: {perm}")
    return PASS if report.passed else FAIL


def _parse_range(text: str) -> range:
    lo, _, hi = text.partition(":")
    try:
        values = range(int(lo), int(hi) + 1)
    except ValueError:
        values = range(0)
    if not values:
        raise ValidationError(
            f"malformed range {text!r}: expected lo:hi with integers lo <= hi"
        )
    return values


def _cmd_analyze(args) -> int:
    if args.coefficients:
        s_values = _parse_range(args.s_range) if args.s_range else range(2, 11)
        if s_values[-1] > analyze._MAX_M:
            raise ValidationError(
                f"s={s_values[-1]} outside supported range 2..{analyze._MAX_M}"
            )
        lines = [f"{s}: {analyze.coefficient(s)}" for s in s_values]
        _emit("\n".join(lines) + "\n", args.output)
        return PASS
    if args.m_range:
        ms = _parse_range(args.m_range)
    elif args.m is not None:
        ms = [args.m]
    else:
        raise ValidationError("supply --m, --m-range, or --coefficients")
    rows = analyze.comparison_table(ms, with_actual=args.with_actual)
    if args.format == "csv":
        _emit(analyze.rows_to_csv(rows), args.output)
    elif args.format == "json":
        _emit(analyze.rows_to_json(rows) + "\n", args.output)
    else:
        header = " ".join(f"{name:>12}" for name in analyze.CSV_FIELDS)
        lines = [header]
        for row in rows:
            record = [getattr(row, name) for name in analyze.CSV_FIELDS]
            lines.append(
                " ".join(f"{'-' if v is None else v:>12}" for v in record)
            )
        _emit("\n".join(lines) + "\n", args.output)
    return PASS


def _cmd_oracle(args) -> int:
    length, word = verify.shortest_supersequence_oracle(args.m)
    print(f"shortest length over {args.m} letters: {length}")
    print("example: " + ",".join(map(str, word)))
    return PASS


def _cmd_trace(args) -> int:
    glist = construct.generate(args.s, args.n)
    rho = _parse_word(args.rho)
    trace = verify.trace_m_sets(glist, rho, args.k)
    for idx, m_set in trace.steps:
        letters = ",".join(map(str, sorted(m_set))) or "-"
        print(f"M[{idx}] = {{{letters}}}")
    print(f"terminated at index {trace.terminated_at}")
    bound = glist.s - 1
    print(f"max |M| = {trace.max_size} (bound {bound})")
    return PASS if trace.max_size <= bound else FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skipseq",
        description="Build and verify permutation supersequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a sequence list + supersequence")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify", help="check the supersequence property")
    p.add_argument("--word")
    p.add_argument("--word-file")
    p.add_argument("--s", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--sampled", action="store_true")
    p.add_argument("--count", type=int, default=100_000)
    p.add_argument("--seed", type=int)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("analyze", help="length formulas and comparison table")
    p.add_argument("--m", type=int)
    p.add_argument("--m-range")
    p.add_argument("--coefficients", action="store_true")
    p.add_argument("--s-range")
    p.add_argument("--with-actual", action="store_true")
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("oracle", help="brute-force shortest supersequence")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("trace", help="replay the M-set recursion")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rho", required=True)
    p.set_defaults(func=_cmd_trace)
    return parser


# main parses with one parser per process; parse_args leaves it unchanged
_parser = functools.cache(build_parser)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code else PASS
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
