"""Run every workload once and print its end-to-end metrics in one table.

Usage (from the repository root):

    python3 bench/summary.py [--seed N] [--seconds S]

Each workload runs through bench/run.py with tracing off; the table adds
`error_rate` (failed / attempted operations) and `correct` (every check
held and skipseq came from this checkout's `src/`) to the reported metrics.
Exits 1 when any workload fails to run or is not correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import BENCH, OUT, ROOT, WORKLOADS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    print(f"{'workload':9} {'wall_s (s)':>11} {'setup_s (s)':>12} "
          f"{'peak_rss_mb (MiB)':>18} {'error_rate':>11} {'correct':>8}")
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"{workload:9} failed: {proc.stderr.strip()}")
            status = 1
            continue
        record = json.loads((OUT / f"BENCH_{workload}_trace0.json").read_text())
        metric = {k: v["value"] for k, v in record["metrics"].items()}
        rate = record["failed"] / record["attempted"]
        print(f"{workload:9} {metric['wall_s']:11.3f} {metric['setup_s']:12.3f} "
              f"{metric['peak_rss_mb']:18.1f} {rate:11.4f} "
              f"{str(record['correct']):>8}")
        if not record["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
