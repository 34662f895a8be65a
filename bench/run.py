"""skipseq benchmark: run one workload and report its metrics.

Usage (from the repository root):

    python3 bench/run.py --workload {proof,tiny,wide,sweep} --seed N \
        --seconds S --trace {0,1}

With `--trace 0` it reports the end-to-end metrics: `wall_s` (sum over the
workload's ops of each op's median time), `setup_s` (median, over several
fresh processes, of the time from process start to the first timed op) and
`peak_rss_mb` of the measuring process. With `--trace 1` it runs the
workload once untraced and once with skipseq's public functions wrapped in
spans, in two fresh processes of `--seconds`/2 each, and reports the
per-layer metrics and `trace.overhead_s`.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it are a readable
summary. A full record is also written to `bench/out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SETUP_PROBES = 10
PROCESS_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def spawn_worker(workload: str, seed: int, seconds: float, mode: str,
                 spans: Path | None = None) -> tuple[float, dict]:
    """Run bench/worker.py in a fresh interpreter; (start time, result)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{mode} worker timed out after {exc.timeout} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from spawning a worker to its first timed op."""
    started, probe = spawn_worker(workload, seed, 0, "setup")
    return probe["ready_at"] - started


def source_identity() -> dict:
    """Commit (when the tree is a git checkout) and a digest of the
    skipseq sources the run imported."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "skipseq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        _, plain = spawn_worker(workload, seed, seconds / 2, "untraced")
        spans = OUT / f"spans-{workload}.json"
        _, traced = spawn_worker(workload, seed, seconds / 2, "traced", spans)
        runs = [plain, traced]
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        mix = traced["mix"]
    else:
        # probes before and after the measured run, so that one slow spell
        # of the machine does not set the median
        setups = [setup_probe(workload, seed) for _ in range(SETUP_PROBES // 2)]
        started, main_run = spawn_worker(workload, seed, seconds, "untraced")
        setups.append(main_run["ready_at"] - started)
        setups += [setup_probe(workload, seed)
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        runs = [main_run]
        metrics = {
            "wall_s": main_run["wall_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": main_run["peak_rss_mb"],
        }
        mix = main_run["mix"]
    expected_src = ROOT / "src"
    errors = [e for run in runs for e in run["errors"]]
    stale = [run["import_path"] for run in runs
             if not Path(run["import_path"]).is_relative_to(expected_src)]
    if stale:  # each run against another copy counts as a failed operation
        errors.append(f"skipseq imported from {stale[0]}, not {expected_src}")
    attempted = sum(run["attempted"] for run in runs)
    failed = min(attempted, sum(run["failed"] for run in runs) + len(stale))
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "passes": [run["passes"] for run in runs],
        "op_seconds": [run["op_seconds"] for run in runs],
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
        "mix": mix,
        "import_path": runs[0]["import_path"],
        **source_identity(),
    }


def summary_lines(record: dict) -> list[str]:
    rate = record["failed"] / record["attempted"]
    lines = [
        f"workload {record['workload']} seed {record['seed']} "
        f"trace {record['trace']} passes {record['passes']}",
        f"  skipseq from {record['import_path']} "
        f"commit {record['commit']} src {record['source_sha256'][:12]}",
    ]
    lines += [f"  {name} = {m['value']:.6g} {m['unit']}"
              for name, m in record["metrics"].items()]
    lines.append(f"  error_rate = {rate:.6g} "
                 f"({record['failed']} failed / {record['attempted']} "
                 f"attempted operations)")
    lines += [f"  mix {key} = {value}" for key, value in record["mix"].items()]
    lines += [f"  ERROR {e}" for e in record["errors"]]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "skipseq" / "__init__.py").is_file():
        print(f"error: no skipseq sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        record = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    name = f"BENCH_{args.workload}_trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n")
    print("\n".join(summary_lines(record)))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
