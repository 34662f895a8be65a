"""One workload measurement in a fresh Python process.

Usage: python3 bench/worker.py --workload NAME --seed N --seconds S
           --mode {setup,untraced,traced} [--spans PATH]

`setup` builds the inputs and stops. The other modes then run the workload's
ops in turn until `--seconds` have gone by (at least one whole pass, and
only whole passes when traced), check every result against the reference outside the timed region, replay
each seeded sampled op at least once, and print one JSON object as the last
line of stdout. `traced` also wraps skipseq's public functions and writes
the spans to `--spans` when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import skipseq  # noqa: E402

import tracer as tr  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

MAX_ERRORS = 20


class Runner:
    """Times ops, checks their results and keeps the tallies."""

    def __init__(self, ops: list[Op], tracer: tr.Tracer | None) -> None:
        self.tracer = tracer
        self.durations: dict[str, list[float]] = {op.label: [] for op in ops}
        self.replays: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _call(self, op: Op):
        """Run the op once: (result, seconds)."""
        run = op.run
        if self.tracer is not None:
            run = self.tracer.wrap(run, "harness.op")
        start = time.perf_counter()
        result = run()
        return result, time.perf_counter() - start

    def execute(self, op: Op, timed: bool = True) -> None:
        gc.collect()
        try:
            result, elapsed = self._call(op)
        except Exception as exc:  # an op that raises is a failed operation
            self._tally(1, [f"{op.label}: raised {exc!r}"])
            return
        if timed:
            self.durations[op.label].append(elapsed)
        try:
            attempted, errors = op.check(result)
            if op.replay is not None:
                key = op.replay(result)
                first = self.replays.setdefault(op.label, key)
                if key != first:
                    errors.append(f"replay {key} != first run {first}")
        except Exception as exc:  # malformed output fails the check
            attempted, errors = 1, [f"check raised {exc!r}"]
        self._tally(attempted, [f"{op.label}: {e}" for e in errors])

    def _tally(self, attempted: int, errors: list[str]) -> None:
        self.attempted += attempted
        self.failed += min(len(errors), attempted)
        self.errors.extend(errors[: MAX_ERRORS - len(self.errors)])

    def wall_s(self) -> float:
        """Sum over ops of the median of that op's timed durations."""
        return sum(statistics.median(d) for d in self.durations.values() if d)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "untraced", "traced"),
                        required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    ops, mix = WORKLOADS[args.workload](args.seed)
    ready_at = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready_at": ready_at}))
        return 0

    tracer = tr.Tracer() if args.mode == "traced" else None
    runner = Runner(ops, tracer)
    passes = 0
    deadline = time.perf_counter() + args.seconds
    with tr.install(tracer) if tracer else contextlib.nullcontext():
        while passes == 0 or time.perf_counter() < deadline:
            for op in ops:
                # a traced run finishes every pass it starts, because its
                # per-layer metrics are per whole pass
                late = time.perf_counter() >= deadline
                if passes and late and tracer is None:
                    break
                runner.execute(op)
            passes += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runner.tracer = None
    for op in ops:  # every seeded sampled run is replayed at least once
        if op.replay is not None and len(runner.durations[op.label]) < 2:
            runner.execute(op, timed=False)

    result = {
        "ready_at": ready_at,
        "passes": passes,
        "wall_s": runner.wall_s(),
        "op_seconds": runner.durations,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "peak_rss_mb": peak_rss_mb,
        "import_path": skipseq.__file__,
        "mix": mix,
    }
    if tracer is not None:
        result["layers"] = tr.layer_metrics(tracer.spans, passes)
        result["mix"]["tables"] = tr.table_shapes(tracer.spans)
        if args.spans:
            write_spans(tracer.spans, Path(args.spans))
    print(json.dumps(result))
    return 0


def write_spans(spans: list[list], path: Path) -> None:
    """Write spans as [id, name, start, end, parent id] rows."""
    path.parent.mkdir(parents=True, exist_ok=True)
    names = sorted({rec[tr.NAME] for rec in spans})
    index = {name: i for i, name in enumerate(names)}
    rows = [[i, index[rec[tr.NAME]], rec[tr.START], rec[tr.END], rec[tr.PARENT]]
            for i, rec in enumerate(spans)]
    with open(path, "w") as fh:
        json.dump({"names": names, "columns": ["id", "name", "start", "end",
                                                "parent"], "spans": rows}, fh)


if __name__ == "__main__":
    sys.exit(main())
