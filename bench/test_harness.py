"""Tests of the benchmark harness itself: run with `python3 -m pytest bench`."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import skipseq  # noqa: E402

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

WORD = skipseq.build_supersequence(skipseq.gen_t1(5)).word  # m = 6


def _verify_op(word, passes=True):
    argv = ["verify", "--word", ",".join(map(str, word)), "--m", "6",
            "--exhaustive", "--format", "json"]
    expected_word = None if passes else word
    return wl._cli_op("verify", argv, wl._check_verify_json(expected_word, 6, passes))


def _run(*ops):
    runner = worker.Runner(list(ops), None)
    for op in ops:
        runner.execute(op)
    return runner


def test_intact_word_has_no_errors():
    runner = _run(_verify_op(WORD))
    assert (runner.attempted, runner.failed) == (1, 0)


def test_corrupted_word_raises_error_rate():
    corrupted = WORD[:10] + WORD[11:]
    assert ref.first_missing(corrupted, 6, 6) is not None
    runner = _run(_verify_op(corrupted))
    assert runner.failed / runner.attempted > 0
    assert "expected 0" in runner.errors[0]


def test_accepted_negative_control_fails():
    runner = _run(_verify_op(WORD, passes=False))
    assert runner.failed == 1


def test_invalid_witnesses_are_rejected():
    corrupted = WORD[:10] + WORD[11:]
    assert ref.witness_error(None, corrupted, 6, 6)
    assert ref.witness_error((1, 2, 3, 4, 5, 5), corrupted, 6, 6)
    assert ref.witness_error((1, 2, 3, 4, 5, 6), corrupted, 6, 6)
    missing = ref.first_missing(corrupted, 6, 6)
    assert ref.witness_error(missing, corrupted, 6, 6) is None


def test_replay_mismatch_is_a_failure():
    answers = iter([("pass", None, 10), ("pass", None, 11)])
    op = wl.Op("sampled", lambda: next(answers), lambda r: (1, []),
               replay=lambda r: r)
    runner = _run(op, op)
    assert (runner.attempted, runner.failed) == (2, 1)
    assert "replay" in runner.errors[0]


def test_raising_op_is_a_failure():
    def boom():
        raise ValueError("boom")

    runner = _run(wl.Op("boom", boom, lambda r: (1, [])))
    assert (runner.attempted, runner.failed) == (1, 1)


def _span(name, start, end, parent, attrs=None):
    return [name, start, end, parent, attrs]


def test_self_time_on_hand_built_tree():
    spans = [
        _span("harness.op", 0.0, 10.0, -1),
        _span("verify.exhaustive", 1.0, 9.0, 0),
        _span("core.table.build", 2.0, 4.0, 1),
        _span("core.table.build", 5.0, 6.0, 1),
        _span("cli.main", 9.5, 10.0, 0),
    ]
    assert tr.self_times(spans) == [1.5, 5.0, 2.0, 1.0, 0.5]


def test_self_time_clips_and_merges_overlapping_children():
    spans = [
        _span("verify.complete", 0.0, 4.0, -1),
        _span("verify.complete", 1.0, 3.0, 0),
        _span("verify.complete", 2.0, 5.0, 0),  # overlaps and overruns
    ]
    assert tr.self_times(spans)[0] == 1.0


def test_layer_metrics_on_hand_built_tree():
    spans = [
        _span("harness.op", 0.0, 8.0, -1, {"stdout_bytes": 100}),
        _span("cli.main", 0.0, 8.0, 0),
        _span("construct.generate", 0.0, 2.0, 1),
        _span("construct.generate", 0.5, 1.5, 2),  # gen_t2 -> gen_t1
        _span("verify.sampled", 2.0, 8.0, 1, {"perms": 600}),
        _span("core.table.build", 2.0, 4.0, 4,
              {"L": 10, "m": 3, "cells": 48, "rss_delta_mb": 1.5}),
        _span("core.table.as_array", 4.0, 4.0, 4, {"rss_delta_mb": 2.0}),
    ]
    metrics = tr.layer_metrics(spans, passes=2)
    assert metrics["construct.generate.calls"] == 0.5
    assert metrics["construct.generate.s"] == 1.0
    assert metrics["verify.sampled.self_s"] == 2.0
    assert metrics["verify.sampled.perms_per_s"] == 100.0
    assert metrics["core.table.cells"] == 24
    assert metrics["core.table.rss_delta_mb"] == 3.5
    assert metrics["cli.stdout_bytes"] == 50
    assert metrics["share.verify"] == 0.5
    assert metrics["share.construct"] == 0.25
    assert metrics["share.core"] == 0.25
    assert metrics["share.cli"] == 0.0


def test_install_catches_internal_calls_and_restores():
    original = skipseq.verify.is_k_complete
    glist = skipseq.gen_t1(5)
    tracer = tr.Tracer()
    with tr.install(tracer):
        skipseq.forward_complete(glist.sequences, 5)
        skipseq.verify_supersequence_sampled(WORD, 6, 10, seed=1)
    names = [rec[tr.NAME] for rec in tracer.spans]
    assert names.count("verify.complete") == 1 + 5  # forward + 5 k-checks
    parents = {tracer.spans[rec[tr.PARENT]][tr.NAME] for rec in tracer.spans
               if rec[tr.NAME] == "core.table.build"}
    assert parents == {"verify.complete", "verify.sampled"}
    assert "core.table.as_array" in names
    assert skipseq.verify.is_k_complete is original
    assert skipseq.is_k_complete is original


def test_skipseq_imported_from_working_tree():
    assert Path(skipseq.__file__).is_relative_to(ROOT / "src")
    identity = run.source_identity()
    assert len(identity["source_sha256"]) == 64


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tiny", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_harness():
    spans = [_span("harness.op", 0.0, 1.0, -1)]
    layer = list(tr.layer_metrics(spans, 1)) + ["trace.overhead_s"]
    assert sorted(m["name"] for m in run.SPEC["per_layer"]) == sorted(layer)
    assert set(run.WORKLOADS) == set(wl.WORKLOADS)


def test_stale_import_is_a_failure(monkeypatch):
    fake = {"ready_at": 0.0, "passes": 1, "wall_s": 1.0,
            "op_seconds": {}, "attempted": 3,
            "failed": 0, "errors": [], "peak_rss_mb": 1.0, "mix": {},
            "import_path": "/elsewhere/skipseq/__init__.py"}
    monkeypatch.setattr(run, "spawn_worker", lambda *a, **k: (0.0, fake))
    record = run.measure("tiny", 1, 1, trace=False)
    assert not record["correct"]
    assert (record["attempted"], record["failed"]) == (3, 1)


def test_harness_op_span_counts_stdout_bytes():
    tracer = tr.Tracer()
    op = _verify_op(WORD)
    tracer.wrap(op.run, "harness.op")()
    assert tracer.spans[0][tr.ATTRS]["stdout_bytes"] > 0
