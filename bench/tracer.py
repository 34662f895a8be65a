"""In-memory span tracing of skipseq's public functions.

`install` wraps the functions of ``core``, ``construct``, ``verify``,
``analyze`` and ``cli`` at run time by rebinding every module global and
class attribute that refers to them, so calls made inside the package (for
example ``forward_complete`` -> ``is_k_complete``, or the
``NextOccurrenceTable`` built inside ``verify``) are caught as well. No
source file changes. `layer_metrics` turns the recorded spans into the
benchmark's per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import resource
import time
from typing import Callable, Iterator, Optional

NAME, START, END, PARENT, ATTRS = range(5)

MODULES = ("core", "construct", "verify", "analyze", "cli")
LAYERS = ("cli", "construct", "core", "verify", "analyze", "harness")

# (module, attribute path, span name)
TARGETS = (
    ("core", "NextOccurrenceTable.__init__", "core.table.build"),
    ("core", "NextOccurrenceTable.as_array", "core.table.as_array"),
    ("construct", "generate", "construct.generate"),
    ("construct", "gen_t1", "construct.generate"),
    ("construct", "gen_t2", "construct.generate"),
    ("construct", "gen_ts", "construct.generate"),
    ("construct", "build_supersequence", "construct.build_supersequence"),
    ("construct", "construct_for_m", "construct.construct_for_m"),
    ("verify", "verify_supersequence_exhaustive", "verify.exhaustive"),
    ("verify", "is_k_complete", "verify.complete"),
    ("verify", "forward_complete", "verify.complete"),
    ("verify", "backward_complete", "verify.complete"),
    ("verify", "strongly_complete", "verify.complete"),
    ("verify", "verify_supersequence_sampled", "verify.sampled"),
    ("verify", "adversarial_permutations", "verify.adversarial"),
    ("verify", "shortest_supersequence_oracle", "verify.oracle"),
    ("verify", "quasi_palindrome", "verify.quasi_palindrome"),
    ("analyze", "comparison_table", "analyze.comparison_table"),
    ("analyze", "best_level", "analyze.best_level"),
    ("cli", "main", "cli.main"),
)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _rss_enter(args, kwargs):
    return _maxrss_mb()


def _rss_leave(args, kwargs, result, rss_before):
    """Rise of the process's high-water RSS across the span: what the span
    added to the peak, not the size of what it allocated."""
    return {"rss_delta_mb": _maxrss_mb() - rss_before}


def _table_leave(args, kwargs, result, rss_before):
    table = args[0]
    L, m = len(table.word), table.m
    return {
        "L": L,
        "m": m,
        "cells": (L + 2) * (m + 1),
        **_rss_leave(args, kwargs, result, rss_before),
    }


def _stdout_leave(args, kwargs, result, state):
    if hasattr(result, "stdout"):  # a CLI op
        return {"stdout_bytes": len(result.stdout.encode())}
    return None


# span name -> (enter hook, leave hook); leave returns the span's attrs
HOOKS: dict[str, tuple[Optional[Callable], Callable]] = {
    "harness.op": (None, _stdout_leave),
    "core.table.build": (_rss_enter, _table_leave),
    "core.table.as_array": (_rss_enter, _rss_leave),
    "verify.exhaustive": (
        None,
        lambda a, k, r, s: {"nodes": r.stats.get("nodes_visited", 0)},
    ),
    "verify.sampled": (
        None,
        lambda a, k, r, s: {"perms": r.stats["permutations_checked"]},
    ),
    "construct.build_supersequence": (
        None, lambda a, k, r, s: {"letters": len(r.word)},
    ),
    "analyze.comparison_table": (None, lambda a, k, r, s: {"rows": len(r)}),
}


class Tracer:
    """Records spans as [name, start, end, parent index, attrs] lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn: Callable, name: str) -> Callable:
        enter, leave = HOOKS.get(name, (None, None))
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = enter(args, kwargs) if enter else None
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if leave:
                rec[ATTRS] = leave(args, kwargs, result, state)
            return result

        return traced


@contextlib.contextmanager
def install(tracer: Tracer) -> Iterator[None]:
    """Wrap every target for the duration of the block, then restore."""
    modules = {"": importlib.import_module("skipseq")}
    for name in MODULES:
        modules[name] = importlib.import_module(f"skipseq.{name}")
    saved: list[tuple[object, str, object]] = []
    try:
        for module_name, path, span_name in TARGETS:
            owner = modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = owner.__dict__[attr]
            wrapped = tracer.wrap(orig, span_name)
            if outer:  # a method: rebinding the class attribute is enough
                saved.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
                continue
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is orig:
                        saved.append((module, key, orig))
                        setattr(module, key, wrapped)
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec[PARENT] >= 0:
            children.setdefault(rec[PARENT], []).append((rec[START], rec[END]))
    out = []
    for idx, rec in enumerate(spans):
        start, end = rec[START], rec[END]
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def layer_metrics(spans: list[list], passes: int) -> dict[str, float]:
    """Per-layer metrics per workload pass, from one traced run's spans.

    Spans named ``harness.op`` are the harness's own op boundaries; their
    total duration is the traced wall time and their self time is the
    harness's share.
    """
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    attrs: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    wall = 0.0
    gen_calls = 0
    gen_s = 0.0
    for idx, rec in enumerate(spans):
        name = rec[NAME]
        duration = rec[END] - rec[START]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[idx]
        total_s[name] = total_s.get(name, 0.0) + duration
        layer_self[name.split(".")[0]] += own[idx]
        for key, value in (rec[ATTRS] or {}).items():
            if isinstance(value, (int, float)):
                attrs[f"{name}:{key}"] = attrs.get(f"{name}:{key}", 0) + value
        if name == "harness.op":
            wall += duration
        elif name == "construct.generate" and (
            rec[PARENT] < 0 or spans[rec[PARENT]][NAME] != name
        ):
            gen_calls += 1
            gen_s += duration

    sampled_s = total_s.get("verify.sampled", 0.0)
    perms = attrs.get("verify.sampled:perms", 0)
    metrics = {
        "verify.exhaustive.calls": calls.get("verify.exhaustive", 0),
        "verify.exhaustive.self_s": self_s.get("verify.exhaustive", 0.0),
        "verify.exhaustive.nodes": attrs.get("verify.exhaustive:nodes", 0),
        "verify.complete.calls": calls.get("verify.complete", 0),
        "verify.complete.self_s": self_s.get("verify.complete", 0.0),
        "verify.oracle.calls": calls.get("verify.oracle", 0),
        "verify.oracle.self_s": self_s.get("verify.oracle", 0.0),
        "verify.sampled.calls": calls.get("verify.sampled", 0),
        "verify.sampled.self_s": self_s.get("verify.sampled", 0.0),
        "verify.sampled.perms": perms,
        "verify.adversarial.s": total_s.get("verify.adversarial", 0.0),
        "core.table.builds": calls.get("core.table.build", 0),
        "core.table.build_s": total_s.get("core.table.build", 0.0),
        "core.table.as_array_s": total_s.get("core.table.as_array", 0.0),
        "core.table.cells": attrs.get("core.table.build:cells", 0),
        "construct.generate.calls": gen_calls,
        "construct.generate.s": gen_s,
        "construct.build_supersequence.s": total_s.get(
            "construct.build_supersequence", 0.0
        ),
        "construct.construct_for_m.s": total_s.get(
            "construct.construct_for_m", 0.0
        ),
        "construct.letters": attrs.get("construct.build_supersequence:letters", 0),
        "analyze.comparison_table.self_s": self_s.get(
            "analyze.comparison_table", 0.0
        ),
        "analyze.best_level.calls": calls.get("analyze.best_level", 0),
        "analyze.best_level.s": total_s.get("analyze.best_level", 0.0),
        "analyze.rows": attrs.get("analyze.comparison_table:rows", 0),
        "cli.calls": calls.get("cli.main", 0),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "cli.stdout_bytes": attrs.get("harness.op:stdout_bytes", 0),
    }
    metrics = {key: value / passes for key, value in metrics.items()}
    # ratios and peaks are not per-pass sums
    metrics["verify.sampled.perms_per_s"] = perms / sampled_s if sampled_s else 0.0
    metrics["core.table.rss_delta_mb"] = attrs.get(
        "core.table.build:rss_delta_mb", 0.0
    ) + attrs.get("core.table.as_array:rss_delta_mb", 0.0)
    for layer in LAYERS:
        metrics[f"share.{layer}"] = layer_self[layer] / wall if wall else 0.0
    return metrics


def table_shapes(spans: list[list]) -> list[dict[str, int]]:
    """Distinct (L, m) shapes of the next-occurrence tables built."""
    shapes = {
        (rec[ATTRS]["L"], rec[ATTRS]["m"])
        for rec in spans
        if rec[NAME] == "core.table.build" and rec[ATTRS]
    }
    return [{"L": L, "m": m, "L*m": L * m} for L, m in sorted(shapes)]
