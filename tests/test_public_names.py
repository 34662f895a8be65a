"""Every public name the package exports, and every function the benchmark
tracer wraps, resolves, so deleting a name cannot leave a dangling export
or tracer target behind."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import skipseq

ROOT = Path(__file__).resolve().parent.parent
MODULES = ["core", "construct", "verify", "analyze", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"skipseq.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse((ROOT / "src" / "skipseq" / "__init__.py").read_text())
    names = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert names
    assert [n for n in names if not hasattr(skipseq, n)] == []


def test_tracer_targets_resolve():
    # the tracer rebinds each target through its owner's own namespace
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module_name, path, _ in tracer.TARGETS:
        owner = importlib.import_module(f"skipseq.{module_name}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert attr in vars(owner), (module_name, path)
