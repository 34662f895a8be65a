import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="run the opt-in slow-tier checks",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="slow tier: pass --runslow to enable")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def child_report():
    """A function that runs body in a fresh interpreter on this checkout's
    sources and returns the "key value" lines it prints, with its VmHWM in
    KiB (the peak RSS of its own image) under "hwm"."""

    def run(body):
        code = body + (
            "hwm = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')]\n"
            "print('hwm', hwm[0].split()[1])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        return dict(line.split(" ", 1) for line in result.stdout.splitlines())

    return run
