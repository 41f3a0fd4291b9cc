import importlib.util
import sys
from pathlib import Path

import pytest


@pytest.fixture
def bench_workloads(monkeypatch):
    """bench/workloads.py, loaded from its path: the benchmark is not a package."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module
