"""The benchmark's per-layer metrics name spans that the tracer really records.

``bench/tracer.py`` wraps the public functions of every layer module; a
metric of ``BENCHMARK.json`` whose span no longer exists reads zero and
``bench/run.py --trace 1`` fails on it. The tracer patches ``modswap`` for
the whole process when installed, so it runs in a subprocess here.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# metric prefix -> span name, where the two differ
ALIASES = {"matio.load": "matio.load_matrix", "matio.save": "matio.save_matrix"}


@functools.cache
def _installed_span_names() -> frozenset[str]:
    script = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
              "from tracer import Tracer; print(json.dumps(Tracer().install()))")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "bench")],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, check=True, timeout=60)
    return frozenset(json.loads(proc.stdout))


def _traced_metric_spans() -> set[str]:
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    spans = set()
    for metric in per_layer:
        span, _, kind = metric["name"].rpartition(".")
        if kind in ("calls", "self_s") and not span.startswith("layer."):
            spans.add(ALIASES.get(span, span))
    return spans


def test_every_per_layer_span_metric_names_a_traced_span():
    names = _installed_span_names()
    wanted = _traced_metric_spans()
    assert {"cli.main", "matio.load_matrix", "matio.save_matrix"} <= wanted  # not vacuous
    assert sorted(wanted - names) == []


def test_the_plan_read_and_the_hermitian_read_are_traced():
    names = _installed_span_names()
    assert {"swapop.build_plan", "oracle.read_hermitian"} <= names
