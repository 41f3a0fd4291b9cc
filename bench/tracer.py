"""Spans around the public functions of each ``modswap`` layer.

Installing the tracer replaces every public function of a layer module,
and the swapop methods the pipelines call once per channel step, with a
wrapper that records a span: name, start, end, parent span and request id
(one request per CLI invocation). Functions imported by name into other
modules are replaced at each of those attributes too, so no call escapes
the trace. Other methods run inside their caller's span; in particular
``MatrixOracle.query`` runs once per matrix element read, and the envelopes
already count it.

Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("cli", "matio", "oracle", "swapop", "channel", "linalg", "qpe",
          "svdx", "procrustes")

# Span name -> (class, method). BlockPlan.apply stays inside conjugate.
METHODS = {"swapop.conjugate": ("BlockPlan", "conjugate"),
           "swapop.kraus": ("BlockPlan", "kraus"),
           "swapop.build_plan": ("ModifiedSwapOperator", "build_plan")}

# cmd_* and build_parser are main's own dispatch, so they count as cli.main.
CLI_ENTRY = "main"


def _byte_counters():
    """Byte counts taken at span boundaries, computed from argument shapes."""

    def channel_step(args, kwargs):
        n = args[0].dim
        return "channel.channel_step.bytes", 16 * n**4

    def invert_joint(args, kwargs):
        bits, d = args[3], args[2].shape[0]
        return "qpe.invert_joint.bytes", 8 * 4**bits + 16 * 2**bits * d

    def load_matrix(args, kwargs):
        return "matio.bytes_read", Path(args[0]).stat().st_size

    return {"channel.channel_step": channel_step, "qpe.invert_joint": invert_joint,
            "matio.load_matrix": load_matrix}


class Tracer:
    """Span recorder; spans are [name, start, end, parent, request]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.request: int | None = None
        self._stack: list[int] = []
        self._clock = time.perf_counter

    def _wrap(self, name: str, fn, count=None):
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                key, value = count(args, kwargs)
                self.counters[key] += value
            sid = len(spans)
            span = [name, clock(), None, stack[-1] if stack else None, self.request]
            spans.append(span)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def install(self) -> list[str]:
        """Wrap every layer's public functions at all their import sites.

        Returns the span names.
        """
        counters = _byte_counters()
        originals: dict[int, tuple] = {}
        names = list(METHODS)
        for layer in LAYERS:
            # import_module, not "import modswap.qpe": the package re-exports
            # the function qpe under the module's name.
            module = importlib.import_module(f"modswap.{layer}")
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ \
                        and not attr.startswith("_") and (layer != "cli" or attr == CLI_ENTRY):
                    name = f"{layer}.{attr}"
                    originals[id(obj)] = (obj, self._wrap(name, obj, counters.get(name)))
                    names.append(name)
        for module in [m for k, m in sys.modules.items()
                       if k == "modswap" or k.startswith("modswap.")]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in originals:
                    setattr(module, attr, originals[id(obj)][1])
        swapop = sys.modules["modswap.swapop"]
        for name, (cls, meth) in METHODS.items():
            owner = getattr(swapop, cls)
            setattr(owner, meth, self._wrap(name, getattr(owner, meth)))
        return names

    def aggregate(self, first: int, last: int) -> dict[str, list[float]]:
        """Per span name: [calls, self seconds, total seconds] over spans[first:last].

        Self time is a span's duration minus the durations of its children;
        calls are strictly nested, so children never overlap.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans[first:last]:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for sid in range(first, last):
            name, start, end, _, _ = self.spans[sid]
            row = out[name]
            row[0] += 1
            row[1] += end - start - child_time[sid]
            row[2] += end - start
        return dict(out)

    def write(self, path: Path, origin: float) -> None:
        """One JSON object per span, times in seconds from ``origin``."""
        with path.open("w") as fh:
            for sid, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name,
                                     "start": round(start - origin, 9),
                                     "end": round(end - origin, 9),
                                     "parent": parent, "request": request}) + "\n")
