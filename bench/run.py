"""Benchmark of the modswap CLI, driven in-process on seeded inputs.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout: the program is imported from
``src/``, and inputs, outputs and the span file go under ``.bench_work/``.
Set-up (importing modswap, ``gen-matrix`` for every input, writing the
state files) is repeated and its median reported. Then, after one warm-up
pass, passes over the workload's fixed case list run for ``--seconds``;
every invocation's output is checked and compared byte for byte with the
warm-up pass's. The last line of stdout is one JSON object:

* ``--trace 0``: the end-to-end metrics of BENCHMARK.json;
* ``--trace 1``: half the time untraced, half with every layer's public
  functions wrapped in spans (see tracer.py); the per-layer metrics of
  BENCHMARK.json, per pass.

Metric names and units are read from BENCHMARK.json beside this directory.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: on a small shared box a second
# thread measured no faster and only adds contention noise.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import gc
import importlib
import io
import itertools
import json
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5
SETUP_SECONDS = 1.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_program():
    """Fresh import of modswap from the checkout's src/ (part of set-up)."""
    for name in [k for k in sys.modules if k == "modswap" or k.startswith("modswap.")]:
        del sys.modules[name]
    return importlib.import_module("modswap.cli")


class Runner:
    """Runs passes over one workload's case list and checks every output."""

    def __init__(self, cli, cases):
        self.cli = cli
        self.cases = cases
        self.tracer: Tracer | None = None
        self.reference: dict[str, bytes] = {}
        self.request_case: dict[int, workloads.Case] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def invoke(self, case) -> tuple[int, float, str]:
        """One CLI call; returns (exit code, seconds, its printed output)."""
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = self.cli.main(case.argv)
            except SystemExit as exc:  # argparse rejects bad usage this way
                code = exc.code if isinstance(exc.code, int) else 2
        return code, time.perf_counter() - start, sink.getvalue()

    def check(self, case) -> tuple[str | None, bytes]:
        """The case's own check, then byte equality with the first pass."""
        raw = case.out.read_bytes()
        try:
            reason = case.check(raw)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"unreadable output: {exc!r}"
        if reason is None and raw != self.reference.setdefault(case.label, raw):
            reason = "output differs from the first pass"
        return reason, raw

    def run_pass(self) -> dict:
        """One pass: per-case seconds, pass seconds, queries, envelope bytes."""
        gc.collect()
        tracer = self.tracer
        if tracer is not None:
            first, counters = len(tracer.spans), dict(tracer.counters)
        seconds, queries, envelope_bytes = {}, 0, 0
        for case in self.cases:
            if tracer is not None:
                tracer.request = self.attempted
                self.request_case[self.attempted] = case
            case.out.unlink(missing_ok=True)
            code, seconds[case.label], printed = self.invoke(case)
            self.attempted += 1
            if code == 0:
                reason, raw = self.check(case)
            else:
                reason, raw = f"exit code {code}: {printed.strip()[-300:]}", b""
            if reason is not None:
                self.failures.append(f"{case.label}: {reason}")
            elif case.envelope:
                queries += json.loads(raw)["oracle_calls"]
                envelope_bytes += len(raw)
        result = {"seconds": seconds, "wall": sum(seconds.values()),
                  "queries": queries, "envelope_bytes": envelope_bytes}
        if tracer is not None:
            result["spans"] = (first, len(tracer.spans))
            result["counters"] = {k: v - counters.get(k, 0)
                                  for k, v in tracer.counters.items()}
        return result

    def run_for(self, budget: float, min_passes: int = 2) -> list[dict]:
        """Passes until another one of the last pass's length would overrun.

        The first pass of a run is a warm-up, inside the budget: it fills the
        reference outputs and first-touch allocations, and is not returned.
        """
        deadline = time.perf_counter() + budget
        if not self.reference:
            self.run_pass()
        passes: list[dict] = []
        while len(passes) < min_passes or \
                time.perf_counter() + passes[-1]["wall"] <= deadline:
            passes.append(self.run_pass())
        return passes


def setup(workload: str, seed: int, work: Path, small: bool):
    """Timed set-ups, at least SETUP_REPS and SETUP_SECONDS in all.

    Returns (cli module, inputs dir, seconds of each set-up).
    """
    times: list[float] = []
    while len(times) < SETUP_REPS or sum(times) < SETUP_SECONDS:
        inputs = work / "inputs"
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        gc.collect()
        start = time.perf_counter()
        cli = import_program()
        with contextlib.redirect_stdout(io.StringIO()):
            workloads.make_inputs(workload, seed, inputs, cli.main, small)
        times.append(time.perf_counter() - start)
    return cli, inputs, times


def traced_setup(cli, tracer: Tracer, workload: str, seed: int, work: Path,
                 small: bool) -> tuple[int, int]:
    """One set-up under the tracer; returns its span index range."""
    inputs = work / "inputs-traced"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    first = len(tracer.spans)
    requests = itertools.count(-1, -1)

    def traced_main(argv):
        tracer.request = next(requests)
        return cli.main(argv)

    with contextlib.redirect_stdout(io.StringIO()):
        workloads.make_inputs(workload, seed, inputs, traced_main, small)
    return first, len(tracer.spans)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def growth_exponent(tracer: Tracer, runner: Runner, passes: list[dict]) -> float:
    """Log-log slope of mean channel_step time over the dimensions N it ran at."""
    per_n = defaultdict(list)
    for p in passes:
        for name, start, end, _, request in tracer.spans[slice(*p["spans"])]:
            if name == "channel.channel_step":
                per_n[runner.request_case[request].n].append(end - start)
    if len(per_n) < 2:
        return 0.0
    ns = sorted(per_n)
    times = [statistics.fmean(per_n[n]) for n in ns]
    return float(np.polyfit(np.log(ns), np.log(times), 1)[0])


def per_layer_metrics(tracer: Tracer, span_names: list[str], runner: Runner,
                      untraced: list[dict], traced: list[dict],
                      setup_spans: tuple[int, int]) -> dict[str, float]:
    """Per-pass medians of span counts, self times and byte counters.

    ``matio.save`` is read from the traced set-up, the only place the
    benchmark's passes save a matrix file.
    """
    rows = [tracer.aggregate(*p["spans"]) for p in traced]

    def span_stat(span: str, field: int) -> float:
        return _median([row.get(span, [0, 0.0, 0.0])[field] for row in rows])

    values: dict[str, float] = {}
    for span in span_names:
        values[f"{span}.calls"] = span_stat(span, 0)
        values[f"{span}.self_s"] = span_stat(span, 1)
    values["matio.load.calls"] = values["matio.load_matrix.calls"]
    values["matio.load.self_s"] = values["matio.load_matrix.self_s"]
    save = tracer.aggregate(*setup_spans).get("matio.save_matrix", [0, 0.0])
    values["matio.save.calls"], values["matio.save.self_s"] = save[0], save[1]
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = _median(
            [sum(r[1] for span, r in row.items() if span.startswith(layer + "."))
             for row in rows])
    for key in ("channel.channel_step.bytes", "qpe.invert_joint.bytes", "matio.bytes_read"):
        values[key] = _median([p["counters"].get(key, 0) for p in traced])
    values["oracle.sweeps"] = (values["swapop.build_plan.calls"]
                               + values["oracle.read_hermitian.calls"])
    values["cli.envelope_bytes"] = _median([p["envelope_bytes"] for p in traced])
    values["trace.overhead_s"] = (_median([p["wall"] for p in traced])
                                  - _median([p["wall"] for p in untraced]))
    values["channel.channel_step.exp_N"] = growth_exponent(tracer, runner, traced)
    return values


def case_seconds(cases, untraced: list[dict], traced: list[dict]) -> dict:
    def med(passes, label):
        return _median([p["seconds"][label] for p in passes])

    return {c.label: {"untraced": med(untraced, c.label), "traced": med(traced, c.label)}
            for c in cases}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced case sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "modswap" / "__init__.py").is_file():
        print(f"error: no modswap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    sys.path.insert(0, str(ROOT / "src"))

    work = ROOT / ".bench_work" / args.workload
    cli, inputs, setup_times = setup(args.workload, args.seed, work, args.small)
    outputs = work / "outputs"
    shutil.rmtree(outputs, ignore_errors=True)
    outputs.mkdir()
    cases = workloads.build_cases(args.workload, args.seed, inputs, outputs, args.small)
    runner = Runner(cli, cases)

    if args.trace:
        untraced = runner.run_for(args.seconds / 2)
        tracer = Tracer()
        span_names = tracer.install()
        setup_spans = traced_setup(cli, tracer, args.workload, args.seed, work, args.small)
        runner.tracer = tracer
        traced = runner.run_for(args.seconds / 2)
        values = per_layer_metrics(tracer, span_names, runner, untraced, traced,
                                   setup_spans)
        tracer.write(ROOT / ".bench_work" / f"spans-{args.workload}.jsonl",
                     origin=tracer.spans[0][1])
        print(json.dumps({"case_seconds": case_seconds(cases, untraced, traced)}))
        wanted, passes = spec["per_layer"], untraced + traced
    else:
        measured = runner.run_for(args.seconds)
        values = {
            "setup_s": _median(setup_times),
            "wall_s": _median([p["wall"] for p in measured]),
            "oracle_queries": _median([p["queries"] for p in measured]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted, passes = spec["end_to_end"], measured
    shutil.rmtree(work, ignore_errors=True)

    for failure in runner.failures[:20]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({"env": {"nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
                              "numpy": np.__version__, "python": sys.version.split()[0],
                              "workload": args.workload, "seed": args.seed,
                              "pass_seconds": [p["wall"] for p in passes],
                              "setup_seconds": setup_times}}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not runner.failures, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
