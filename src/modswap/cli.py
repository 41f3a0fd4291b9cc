"""Command-line front end: seeded experiment runs with persisted envelopes.

Every run writes a JSON result envelope that echoes the full configuration
that produced it, so reruns with the same inputs are byte-identical. Wall-clock
timing is opt-in (--timing) because embedding it would break that guarantee;
without the flag the envelope carries "wall_ms": null.

Exit codes: 0 success, 2 validation/usage error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import FORMAT_VERSION, __version__
from .channel import EvolutionConfig, effective_rank, error_sweep, evolve, pure_density
from .linalg import random_low_rank, random_low_rank_rect, require_hermitian
from .matio import _complex_pairs, load_matrix, load_state, matrix_to_json_obj, save_matrix
from .oracle import MatrixOracle, oracle_from_generator
from .procrustes import quantum_procrustes_apply
from .qpe import QPEConfig, qpe
from .svdx import embedding, phase_ambiguity_demo, quantum_svd

BACKENDS = {"exact": "exact-unitary", "trotter": "trotter-channel"}


def _write_envelope(path, command: str, config: dict, results: dict,
                    oracle_calls, wall_ms) -> None:
    envelope = {
        "artifact_version": __version__,
        "format_version": FORMAT_VERSION,
        "command": command,
        "config": config,
        "results": results,
        "oracle_calls": oracle_calls,
        "wall_ms": wall_ms,
    }
    # No indent: any indent makes json fall back to its pure-Python encoder.
    Path(path).write_text(json.dumps(envelope, sort_keys=True) + "\n")


def _qram_latency_factor(n: int) -> float:
    """Informational per-call access-time multiplier, log2(N)^2.

    Latency is not modeled; total cost in access-time units is
    oracle_calls * this factor.
    """
    import math

    return float(math.log2(max(n, 2)) ** 2)


def _resolve_oracle(args) -> MatrixOracle:
    if getattr(args, "matrix", None):
        return MatrixOracle(load_matrix(args.matrix))
    if getattr(args, "generator", None):
        spec = args.generator
        name, _, tail = spec.partition(":")
        params = {}
        if tail:
            for item in tail.split(","):
                key, _, val = item.partition("=")
                if not val:
                    raise ValueError(f"malformed generator parameter '{item}'")
                params[key] = val
        return oracle_from_generator(name, params)
    raise ValueError("one of --matrix or --generator is required")


def _resolve_sigma(args, n: int) -> np.ndarray:
    if getattr(args, "state", None):
        loaded = load_matrix(args.state)
        if 1 in loaded.shape:
            return pure_density(loaded.reshape(-1))
        return loaded
    ground = np.zeros(n, dtype=np.complex128)
    ground[0] = 1.0
    return pure_density(ground)


def _resolve_psi(args, n: int) -> np.ndarray:
    if getattr(args, "state", None):
        return load_state(args.state)
    psi = np.zeros(n, dtype=np.complex128)
    psi[0] = 1.0
    return psi


def _source_config(args) -> dict:
    return {
        "matrix": getattr(args, "matrix", None),
        "generator": getattr(args, "generator", None),
        "state": getattr(args, "state", None),
    }


def _add_source_flags(p, with_state=True, with_timing=True):
    p.add_argument("--matrix", help="matrix file (JSON or CSV)")
    p.add_argument("--generator",
                   help="built-in source, e.g. random-lowrank:n=8,r=2,seed=7")
    if with_state:
        p.add_argument("--state", help="state file (vector, or density matrix "
                                       "where a density input is accepted)")
    if with_timing:
        p.add_argument("--timing", action="store_true",
                       help="embed wall-clock ms in the envelope (breaks "
                            "byte-identical reruns)")


def cmd_gen_matrix(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.m is not None:
        a = random_low_rank_rect(args.m, args.n, args.rank, args.scale, rng)
    else:
        a = random_low_rank(args.n, args.rank, args.scale, rng)
    save_matrix(args.out, a)
    if args.m is not None:
        out = Path(args.out)
        companion = out.with_name(out.stem + ".extended" + (out.suffix or ".json"))
        save_matrix(companion, embedding(a))
        print(f"wrote {args.out} ({args.m}x{args.n}, rank {args.rank}) "
              f"and {companion}")
    else:
        print(f"wrote {args.out} ({args.n}x{args.n} Hermitian, rank {args.rank})")
    return 0


def cmd_evolve(args) -> int:
    start = time.perf_counter()
    oracle = _resolve_oracle(args)
    n = oracle.dim
    sigma = _resolve_sigma(args, n)
    a = require_hermitian(oracle.materialize())
    a_max = float(np.max(np.abs(a)))
    config = EvolutionConfig.plan(a_max, args.time, args.epsilon, steps=args.steps)
    final, report = evolve(oracle, sigma, config, baseline=a)
    wall = (time.perf_counter() - start) * 1000.0
    _write_envelope(
        args.out, "evolve",
        {**_source_config(args), "time": args.time, "epsilon": args.epsilon,
         "steps": config.n},
        {
            "final_state": matrix_to_json_obj(final),
            "delta_t": config.delta_t,
            "per_step_bound": report.per_step_bound,
            "measured_step_error": report.measured_step_error,
            "total_measured": report.total_measured,
            "total_bound": report.total_bound,
            "effective_rank": effective_rank(a, args.time),
            "qram_latency_factor": _qram_latency_factor(n),
        },
        oracle.report_calls(),
        wall if args.timing else None,
    )
    print(f"evolve: n={config.n} total_measured={report.total_measured:.6g} "
          f"(budget {args.epsilon})")
    return 0


def cmd_error_sweep(args) -> int:
    oracle = _resolve_oracle(args)
    sigma = _resolve_sigma(args, oracle.dim)
    dts = [float(x) for x in args.dts.split(",")]
    result = error_sweep(oracle, sigma, dts)
    lines = ["delta_t,measured_error,bound,ratio"]
    for row in result.rows:
        lines.append(f"{row.delta_t!r},{row.measured_error!r},"
                     f"{row.bound!r},{row.ratio!r}")
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"error-sweep: slope={result.slope:.4f} over {len(result.rows)} points")
    return 0


def cmd_qpe(args) -> int:
    start = time.perf_counter()
    oracle = _resolve_oracle(args)
    require_hermitian(oracle.materialize())
    psi = _resolve_psi(args, oracle.dim)
    config = QPEConfig(bits=args.bits, base_time=args.t0,
                       backend=BACKENDS[args.backend],
                       trotter_epsilon=args.trotter_epsilon)
    result = qpe(oracle, psi, config)
    wall = (time.perf_counter() - start) * 1000.0
    _write_envelope(
        args.out, "qpe",
        {**_source_config(args), "bits": args.bits, "backend": args.backend,
         "t0": result.base_time, "trotter_epsilon": args.trotter_epsilon},
        {
            "distribution": result.distribution.tolist(),
            "estimates": [
                {"register_value": e.register_value, "value": e.value,
                 "weight": e.weight, "sign": e.sign}
                for e in result.estimates
            ],
            "trotter_error_bound": result.trotter_error_bound,
            "qram_latency_factor": _qram_latency_factor(oracle.dim),
        },
        result.oracle_calls,
        wall if args.timing else None,
    )
    print(f"qpe: {len(result.estimates)} peak(s), {result.oracle_calls} oracle calls")
    return 0


def cmd_svd(args) -> int:
    start = time.perf_counter()
    oracle = _resolve_oracle(args)
    config = QPEConfig(bits=args.bits, base_time=args.t0)
    result = quantum_svd(oracle, config, args.threshold)
    a = oracle.materialize()
    wall = (time.perf_counter() - start) * 1000.0
    residual = result.residual(a)
    sqrt2 = float(np.sqrt(2.0))
    _write_envelope(
        args.out, "svd",
        {**_source_config(args), "bits": args.bits, "threshold": args.threshold},
        {
            "rank": result.rank,
            "singular_values": [float(s) for s in result.singular_values],
            "left_vectors": [_complex_pairs(result.left_vectors[:, j])
                             for j in range(result.rank)],
            "right_vectors": [_complex_pairs(result.right_vectors[:, j])
                              for j in range(result.rank)],
            "degenerate": result.degenerate,
            "unresolved": result.unresolved,
            "grid_step": result.grid_step,
            "reconstruction_residual": residual,
            "subvector_norms": [
                [float(np.linalg.norm(result.left_vectors[:, j]) / sqrt2),
                 float(np.linalg.norm(result.right_vectors[:, j]) / sqrt2)]
                for j in range(result.rank)
            ],
            "qram_latency_factor": _qram_latency_factor(sum(oracle.shape)),
        },
        result.oracle_calls,
        wall if args.timing else None,
    )
    print(f"svd: rank {result.rank}, residual {residual:.3e}, "
          f"{result.unresolved} unresolved at grid step {result.grid_step:.3g}")
    return 0


def cmd_demo_phase_ambiguity(args) -> int:
    a = load_matrix(args.matrix)
    rng = np.random.default_rng(args.seed)
    s = np.linalg.svd(a, compute_uv=False)
    r = int(np.sum(s > 1e-10 * s[0]))
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=r)
    report = phase_ambiguity_demo(a, thetas)
    _write_envelope(
        args.out, "demo-phase-ambiguity",
        {"matrix": args.matrix, "seed": args.seed},
        {
            "thetas": [float(t) for t in thetas],
            "distance": report.distance,
            "gram_deviation": report.gram_deviation,
            "pairing_residual": report.pairing_residual,
            "singular_values_original": [float(x) for x in report.singular_values_original],
            "singular_values_modified": [float(x) for x in report.singular_values_modified],
        },
        0,
        None,
    )
    print(f"demo-phase-ambiguity: distance {report.distance:.6g}, "
          f"gram deviation {report.gram_deviation:.3e}")
    return 0


def cmd_procrustes(args) -> int:
    start = time.perf_counter()
    if args.shots is not None and args.shots < 1:
        raise ValueError("shots must be >= 1")
    oracle = _resolve_oracle(args)
    _, n = oracle.shape
    psi = _resolve_psi(args, n)
    config = QPEConfig(bits=args.bits, base_time=args.t0)
    result = quantum_procrustes_apply(oracle, psi, config, args.threshold)
    success = min(max(result.success_probability, 0.0), 1.0)
    sampled = None if args.shots is None else float(
        np.random.default_rng(args.seed).binomial(args.shots, success) / args.shots)
    wall = (time.perf_counter() - start) * 1000.0
    _write_envelope(
        args.out, "procrustes",
        {**_source_config(args), "bits": args.bits, "threshold": args.threshold,
         "shots": args.shots, "seed": args.seed},
        {
            "output_state": _complex_pairs(result.output_state),
            "success_probability": result.success_probability,
            "sampled_success_probability": sampled,
            "fidelity_vs_oracle": result.fidelity_vs_oracle,
            "retained_pairs": result.retained_pairs,
            "uncompute_leakage": result.uncompute_leakage,
            "qram_latency_factor": _qram_latency_factor(sum(oracle.shape)),
        },
        result.oracle_calls,
        wall if args.timing else None,
    )
    print(f"procrustes: success={result.success_probability:.4f} "
          f"fidelity={result.fidelity_vs_oracle:.6f}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused for the process.

    Each ``parse_args`` call returns a fresh namespace, so one parser serves
    any number of ``main`` calls.
    """
    parser = argparse.ArgumentParser(
        prog="modswap",
        description="Simulator harness for low-rank matrix exponentiation, "
                    "phase estimation, SVD extraction, and nearest-isometry runs.",
    )
    parser.add_argument("--version", action="version",
                        version=f"modswap {__version__} (format {FORMAT_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-matrix", help="write a seeded random low-rank matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, help="row count; makes the matrix "
                                         "rectangular and emits its embedding")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_matrix)

    p = sub.add_parser("evolve", help="repeated-ancilla evolution vs exact baseline")
    _add_source_flags(p)
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--steps", type=int, help="override the planned step count")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_evolve)

    p = sub.add_parser("error-sweep", help="single-step error vs dt (CSV)")
    _add_source_flags(p, with_timing=False)
    p.add_argument("--dts", required=True, help="comma-separated descending dt list")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_error_sweep)

    p = sub.add_parser("qpe", help="phase estimation register run")
    _add_source_flags(p)
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--backend", choices=sorted(BACKENDS), default="exact")
    p.add_argument("--t0", type=float, help="base evolution time "
                                            "(default: just inside aliasing)")
    p.add_argument("--trotter-epsilon", type=float, default=0.01)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_qpe)

    p = sub.add_parser("svd", help="singular triplets through the embedding pipeline")
    _add_source_flags(p, with_state=False)
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--t0", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_svd)

    p = sub.add_parser("demo-phase-ambiguity",
                       help="show that the Gram matrix does not fix phases")
    p.add_argument("--matrix", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_demo_phase_ambiguity)

    p = sub.add_parser("procrustes", help="apply the nearest partial isometry")
    _add_source_flags(p)
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--t0", type=float)
    p.add_argument("--shots", type=int)
    p.add_argument("--seed", type=int, default=0, help="seed of the --shots draw")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_procrustes)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, IndexError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
