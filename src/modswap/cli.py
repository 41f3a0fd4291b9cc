"""Command-line front end: seeded experiment runs with persisted envelopes.

Every run writes a JSON result envelope that echoes the full configuration
that produced it, so reruns with the same inputs are byte-identical. Each
envelope command returns (config, results, oracle_calls, summary), and
``main`` alone times it, writes the envelope and prints the summary;
``gen-matrix`` and ``error-sweep`` write their own files and return None.
Wall-clock timing is opt-in (--timing) because embedding it would break that
guarantee; without the flag the envelope carries "wall_ms": null. With it,
wall_ms runs from input resolution to the built results, without the write.
Envelopes and matrix files go through the one writer ``matio._write_json``:
every array a pipeline returns is handed to it as is, and a non-finite
number exits 2 with no file written.

``import modswap.cli`` loads ``linalg`` and ``matio`` alone; each command
imports its own pipeline module when it runs, so a process pays only for
the code its command uses, and the first run's --timing includes that
import.

Exit codes: 0 success, 2 refused input (``ValueError`` or ``OSError``:
validation, usage, an unreadable or malformed file), 1 runtime failure
(any other exception, which is a fault in the program).
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

import numpy as np

from . import FORMAT_VERSION, __version__
from .linalg import embedding, random_low_rank, random_low_rank_rect
from .matio import (_complex_pairs, _state_from_matrix, _write_json, load_matrix, load_state,
                    matrix_to_json_obj, save_matrix)

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
    _write_json(path, envelope)


def _resolve_oracle(args):
    from .oracle import MatrixOracle, oracle_from_generator

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
                if key in params:
                    raise ValueError(f"generator '{name}' repeats parameter '{key}'")
                params[key] = val
        return oracle_from_generator(name, params)
    raise ValueError("one of --matrix or --generator is required")


def _resolve_sigma(args, n: int) -> np.ndarray:
    from .channel import pure_density

    if getattr(args, "state", None):
        loaded = load_matrix(args.state)
        if 1 in loaded.shape:
            return pure_density(_state_from_matrix(loaded))
        return loaded
    return pure_density(_resolve_psi(args, n))


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
    source = p.add_mutually_exclusive_group()
    source.add_argument("--matrix", help="matrix file (JSON or CSV)")
    source.add_argument("--generator",
                        help="built-in source, e.g. random-lowrank:n=8,r=2,seed=7")
    if with_state:
        p.add_argument("--state", help="state file (vector, or density matrix "
                                       "where a density input is accepted)")
    if with_timing:
        p.add_argument("--timing", action="store_true",
                       help="embed wall-clock ms in the envelope (breaks "
                            "byte-identical reruns)")


def cmd_gen_matrix(args) -> None:
    rng = np.random.default_rng(args.seed)
    if args.m is not None:
        a = random_low_rank_rect(args.m, args.n, args.rank, rng)
    else:
        a = random_low_rank(args.n, args.rank, rng)
    save_matrix(args.out, a)
    if args.m is not None:
        out = Path(args.out)
        companion = out.with_name(out.stem + ".extended" + (out.suffix or ".json"))
        save_matrix(companion, embedding(a))
        print(f"wrote {args.out} ({args.m}x{args.n}, rank {args.rank}) "
              f"and {companion}")
    else:
        print(f"wrote {args.out} ({args.n}x{args.n} Hermitian, rank {args.rank})")


def cmd_evolve(args):
    from .channel import evolve

    oracle = _resolve_oracle(args)
    final, report = evolve(oracle, _resolve_sigma(args, oracle.dim), args.time,
                           args.epsilon, steps=args.steps)
    results = report._asdict()
    del results["steps"]
    return (
        {**_source_config(args), "time": args.time, "epsilon": args.epsilon,
         "steps": report.steps},
        {**results, "final_state": matrix_to_json_obj(final)},
        oracle.report_calls(),
        f"evolve: n={report.steps} total_measured={report.total_measured:.6g} "
        f"(budget {args.epsilon})",
    )


def cmd_error_sweep(args) -> None:
    from .channel import error_sweep

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


def cmd_qpe(args):
    from .qpe import QPEConfig, qpe

    oracle = _resolve_oracle(args)
    psi = _resolve_psi(args, oracle.dim)
    config = QPEConfig(bits=args.bits, base_time=args.t0,
                       backend=BACKENDS[args.backend],
                       trotter_epsilon=args.trotter_epsilon)
    result = qpe(oracle, psi, config)
    return (
        {**_source_config(args), "bits": args.bits, "backend": args.backend,
         "t0": result.base_time, "trotter_epsilon": args.trotter_epsilon},
        {
            "distribution": result.distribution,
            "estimates": [e._asdict() for e in result.estimates],
            "trotter_error_bound": result.trotter_error_bound,
        },
        result.oracle_calls,
        f"qpe: {len(result.estimates)} peak(s), {result.oracle_calls} oracle calls",
    )


def cmd_svd(args):
    from .qpe import QPEConfig
    from .svdx import quantum_svd

    oracle = _resolve_oracle(args)
    config = QPEConfig(bits=args.bits)
    result = quantum_svd(oracle, config, args.threshold)
    residual = result.residual(oracle.materialize())
    u, v = result.left_vectors, result.right_vectors
    return (
        {**_source_config(args), "bits": args.bits, "threshold": args.threshold},
        {
            "rank": result.rank,
            "singular_values": result.singular_values,
            # row j is the pairs of column j
            "left_vectors": _complex_pairs(u.T).reshape(result.rank, -1, 2),
            "right_vectors": _complex_pairs(v.T).reshape(result.rank, -1, 2),
            "degenerate": result.degenerate,
            "unresolved": result.unresolved,
            "grid_step": result.grid_step,
            "reconstruction_residual": residual,
            "subvector_norms": np.stack([np.linalg.norm(u, axis=0),
                                         np.linalg.norm(v, axis=0)], axis=1) / np.sqrt(2.0),
        },
        result.oracle_calls,
        f"svd: rank {result.rank}, residual {residual:.3e}, "
        f"{result.unresolved} unresolved at grid step {result.grid_step:.3g}",
    )


def cmd_demo_phase_ambiguity(args):
    from .svdx import phase_ambiguity_demo

    a = load_matrix(args.matrix)
    # a prefix of this draw equals a draw of the prefix's size, so the demo's
    # first rank(A) phases are those a draw of rank(A) phases gives
    thetas = np.random.default_rng(args.seed).uniform(0.0, 2.0 * np.pi, size=min(a.shape))
    report = phase_ambiguity_demo(a, thetas)
    return (
        {"matrix": args.matrix, "seed": args.seed},
        {
            "thetas": report.thetas,
            "distance": report.distance,
            "gram_deviation": report.gram_deviation,
            "pairing_residual": report.pairing_residual,
            "singular_values_original": report.singular_values_original,
            "singular_values_modified": report.singular_values_modified,
        },
        0,
        f"demo-phase-ambiguity: distance {report.distance:.6g}, "
        f"gram deviation {report.gram_deviation:.3e}",
    )


def cmd_procrustes(args):
    from .procrustes import quantum_procrustes_apply
    from .qpe import QPEConfig

    if args.shots is not None and args.shots < 1:
        raise ValueError("shots must be >= 1")
    oracle = _resolve_oracle(args)
    _, n = oracle.shape
    psi = _resolve_psi(args, n)
    config = QPEConfig(bits=args.bits)
    result = quantum_procrustes_apply(oracle, psi, config, args.threshold)
    success = min(max(result.success_probability, 0.0), 1.0)
    sampled = None if args.shots is None else float(
        np.random.default_rng(args.seed).binomial(args.shots, success) / args.shots)
    results = result._asdict()
    del results["oracle_calls"]
    return (
        {**_source_config(args), "bits": args.bits, "threshold": args.threshold,
         "shots": args.shots, "seed": args.seed},
        {**results, "output_state": _complex_pairs(result.output_state),
         "sampled_success_probability": sampled},
        result.oracle_calls,
        f"procrustes: success={result.success_probability:.4f} "
        f"fidelity={result.fidelity_vs_oracle:.6f}",
    )


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
    p.add_argument("--shots", type=int)
    p.add_argument("--seed", type=int, default=0, help="seed of the --shots draw")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_procrustes)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        start = time.perf_counter()
        record = args.fn(args)
        if record is not None:
            config, results, oracle_calls, summary = record
            wall_ms = (time.perf_counter() - start) * 1000.0
            _write_envelope(args.out, args.command, config, results, oracle_calls,
                            wall_ms if getattr(args, "timing", False) else None)
            print(summary)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
