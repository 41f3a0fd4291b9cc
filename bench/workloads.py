"""Inputs, case lists and output checks for the benchmark's workloads.

Each workload is a fixed list of ``modswap`` CLI invocations over inputs
generated from the workload seed. ``make_inputs`` is the timed set-up (the
``gen-matrix`` calls plus the state files); ``build_cases`` then reads the
inputs back with plain numpy and attaches to every case a check whose
dense reference is computed here, never by the program under test.

Every tolerance is the one pinned in ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("evolve-channel", "qpe-trotter", "spectral-exact")

# Minimum gap between the svd input's singular values, in register bins.
RESOLVABLE_BINS = 3

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)


@dataclass
class Case:
    """One CLI invocation and the check its output must pass.

    ``check`` gets the output file's bytes and returns a failure reason or
    None. ``n`` is the dimension a channel step runs at, where it has one.
    """

    label: str
    argv: list[str]
    out: Path
    check: Callable[[bytes], str | None]
    envelope: bool = True
    n: int | None = None


# --------------------------------------------------------------- file format

def write_matrix(path: Path, a: np.ndarray) -> None:
    """Write the JSON matrix format the CLI reads (flat row-major pairs)."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    flat = a.reshape(-1)
    obj = {"rows": a.shape[0], "cols": a.shape[1],
           "data": [[float(z.real), float(z.imag)] for z in flat]}
    path.write_text(json.dumps(obj, sort_keys=True) + "\n")


def read_matrix(path: Path) -> np.ndarray:
    obj = json.loads(Path(path).read_text())
    return _complex(obj["data"]).reshape(obj["rows"], obj["cols"])


def _complex(pairs) -> np.ndarray:
    """[re, im] pairs, as the envelopes write them, to a flat complex array."""
    return np.asarray(pairs, dtype=np.float64).reshape(-1, 2) @ np.array([1, 1j])


def _max_norm(a: np.ndarray) -> float:
    """max |A[j,k]| of the Hermitian part, as the CLI computes it."""
    return float(np.max(np.abs((a + a.conj().T) / 2)))


def _nuclear(a: np.ndarray) -> float:
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def _evolved(a: np.ndarray, t: float, sigma: np.ndarray) -> np.ndarray:
    """sigma conjugated by exp(-i (A/N) t), by numpy's eigh."""
    w, v = np.linalg.eigh((a + a.conj().T) / 2)
    u = (v * np.exp(-1j * w * (t / a.shape[0]))) @ v.conj().T
    return u @ sigma @ u.conj().T


# ------------------------------------------------------------------ sizes

def _sizes(small: bool) -> dict:
    """Case parameters; ``small`` is the reduced set the smoke test runs."""
    if small:
        return {
            "evolve": [(4, 0.05, 40), (6, 0.05, 40), (8, 0.1, 21)],
            "sweep_n": 8,
            # (matrix, bits, trotter epsilon, pinned oracle calls)
            "trotter": [("pauli", 2, 0.04, 7407), ("lowrank4", 2, 0.04, 24690)],
            "qpe_n": 32, "qpe_bits": 8,
            "svd": (6, 4, 10), "proc": (4, 4, 10),
        }
    return {
        # (N, epsilon, planned steps)
        "evolve": [(16, 0.05, 40), (24, 0.05, 40), (32, 0.1, 21)],
        "sweep_n": 32,
        "trotter": [("pauli", 2, 0.04, 7407), ("pauli", 3, 0.02, 62184),
                    ("lowrank4", 3, 0.04, 103650)],
        "qpe_n": 256, "qpe_bits": 10,
        # (rows, cols, bits)
        "svd": (24, 16, 12), "proc": (8, 8, 11),
    }


def _matrix_seed(seed: int, index: int) -> str:
    return str(seed * 16 + index)


# ------------------------------------------------------------------ set-up

def make_inputs(workload: str, seed: int, inputs: Path, cli_main,
                small: bool = False) -> None:
    """Generate every input file of a workload (the timed set-up)."""
    sizes = _sizes(small)

    def gen(name: str, index: int, *shape: str) -> Path:
        out = inputs / f"{name}.json"
        rc = cli_main(["gen-matrix", *shape,
                       "--seed", _matrix_seed(seed, index), "--out", str(out)])
        if rc != 0:
            raise RuntimeError(f"gen-matrix for {name} exited {rc}")
        return out

    if workload == "evolve-channel":
        for i, (n, _, _) in enumerate(sizes["evolve"]):
            gen(f"herm{n}", i, "--n", str(n), "--rank", "2")
    elif workload == "qpe-trotter":
        write_matrix(inputs / "pauli.json", PAULI_X)
        write_matrix(inputs / "pauli.psi.json", np.array([1, 0]))
        a = read_matrix(gen("lowrank4", 0, "--n", "4", "--rank", "2"))
        rng = np.random.default_rng([seed, 1])
        write_matrix(inputs / "lowrank4.psi.json", a @ _complex_normal(rng, 4))
    elif workload == "spectral-exact":
        n = sizes["qpe_n"]
        a = read_matrix(gen("herm", 0, "--n", str(n), "--rank", "3"))
        rng = np.random.default_rng([seed, 1])
        write_matrix(inputs / "herm.psi.json", a @ _complex_normal(rng, n))
        m, k, _ = sizes["proc"]
        b = read_matrix(gen("proc", 1, "--m", str(m), "--n", str(k), "--rank", "3"))
        vh = np.linalg.svd(b)[2]
        coeff = _complex_normal(rng, 3)
        write_matrix(inputs / "proc.psi.json", vh[:3].conj().T @ coeff)
        m, k, bits = sizes["svd"]
        for index in range(2, 16):
            rect = read_matrix(gen("rect", index, "--m", str(m), "--n", str(k),
                                   "--rank", "3"))
            if _resolvable(rect, bits):
                break
        else:
            raise RuntimeError("no resolvable svd input among the seed's candidates")
    else:
        raise ValueError(f"unknown workload '{workload}'")


def _resolvable(a: np.ndarray, bits: int) -> bool:
    """Distinct singular values at least RESOLVABLE_BINS register bins apart.

    Closer pairs share straddled peak bins, which ``quantum_svd`` merges
    into one triplet, reporting rank 2 for a rank-3 input (about 1 input in
    30 at these sizes). That known limit is not what this workload times,
    so the set-up draws the next candidate seed instead.
    """
    s = np.linalg.svd(a, compute_uv=False)
    s = s[s > 1e-10 * s[0]] / sum(a.shape)
    grid = 2.0 * float(np.max(np.abs(a))) * (1.0 + 1e-9) / (1 << bits)
    return bool(np.all(np.abs(np.diff(s)) >= RESOLVABLE_BINS * grid))


def _complex_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


# ------------------------------------------------------------------ checks

def _envelope(raw: bytes) -> dict:
    return json.loads(raw.decode())


def _check_evolve(a: np.ndarray, t: float, eps: float):
    sigma = np.zeros_like(a)
    sigma[0, 0] = 1.0
    exact = _evolved(a, t, sigma)

    def check(raw: bytes) -> str | None:
        r = _envelope(raw)["results"]
        fs = r["final_state"]
        dense = _nuclear(_complex(fs["data"]).reshape(fs["rows"], fs["cols"]) - exact)
        if not (r["total_measured"] <= eps and r["total_measured"] <= r["total_bound"]):
            return f"total_measured {r['total_measured']} over budget"
        if r["measured_step_error"] > r["per_step_bound"]:
            return f"step error {r['measured_step_error']} > {r['per_step_bound']}"
        if dense > eps:
            return f"final state is {dense} from the dense reference"
        return None

    return check


def _check_sweep(a_max: float, dts: list[float]):
    def check(raw: bytes) -> str | None:
        rows = [line.split(",") for line in raw.decode().splitlines()[1:]]
        dt = np.array([float(r[0]) for r in rows])
        err = np.array([float(r[1]) for r in rows])
        if not np.array_equal(dt, dts):
            return "sweep rows do not match the requested dts"
        ratio = err / (2.0 * a_max**2 * dt**2)
        slope = float(np.polyfit(np.log(dt), np.log(err), 1)[0])
        if np.any(ratio > 1.0):
            return f"step error over the bound (ratio {ratio.max():.4f})"
        if abs(slope - 2.0) > 0.1:
            return f"convergence slope {slope:.4f} outside 2 +- 0.1"
        return None

    return check


def _check_exact_qpe(a: np.ndarray, bits: int):
    w = np.linalg.eigvalsh((a + a.conj().T) / 2)
    nonzero = w[np.abs(w) > 1e-9 * np.max(np.abs(w))] / a.shape[0]

    def check(raw: bytes) -> str | None:
        env = _envelope(raw)
        grid = 2.0 * math.pi / ((1 << bits) * env["config"]["t0"])
        values = [e["value"] for e in env["results"]["estimates"]]
        if not values:
            return "no estimates"
        worst = max(float(np.min(np.abs(nonzero - v))) for v in values)
        if worst > grid:
            return f"estimate {worst:.3g} from every eigenvalue (grid {grid:.3g})"
        return None

    return check


def _check_trotter_qpe(exact_out: Path, pinned_calls: int):
    def check(raw: bytes) -> str | None:
        env = _envelope(raw)
        exact = np.asarray(_envelope(exact_out.read_bytes())["results"]["distribution"])
        trotter = np.asarray(env["results"]["distribution"])
        tv = 0.5 * float(np.sum(np.abs(exact - trotter)))
        if tv > 0.05:
            return f"TV distance to the exact backend {tv:.4f} > 0.05"
        if env["oracle_calls"] != pinned_calls:
            return f"oracle_calls {env['oracle_calls']} != pinned {pinned_calls}"
        return None

    return check


def _check_svd(a: np.ndarray, rank: int):
    def check(raw: bytes) -> str | None:
        r = _envelope(raw)["results"]
        if r["rank"] != rank:
            return f"rank {r['rank']} != {rank}"
        u = np.array([_complex(x) for x in r["left_vectors"]]).T
        v = np.array([_complex(x) for x in r["right_vectors"]]).T
        residual = float(np.linalg.norm(a - (u * r["singular_values"]) @ v.conj().T))
        if residual > 1e-6 * np.linalg.norm(a):
            return f"reconstruction residual {residual:.3e}"
        return None

    return check


def _check_procrustes(a: np.ndarray, psi: np.ndarray):
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    keep = s > 1e-10 * s[0]
    target = u[:, keep] @ vh[keep] @ (psi / np.linalg.norm(psi))
    target /= np.linalg.norm(target)

    def check(raw: bytes) -> str | None:
        r = _envelope(raw)["results"]
        fidelity = float(abs(np.vdot(target, _complex(r["output_state"]))) ** 2)
        if abs(r["success_probability"] - 0.5) > 0.02:
            return f"success probability {r['success_probability']:.4f}"
        if fidelity < 0.99:
            return f"fidelity {fidelity:.4f} to the dense U V^H psi"
        return None

    return check


def _check_demo(a: np.ndarray):
    u, s, vh = np.linalg.svd(a, full_matrices=False)

    def check(raw: bytes) -> str | None:
        r = _envelope(raw)["results"]
        thetas = np.asarray(r["thetas"])
        twist = np.ones_like(s, dtype=np.complex128)
        twist[: thetas.size] = np.exp(1j * thetas)
        distance = float(np.linalg.norm(a - (u * (s * twist)) @ vh))
        if r["gram_deviation"] > 1e-10:
            return f"Gram deviation {r['gram_deviation']:.3e}"
        if r["distance"] < 0.1 * np.linalg.norm(a):
            return f"distance {r['distance']:.4g} below 0.1 |A|_F"
        if abs(r["distance"] - distance) > 1e-9 * max(1.0, distance):
            return f"distance {r['distance']} != dense {distance}"
        return None

    return check


# ------------------------------------------------------------------ cases

def build_cases(workload: str, seed: int, inputs: Path, outputs: Path,
                small: bool = False) -> list[Case]:
    """The fixed case list of one pass, with the checks' references."""
    sizes = _sizes(small)
    cases: list[Case] = []

    def add(label, argv, check, **kw):
        suffix = ".csv" if argv[0] == "error-sweep" else ".json"
        out = outputs / f"{label}{suffix}"
        cases.append(Case(label, argv, out, check, envelope=suffix == ".json", **kw))
        return out

    if workload == "evolve-channel":
        for n, eps, steps in sizes["evolve"]:
            path = inputs / f"herm{n}.json"
            a = read_matrix(path)
            a_max = _max_norm(a)
            # The planner takes n = ceil(2 a_max^2 t^2 / eps) steps; a time
            # half a step inside that count pins it on every seed, where
            # t = 1/a_max would land on either side by rounding.
            t = math.sqrt((steps - 0.5) * eps / 2.0) / a_max
            add(f"evolve-n{n}", ["evolve", "--matrix", str(path), "--time", repr(t),
                                 "--epsilon", repr(eps)],
                _check_evolve(a, t, eps), n=n)
        n = sizes["sweep_n"]
        path = inputs / f"herm{n}.json"
        a_max = _max_norm(read_matrix(path))
        dts = [f / a_max for f in (0.1, 0.05, 0.025, 0.0125)]
        add(f"error-sweep-n{n}", ["error-sweep", "--matrix", str(path),
                                  "--dts", ",".join(repr(d) for d in dts)],
            _check_sweep(a_max, dts), n=n)
    elif workload == "qpe-trotter":
        for name, bits, eps, calls in sizes["trotter"]:
            a = read_matrix(inputs / f"{name}.json")
            argv = ["qpe", "--matrix", str(inputs / f"{name}.json"),
                    "--state", str(inputs / f"{name}.psi.json"), "--bits", str(bits)]
            if name == "pauli":
                argv += ["--t0", repr(math.pi)]
            label = f"{name}-b{bits}-e{eps}"
            exact_out = add(f"{label}-exact", argv + ["--backend", "exact"],
                            _check_exact_qpe(a, bits))
            add(f"{label}-trotter", argv + ["--backend", "trotter",
                                            "--trotter-epsilon", repr(eps)],
                _check_trotter_qpe(exact_out, calls))
    elif workload == "spectral-exact":
        herm, rect, proc = (inputs / f"{k}.json" for k in ("herm", "rect", "proc"))
        add("qpe-exact", ["qpe", "--matrix", str(herm), "--state",
                          str(inputs / "herm.psi.json"),
                          "--bits", str(sizes["qpe_bits"])],
            _check_exact_qpe(read_matrix(herm), sizes["qpe_bits"]))
        a = read_matrix(rect)
        add("svd", ["svd", "--matrix", str(rect), "--bits", str(sizes["svd"][2]),
                    "--threshold", "0.01"], _check_svd(a, 3))
        b = read_matrix(proc)
        psi = read_matrix(inputs / "proc.psi.json").reshape(-1)
        add("procrustes", ["procrustes", "--matrix", str(proc), "--state",
                           str(inputs / "proc.psi.json"),
                           "--bits", str(sizes["proc"][2]), "--threshold", "0.02",
                           "--shots", "1000", "--seed", str(seed)],
            _check_procrustes(b, psi))
        add("demo-phase-ambiguity", ["demo-phase-ambiguity", "--matrix", str(rect),
                                     "--seed", str(seed)], _check_demo(a))
    else:
        raise ValueError(f"unknown workload '{workload}'")
    for case in cases:
        case.argv += ["--out", str(case.out)]
    return cases
