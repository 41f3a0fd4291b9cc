"""The command line's boundary as one property, checked over every command.

Whatever the source and the options, ``cli.main`` exits 0 with an envelope
whose every number is finite, or exits 2 with a message about its input.
Exit 1 is a fault in the program. A refusal that names an output field
(``results.``) or passes on a numpy or LAPACK message blames the wrong
thing.

Sources are seeded Hermitian (N <= 4) and rectangular (at most 4 x 3)
matrices, written as JSON. Each is scaled by 2^k, or has one entry (with
its mirror, for a Hermitian source) replaced by NaN, +-inf, +-1e308 or a
subnormal. Every numeric option is drawn from valid, zero, negative, NaN,
+-inf, huge and non-integer values. The scales are a fixed table and the
valid values small, so that no run plans more than a few thousand channel
steps. ``main`` runs in-process, with stdout and stderr captured.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from modswap.cli import main
from modswap.linalg import random_low_rank, random_low_rank_rect

SCALES = [-1074, -1064, -1000, -600, -550, -100, 0, 0, 0, 100, 511, 512, 664, 1000, 1023]
ENTRIES = [math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, 1e-310]
EDGES = ["0", "-1", "nan", "inf", "-inf", "1e300", str(2**70), "2.5"]

# the refusals numpy and LAPACK raise themselves, which name no input
NUMPY_MESSAGES = ("did not converge", "Singular matrix", "Maximum allowed dimension",
                  "array is too big", "encountered in", "cannot convert float")


def _option(valid):
    """A numeric option's text: a valid value, or an edge case of any kind."""
    return st.one_of(valid.map(repr), st.sampled_from(EDGES))


def _ints(lo, hi):
    return _option(st.integers(lo, hi))


def _floats(lo, hi):
    return _option(st.floats(lo, hi))


@st.composite
def sources(draw, rectangular: bool):
    """(matrix, description): a seeded low-rank matrix, scaled or with one edge entry."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n = draw(st.integers(1, 3 if rectangular else 4))
    if rectangular:
        m = draw(st.integers(1, 4))
        a = random_low_rank_rect(m, n, draw(st.integers(1, min(m, n))), rng)
    else:
        a = random_low_rank(n, draw(st.integers(1, n)), rng)
    if draw(st.booleans()):
        k = draw(st.sampled_from(SCALES))
        with np.errstate(over="ignore"):  # an entry past the float range is one more edge
            return a * 2.0**k, f"times 2^{k}"
    value = draw(st.sampled_from(ENTRIES))
    j, i = draw(st.integers(0, a.shape[0] - 1)), draw(st.integers(0, a.shape[1] - 1))
    a[j, i] = value
    if not rectangular:
        a[i, j] = value
    return a, f"entry ({j}, {i}) = {value!r}"


def _write_source(path, a) -> str:
    """a in the JSON matrix format, non-finite entries as the stdlib spells them."""
    data = [[float(z.real), float(z.imag)] for z in a.reshape(-1)]
    path.write_text(json.dumps({"rows": a.shape[0], "cols": a.shape[1], "data": data}))
    return str(path)


@st.composite
def invocations(draw):
    """(argv without --out, source matrix or None) for one of the seven commands."""
    command = draw(st.sampled_from(["gen-matrix", "evolve", "error-sweep", "qpe", "svd",
                                    "demo-phase-ambiguity", "procrustes"]))
    if command == "gen-matrix":
        argv = ["gen-matrix", "--n", draw(_ints(1, 4)), "--rank", draw(_ints(1, 3)),
                "--seed", draw(_ints(0, 99))]
        if draw(st.booleans()):
            argv += ["--m", draw(_ints(1, 4))]
        return argv, None
    source = draw(sources(rectangular=command in ("svd", "demo-phase-ambiguity",
                                                   "procrustes")))
    if command == "evolve":
        argv = ["evolve", "--time", draw(_floats(-2, 2)), "--epsilon", draw(_floats(0.05, 1))]
        if draw(st.booleans()):
            argv += ["--steps", draw(_ints(1, 40))]
    elif command == "error-sweep":
        argv = ["error-sweep", "--dts",
                ",".join(draw(st.lists(_floats(1e-3, 0.5), min_size=1, max_size=3)))]
    elif command == "qpe":
        argv = ["qpe", "--bits", draw(_ints(1, 6)),
                "--backend", draw(st.sampled_from(["exact", "trotter"]))]
        if draw(st.booleans()):
            argv += ["--t0", draw(_floats(0.01, 1))]
        if draw(st.booleans()):
            argv += ["--trotter-epsilon", draw(_floats(0.01, 0.5))]
    elif command == "svd":
        argv = ["svd", "--bits", draw(_ints(1, 8)), "--threshold", draw(_floats(0, 2))]
    elif command == "demo-phase-ambiguity":
        argv = ["demo-phase-ambiguity", "--seed", draw(_ints(0, 99))]
    else:
        argv = ["procrustes", "--bits", draw(_ints(1, 8)), "--threshold", draw(_floats(0, 2))]
        if draw(st.booleans()):
            argv += ["--shots", draw(_ints(1, 1000))]
        argv += ["--seed", draw(_ints(0, 99))]
    return argv, source


def _numbers(value):
    """Every number in a parsed JSON value."""
    if isinstance(value, dict):
        for item in value.values():
            yield from _numbers(item)
    elif isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


# Classes that break the property at this revision, each matched by its
# command and the start of its stderr text. Each is pinned below by a strict
# expected failure, which passes, and so fails, once its class is mended;
# its entry here goes then too.
KNOWN_FAILURES = {
    # swapop.kraus_factors divides an entry by its modulus, and 1 / |A_jk|
    # overflows for a subnormal entry (e.g. 4 x 4 times 1e-320)
    "subnormal entry": ({"evolve", "error-sweep", "qpe"},
                        "runtime failure: overflow encountered in divide"),
    # SVDResult.residual's Frobenius norm squares entries past the float range
    # (e.g. 5 x 3 rank 2 times 1e200)
    "svd residual overflow": ({"svd"}, "runtime failure: overflow encountered in dot"),
    # a_max^2 leaves the float range, so a bound or a step count is NaN or inf
    # (e.g. 4 x 4 times 2^511, trotter qpe or evolve at time 0)
    "squared norm overflow": ({"evolve", "qpe"},
                              ("error: results.", "error: cannot convert float NaN")),
    # the embedding of a source near the float range has eigenvalues past it,
    # and the register masses of an infinite eigenvalue are NaN
    # (e.g. 4 x 3 rank 1 times 2^1023)
    "embedding spectrum overflow": ({"svd", "procrustes"},
                                    "runtime failure: invalid value encountered in"),
    # so do exact qpe's nodes, the eigenvalues of A itself (e.g. 3 x 3 full
    # rank times 2^1023)
    "qpe eigenvalue overflow": ({"qpe"}, ("runtime failure: overflow encountered in ldexp",
                                          "runtime failure: invalid value encountered in")),
    # a huge --n reaches numpy's array constructor, which refuses it
    "huge gen-matrix size": ({"gen-matrix"}, "error: Maximum allowed dimension exceeded"),
}


def check_boundary(directory, argv, source, known=KNOWN_FAILURES):
    """Run one invocation and assert the boundary property on its outcome.

    Returns the name of the class in ``known`` whose failure the run shows
    instead, or None.
    """
    if source is not None:
        argv = [*argv, "--matrix", _write_source(directory / "source.json", source[0])]
    out = directory / ("out.csv" if argv[0] == "error-sweep" else "out.json")
    out.unlink(missing_ok=True)
    argv = [*argv, "--out", str(out)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses an option this way
            code = exc.code
    message = err.getvalue().strip()
    if code == 0:
        holds = argv[0] in ("gen-matrix", "error-sweep") or all(
            math.isfinite(x) for x in _numbers(json.loads(out.read_text())))
    else:
        holds = code == 2 and not message.startswith("error: results.") and not any(
            text in message for text in NUMPY_MESSAGES)
    if holds:
        return None
    for name, (commands, start) in known.items():
        if argv[0] in commands and message.startswith(start):
            return name
    where = "" if source is None else f" on a source {source[1]}"
    raise AssertionError(f"{argv}{where} exits {code}: {message}")


@pytest.mark.filterwarnings("ignore:input is positive semidefinite:UserWarning")
@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(case=invocations())
# exact qpe on a source times 2^512: Lanczos on A / 2^e, no overflow
@example(case=(["qpe", "--bits", "10", "--backend", "exact"],
               (random_low_rank(8, 2, np.random.default_rng(7)) * 2.0**512, "times 2^512")))
# the demo on a 1 x 1 source of modulus near sqrt(float max): refused as A's overflow
@example(case=(["demo-phase-ambiguity", "--seed", "0"],
               (np.array([[1.2e154 * np.exp(0.7j)]]), "1.2e154 e^0.7i")))
# a register too wide for an index, or a shot count past int64, is refused,
# not an OverflowError
@example(case=(["qpe", "--bits", str(2**70)],
               (random_low_rank(2, 1, np.random.default_rng(1)), "times 2^0")))
@example(case=(["procrustes", "--bits", "3", "--threshold", "0.5", "--shots", str(2**70)],
               (random_low_rank_rect(3, 2, 1, np.random.default_rng(1)), "times 2^0")))
def test_every_command_exits_0_with_a_finite_envelope_or_2_about_its_input(
        tmp_path_factory, case):
    check_boundary(tmp_path_factory.mktemp("boundary"), *case)


@pytest.mark.parametrize("argv, source", [
    pytest.param(["evolve", "--time", "1", "--epsilon", "0.1"],
                 random_low_rank(4, 2, np.random.default_rng(1)) * 1e-320, id="subnormal entry"),
    pytest.param(["svd", "--bits", "6", "--threshold", "0.5"],
                 random_low_rank_rect(5, 3, 2, np.random.default_rng(1)) * 1e200,
                 id="svd residual overflow"),
    pytest.param(["qpe", "--bits", "5", "--backend", "trotter"],
                 random_low_rank(2, 1, np.random.default_rng(1)) * 2.0**511,
                 id="squared norm overflow"),
    pytest.param(["procrustes", "--bits", "4", "--threshold", "0.5"],
                 random_low_rank_rect(4, 3, 1, np.random.default_rng(1)) * 2.0**1023,
                 id="embedding spectrum overflow"),
    pytest.param(["qpe", "--bits", "5", "--backend", "exact"],
                 random_low_rank(3, 3, np.random.default_rng(3)) * 2.0**1023,
                 id="qpe eigenvalue overflow"),
    pytest.param(["gen-matrix", "--n", str(2**70), "--rank", "1"], None,
                 id="huge gen-matrix size"),
])
@pytest.mark.xfail(strict=True, raises=AssertionError)
def test_known_failure_class(tmp_path, argv, source):
    """The pinned case of each class in ``KNOWN_FAILURES`` breaks the property."""
    check_boundary(tmp_path, argv, None if source is None else (source, "pinned"), known={})
