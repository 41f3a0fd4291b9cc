"""Every counted Hermitian read checks its whole source before it charges.

The check is the first step of ``oracle.read_hermitian``: the rule of
``linalg.require_hermitian`` applied to the source where it lies, with no
copy and no charge. Every library entry that takes its source as Hermitian
reads it there, through ``ModifiedSwapOperator.build_plan`` or
``qpe._read_exact``, so each refuses a bad source with one message and no
query. ``evolve`` and ``error_sweep`` first gate the uncounted source that
gives their baseline with ``require_hermitian``, which refuses the same
sources with the same messages. ``backend_agreement`` and ``query_scaling``
reach the read through ``qpe`` on the oracle they are given, so a refusal
leaves that oracle's counter at 0 too. A non-finite source never
gets this far: the oracle refuses it when it is built (the ``nan`` case),
and a write to the caller's array after that reaches no entry.
"""

import pickle

import numpy as np
import pytest

from modswap.channel import channel_step, error_sweep, evolve
from modswap.linalg import HERMITIAN_TOL
from modswap.oracle import read_hermitian
from modswap.qpe import QPEConfig, backend_agreement, qpe, query_scaling
from modswap.swapop import ModifiedSwapOperator

from dense_refs import RecordingOracle, first_order_generator

N = 3


def _basis(n):
    psi = np.zeros(n, dtype=complex)
    psi[0] = 1.0
    return psi


ENTRIES = {
    "read_hermitian": read_hermitian,
    "build_plan": lambda o: ModifiedSwapOperator(o).build_plan(),
    "first_order_generator": lambda o: first_order_generator(o, np.eye(N) / N),
    "channel_step": lambda o: channel_step(o, np.eye(N) / N, 0.1),
    "evolve": lambda o: evolve(o, np.eye(N) / N, 0.5, 0.1, steps=3),
    "error_sweep": lambda o: error_sweep(o, np.eye(N) / N, [0.1, 0.05]),
    "qpe-exact": lambda o: qpe(o, _basis(N), QPEConfig(bits=2)),
    "qpe-trotter": lambda o: qpe(o, _basis(N), QPEConfig(
        bits=2, backend="trotter-channel", trotter_epsilon=0.1)),
    "backend_agreement": lambda o: backend_agreement(o, _basis(N), QPEConfig(
        bits=2, trotter_epsilon=0.1)),
    "query_scaling": lambda o: query_scaling(o, _basis(N), [0.2, 0.1]),
    "apply_exp": lambda o: ModifiedSwapOperator(o).apply_exp(0.3, _basis(N * N)),
    "controlled_apply_exp": lambda o: ModifiedSwapOperator(o).controlled_apply_exp(
        0.3, _basis(2 * N * N)),
    "spectrum": lambda o: ModifiedSwapOperator(o).spectrum(),
}
# the entries whose reads start with the uncounted source that gives their baseline
BASELINE_READ = {"evolve", "error_sweep"}
# the entries that run qpe twice, one counted sweep each; every other entry sweeps once
TWO_SWEEPS = {"backend_agreement", "query_scaling"}


def _source(lower=0.0, diagonal=0.0):
    """A real symmetric source with max |A_jk| = 1, so the tolerance is
    HERMITIAN_TOL itself; A[2, 0] set to lower, i * diagonal added to A[1, 1]."""
    a = np.array([[0.5, 0.25, 0.0], [0.25, -1.0, 0.25], [0.0, 0.25, 0.5]], dtype=complex)
    a[2, 0] = lower
    a[1, 1] += 1j * diagonal
    return a


def _scaled_source(fraction):
    """max |A_jk| = 4.25, with 2 |Im A_11| at ``fraction`` of the scaled tolerance."""
    imag = fraction * HERMITIAN_TOL * 4.25 / 2
    return np.diag([0.5, 4 + 1j * imag, -1.0]) + 0.25 * np.ones((N, N))


# case: (oracle factory, message)
BAD_SOURCES = {
    "lower-triangle": (lambda: RecordingOracle(_source(lower=1e-9)),
                       "matrix is not Hermitian (residual 1.000e-09)"),
    "lower-just-outside": (lambda: RecordingOracle(_source(lower=1.01 * HERMITIAN_TOL)),
                           "matrix is not Hermitian (residual 1.010e-12)"),
    "diagonal": (lambda: RecordingOracle(_source(diagonal=1e-9)),
                 "matrix is not Hermitian (residual 2.000e-09)"),
    "diagonal-just-outside": (lambda: RecordingOracle(_source(diagonal=1.01 * HERMITIAN_TOL / 2)),
                              "matrix is not Hermitian (residual 1.010e-12)"),
    "scaled-diagonal-just-outside": (lambda: RecordingOracle(_scaled_source(1.01)),
                                     "matrix is not Hermitian (residual 4.292e-12)"),
    "non-square": (lambda: RecordingOracle(np.ones((N, N + 1), dtype=complex)),
                   f"matrix is not square ({N}x{N + 1})"),
    # refused when the oracle is built, so no entry is reached
    "nan": (lambda: RecordingOracle(_source(lower=np.nan)), "matrix contains NaN or infinity"),
}


@pytest.mark.parametrize("case", sorted(BAD_SOURCES))
@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_bad_source_raises_before_any_query(name, case):
    factory, message = BAD_SOURCES[case]
    oracle = None
    with pytest.raises(ValueError) as info:
        oracle = factory()
        ENTRIES[name](oracle)
    assert str(info.value) == message
    assert (oracle is None) == (case == "nan")
    if oracle is None:
        return
    assert oracle.report_calls() == 0
    # no sweep and no read beyond the baseline's; a non-square source fails
    # at the oracle's dimension, before that read too
    baseline = name in BASELINE_READ and case != "non-square"
    assert oracle.reads == (["materialize"] if baseline else [])


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_source_just_inside_tolerance_is_accepted(name):
    # residuals 0.99 and 0.98 times the tolerance, below and on the diagonal,
    # and 0.99 times it on the diagonal of a source whose scale is 4.25
    for source in (_source(lower=0.99 * HERMITIAN_TOL, diagonal=0.49 * HERMITIAN_TOL),
                   _scaled_source(0.99)):
        oracle = RecordingOracle(source)
        assert ENTRIES[name](oracle) is not None
        baseline = ["materialize"] if name in BASELINE_READ else []
        sweeps = ["sweep"] * (2 if name in TWO_SWEEPS else 1)
        assert oracle.report_calls() > 0 and oracle.reads == [*baseline, *sweeps]


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_later_write_does_not_reach_the_read(name):
    clean = RecordingOracle(_source())
    want = ENTRIES[name](clean)
    a = _source()
    oracle = RecordingOracle(a)
    a[...] = np.nan  # the oracle owns a copy of its source
    got = ENTRIES[name](oracle)
    assert pickle.dumps(got) == pickle.dumps(want)
    assert oracle.report_calls() == clean.report_calls() > 0
    assert oracle.reads == clean.reads
