"""Every counted Hermitian read checks its whole source before it charges.

The check is the first step of ``oracle.read_hermitian``: the rule of
``linalg.require_hermitian`` applied to the source where it lies, with no
copy and no charge. Every library entry that takes its source as Hermitian
reads it there, through ``ModifiedSwapOperator.build_plan`` or
``qpe._read_exact``, so each refuses a bad source with one message and no
query. ``evolve`` and ``error_sweep`` first gate the uncounted copy that
gives their baseline with ``require_hermitian``, which refuses the same
sources with the same messages, and ``backend_agreement`` and
``query_scaling`` reach the read through ``qpe``.
"""

import numpy as np
import pytest

from modswap.channel import channel_step, error_sweep, evolve
from modswap.linalg import HERMITIAN_TOL
from modswap.oracle import read_hermitian
from modswap.qpe import QPEConfig, qpe
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
    "apply_exp": lambda o: ModifiedSwapOperator(o).apply_exp(0.3, _basis(N * N)),
    "controlled_apply_exp": lambda o: ModifiedSwapOperator(o).controlled_apply_exp(
        0.3, _basis(2 * N * N)),
    "spectrum": lambda o: ModifiedSwapOperator(o).spectrum(),
}
# the entries whose reads start with the uncounted copy that gives their baseline
BASELINE_COPY = {"evolve", "error_sweep"}


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


def _nan_oracle():
    a = _source()
    oracle = RecordingOracle(a)
    a[0, 0] = np.nan  # the oracle holds the array itself
    return oracle


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
    "nan": (_nan_oracle, "matrix contains NaN or infinity"),
}


@pytest.mark.parametrize("case", sorted(BAD_SOURCES))
@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_bad_source_raises_before_any_query(name, case):
    factory, message = BAD_SOURCES[case]
    oracle = factory()
    with pytest.raises(ValueError) as info:
        ENTRIES[name](oracle)
    assert str(info.value) == message
    assert oracle.report_calls() == 0
    # no sweep and no copy beyond the baseline's; a non-square source fails
    # at the oracle's dimension, before that copy too
    copied = name in BASELINE_COPY and case != "non-square"
    assert oracle.reads == (["materialize"] if copied else [])


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_source_just_inside_tolerance_is_accepted(name):
    # residuals 0.99 and 0.98 times the tolerance, below and on the diagonal,
    # and 0.99 times it on the diagonal of a source whose scale is 4.25
    for source in (_source(lower=0.99 * HERMITIAN_TOL, diagonal=0.49 * HERMITIAN_TOL),
                   _scaled_source(0.99)):
        oracle = RecordingOracle(source)
        assert ENTRIES[name](oracle) is not None
        copy = ["materialize"] if name in BASELINE_COPY else []
        assert oracle.report_calls() > 0 and oracle.reads == [*copy, "sweep"]
