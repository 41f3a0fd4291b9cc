"""Every library entry that takes its source as Hermitian gates it before any query.

The gate is ``MatrixOracle.check_hermitian``: the rule of
``linalg.require_hermitian`` applied to the source where it lies, with no
copy and no charge. ``evolve`` and ``error_sweep`` gate the uncounted copy
with ``require_hermitian`` instead, which also gives their baseline, and
``backend_agreement`` and ``query_scaling`` reach the gate through ``qpe``.
"""

import numpy as np
import pytest

from modswap.channel import channel_step
from modswap.linalg import HERMITIAN_TOL
from modswap.qpe import QPEConfig, qpe
from modswap.swapop import ModifiedSwapOperator

from dense_refs import RecordingOracle

N = 3


def _basis(n):
    psi = np.zeros(n, dtype=complex)
    psi[0] = 1.0
    return psi


# name: (call, message for a source of shape (N, N + 1))
ENTRIES = {
    "qpe-exact": (lambda o: qpe(o, _basis(N), QPEConfig(bits=2)),
                  f"matrix is not square ({N}x{N + 1})"),
    "qpe-trotter": (lambda o: qpe(o, _basis(N), QPEConfig(
        bits=2, backend="trotter-channel", trotter_epsilon=0.1)),
        f"matrix is not square ({N}x{N + 1})"),
    "channel_step": (lambda o: channel_step(o, np.eye(N) / N, 0.1),
                     f"matrix is not square ({N}x{N + 1})"),
    # the operator takes the oracle's dimension when it is built
    "apply_exp": (lambda o: ModifiedSwapOperator(o).apply_exp(0.3, _basis(N * N)),
                  f"oracle is not square: shape ({N}, {N + 1})"),
    "controlled_apply_exp": (lambda o: ModifiedSwapOperator(o).controlled_apply_exp(
        0.3, _basis(2 * N * N)), f"oracle is not square: shape ({N}, {N + 1})"),
    "spectrum": (lambda o: ModifiedSwapOperator(o).spectrum(),
                 f"oracle is not square: shape ({N}, {N + 1})"),
}


def _source(lower=0.0, diagonal=0.0):
    """A real symmetric source with max |A_jk| = 1, so the tolerance is
    HERMITIAN_TOL itself; A[2, 0] set to lower, i * diagonal added to A[1, 1]."""
    a = np.array([[0.5, 0.25, 0.0], [0.25, -1.0, 0.25], [0.0, 0.25, 0.5]], dtype=complex)
    a[2, 0] = lower
    a[1, 1] += 1j * diagonal
    return a


def _nan_oracle():
    a = _source()
    oracle = RecordingOracle(a)
    a[0, 0] = np.nan  # the oracle holds the array itself
    return oracle


# case: (oracle factory, message or None for the entry's non-square message)
BAD_SOURCES = {
    "lower-triangle": (lambda: RecordingOracle(_source(lower=1e-9)),
                       "matrix is not Hermitian (residual 1.000e-09)"),
    "lower-just-outside": (lambda: RecordingOracle(_source(lower=1.01 * HERMITIAN_TOL)),
                           "matrix is not Hermitian (residual 1.010e-12)"),
    "diagonal": (lambda: RecordingOracle(_source(diagonal=1e-9)),
                 "matrix is not Hermitian (residual 2.000e-09)"),
    "diagonal-just-outside": (lambda: RecordingOracle(_source(diagonal=1.01 * HERMITIAN_TOL / 2)),
                              "matrix is not Hermitian (residual 1.010e-12)"),
    "non-square": (lambda: RecordingOracle(np.ones((N, N + 1), dtype=complex)), None),
    "nan": (_nan_oracle, "matrix contains NaN or infinity"),
}


@pytest.mark.parametrize("case", sorted(BAD_SOURCES))
@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_bad_source_raises_before_any_query(name, case):
    call, not_square = ENTRIES[name]
    factory, message = BAD_SOURCES[case]
    oracle = factory()
    with pytest.raises(ValueError) as info:
        call(oracle)
    assert str(info.value) == (message or not_square)
    assert oracle.report_calls() == 0 and oracle.reads == []  # no sweep and no copy


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_source_just_inside_tolerance_is_accepted(name):
    # residuals 0.99 and 0.98 times the tolerance, below and on the diagonal
    oracle = RecordingOracle(_source(lower=0.99 * HERMITIAN_TOL, diagonal=0.49 * HERMITIAN_TOL))
    assert ENTRIES[name][0](oracle) is not None
    assert oracle.report_calls() > 0 and oracle.reads == ["sweep"]
