"""Every library entry that takes a state checks it at its one gate, before any query.

State vectors go through ``linalg.require_state`` and densities through
``channel.require_density(rho, n)``; the table below lists every entry of
each kind.
"""

import numpy as np
import pytest

from modswap.channel import channel_step, error_sweep, evolve, pure_density
from modswap.linalg import random_low_rank_rect
from modswap.procrustes import quantum_procrustes_apply
from modswap.qpe import QPEConfig, qpe
from modswap.swapop import ModifiedSwapOperator

from dense_refs import RecordingOracle, random_density, random_hermitian, random_state

N = 3


def _hermitian():
    return RecordingOracle(random_hermitian(N, np.random.default_rng(61)))


def _rectangular():
    return RecordingOracle(random_low_rank_rect(4, N, 2, np.random.default_rng(62)))


# name: (oracle factory or None, state length or None for any, call)
VECTOR_ENTRIES = {
    "qpe-exact": (_hermitian, N, lambda o, psi: qpe(o, psi, QPEConfig(bits=2))),
    "qpe-trotter": (_hermitian, N, lambda o, psi: qpe(
        o, psi, QPEConfig(bits=2, backend="trotter-channel", trotter_epsilon=0.1))),
    "procrustes": (_rectangular, N,
                   lambda o, psi: quantum_procrustes_apply(o, psi, QPEConfig(bits=6), 0.02)),
    "apply_exp": (_hermitian, N * N, lambda o, psi: ModifiedSwapOperator(o).apply_exp(0.3, psi)),
    "controlled_apply_exp": (_hermitian, 2 * N * N, lambda o, psi: (
        ModifiedSwapOperator(o).controlled_apply_exp(0.3, psi))),
    "pure_density": (None, None, lambda o, psi: pure_density(psi)),
}


def _basis(n, first=1.0):
    psi = np.zeros(n, dtype=complex)
    psi[0] = first
    return psi


def _bad_states(n):
    """(state, message) for each way a state of length n fails the gate."""
    return {
        "wrong-length": (np.ones(n + 1) / np.sqrt(n + 1), f"state has dim {n + 1}, expected {n}"),
        "zero": (np.zeros(n, dtype=complex), "state is the zero vector"),
        "nan": (np.full(n, np.nan, dtype=complex), "state norm nan != 1"),
        "infinity": (_basis(n, np.inf), "state norm inf != 1"),
        "norm-above": (_basis(n, 1 + 1e-6), "state norm 1.000001 != 1"),
        "norm-below": (_basis(n, 1 - 1e-6), "state norm 0.999999 != 1"),
    }


def _table():
    for name, (factory, n, _) in VECTOR_ENTRIES.items():
        for case, (psi, message) in _bad_states(n or N).items():
            if n is None and case == "wrong-length":
                continue  # the entry takes a state of any length
            yield pytest.param(name, psi, message, id=f"{name}-{case}")


@pytest.mark.parametrize("name, psi, message", _table())
def test_bad_state_raises_before_any_query(name, psi, message):
    factory, _, call = VECTOR_ENTRIES[name]
    oracle = factory() if factory else None
    with pytest.raises(ValueError) as info:
        call(oracle, psi)
    assert str(info.value) == message
    if oracle is not None:
        assert oracle.report_calls() == 0 and oracle.reads == []


@pytest.mark.parametrize("offset", [1e-10, -1e-10])
@pytest.mark.parametrize("name", sorted(VECTOR_ENTRIES))
def test_norm_within_tolerance_is_accepted(name, offset):
    factory, n, call = VECTOR_ENTRIES[name]
    psi = random_state(n or N, np.random.default_rng(63)) * (1 + offset)
    oracle = factory() if factory else None
    assert call(oracle, psi) is not None
    if oracle is not None:
        assert oracle.report_calls() > 0


DENSITY_ENTRIES = {
    "channel_step": lambda o, sigma: channel_step(o, sigma, 0.1),
    "evolve": lambda o, sigma: evolve(o, sigma, 0.5, 0.1, steps=3),
    "error_sweep": lambda o, sigma: error_sweep(o, sigma, [0.1, 0.05]),
}


@pytest.mark.parametrize("sigma", [random_density(N + 1, np.random.default_rng(64)),
                                   np.zeros((N, N + 1))], ids=["larger", "non-square"])
@pytest.mark.parametrize("name", sorted(DENSITY_ENTRIES))
def test_density_of_wrong_shape_raises_before_any_query(name, sigma):
    oracle = _hermitian()
    with pytest.raises(ValueError, match=rf"state dim \({sigma.shape[0]}, {sigma.shape[1]}\) "
                                         rf"!= oracle dim {N}"):
        DENSITY_ENTRIES[name](oracle, sigma)
    assert oracle.report_calls() == 0 and oracle.reads == []
