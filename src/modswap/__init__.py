"""Desk-scale simulator for exponentiating dense low-rank indefinite matrices
through a one-sparse doubled-space operator, with phase estimation, extended
Hermitian embedding for singular value decomposition, and the nearest-isometry
pipeline built on top.
"""

from .channel import (
    ErrorReport,
    channel_step,
    error_sweep,
    evolve,
    pure_density,
)
from .linalg import (
    exact_evolution,
    haar_unitary,
    nuclear_norm,
    random_low_rank,
    random_low_rank_rect,
)
from .matio import load_matrix, load_state, save_matrix
from .oracle import MatrixOracle, oracle_from_generator
from .procrustes import (
    PartialIsometry,
    ProcrustesResult,
    classical_nearest_isometry,
    quantum_procrustes_apply,
)
from .qpe import (
    EigenEstimate,
    QPEConfig,
    QPEResult,
    backend_agreement,
    decode_register,
    qpe,
    query_scaling,
)
from .svdx import (
    SVDResult,
    embedding,
    extended_spectrum_check,
    phase_ambiguity_demo,
    quantum_svd,
)
from .swapop import ModifiedSwapOperator

__version__ = "0.1.0"
FORMAT_VERSION = 4

__all__ = [
    "EigenEstimate",
    "ErrorReport",
    "FORMAT_VERSION",
    "MatrixOracle",
    "ModifiedSwapOperator",
    "PartialIsometry",
    "ProcrustesResult",
    "QPEConfig",
    "QPEResult",
    "SVDResult",
    "backend_agreement",
    "channel_step",
    "classical_nearest_isometry",
    "decode_register",
    "embedding",
    "error_sweep",
    "evolve",
    "exact_evolution",
    "extended_spectrum_check",
    "haar_unitary",
    "load_matrix",
    "load_state",
    "nuclear_norm",
    "oracle_from_generator",
    "phase_ambiguity_demo",
    "pure_density",
    "qpe",
    "quantum_procrustes_apply",
    "quantum_svd",
    "query_scaling",
    "random_low_rank",
    "random_low_rank_rect",
    "save_matrix",
]
