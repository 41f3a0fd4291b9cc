"""Desk-scale simulator for exponentiating dense low-rank indefinite matrices
through a one-sparse doubled-space operator, with phase estimation, extended
Hermitian embedding for singular value decomposition, and the nearest-isometry
pipeline built on top.

The package holds only its version constants and re-exports nothing, so
``import modswap`` loads no layer: import each from its submodule, e.g.
``from modswap.qpe import qpe``.
"""

__version__ = "0.1.0"
FORMAT_VERSION = 4
