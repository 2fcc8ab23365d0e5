"""Supporting dense linear algebra for the event-analysis pipeline.

The paper's contribution hinges on a *specialized* column-pivoted QR
factorization (its Algorithm 2), which cannot be expressed as a call into
LAPACK's ``geqp3``: the pivot choice depends on a rounding/scoring scheme
over the partially factorized matrix rather than on column norms.  This
subpackage therefore provides the Householder machinery, triangular solves
and least-squares kernels the pipeline needs, implemented directly on top of
vectorized NumPy primitives.

The public surface:

* :func:`repro.linalg.householder.householder_vector` /
  :func:`repro.linalg.householder.apply_householder` — reflector
  construction and blocked application.
* :class:`repro.linalg.householder.HouseholderQR` — incremental QR with
  explicit per-column updates (the form both QRCP algorithms consume).
* :func:`repro.linalg.triangular.solve_upper` /
  :func:`repro.linalg.triangular.solve_lower` — substitution solvers.
* :func:`repro.linalg.lstsq.lstsq_qr` — least squares via our QR.
* :func:`repro.linalg.norms.backward_error` — the paper's Equation 5
  fitness measure.
"""

from repro.linalg.householder import (
    HouseholderQR,
    apply_householder,
    householder_vector,
    qr_decompose,
)
from repro.linalg.lstsq import LstsqResult, default_rcond, lstsq_qr
from repro.linalg.norms import backward_error, frobenius_norm, spectral_norm
from repro.linalg.triangular import solve_lower, solve_upper

__all__ = [
    "HouseholderQR",
    "LstsqResult",
    "apply_householder",
    "backward_error",
    "default_rcond",
    "frobenius_norm",
    "householder_vector",
    "lstsq_qr",
    "qr_decompose",
    "solve_lower",
    "solve_upper",
    "spectral_norm",
]
