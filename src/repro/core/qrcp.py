"""Column-pivoted QR factorizations: standard (Algorithm 1) and the paper's
specialized pivoting scheme (Algorithm 2).

Both drive the in-house incremental Householder QR.  The difference is the
pivot rule:

* **Standard QRCP** picks the trailing column of largest residual norm —
  the numerically natural choice, but exactly wrong for event analysis:
  high-magnitude irrelevant columns (cycles-like events) win the pivots.
* **Specialized QRCP** (paper Algorithm 2) scores candidate columns by
  closeness to the expectation-basis dimensions after rounding with the
  noise tolerance ``alpha`` (see :mod:`repro.core.rounding`), picks the
  minimum score, breaks ties by smaller column norm and then by original
  column order, skips candidates whose trailing residual norm falls below
  ``beta = ||(alpha, ..., alpha)||`` (columns that are noise-level or
  already explained by chosen columns), and terminates when no eligible
  candidate remains.

Design choices the paper leaves open, fixed here and exercised by the
ablation benchmarks:

* Scores are recomputed each iteration on the *updated* (partially
  factorized) working matrix, so directions already explained cannot
  attract further pivots; rounding feeds only the scores — the
  factorization itself proceeds on unrounded values.
* The beta cutoff applies to the trailing-row residual norm (rows i:),
  which is the orthogonal distance to the span of the chosen columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.rounding import score_columns
from repro.linalg.householder import HouseholderQR

if TYPE_CHECKING:
    from repro.guard.health import GuardConfig, NumericalHealth

__all__ = ["QRCPResult", "qrcp_specialized", "qrcp_standard"]


@dataclass(frozen=True)
class QRCPResult:
    """Outcome of a column-pivoted QR factorization.

    Attributes
    ----------
    permutation:
        Column indices of the input matrix in pivot order; the first
        ``rank`` entries are the selected (independent) columns.
    rank:
        Number of pivots performed before termination.
    r_factor:
        The ``(rank, n)`` upper-trapezoidal R of the permuted matrix.
    health:
        Conditioning sentinel readings for the leading ``rank`` triangle
        (only populated when the factorization ran under a guard config).
    """

    permutation: np.ndarray
    rank: int
    r_factor: np.ndarray
    health: Optional["NumericalHealth"] = None

    @property
    def selected(self) -> np.ndarray:
        """Input-matrix column indices chosen as linearly independent."""
        return self.permutation[: self.rank].copy()


def _guarded(
    x: np.ndarray,
    perm: np.ndarray,
    rank: int,
    r: np.ndarray,
    guard: Optional["GuardConfig"],
    repivot,
) -> QRCPResult:
    """Attach sentinel readings; re-pivot on the column-equilibrated
    matrix when the conditioning crosses the guard thresholds.

    ``repivot`` is the algorithm's pivoting loop (returning
    ``(perm, rank, r)``), re-run on the scaled matrix — the guard is
    pivot-rule-agnostic.  On healthy factors the original
    ``(perm, rank, r)`` pass through untouched, so a guarded run on
    well-conditioned data is bit-identical to an unguarded one.
    """
    if guard is None or not guard.enabled:
        return QRCPResult(permutation=perm, rank=rank, r_factor=r)
    from repro.guard.health import triangular_health

    health = triangular_health(
        r[:, :rank] if rank else r,
        original=x,
        refine_iterations=guard.refine_iterations,
    )
    if health.ok(guard):
        return QRCPResult(permutation=perm, rank=rank, r_factor=r, health=health)

    # Sentinel fired: the selection is near-rank-deficient or the column
    # magnitudes hide the geometry.  Re-run the pivot rule on the
    # column-equilibrated matrix (every nonzero column scaled to unit
    # norm), then re-factorize the *original* matrix in that pivot order
    # so R stays numerically faithful to the input.
    from dataclasses import replace as _replace

    from repro.obs import get_tracer

    get_tracer().incr("guard.fired.qrcp-column-scaled-repivot")

    norms = np.sqrt(np.einsum("ij,ij->j", x, x))
    scale = np.where(norms > 0.0, norms, 1.0)
    perm2, rank2, _ = repivot(x / scale)
    r2 = _refactor_in_order(x, perm2, rank2)
    health2 = triangular_health(
        r2[:, :rank2] if rank2 else r2,
        original=x,
        refine_iterations=guard.refine_iterations,
    )
    health2 = _replace(
        health2,
        rank_gap=max(health.rank_gap, health2.rank_gap),
        suspect_columns=tuple(
            sorted(set(health.suspect_columns) | set(health2.suspect_columns))
        ),
        guards_fired=health.guards_fired + ("qrcp-column-scaled-repivot",),
    )
    return QRCPResult(
        permutation=perm2, rank=rank2, r_factor=r2, health=health2
    )


def _refactor_in_order(x: np.ndarray, perm: np.ndarray, rank: int) -> np.ndarray:
    """R of ``x`` factorized with its columns taken in ``perm`` order."""
    n = x.shape[1]
    if rank == 0:
        return np.zeros((0, n))
    fact = HouseholderQR(x)
    current = np.arange(n)
    for i in range(rank):
        j = int(np.flatnonzero(current == perm[i])[0])
        fact.swap_columns(i, j)
        current[[i, j]] = current[[j, i]]
        fact.step()
    return np.triu(fact.a[:rank, :])


def qrcp_standard(
    x: np.ndarray, tol: float = 1e-10, guard: Optional["GuardConfig"] = None
) -> QRCPResult:
    """Algorithm 1: QRCP with largest-residual-norm pivoting.

    Stops when the largest trailing residual norm drops below ``tol``
    times the largest original column norm (numerical rank detection).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {x.shape}")

    def pivot_loop(work: np.ndarray):
        m, n = work.shape
        fact = HouseholderQR(work)
        perm = np.arange(n)
        norms0 = np.sqrt(np.einsum("ij,ij->j", work, work))
        scale = norms0.max() if n else 0.0
        rank = 0
        for i in range(min(m, n)):
            residual_norms = fact.trailing_column_norms()
            j_rel = int(np.argmax(residual_norms))
            if residual_norms[j_rel] <= tol * max(scale, 1.0):
                break
            j = i + j_rel
            fact.swap_columns(i, j)
            perm[[i, j]] = perm[[j, i]]
            fact.step()
            rank += 1
        r = np.triu(fact.a[:rank, :]) if rank else np.zeros((0, n))
        return perm, rank, r

    perm, rank, r = pivot_loop(x)
    return _guarded(x, perm, rank, r, guard, pivot_loop)


def qrcp_specialized(
    x: np.ndarray, alpha: float, guard: Optional["GuardConfig"] = None
) -> QRCPResult:
    """Algorithm 2: QRCP with the expectation-closeness pivoting scheme."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {x.shape}")
    if alpha <= 0:
        raise ValueError("alpha must be positive")

    def pivot_loop(work: np.ndarray):
        m, n = work.shape
        beta = alpha * np.sqrt(m)  # norm of the all-alpha vector
        fact = HouseholderQR(work)
        perm = np.arange(n)
        rank = 0
        for i in range(min(m, n)):
            pivot = _get_pivot(fact, i, alpha, beta)
            if pivot < 0:
                break
            fact.swap_columns(i, pivot)
            perm[[i, pivot]] = perm[[pivot, i]]
            fact.step()
            rank += 1
        r = np.triu(fact.a[:rank, :]) if rank else np.zeros((0, n))
        return perm, rank, r

    perm, rank, r = pivot_loop(x)
    return _guarded(x, perm, rank, r, guard, pivot_loop)


def _get_pivot(fact: HouseholderQR, i: int, alpha: float, beta: float) -> int:
    """The paper's ``get_pivot``: minimum score, tie-broken by norm then
    position; -1 when every candidate is below the beta cutoff."""
    n = fact.n
    if i >= n:
        return -1
    residual_norms = fact.trailing_column_norms()  # over columns i:
    eligible = residual_norms >= beta
    if not eligible.any():
        return -1
    candidates = fact.a[:, i:]
    scores = score_columns(candidates, alpha)
    scores = np.where(eligible, scores, np.inf)
    best_score = scores.min()
    tied = np.flatnonzero(scores == best_score)
    if tied.size > 1:
        tied_norms = residual_norms[tied]
        tied = tied[tied_norms == tied_norms.min()]
    return i + int(tied[0])
