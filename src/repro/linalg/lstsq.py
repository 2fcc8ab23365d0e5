"""Least squares via our Householder QR, with the paper's fitness measure.

The pipeline solves two families of least-squares problems:

1. *Representation*: ``E x_e = m_e`` projects a raw-event measurement vector
   onto the expectation basis (paper Section III-B).
2. *Metric composition*: ``X-hat y = s`` combines the QRCP-chosen events to
   match a metric signature (paper Section VI).

Both need the residual and the Equation-5 backward error alongside the
solution, so :func:`lstsq_qr` returns a :class:`LstsqResult` bundling them.

Rank-deficient systems are handled by truncating negligible diagonal entries
of R (a pivoting-free variant of the usual QR-with-column-pivoting approach;
adequate here because the QRCP stage has already removed dependent columns
from the matrices this solver sees in the metric-composition path).  The
truncation threshold follows the LAPACK convention by default:
``rcond = max(m, n) * eps`` relative to the largest diagonal magnitude of R
(a proxy for ``||A||``), instead of a hardcoded absolute constant.

With a :class:`~repro.guard.health.GuardConfig`, the solve carries a
conditioning sentinel: the triangular factor's condition number is
estimated, and when it crosses the configured threshold a fallback ladder
engages — column-scaled re-factorization, then one step of iterative
refinement in float64 and again in longdouble — with every rung recorded
in the result's :class:`~repro.guard.health.NumericalHealth`.  Below the
threshold the guard is pure observation and the solution is bit-identical
to the unguarded path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.linalg.householder import HouseholderQR
from repro.linalg.norms import backward_error, vector_norm
from repro.linalg.triangular import solve_upper
from repro.obs import get_tracer

if TYPE_CHECKING:
    from repro.guard.health import GuardConfig, NumericalHealth

__all__ = ["LstsqResult", "default_rcond", "independent_columns", "lstsq_qr"]


@dataclass(frozen=True)
class LstsqResult:
    """Solution bundle for an ``A x ~= b`` least-squares problem.

    Attributes
    ----------
    x:
        The minimum-residual solution (with zeros in directions truncated
        for rank deficiency).
    residual_norm:
        ``||A x - b||_2``.
    relative_residual:
        ``||A x - b||_2 / ||b||_2`` (defined as 0 when ``b`` is zero).
    backward_error:
        The paper's Equation 5: ``||A x - b|| / (||A||_2 ||x|| + ||b||)``.
    rank:
        Numerical rank used for the solve.
    health:
        Conditioning sentinel readings (only populated when the solve ran
        under a guard config; ``None`` otherwise).
    """

    x: np.ndarray
    residual_norm: float
    relative_residual: float
    backward_error: float
    rank: int
    health: Optional["NumericalHealth"] = None


def default_rcond(m: int, n: int) -> float:
    """The LAPACK-convention truncation threshold ``max(m, n) * eps``.

    Applied relative to ``max|diag(R)|`` (which tracks ``||A||`` for the
    QR of a column-pivoted or well-scaled matrix), this scales the rank
    decision with both the problem size and the data magnitude instead of
    freezing an absolute cutoff.
    """
    return max(m, n) * float(np.finfo(np.float64).eps)


def independent_columns(r: np.ndarray, rcond: float) -> np.ndarray:
    """The rank-truncation rule every rank decision for this solver uses:
    column ``j`` of the triangle ``R`` counts when
    ``|R[j, j]| > rcond * max|diag(R)|``."""
    diag = np.abs(np.diag(r))
    return diag > rcond * (diag.max() if diag.size else 0.0)


def _qr_solve(
    a: np.ndarray, b: np.ndarray, rcond: float
) -> Tuple[np.ndarray, int, np.ndarray]:
    """Factor ``A`` and solve with diagonal truncation.

    Returns ``(x, rank, r)`` where ``r`` is the ``(n, n)`` triangle used
    for conditioning sentinels.
    """
    m, n = a.shape
    fact = HouseholderQR(a)
    for _ in range(n):
        fact.step()
    qtb = fact.apply_qt(b)
    r = fact.r_factor()[:, :n]
    keep = independent_columns(r, rcond)
    rank = int(keep.sum())

    x = np.zeros(n)
    if rank == n:
        x = solve_upper(r, qtb[:n])
    elif rank > 0:
        # Rank-deficient: minimize over the independent columns only, using
        # *all* rows of R (an independent column may have R entries in rows
        # belonging to truncated columns).  The sub-matrix has full column
        # rank, so the recursive call terminates after one level.
        idx = np.flatnonzero(keep)
        sub = lstsq_qr(r[:, idx], qtb[:n], rcond=rcond)
        x[idx] = sub.x
    return x, rank, r


def _refine(
    a: np.ndarray,
    b: np.ndarray,
    x: np.ndarray,
    solve_residual,
    dtype,
) -> np.ndarray:
    """One iterative-refinement step: the residual is computed in
    ``dtype`` (float64 or longdouble) and the correction comes from the
    already-factorized system via ``solve_residual``."""
    residual = b.astype(dtype) - a.astype(dtype) @ x.astype(dtype)
    dx = solve_residual(np.asarray(residual, dtype=np.float64))
    return np.asarray(x.astype(dtype) + dx.astype(dtype), dtype=np.float64)


def lstsq_qr(
    a: np.ndarray,
    b: np.ndarray,
    rcond: Optional[float] = None,
    guard: Optional["GuardConfig"] = None,
) -> LstsqResult:
    """Solve ``min_x ||A x - b||_2`` using the in-house Householder QR.

    Parameters
    ----------
    a:
        An ``(m, n)`` matrix with ``m >= n``.
    b:
        A right-hand-side vector of length ``m``.
    rcond:
        Diagonal entries of R smaller than ``rcond * max|diag(R)|`` are
        treated as zero (rank truncation); the corresponding solution
        entries are set to zero.  ``None`` (default) uses the LAPACK
        convention ``max(m, n) * eps`` (see :func:`default_rcond`).
    guard:
        A :class:`~repro.guard.health.GuardConfig`; when given (and
        enabled), the solve estimates the conditioning of R, and crosses
        into the fallback ladder — column-scaled re-factorization plus
        iterative refinement in float64 then longdouble — when the
        estimate exceeds ``guard.condition_threshold``.  The resulting
        :class:`~repro.guard.health.NumericalHealth` is attached to the
        returned :class:`LstsqResult`.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    m, n = a.shape
    if b.shape != (m,):
        raise ValueError(f"rhs shape {b.shape} does not match matrix rows {m}")
    if m < n:
        raise ValueError(
            f"lstsq_qr requires m >= n (got {a.shape}); the pipeline never "
            "produces underdetermined systems"
        )
    if rcond is None:
        rcond = default_rcond(m, n)
    if n == 0:
        res = vector_norm(b)
        rel = 0.0 if res == 0.0 else 1.0
        return LstsqResult(
            x=np.zeros(0),
            residual_norm=res,
            relative_residual=rel,
            backward_error=0.0 if res == 0.0 else 1.0,
            rank=0,
        )

    x, rank, r = _qr_solve(a, b, rcond)

    health: Optional["NumericalHealth"] = None
    if guard is not None and guard.enabled:
        from repro.guard.health import triangular_health

        health = triangular_health(
            r, original=a, refine_iterations=guard.refine_iterations
        )
        if health.condition_estimate > guard.condition_threshold:
            x, health = _fallback_ladder(a, b, x, rcond, guard, health)

    resid = vector_norm(a @ x - b)
    b_norm = vector_norm(b)
    rel = 0.0 if b_norm == 0.0 else resid / b_norm
    bwd = backward_error(a, x, b)
    if health is not None:
        health = replace(health, residual_bound=bwd)
    return LstsqResult(
        x=x,
        residual_norm=resid,
        relative_residual=rel,
        backward_error=bwd,
        rank=rank,
        health=health,
    )


def _fallback_ladder(
    a: np.ndarray,
    b: np.ndarray,
    x0: np.ndarray,
    rcond: float,
    guard: "GuardConfig",
    health: "NumericalHealth",
) -> Tuple[np.ndarray, "NumericalHealth"]:
    """The guarded solve for an ill-conditioned system.

    Rung 1: column-scaled re-factorization — equilibrating the columns
    removes the artificial conditioning contributed by wildly different
    event magnitudes (often orders of magnitude in raw counters).
    Rung 2: one iterative-refinement step per ``max_refinements`` with the
    residual in float64.
    Rung 3: the same with the residual accumulated in longdouble, which
    recovers the digits float64 cancellation destroyed.  Every rung is
    recorded; the caller keeps whichever solution has the smaller
    backward error (never worse than the unguarded one).
    """
    from repro.guard.health import triangular_health

    fired = list(health.guards_fired)
    norms = np.sqrt(np.einsum("ij,ij->j", a, a))
    scale = np.where(norms > 0.0, norms, 1.0)
    a_scaled = a / scale
    fired.append("column-scaling")
    z, rank, r_scaled = _qr_solve(a_scaled, b, rcond)
    x = z / scale

    def solve_residual(res: np.ndarray) -> np.ndarray:
        dz, _, _ = _qr_solve(a_scaled, res, rcond)
        return dz / scale

    iterations = 0
    for _ in range(guard.max_refinements):
        fired.append("iterative-refinement-float64")
        x = _refine(a, b, x, solve_residual, np.float64)
        iterations += 1
        fired.append("iterative-refinement-longdouble")
        x = _refine(a, b, x, solve_residual, np.longdouble)
        iterations += 1

    # Keep the better of (unguarded, guarded) by backward error: the
    # ladder must never make a solution worse.
    if backward_error(a, x, b) > backward_error(a, x0, b):
        x = x0
        fired.append("fallback-discarded")

    scaled_health = triangular_health(
        r_scaled, original=a_scaled, refine_iterations=guard.refine_iterations
    )
    tracer = get_tracer()
    for rung in fired[len(health.guards_fired):]:
        tracer.incr(f"guard.fired.{rung}")
    return x, replace(
        health,
        condition_estimate=health.condition_estimate,
        rank_gap=max(health.rank_gap, scaled_health.rank_gap),
        suspect_columns=tuple(
            sorted(set(health.suspect_columns) | set(scaled_health.suspect_columns))
        ),
        refinement_iterations=iterations,
        guards_fired=tuple(fired),
    )
