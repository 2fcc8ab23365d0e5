"""Trusted-metric certification: leave-one-kernel-out cross-validation.

A composed metric definition is a least-squares fit over the selected
events' representations.  The fit can look confident — tiny backward
error, tidy coefficients — while actually balancing on a knife edge: a
near-rank-deficient selection lets wildly different coefficient vectors
produce almost the same residual, so the definition would not survive a
change of calibration data.  The certification stage measures exactly
that survival: drop one benchmark kernel row at a time, re-derive the
selected events' representations from the reduced expectation basis,
re-fit the metric, and compare.

A definition whose coefficients and backward error are stable across all
holdouts earns ``certified``; visible-but-bounded movement earns
``caution`` (use with care, the reasons say why); instability beyond the
reject threshold — or non-finite arithmetic anywhere — earns ``reject``.
Note this certifies the *definition and its error estimate*, not metric
goodness: a metric whose error is honestly 1.0 on every holdout (the
signature is orthogonal to everything measurable) is certified — the
pipeline's claim about it is trustworthy, which is the property
downstream consumers need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.guard.health import GuardConfig
from repro.linalg import HouseholderQR, default_rcond, lstsq_qr, solve_upper
from repro.linalg.lstsq import independent_columns

__all__ = ["TrustScore", "certify_metric", "holdout_folds"]


@dataclass(frozen=True)
class TrustScore:
    """Machine-checkable trust stamp for one composed metric.

    Attributes
    ----------
    level:
        ``certified`` / ``caution`` / ``reject``.
    reasons:
        Why the level is not ``certified`` (empty when it is).
    coefficient_spread:
        Max over holdouts of the inf-norm coefficient deviation from the
        full fit, relative to ``max(||y||_inf, 1)``.
    error_spread:
        Max over holdouts of ``|error_holdout - error_full|``.
    n_holdouts:
        Leave-one-kernel-out refits actually performed.
    n_skipped:
        Holdouts skipped because removing the kernel row left the
        expectation basis rank-deficient (the fold is uninformative: no
        definition could be recalibrated without that kernel, so it says
        nothing about this one's stability).
    suspect_events:
        Events whose coefficients moved the most across holdouts
        (populated for caution/reject; what a strict-mode error names).
    """

    level: str
    reasons: Tuple[str, ...] = ()
    coefficient_spread: float = 0.0
    error_spread: float = 0.0
    n_holdouts: int = 0
    n_skipped: int = 0
    suspect_events: Tuple[str, ...] = ()

    @property
    def certified(self) -> bool:
        return self.level == "certified"

    def describe(self) -> str:
        tail = f" ({'; '.join(self.reasons)})" if self.reasons else ""
        return f"{self.level}{tail}"


def holdout_folds(
    basis_matrix: np.ndarray,
    selected_measurements: np.ndarray,
    config: GuardConfig = GuardConfig(),
    rcond: Optional[float] = None,
) -> List[Tuple[int, object]]:
    """Every leave-one-kernel-out fold of a domain, decided once for all
    its metrics: ``(held-out row, x_hat)``, where ``x_hat`` holds the
    selected events' representations re-derived without that row, or is
    ``None`` (rank-deficient: skipped) or the exception the re-derivation
    raised.  Empty when nothing is selected or too few rows remain.
    """
    e = np.asarray(basis_matrix, dtype=np.float64)
    m_sel = np.asarray(selected_measurements, dtype=np.float64)
    n_rows, n_dims = e.shape
    if m_sel.shape[1] == 0 or n_rows - 1 < n_dims:
        return []
    if rcond is None:
        rcond = default_rcond(n_rows - 1, n_dims)
    rows = np.arange(n_rows)
    if n_rows > config.certify_holdouts:
        rows = np.unique(
            np.linspace(0, n_rows - 1, config.certify_holdouts).round().astype(int)
        )
    folds = []
    for i in rows:
        keep = np.arange(n_rows) != i
        fact = HouseholderQR(e[keep])
        for _ in range(n_dims):
            fact.step()
        r = fact.r_factor()[:, :n_dims]
        # A kernel that solely witnesses some ideal event takes a basis
        # dimension with it: no definition can be recalibrated without it.
        x_hat = None
        if independent_columns(r, rcond).all():
            # Per column, exactly the arithmetic of a full-rank lstsq_qr,
            # so x_hat is bit-identical to one lstsq_qr per column.
            x_hat = np.empty((n_dims, m_sel.shape[1]))
            try:
                for j, column in enumerate(m_sel[keep].T):
                    x_hat[:, j] = solve_upper(r, fact.apply_qt(column)[:n_dims])
            except (ValueError, np.linalg.LinAlgError) as exc:
                x_hat = exc
        folds.append((int(i), x_hat))
    return folds


def certify_metric(
    metric_name: str,
    basis_matrix: np.ndarray,
    selected_measurements: np.ndarray,
    signature_coords: np.ndarray,
    event_names: Sequence[str],
    full_coefficients: np.ndarray,
    full_error: float,
    config: GuardConfig = GuardConfig(),
    rcond: Optional[float] = None,
    degraded: bool = False,
    guards_fired: Sequence[str] = (),
    folds: Optional[Sequence[Tuple[int, object]]] = None,
) -> TrustScore:
    """Cross-validate one metric definition on held-out kernels.

    Parameters
    ----------
    basis_matrix:
        The expectation basis ``E`` (kernel rows x dimensions).
    selected_measurements:
        Measurement columns of the QRCP-selected events
        (kernel rows x selected), in ``event_names`` order.
    signature_coords:
        The metric's signature in expectation coordinates.
    full_coefficients / full_error:
        The production fit being certified (computed over all rows).
    degraded / guards_fired:
        Upstream caveats folded into the verdict: a fault-degraded
        selection or a fired conditioning guard caps the level at
        ``caution`` even if the holdout spreads are clean.
    folds:
        The domain's :func:`holdout_folds`, shared by every metric
        composed over the same selection; built here when not given.
    """
    e = np.asarray(basis_matrix, dtype=np.float64)
    m_sel = np.asarray(selected_measurements, dtype=np.float64)
    coords = np.asarray(signature_coords, dtype=np.float64)
    y_full = np.asarray(full_coefficients, dtype=np.float64)
    n_rows, n_dims = e.shape

    reasons: List[str] = []
    if not np.isfinite(y_full).all() or not np.isfinite(full_error):
        return TrustScore(
            level="reject",
            reasons=("fit produced non-finite coefficients or error",),
            suspect_events=tuple(event_names),
        )
    if m_sel.shape[1] == 0:
        # Nothing was selected; the (empty) definition is vacuously exact
        # and there is nothing to cross-validate.
        return TrustScore(level="certified", n_holdouts=0)
    if n_rows - 1 < n_dims:
        return TrustScore(
            level="caution",
            reasons=(
                f"cannot cross-validate: holding out a kernel leaves "
                f"{n_rows - 1} rows for {n_dims} basis dimensions",
            ),
        )

    scale = max(float(np.abs(y_full).max()), 1.0)
    coeff_spread = 0.0
    error_spread = 0.0
    per_event_dev = np.zeros(len(event_names))
    if folds is None:
        folds = holdout_folds(e, m_sel, config, rcond)
    skipped = 0
    performed = 0
    for i, x_hat in folds:
        if x_hat is None:
            skipped += 1
            continue
        performed += 1
        try:
            if isinstance(x_hat, Exception):
                raise x_hat
            fit = lstsq_qr(x_hat, coords, rcond=rcond)
            finite = np.isfinite(fit.x).all() and np.isfinite(fit.backward_error)
            failure = None if finite else "produced non-finite values"
        except (ValueError, np.linalg.LinAlgError) as exc:
            failure = f"failed: {exc}"
        if failure is not None:
            return TrustScore(
                level="reject",
                reasons=(f"holdout refit without kernel row {i} {failure}",),
                n_holdouts=performed,
                n_skipped=skipped,
                suspect_events=tuple(event_names),
            )
        dev = np.abs(fit.x - y_full)
        per_event_dev = np.maximum(per_event_dev, dev)
        coeff_spread = max(coeff_spread, float(dev.max()) / scale)
        error_spread = max(error_spread, abs(fit.backward_error - full_error))

    if performed == 0:
        return TrustScore(
            level="caution",
            reasons=(
                "cannot cross-validate: every holdout fold leaves the "
                "expectation basis rank-deficient",
            ),
            n_skipped=skipped,
        )

    suspects: Tuple[str, ...] = ()
    if coeff_spread > config.certify_coeff_tol:
        worst = np.argsort(per_event_dev)[::-1]
        suspects = tuple(
            event_names[int(j)]
            for j in worst
            if per_event_dev[int(j)] / scale > config.certify_coeff_tol
        )
        reasons.append(
            f"coefficient spread {coeff_spread:.2e} across {performed} "
            f"leave-one-kernel-out refits exceeds "
            f"{config.certify_coeff_tol:g}"
        )
    if error_spread > config.certify_error_tol:
        reasons.append(
            f"backward-error spread {error_spread:.2e} across holdouts "
            f"exceeds {config.certify_error_tol:g}"
        )
    if degraded:
        reasons.append("composed over a fault-degraded selection")
    for guard in guards_fired:
        reasons.append(f"conditioning guard fired: {guard}")

    if coeff_spread > config.reject_coeff_tol:
        level = "reject"
        reasons.insert(
            0,
            f"coefficient spread {coeff_spread:.2e} exceeds the reject "
            f"threshold {config.reject_coeff_tol:g}: the definition does "
            "not survive recalibration",
        )
    elif reasons:
        level = "caution"
    else:
        level = "certified"
    return TrustScore(
        level=level,
        reasons=tuple(reasons),
        coefficient_spread=coeff_spread,
        error_spread=error_spread,
        n_holdouts=performed,
        n_skipped=skipped,
        suspect_events=suspects,
    )
