"""Leave-one-kernel-out certification: stable fits certify, fragile ones
degrade, and uninformative folds are skipped — not failed."""

import numpy as np
import pytest

from repro.guard import GuardConfig, TrustScore, certify_metric
from repro.guard.certify import holdout_folds
from repro.linalg import lstsq_qr

# A well-conditioned 6x2 expectation basis: every dimension witnessed by
# several kernels, so no holdout is degenerate.
BASIS = np.array(
    [
        [1.0, 0.0],
        [0.0, 1.0],
        [1.0, 1.0],
        [1.0, -1.0],
        [2.0, 1.0],
        [1.0, 2.0],
    ]
)
#: Event representations (exact): two independent directions.
W = np.array([[1.0, 0.25], [0.5, 1.0]])
COORDS = np.array([1.0, 1.0])
EVENTS = ["EV_A", "EV_B"]


def _full_fit(e, m_sel, coords, rcond=None):
    x_hat = np.column_stack(
        [lstsq_qr(e, m_sel[:, j], rcond=rcond).x for j in range(m_sel.shape[1])]
    )
    fit = lstsq_qr(x_hat, coords, rcond=rcond)
    return fit.x, fit.backward_error


class TestCertified:
    def test_exact_data_certifies(self):
        m_sel = BASIS @ W
        y, err = _full_fit(BASIS, m_sel, COORDS)
        trust = certify_metric(
            "m", BASIS, m_sel, COORDS, EVENTS, y, err
        )
        assert trust.level == "certified"
        assert trust.certified
        assert trust.reasons == ()
        assert trust.n_holdouts == BASIS.shape[0]
        assert trust.n_skipped == 0
        assert trust.coefficient_spread == pytest.approx(0.0, abs=1e-9)

    def test_empty_selection_is_vacuously_certified(self):
        trust = certify_metric(
            "m",
            BASIS,
            np.zeros((6, 0)),
            COORDS,
            [],
            np.zeros(0),
            1.0,
        )
        assert trust.level == "certified"
        assert trust.n_holdouts == 0


class TestDegradation:
    def _noisy(self):
        rng = np.random.default_rng(11)
        m_sel = BASIS @ W + 0.05 * rng.standard_normal((6, 2))
        y, err = _full_fit(BASIS, m_sel, COORDS)
        return m_sel, y, err

    def test_tight_tolerance_yields_caution(self):
        m_sel, y, err = self._noisy()
        config = GuardConfig(certify_coeff_tol=1e-12, reject_coeff_tol=1e6)
        trust = certify_metric(
            "m", BASIS, m_sel, COORDS, EVENTS, y, err, config=config
        )
        assert trust.level == "caution"
        assert any("coefficient spread" in r for r in trust.reasons)
        assert trust.suspect_events  # the unstable events are named

    def test_reject_threshold(self):
        m_sel, y, err = self._noisy()
        config = GuardConfig(
            certify_coeff_tol=1e-12, reject_coeff_tol=1e-12
        )
        trust = certify_metric(
            "m", BASIS, m_sel, COORDS, EVENTS, y, err, config=config
        )
        assert trust.level == "reject"
        assert any("does not survive recalibration" in r for r in trust.reasons)

    def test_nonfinite_fit_is_rejected(self):
        trust = certify_metric(
            "m",
            BASIS,
            BASIS @ W,
            COORDS,
            EVENTS,
            np.array([np.nan, 1.0]),
            0.0,
        )
        assert trust.level == "reject"
        assert "non-finite" in trust.reasons[0]
        assert trust.suspect_events == tuple(EVENTS)

    def test_upstream_guard_caps_at_caution(self):
        m_sel = BASIS @ W
        y, err = _full_fit(BASIS, m_sel, COORDS)
        trust = certify_metric(
            "m",
            BASIS,
            m_sel,
            COORDS,
            EVENTS,
            y,
            err,
            guards_fired=("column-scaling",),
        )
        assert trust.level == "caution"
        assert any("column-scaling" in r for r in trust.reasons)

    def test_degraded_selection_caps_at_caution(self):
        m_sel = BASIS @ W
        y, err = _full_fit(BASIS, m_sel, COORDS)
        trust = certify_metric(
            "m", BASIS, m_sel, COORDS, EVENTS, y, err, degraded=True
        )
        assert trust.level == "caution"
        assert any("fault-degraded" in r for r in trust.reasons)


class TestIdentifiabilitySkips:
    def test_sole_witness_fold_is_skipped_not_failed(self):
        # Kernel row 2 is the only witness of dimension 1: holding it out
        # collapses the basis, so that fold carries no stability evidence.
        e = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        w = np.array([[1.0], [1.0]])
        m_sel = e @ w
        y, err = _full_fit(e, m_sel, COORDS)
        trust = certify_metric("m", e, m_sel, COORDS, ["EV_A"], y, err)
        assert trust.level == "certified"
        assert trust.n_holdouts == 2
        assert trust.n_skipped == 1

    def test_no_informative_fold_is_caution(self):
        # Every kernel row measures the same direction: the full basis is
        # already rank-deficient and every fold stays so.
        e = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        m_sel = np.array([[1.0], [2.0], [3.0]])
        trust = certify_metric(
            "m", e, m_sel, COORDS, ["EV_A"], np.array([1.0]), 0.0
        )
        assert trust.level == "caution"
        assert trust.n_holdouts == 0
        assert trust.n_skipped == 3
        assert any("rank-deficient" in r for r in trust.reasons)

    def test_too_few_rows_to_hold_out(self):
        e = np.eye(2)
        trust = certify_metric(
            "m",
            e,
            np.ones((2, 1)),
            np.ones(2),
            ["EV_A"],
            np.array([1.0]),
            0.0,
        )
        assert trust.level == "caution"
        assert any("cannot cross-validate" in r for r in trust.reasons)


class TestTrustScore:
    def test_describe(self):
        assert TrustScore(level="certified").describe() == "certified"
        stamped = TrustScore(level="caution", reasons=("a", "b"))
        assert stamped.describe() == "caution (a; b)"


def _domain_inputs(result):
    """The basis and selected measurement columns a pipeline run
    certified against (the compose stage's ``E`` and ``m_sel``)."""
    matrix = result.measurement.select_events(result.noise.kept).measurement_matrix()
    kept = {name: i for i, name in enumerate(result.noise.kept)}
    m_sel = matrix[:, [kept[name] for name in result.selected_events]]
    return result.representation.basis, m_sel


def _certify_all(result, basis, m_sel, folds=None):
    return {
        name: certify_metric(
            name,
            basis.matrix,
            m_sel,
            definition.signature.coords,
            result.selected_events,
            definition.coefficients,
            definition.error,
            rcond=result.config.lstsq_rcond,
            folds=folds,
        )
        for name, definition in result.metrics.items()
    }


class TestSharedFolds:
    """One fold list per domain, shared by every metric, certifies
    exactly as each metric deciding its own folds."""

    def test_shared_folds_equal_per_metric_folds_on_branch(self, branch_result):
        basis, m_sel = _domain_inputs(branch_result)
        folds = holdout_folds(
            basis.matrix, m_sel, GuardConfig(), branch_result.config.lstsq_rcond
        )
        # The sole-witness fold is skipped for every metric.
        skipped = [basis.row_labels[row] for row, x_hat in folds if x_hat is None]
        assert skipped == ["k10_unconditional"]
        shared = _certify_all(branch_result, basis, m_sel, folds)
        assert shared == _certify_all(branch_result, basis, m_sel)
        assert shared == {
            name: definition.trust
            for name, definition in branch_result.metrics.items()
        }
        assert all(trust.n_skipped == 1 for trust in shared.values())

    def test_fold_x_hat_is_bit_identical_to_per_column_lstsq(self):
        rng = np.random.default_rng(3)
        m_sel = BASIS @ W + 0.05 * rng.standard_normal((6, 2))
        for row, x_hat in holdout_folds(BASIS, m_sel):
            keep = np.arange(BASIS.shape[0]) != row
            want = np.column_stack(
                [lstsq_qr(BASIS[keep], m_sel[keep][:, j]).x for j in range(2)]
            )
            assert x_hat.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "e, m_sel",
        [
            (BASIS, np.zeros((6, 0))),  # empty selection
            (np.eye(2), np.ones((2, 1))),  # too few rows to hold one out
        ],
        ids=["empty-selection", "too-few-rows"],
    )
    def test_nothing_to_fold(self, e, m_sel):
        assert holdout_folds(e, m_sel) == []
        names = ["EV_A"] * m_sel.shape[1]
        args = ("m", e, m_sel, np.ones(2), names, np.ones(m_sel.shape[1]), 0.0)
        assert certify_metric(*args, folds=[]) == certify_metric(*args)

    def test_each_reduced_basis_is_factored_once_for_all_metrics(self, monkeypatch):
        import repro.guard.certify as certify_module
        import repro.linalg.lstsq as lstsq_module

        e = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
                [1.0, 1.0, 0.0],
                [0.0, 1.0, 1.0],
                [1.0, 0.0, 1.0],
                [1.0, 1.0, 1.0],
            ]
        )
        m_sel = e @ np.array([[1.0, 0.25], [0.5, 1.0], [0.0, 0.5]])
        metrics = [
            np.array([1.0, 1.0, 0.0]),
            np.array([0.0, 1.0, 1.0]),
            np.array([1.0, 2.0, 3.0]),
        ]
        fits = [_full_fit(e, m_sel, coords) for coords in metrics]

        shapes = []
        rule = lstsq_module.independent_columns

        def counted(r, rcond):
            shapes.append(r.shape)
            return rule(r, rcond)

        monkeypatch.setattr(certify_module, "independent_columns", counted)
        monkeypatch.setattr(lstsq_module, "independent_columns", counted)
        folds = holdout_folds(e, m_sel)
        for coords, (y, err) in zip(metrics, fits):
            trust = certify_metric("m", e, m_sel, coords, EVENTS, y, err, folds=folds)
            assert trust.certified and trust.n_holdouts == e.shape[0]
        # One rank decision per fold on the 3-dim reduced basis; every
        # other factorization is a metric's 2-column refit over x_hat.
        assert shapes.count((3, 3)) == len(folds) == e.shape[0]
        assert shapes.count((2, 2)) == len(metrics) * len(folds)

    def test_failed_rederivation_rejects_every_metric_alike(self, monkeypatch):
        import repro.guard.certify as certify_module

        def broken(r, b):
            raise np.linalg.LinAlgError("injected")

        monkeypatch.setattr(certify_module, "solve_upper", broken)
        m_sel = BASIS @ W
        folds = holdout_folds(BASIS, m_sel)
        verdicts = {
            certify_metric(
                "m", BASIS, m_sel, coords, EVENTS, np.ones(2), 0.0, folds=folds
            )
            for coords in (COORDS, np.array([1.0, -1.0]), np.array([0.0, 2.0]))
        }
        assert verdicts == {
            TrustScore(
                level="reject",
                reasons=("holdout refit without kernel row 0 failed: injected",),
                n_holdouts=1,
                suspect_events=tuple(EVENTS),
            )
        }

    def test_failed_rederivation_does_not_raise_out_of_the_pipeline(
        self, monkeypatch, aurora
    ):
        import repro.guard.certify as certify_module
        from repro import AnalysisPipeline

        def broken(r, b):
            raise np.linalg.LinAlgError("injected")

        monkeypatch.setattr(certify_module, "solve_upper", broken)
        result = AnalysisPipeline.for_domain("branch", aurora).run()
        trusts = {definition.trust for definition in result.metrics.values()}
        assert len(trusts) == 1
        (trust,) = trusts
        assert trust.level == "reject"
        assert trust.reasons[0].endswith("failed: injected")
