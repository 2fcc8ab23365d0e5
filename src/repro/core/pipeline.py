"""The end-to-end analysis pipeline.

Ties the paper's stages together, in order:

1. **Measure** (Section III): run a CAT benchmark over repetitions,
   reading every in-scope raw event through the PMU.
2. **De-noise values** (Sections IV/VII): collapse threads by median.
3. **Discard irrelevant events**: all-zero measurements (footnote 1).
4. **Filter noisy events** (Section IV): max-RNMSE vs the threshold tau.
5. **Represent** (Section III-B): project measurement vectors onto the
   expectation basis; reject events with large residual.
6. **Select** (Section V): specialized QRCP with tolerance alpha picks a
   linearly independent, expectation-aligned subset X-hat.
7. **Compose** (Section VI): least-squares fit of each metric signature
   over X-hat, with the Equation-5 backward error as fitness; coefficients
   optionally rounded (Section VI-D).
8. **Emit** PAPI-style preset definitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.cat import (
    BenchmarkRunner,
    BranchBenchmark,
    CPUFlopsBenchmark,
    DCacheBenchmark,
    GPUFlopsBenchmark,
    MeasurementSet,
)
from repro.core.basis import (
    ExpectationBasis,
    branch_basis,
    cpu_flops_basis,
    dcache_basis,
    dtlb_basis,
    gpu_flops_basis,
)
from repro.core.metrics import MetricDefinition, compose_metric, round_coefficients
from repro.core.noise_filter import NoiseReport, analyze_noise
from repro.core.qrcp import QRCPResult, qrcp_specialized
from repro.core.representation import RepresentationReport, represent_events
from repro.core.signatures import Signature, signatures_for
from repro.events.registry import EventRegistry
from repro.guard import GuardConfig, GuardViolation, certify_metric, require_finite
from repro.guard.certify import holdout_folds
from repro.hardware.systems import MachineNode
from repro.obs import get_tracer
from repro.papi.presets import PresetTable

if TYPE_CHECKING:
    from repro.faults import (
        FaultConfig,
        FaultInjector,
        RobustnessReport,
        ScrubPolicy,
    )
    from repro.io.cache import MeasurementCache
    from repro.obs import Trace
    from repro.vet.priors import TrustPriors

__all__ = ["AnalysisPipeline", "PipelineConfig", "PipelineResult"]


@dataclass(frozen=True)
class PipelineConfig:
    """Stage thresholds (paper values per domain via ``for_domain``)."""

    tau: float = 1e-10  # noise threshold (Section IV)
    alpha: float = 5e-4  # QRCP rounding tolerance (Section V)
    representation_threshold: float = 1e-6  # relative residual cap (III-B)
    repetitions: int = 5
    round_snap_tol: float = 0.05  # Section VI-D coefficient snapping
    round_zero_tol: float = 0.02
    # Reuse measurements through the content-addressed cache
    # (repro.io.cache); safe because the substrate is bit-deterministic —
    # the cache key covers everything a reading depends on.
    use_measurement_cache: bool = False
    # How many times the measurement stage may be re-attempted after a
    # transient failure or an irreparably corrupted reading (only
    # exercised when a fault injector or scrub policy is active).
    max_measure_retries: int = 2
    # Rank-truncation threshold for the least-squares solves; None uses
    # the LAPACK convention max(m, n) * eps (repro.linalg.default_rcond).
    lstsq_rcond: Optional[float] = None
    # Numerical-robustness layer: conditioning sentinels on the QRCP and
    # composition solves, fallback ladders past the thresholds, and
    # leave-one-kernel-out certification of every composed metric.
    guard: GuardConfig = GuardConfig()
    # Strict mode: raise GuardViolation (naming the offending events)
    # instead of returning metrics whose trust stamp is ``reject``.
    strict: bool = False

    def __post_init__(self) -> None:
        if self.tau <= 0 or self.alpha <= 0 or self.representation_threshold <= 0:
            raise ValueError("thresholds must be positive")
        if self.repetitions < 2:
            raise ValueError("need at least two repetitions")
        if self.max_measure_retries < 0:
            raise ValueError("max_measure_retries must be >= 0")
        if self.lstsq_rcond is not None and self.lstsq_rcond <= 0:
            raise ValueError("lstsq_rcond must be positive (or None for default)")
        if not isinstance(self.guard, GuardConfig):
            raise ValueError("guard must be a GuardConfig")

    def digest(self) -> str:
        """Content address of every knob that shapes the analysis output.

        The frozen-dataclass repr covers all thresholds (including the
        nested :class:`GuardConfig`), so two configs digest equal exactly
        when every analysis-relevant field matches.  ``use_measurement_cache``
        is excluded: the cache returns bit-identical measurements, so it
        cannot change a result — and the metric catalog
        (:mod:`repro.serve`) must key a cached run and an uncached run of
        the same thresholds to the same entry.

        Memoized: the serve layer digests the config on every catalog
        lookup, and the instance is frozen, so hash once.
        """
        cached = getattr(self, "_digest_cache", None)
        if cached is not None:
            return cached
        from dataclasses import replace as _replace

        from repro.io.digest import json_digest

        normalized = _replace(self, use_measurement_cache=False)
        digest = json_digest({"pipeline_config": repr(normalized)}, length=16)
        object.__setattr__(self, "_digest_cache", digest)
        return digest


#: Paper-stated thresholds per benchmark domain.
DOMAIN_CONFIGS: Dict[str, PipelineConfig] = {
    "cpu_flops": PipelineConfig(tau=1e-10, alpha=5e-4),
    "gpu_flops": PipelineConfig(tau=1e-10, alpha=5e-4),
    "branch": PipelineConfig(tau=1e-10, alpha=5e-4),
    "dcache": PipelineConfig(tau=1e-1, alpha=5e-2, representation_threshold=0.25),
    # Extension domain: translation events share the cache noise regime.
    "dtlb": PipelineConfig(tau=1e-1, alpha=5e-2, representation_threshold=0.25),
}


@dataclass
class PipelineResult:
    """Everything the analysis produced, stage by stage."""

    domain: str
    config: PipelineConfig
    measurement: MeasurementSet
    noise: NoiseReport
    representation: RepresentationReport
    qrcp: QRCPResult
    selected_events: List[str]
    x_hat: np.ndarray
    metrics: Dict[str, MetricDefinition]
    rounded_metrics: Dict[str, MetricDefinition]
    presets: PresetTable
    # Fault-injection audit (None when the pipeline ran unfaulted) and
    # whether events were lost to corruption along the way.
    robustness: Optional["RobustnessReport"] = None
    degraded: bool = False
    # Observability handle: the span tree and counter totals recorded for
    # this run (None unless the run executed inside an ``obs.tracing``
    # scope — tracing is off-by-default and costs nothing when off).
    trace: Optional["Trace"] = None

    def metric(self, name: str) -> MetricDefinition:
        try:
            return self.metrics[name]
        except KeyError:
            raise KeyError(
                f"metric {name!r} not composed; available: {sorted(self.metrics)}"
            ) from None

    def summary(self) -> str:
        lines = [
            f"domain: {self.domain}"
            + ("  [DEGRADED: events lost to faults]" if self.degraded else ""),
            f"events measured: {self.noise.n_measured}",
            f"  all-zero (discarded): {len(self.noise.discarded_zero)}",
            f"  noisy (> tau={self.config.tau:g}): {len(self.noise.noisy)}",
            *(
                [f"  excluded by vet prior: {len(self.noise.excluded_by_prior)}"]
                if self.noise.excluded_by_prior
                else []
            ),
            f"  unrepresentable (> {self.config.representation_threshold:g}): "
            f"{len(self.representation.rejected)}",
            f"selected by QRCP (alpha={self.config.alpha:g}): "
            f"{len(self.selected_events)}",
        ]
        for name in self.selected_events:
            lines.append(f"  {name}")
        if self.qrcp.health is not None:
            lines.append(f"  numerical health: {self.qrcp.health.describe()}")
        lines.append("metrics:")
        for metric in self.metrics.values():
            status = "ok" if metric.composable else "NOT COMPOSABLE"
            trust = (
                f"  trust={metric.trust.describe()}"
                if metric.trust is not None
                else ""
            )
            lines.append(
                f"  {metric.metric:<40} error {metric.error:.2e}  "
                f"[{status}]{trust}"
            )
        if self.trace is not None:
            lines.append(self.trace.footer())
        return "\n".join(lines)


class AnalysisPipeline:
    """Configured, reusable analysis for one benchmark domain on one node."""

    def __init__(
        self,
        node: MachineNode,
        benchmark,
        basis: ExpectationBasis,
        signatures: Sequence[Signature],
        config: PipelineConfig = PipelineConfig(),
        events: Optional[EventRegistry] = None,
        cache: Optional["MeasurementCache"] = None,
        faults: Optional[object] = None,
        scrub_policy: Optional["ScrubPolicy"] = None,
        priors: Optional["TrustPriors"] = None,
    ):
        self.node = node
        self.benchmark = benchmark
        self.basis = basis
        self.signatures = list(signatures)
        self.config = config
        self.events = events
        # Counter-validation trust priors (repro.vet).  Applied strictly by
        # exclusion after the tau filter, so a run with no priors — or with
        # priors that refute nothing — is bit-identical to today's
        # pipeline (property-tested).  Not part of PipelineConfig: the
        # config digest keys the catalog, and priors must not re-key
        # entries whose analysis output they leave untouched.
        self.priors = priors
        # Used only when config.use_measurement_cache is set; None means
        # the process-wide default cache.
        self.cache = cache
        # Fault injection (a FaultConfig or FaultInjector) and the quorum
        # scrub policy.  With both None the pipeline is byte-for-byte the
        # unfaulted one; an active injector implies scrubbing.
        self._injector = self._as_injector(faults)
        self.scrub_policy = scrub_policy
        if tuple(benchmark.row_labels()) != tuple(basis.row_labels):
            raise ValueError(
                "benchmark kernel rows do not match the expectation basis rows; "
                "the analysis would compare incommensurate vectors"
            )

    @staticmethod
    def _as_injector(faults) -> Optional["FaultInjector"]:
        if faults is None:
            return None
        from repro.faults import FaultConfig, FaultInjector

        if isinstance(faults, FaultConfig):
            return FaultInjector(faults) if faults.enabled else None
        return faults if faults.enabled else None

    @classmethod
    def for_domain(
        cls,
        domain: str,
        node: MachineNode,
        config: Optional[PipelineConfig] = None,
        cache: Optional["MeasurementCache"] = None,
        faults: Optional[object] = None,
        scrub_policy: Optional["ScrubPolicy"] = None,
        events: Optional[EventRegistry] = None,
        priors: Optional["TrustPriors"] = None,
        **benchmark_kwargs,
    ) -> "AnalysisPipeline":
        """Standard wiring for the paper's four benchmark domains."""
        if domain == "cpu_flops":
            benchmark = CPUFlopsBenchmark(**benchmark_kwargs)
            basis = cpu_flops_basis()
        elif domain == "gpu_flops":
            benchmark = GPUFlopsBenchmark(**benchmark_kwargs)
            basis = gpu_flops_basis()
        elif domain == "branch":
            benchmark = BranchBenchmark(**benchmark_kwargs)
            basis = branch_basis()
        elif domain == "dcache":
            # The footprint sweep adapts to the node's cache geometry.
            benchmark_kwargs.setdefault("cpu_config", getattr(node.machine, "config", None))
            benchmark = DCacheBenchmark(**benchmark_kwargs)
            basis = dcache_basis(benchmark)
        elif domain == "dtlb":
            from repro.cat.dtlb import DTLBBenchmark

            config_obj = getattr(node.machine, "config", None)
            if config_obj is not None:
                benchmark_kwargs.setdefault("tlb_config", config_obj.tlb)
            benchmark = DTLBBenchmark(**benchmark_kwargs)
            basis = dtlb_basis(benchmark)
        else:
            raise KeyError(
                f"unknown domain {domain!r}; expected one of "
                "cpu_flops, gpu_flops, branch, dcache, dtlb"
            )
        return cls(
            node=node,
            benchmark=benchmark,
            basis=basis,
            signatures=signatures_for(domain),
            config=config or DOMAIN_CONFIGS[domain],
            events=events,
            cache=cache,
            faults=faults,
            scrub_policy=scrub_policy,
            priors=priors,
        )

    # ------------------------------------------------------------------
    def _measure(self) -> MeasurementSet:
        """The measurement stage, optionally through the content cache.

        Under fault injection the cache still stores the *clean*
        measurement (corruption is applied after this layer), so faulted
        runs populate and reuse the same entries as unfaulted ones and a
        corrupted universe never poisons the cache.
        """
        config = self.config
        runner = BenchmarkRunner(self.node, repetitions=config.repetitions)
        registry = (
            self.events
            if self.events is not None
            else runner.select_events(self.benchmark)
        )
        if not config.use_measurement_cache:
            return runner.run(self.benchmark, events=registry)

        from repro.io.cache import default_measurement_cache, measurement_cache_key

        cache = self.cache if self.cache is not None else default_measurement_cache()
        key = measurement_cache_key(
            self.node, self.benchmark, registry, config.repetitions
        )
        return cache.get_or_measure(
            key, lambda: runner.run(self.benchmark, events=registry)
        )

    def _measure_robust(self, report: "RobustnessReport") -> MeasurementSet:
        """Measurement with the full self-healing loop.

        Each attempt: injected transient failures raise and are retried;
        injected corruption is applied to the (possibly cached) clean
        reading; the quorum scrubber repairs what it can.  If corruption
        beats the quorum (events would be lost) and retries remain, the
        whole measurement is re-attempted — a retry salts the injection
        streams differently, exactly like re-running on real hardware.
        Retries are bounded by ``config.max_measure_retries``; whatever
        is still broken after the last attempt is degraded, not fatal.
        """
        from repro.faults import (
            ScrubPolicy,
            ScrubResult,
            TransientMeasurementError,
            scrub_measurement,
        )

        injector = self._injector
        policy = self.scrub_policy if self.scrub_policy is not None else ScrubPolicy()
        # The scrubber only engages when cell-level corruption is possible
        # (an explicit scrub policy, or an injector with measurement
        # faults).  A crash/hang/run-failure-only universe leaves the data
        # untouched, so its successful runs stay bit-identical to clean.
        do_scrub = self.scrub_policy is not None or (
            injector is not None and injector.config.any_measurement_faults
        )
        context = report.context
        retries = self.config.max_measure_retries
        start = len(injector.records) if injector is not None else 0
        attempt = 0
        while True:
            try:
                if injector is not None:
                    injector.check_run_failure(context, attempt)
                clean = self._measure()
            except TransientMeasurementError as exc:
                if injector is not None:
                    report.records = injector.records[start:]
                if attempt >= retries:
                    report.retries.append(
                        f"measurement attempt {attempt} failed ({exc}); "
                        f"retries exhausted"
                    )
                    raise
                report.mark_retried(
                    "run-failure",
                    context,
                    f"measurement attempt {attempt} failed transiently; re-measured",
                )
                attempt += 1
                continue
            corrupted = (
                clean
                if injector is None
                else injector.corrupt_measurement(clean, context, attempt)
            )
            scrub = (
                scrub_measurement(corrupted, policy)
                if do_scrub
                else ScrubResult(measurement=corrupted)
            )
            if injector is not None:
                report.records = injector.records[start:]
            if scrub.dropped_events and attempt < retries:
                # Quorum could not repair some events: re-measure.  This
                # attempt's cell faults are settled by the re-measurement.
                marker = f"attempt {attempt}"
                for record in report.records:
                    if record.outcome == "injected" and record.detail == marker:
                        record.outcome = "recovered"
                report.retries.append(
                    f"attempt {attempt}: {len(scrub.dropped_events)} event(s) "
                    f"irreparable ({', '.join(scrub.dropped_events[:3])}"
                    f"{'...' if len(scrub.dropped_events) > 3 else ''}); re-measured"
                )
                attempt += 1
                continue
            report.reconcile_scrub(scrub.actions)
            self._settle_subnoise(report, clean, scrub.measurement)
            if injector is not None and self.config.use_measurement_cache:
                from repro.io.cache import default_measurement_cache

                cache = (
                    self.cache
                    if self.cache is not None
                    else default_measurement_cache()
                )
                quarantined = list(getattr(cache, "quarantined", ()))
                report.cache_quarantined.extend(
                    k for k in quarantined if k not in report.cache_quarantined
                )
                report.mark_cache_recovered(quarantined)
            return scrub.measurement

    def _settle_subnoise(
        self,
        report: "RobustnessReport",
        clean: MeasurementSet,
        scrubbed: MeasurementSet,
    ) -> None:
        """Settle still-open cell faults whose analysis-visible effect is
        below the noise floor the analysis already tolerates.

        Both the thread median and the repetition mean stand between a
        raw cell and the measurement matrix A, so most surviving spikes
        never reach the analysis at all.  The test is the paper's own
        Section-IV metric: the RNMSE between the event's clean and
        scrubbed A-columns.  At or below tau the residue is
        indistinguishable from measurement noise by the pipeline's own
        standard — the fault is recovered.  Above tau the records stay
        open for the downstream filters to account for (or to surface as
        genuinely silent corruption).
        """
        open_events = {
            r.event
            for r in report.records
            if r.outcome == "injected" and r.coords is not None
        }
        open_events.discard(None)
        if not open_events:
            return
        a_clean = clean.measurement_matrix()  # (rows, events)
        a_scrub = scrubbed.measurement_matrix()
        clean_idx = {n: i for i, n in enumerate(clean.event_names)}
        scrub_idx = {n: i for i, n in enumerate(scrubbed.event_names)}
        n_rows = a_clean.shape[0]
        settled = set()
        for event in open_events:
            jc, js = clean_idx.get(event), scrub_idx.get(event)
            if jc is None or js is None:
                continue
            col_clean, col_scrub = a_clean[:, jc], a_scrub[:, js]
            mean_product = col_clean.mean() * col_scrub.mean()
            if mean_product <= 0:
                if np.array_equal(col_clean, col_scrub):
                    settled.add(event)
                continue
            rnmse = float(
                np.linalg.norm(col_scrub - col_clean)
                / np.sqrt(n_rows * mean_product)
            )
            if rnmse <= self.config.tau:
                settled.add(event)
        for record in report.records:
            if record.outcome == "injected" and record.event in settled:
                record.outcome = "recovered"
                record.detail += "; below the analysis noise floor (tau)"

    def run(self, measurement: Optional[MeasurementSet] = None) -> PipelineResult:
        """Execute all stages; ``measurement`` may be injected (e.g. from
        disk) to skip the benchmark run.

        Every run records one span per stage into the ambient tracer
        (:mod:`repro.obs`): with tracing off (the default) the hooks are
        no-ops, and inside an ``obs.tracing`` scope the finished trace
        rides out on ``PipelineResult.trace``.  Tracing never feeds back
        into the analysis — traced and untraced runs are bit-identical
        (property-tested).
        """
        tracer = get_tracer()
        with tracer.span(
            "pipeline",
            domain=self.basis.name,
            node=self.node.name,
            benchmark=self.benchmark.name,
        ) as span:
            result = self._run_stages(measurement, tracer)
        if tracer.enabled and span.depth == 0:
            # Only a top-level run owns the trace; nested runs (e.g. sweep
            # tasks) contribute spans to the enclosing scope, which
            # exports one coherent trace for the whole sweep.
            result.trace = tracer.trace()
        return result

    def _run_stages(
        self, measurement: Optional[MeasurementSet], tracer
    ) -> PipelineResult:
        config = self.config
        robustness: Optional["RobustnessReport"] = None
        with tracer.span("measure") as span:
            injected = measurement is not None
            if (
                measurement is not None
                and config.guard.enabled
                and self.scrub_policy is None
            ):
                # An externally supplied measurement (from disk, a cache, a
                # remote run) gets boundary-checked before it reaches the
                # solvers; internally measured data goes through the fault
                # scrubber instead, which owns NaN repair.
                require_finite(
                    np.asarray(measurement.data),
                    "measurement.data",
                    context=f"pipeline[{self.basis.name}]",
                )
            if measurement is None:
                if self._injector is not None or self.scrub_policy is not None:
                    from repro.faults import RobustnessReport

                    robustness = RobustnessReport(
                        context=f"{self.node.name}:{self.benchmark.name}"
                    )
                    measurement = self._measure_robust(robustness)
                else:
                    measurement = self._measure()
            elif self.scrub_policy is not None:
                # An externally supplied measurement can still be scrubbed.
                from repro.faults import RobustnessReport, scrub_measurement

                robustness = RobustnessReport(
                    context=f"{self.node.name}:{self.benchmark.name}"
                )
                scrub = scrub_measurement(measurement, self.scrub_policy)
                robustness.reconcile_scrub(scrub.actions)
                measurement = scrub.measurement
            span.set(
                events=len(measurement.event_names),
                rows=len(measurement.row_labels),
                repetitions=int(measurement.data.shape[0]),
                injected=injected,
            )
        degraded = robustness.degraded if robustness is not None else False
        if degraded:
            tracer.incr("pipeline.degraded")

        # Stages 2-4: thread median happens inside the noise analysis and
        # measurement matrix; zero discard + tau filter:
        with tracer.span("noise-filter") as span:
            noise = analyze_noise(measurement, tau=config.tau)
            span.set(
                measured=noise.n_measured,
                kept=len(noise.kept),
                noisy=len(noise.noisy),
                zero=len(noise.discarded_zero),
            )
        tracer.incr("noise.measured", noise.n_measured)
        tracer.incr("noise.kept", len(noise.kept))
        tracer.incr("noise.noisy", len(noise.noisy))
        tracer.incr("noise.discarded_zero", len(noise.discarded_zero))

        if self.priors is not None:
            # Counter-validation priors: events the campaign refuted are
            # barred from selection *before* QRCP can pivot on them.  A
            # prior set that refutes nothing takes this branch without
            # changing ``kept`` — the downstream stages see byte-identical
            # inputs and produce byte-identical outputs.
            excluded = list(self.priors.excluded_events(noise.kept))
            if excluded:
                with tracer.span("vet-exclude") as span:
                    barred = set(excluded)
                    noise = replace(
                        noise,
                        kept=[e for e in noise.kept if e not in barred],
                        excluded_by_prior=excluded,
                    )
                    span.set(excluded=len(excluded))
                tracer.incr("vet.excluded_by_prior", len(excluded))

        with tracer.span("representation") as span:
            surviving = measurement.select_events(noise.kept)
            matrix = surviving.measurement_matrix()
            representation = represent_events(
                self.basis, noise.kept, matrix, config.representation_threshold
            )
            span.set(
                kept=len(representation.event_names),
                rejected=len(representation.rejected),
            )
        tracer.incr("representation.kept", len(representation.event_names))
        tracer.incr("representation.rejected", len(representation.rejected))

        if robustness is not None:
            # Faults the scrubber deliberately left alone (broad noise is
            # Section-IV territory) are accounted for by the pipeline's
            # own filters: an event rejected by tau or by representation
            # takes its injected faults out of the analysis with it.
            rejected = (
                set(noise.noisy)
                | set(noise.discarded_zero)
                | set(noise.excluded_by_prior)
                | set(representation.rejected)
            )
            for record in robustness.records:
                if record.outcome == "injected" and record.event in rejected:
                    record.outcome = "excluded"

        with tracer.span("qrcp") as span:
            qrcp = qrcp_specialized(
                representation.x_matrix, alpha=config.alpha, guard=config.guard
            )
            selected_idx = qrcp.selected
            selected_events = [representation.event_names[i] for i in selected_idx]
            x_hat = representation.x_matrix[:, selected_idx]
            span.set(
                candidates=int(representation.x_matrix.shape[1]),
                pivots=int(qrcp.rank),
            )
            if qrcp.health is not None and qrcp.health.guards_fired:
                span.set(guards=" -> ".join(qrcp.health.guards_fired))
        tracer.incr("qrcp.pivots", int(qrcp.rank))

        qrcp_guards = qrcp.health.guards_fired if qrcp.health is not None else ()
        certify = config.guard.enabled and config.guard.certify

        vet_stamp = None
        if self.priors is not None:
            from repro.vet.priors import VetStamp

            vet_stamp = VetStamp(
                verdicts={
                    event: self.priors.verdict_for(event)
                    for event in selected_events
                },
                excluded=tuple(noise.excluded_by_prior),
                source=self.priors.source,
            )

        metrics: Dict[str, MetricDefinition] = {}
        rounded: Dict[str, MetricDefinition] = {}
        presets = PresetTable(architecture=self.node.name)
        with tracer.span("compose") as span:
            if certify:
                kept_idx = {name: i for i, name in enumerate(noise.kept)}
                m_sel = matrix[:, [kept_idx[name] for name in selected_events]]
                folds = holdout_folds(
                    self.basis.matrix, m_sel, config.guard, config.lstsq_rcond
                )
            for signature in self.signatures:
                with tracer.span("lstsq", metric=signature.name) as solve_span:
                    definition = compose_metric(
                        signature.name,
                        x_hat,
                        selected_events,
                        signature,
                        rcond=config.lstsq_rcond,
                        guard=config.guard,
                    )
                    solve_span.set(
                        error=float(definition.error),
                        composable=definition.composable,
                    )
                    if (
                        definition.health is not None
                        and definition.health.guards_fired
                    ):
                        solve_span.set(
                            guards=" -> ".join(definition.health.guards_fired)
                        )
                if degraded:
                    # Composed over a fault-degraded X-hat: flag the fitness.
                    definition = replace(definition, degraded=True)
                if certify:
                    fired = qrcp_guards + (
                        definition.health.guards_fired
                        if definition.health is not None
                        else ()
                    )
                    trust = certify_metric(
                        signature.name,
                        self.basis.matrix,
                        m_sel,
                        signature.coords,
                        selected_events,
                        definition.coefficients,
                        definition.error,
                        config=config.guard,
                        rcond=config.lstsq_rcond,
                        degraded=degraded,
                        guards_fired=fired,
                        folds=folds,
                    )
                    definition = replace(definition, trust=trust)
                if vet_stamp is not None:
                    definition = replace(definition, vet=vet_stamp)
                metrics[signature.name] = definition
                snapped = round_coefficients(
                    definition,
                    x_hat=x_hat,
                    snap_tol=config.round_snap_tol,
                    zero_tol=config.round_zero_tol,
                )
                rounded[signature.name] = snapped
                if definition.composable:
                    # Presets carry the snapped coefficients (Section VI-D):
                    # consumers want 1*EVENT, not 1.00001*EVENT - 3e-16*OTHER.
                    presets.define(snapped.as_preset())
            composable = sum(1 for m in metrics.values() if m.composable)
            span.set(metrics=len(metrics), composable=composable)
        tracer.incr("compose.metrics", len(metrics))
        tracer.incr("compose.composable", composable)
        for definition in metrics.values():
            if definition.trust is not None:
                tracer.incr(f"certify.{definition.trust.level}")

        if config.strict:
            problems: List[str] = []
            if config.guard.enabled and qrcp.health is not None and qrcp.health.guards_fired:
                suspects = [
                    selected_events[i]
                    if i < len(selected_events)
                    else f"pivot {i}"
                    for i in qrcp.health.suspect_columns
                ]
                problems.append(
                    "the QRCP selection needed guarded intervention ("
                    + " -> ".join(qrcp.health.guards_fired)
                    + "); suspect columns: "
                    + (", ".join(suspects) if suspects else "unidentified")
                )
            rejected = {
                name: m.trust
                for name, m in metrics.items()
                if m.trust is not None and m.trust.level == "reject"
            }
            if rejected:
                details = "; ".join(
                    f"{name} (suspect events: "
                    f"{', '.join(trust.suspect_events) or 'unidentified'}; "
                    f"{trust.reasons[0] if trust.reasons else 'no reason recorded'})"
                    for name, trust in rejected.items()
                )
                problems.append(
                    f"{len(rejected)} metric definition(s) rejected by "
                    f"certification — {details}"
                )
            if self.priors is not None:
                # With validation priors in hand, strict mode also refuses
                # metrics that lean on events the campaign never vetted or
                # outright refuted: a metric is only as trustworthy as the
                # counters it is a linear combination of.
                unvetted_deps = {
                    name: sorted(
                        f"{event}={self.priors.verdict_for(event)}"
                        for event, coeff in zip(
                            definition.event_names, definition.coefficients
                        )
                        if coeff != 0.0
                        and self.priors.verdict_for(event) != "accurate"
                    )
                    for name, definition in metrics.items()
                }
                unvetted_deps = {k: v for k, v in unvetted_deps.items() if v}
                if unvetted_deps:
                    details = "; ".join(
                        f"{name} depends on {', '.join(events)}"
                        for name, events in sorted(unvetted_deps.items())
                    )
                    problems.append(
                        f"{len(unvetted_deps)} metric definition(s) depend on "
                        f"unvetted or refuted events — {details}"
                    )
            if problems:
                raise GuardViolation("strict mode: " + " | ".join(problems))

        return PipelineResult(
            domain=self.basis.name,
            config=config,
            measurement=measurement,
            noise=noise,
            representation=representation,
            qrcp=qrcp,
            selected_events=selected_events,
            x_hat=x_hat,
            metrics=metrics,
            rounded_metrics=rounded,
            presets=presets,
            robustness=robustness,
            degraded=degraded,
        )
