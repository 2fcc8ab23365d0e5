"""The analysis workloads and the per-layer replay of the pipeline.

A *pass* is one ``AnalysisPipeline.run()`` per (system, domain) pair of
the workload, with the default ``DOMAIN_CONFIGS`` (measurement cache
off, certification on), as ``repro-cat run`` users get.

:func:`replay` re-runs one pipeline by calling each layer's public
function in pipeline order, timing each call from here; its metric
digests must equal ``pipeline.run()``'s, so the per-layer numbers
describe the same program.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from statistics import median
from typing import Dict, List, Sequence, Tuple

from perfbench.common import Gate, normalized, probe_host, result_digests

#: Workload -> the (system, domain) pairs one pass analyses.
PAIRS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    # dcache: the hardware.cache simulation behind cat.dcache dominates.
    "analyze-cache": (("aurora", "dcache"),),
    # compose and certify dominate; measurement is small.
    "analyze-linalg": (
        ("aurora", "branch"),
        ("aurora", "cpu_flops"),
        ("frontier", "gpu_flops"),
    ),
}

#: Set-ups per run; setup_s is their median.
SETUPS = 5

#: Passes a timed run makes at least, however short ``--seconds``.
MIN_PASSES = 3


@dataclass
class Analysis:
    system: str
    domain: str
    node: object
    pipeline: object

    @property
    def label(self) -> str:
        return f"{self.system}/{self.domain}"


def node_for(system: str, seed: int):
    from repro import aurora_node, frontier_node

    return {"aurora": aurora_node, "frontier": frontier_node}[system](seed=seed)


def build(pairs: Sequence[Tuple[str, str]], seed: int) -> List[Analysis]:
    """Nodes and pipelines for every pair: the analysis set-up."""
    from repro import AnalysisPipeline

    analyses = []
    for system, domain in pairs:
        node = node_for(system, seed)
        analyses.append(
            Analysis(system, domain, node, AnalysisPipeline.for_domain(domain, node))
        )
    return analyses


def setup(pairs, seed: int) -> Tuple[List[Analysis], List[float]]:
    """Build the analyses ``SETUPS`` times; returns the last build and
    every set-up time, speed-normalized."""
    times = []
    for _ in range(SETUPS):
        probe = probe_host()
        began = time.perf_counter()
        analyses = build(pairs, seed)
        times.append(normalized(time.perf_counter() - began, probe))
    return analyses, times


def run_pass(analyses: Sequence[Analysis]) -> Tuple[float, list]:
    """One timed pass; returns its wall time and the results."""
    began = time.perf_counter()
    results = [a.pipeline.run() for a in analyses]
    return time.perf_counter() - began, results


def check_pass(
    gate: Gate,
    analyses: Sequence[Analysis],
    results: Sequence,
    seed: int,
    want: Dict[str, Dict[str, str]],
) -> None:
    """Judge every run of a pass against ``want`` (label -> digests);
    a label missing from ``want`` is pinned to this pass's answer."""
    for analysis, result in zip(analyses, results):
        got = result_digests(result, analysis.node, seed)
        gate.check(f"{analysis.label} seed {seed}", got, want.setdefault(analysis.label, got))


def timed(
    analyses: Sequence[Analysis],
    seed: int,
    seconds: float,
    gate: Gate,
    want: Dict[str, Dict[str, str]],
) -> Tuple[List[float], List[float]]:
    """Passes until ``seconds`` have gone by; returns each pass's wall
    time and the same speed-normalized by the probes either side of it."""
    passes: List[float] = []
    scaled: List[float] = []
    probe = probe_host()
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        elapsed, results = run_pass(analyses)
        check_pass(gate, analyses, results, seed, want)
        after = probe_host()
        passes.append(elapsed)
        scaled.append(normalized(elapsed, (probe + after) / 2))
        probe = after
    return passes, scaled


# -- the layer replay -------------------------------------------------
class _TimedBenchmark:
    """Delegates to a CAT benchmark, timing ``execute`` (the hardware
    simulation) from outside the runner."""

    def __init__(self, benchmark):
        self._benchmark = benchmark
        self.execute_s = 0.0

    def __getattr__(self, name):
        return getattr(self._benchmark, name)

    def execute(self, machine):
        began = time.perf_counter()
        try:
            return self._benchmark.execute(machine)
        finally:
            self.execute_s += time.perf_counter() - began


#: Layer timings the replay reports, in pipeline order.
LAYER_TIMES = (
    "hardware.execute_ms",
    "cat.run_ms",
    "core.noise_filter_ms",
    "core.representation_ms",
    "core.qrcp_ms",
    "core.compose_ms",
    "guard.certify_ms",
)

#: Timings that partition a pass (cat.run_ms includes execute).
PARTITION = LAYER_TIMES[1:]


def replay(analysis: Analysis):
    """Run ``analysis.pipeline`` layer by layer; returns the
    ``PipelineResult`` and the layer timings and counts.

    Mirrors ``AnalysisPipeline._run_stages`` for an unfaulted run
    without priors or measurement cache, which is what the default
    configuration runs.
    """
    from repro.cat import BenchmarkRunner
    from repro.core.metrics import compose_metric, round_coefficients
    from repro.core.noise_filter import analyze_noise
    from repro.core.pipeline import PipelineResult
    from repro.core.qrcp import qrcp_specialized
    from repro.core.representation import represent_events
    from repro.guard import certify_metric
    from repro.papi.presets import PresetTable

    pipeline = analysis.pipeline
    config = pipeline.config
    if config.use_measurement_cache or pipeline.priors is not None:
        raise ValueError("the replay mirrors the default, uncached, prior-free run")
    seconds: Dict[str, float] = dict.fromkeys(LAYER_TIMES, 0.0)
    clock = time.perf_counter

    benchmark = _TimedBenchmark(pipeline.benchmark)
    runner = BenchmarkRunner(pipeline.node, repetitions=config.repetitions)
    registry = pipeline.events if pipeline.events is not None else runner.select_events(benchmark)
    began = clock()
    measurement = runner.run(benchmark, events=registry)
    seconds["cat.run_ms"] = clock() - began
    seconds["hardware.execute_ms"] = benchmark.execute_s

    began = clock()
    noise = analyze_noise(measurement, tau=config.tau)
    seconds["core.noise_filter_ms"] = clock() - began

    began = clock()
    matrix = measurement.select_events(noise.kept).measurement_matrix()
    representation = represent_events(
        pipeline.basis, noise.kept, matrix, config.representation_threshold
    )
    seconds["core.representation_ms"] = clock() - began

    began = clock()
    qrcp = qrcp_specialized(representation.x_matrix, alpha=config.alpha, guard=config.guard)
    seconds["core.qrcp_ms"] = clock() - began
    selected = [representation.event_names[i] for i in qrcp.selected]
    x_hat = representation.x_matrix[:, qrcp.selected]
    qrcp_guards = qrcp.health.guards_fired if qrcp.health is not None else ()

    certify = config.guard.enabled and config.guard.certify
    kept_idx = {name: i for i, name in enumerate(noise.kept)}
    m_sel = matrix[:, [kept_idx[name] for name in selected]]
    metrics, rounded = {}, {}
    presets = PresetTable(architecture=pipeline.node.name)
    holdouts = skipped = 0
    for signature in pipeline.signatures:
        began = clock()
        definition = compose_metric(
            signature.name, x_hat, selected, signature,
            rcond=config.lstsq_rcond, guard=config.guard,
        )
        seconds["core.compose_ms"] += clock() - began
        if certify:
            fired = qrcp_guards + (
                definition.health.guards_fired if definition.health is not None else ()
            )
            began = clock()
            trust = certify_metric(
                signature.name, pipeline.basis.matrix, m_sel, signature.coords,
                selected, definition.coefficients, definition.error,
                config=config.guard, rcond=config.lstsq_rcond, guards_fired=fired,
            )
            seconds["guard.certify_ms"] += clock() - began
            holdouts += trust.n_holdouts
            skipped += trust.n_skipped
            definition = replace(definition, trust=trust)
        metrics[signature.name] = definition
        snapped = round_coefficients(
            definition, x_hat=x_hat,
            snap_tol=config.round_snap_tol, zero_tol=config.round_zero_tol,
        )
        rounded[signature.name] = snapped
        if definition.composable:
            presets.define(snapped.as_preset())

    result = PipelineResult(
        domain=pipeline.basis.name, config=config, measurement=measurement,
        noise=noise, representation=representation, qrcp=qrcp,
        selected_events=selected, x_hat=x_hat, metrics=metrics,
        rounded_metrics=rounded, presets=presets,
    )
    layers: Dict[str, float] = {k: v * 1e3 for k, v in seconds.items()}
    layers.update(
        {
            "cat.events_measured": len(measurement.event_names),
            "cat.pmu_runs": measurement.pmu_runs,
            "core.events_kept": len(noise.kept),
            "core.qrcp_candidates": int(representation.x_matrix.shape[1]),
            "core.qrcp_pivots": int(qrcp.rank),
            "guard.holdouts": holdouts,
            "guard.holdouts_skipped": skipped,
        }
    )
    return result, layers


#: The pipeline's depth-1 trace spans, reported as ``trace.<stage>_ms``.
TRACE_STAGES = ("measure", "noise-filter", "representation", "qrcp", "compose")


def layer_round(
    analyses: Sequence[Analysis], seed: int, gate: Gate
) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]], list]:
    """One traced round: an untraced pass, a replay of every pair
    (judged against the untraced pass), and a pass inside an
    ``obs.tracing`` scope.  Returns the workload-level layer metrics and
    the per-pair layer table, and the untraced pass's results."""
    from repro.obs import tracing

    untraced_s, results = run_pass(analyses)
    per_pair: Dict[str, Dict[str, float]] = {}
    for analysis, result in zip(analyses, results):
        replayed, layers = replay(analysis)
        want = result_digests(result, analysis.node, seed)
        gate.check(
            f"replay {analysis.label} seed {seed}",
            result_digests(replayed, analysis.node, seed),
            want,
        )
        per_pair[analysis.label] = layers

    stages: Dict[str, float] = dict.fromkeys(TRACE_STAGES, 0.0)
    began = time.perf_counter()
    for analysis in analyses:
        with tracing(seed=seed):
            traced = analysis.pipeline.run()
        for name, ns in traced.trace.stage_timings().items():
            if name in stages:
                stages[name] += ns / 1e6
    traced_s = time.perf_counter() - began

    metrics = {
        name: float(sum(layers[name] for layers in per_pair.values()))
        for name in next(iter(per_pair.values()))
    }
    metrics["cat.self_ms"] = metrics["cat.run_ms"] - metrics["hardware.execute_ms"]
    metrics["replay.layer_share"] = (
        sum(metrics[name] for name in PARTITION) / 1e3 / untraced_s
    )
    metrics.update({f"trace.{name}_ms": ms for name, ms in stages.items()})
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return metrics, per_pair, results


def layer_rounds(
    analyses: Sequence[Analysis], seed: int, gate: Gate, *, seconds: float, min_rounds: int
) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]], list]:
    """Traced rounds until ``seconds`` have gone by (at least
    ``min_rounds``); every metric is the median over rounds.  Also
    returns the last round's ``pipeline.run()`` results."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        rounds.append(layer_round(analyses, seed, gate))
    metrics = {
        name: median([r[0][name] for r in rounds]) for name in rounds[0][0]
    }
    table = {
        label: {name: median([r[1][label][name] for r in rounds]) for name in layers}
        for label, layers in rounds[0][1].items()
    }
    return metrics, table, rounds[-1][2]


def format_table(table: Dict[str, Dict[str, float]]) -> List[str]:
    """The per-pair layer table, one line per pair."""
    columns = LAYER_TIMES
    lines = ["  pair".ljust(20) + "".join(c.split(".", 1)[1][:-3].rjust(16) for c in columns) + "  (ms)"]
    for label, layers in table.items():
        lines.append(
            f"  {label}".ljust(20)
            + "".join(f"{layers[c]:16.1f}" for c in columns)
        )
    return lines
