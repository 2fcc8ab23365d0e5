"""Runs one workload and assembles its report.

End-to-end metrics (``--trace 0``), the same four on every workload so
runs compare metric by metric:

* ``setup_s``: median time from start to ready over several set-ups.
  Analysis: nodes and pipelines built.  Serving: tier started, the
  served entries published through it, the front answering ``/healthz``.
* ``op_p50_ms``: median latency of the workload's operation: an
  analysis pass (analyze-*), a keyed read (serve-read), an analysis of
  a never-seen seed (serve-write).
* ``ops_per_s``: operations completed per second: passes (analyze-*),
  reads (serve-read), reads and analyses (serve-write).
* ``peak_rss_mb``: peak RSS of this process plus its largest reaped
  child (a tier worker).

Per-layer metrics (``--trace 1``) come from the traced run: the layer
replay of the workload's analyses (for serve-*, the analysis a write
runs), the ``obs`` trace of the same pass, and the serving-layer
probes and counters of a tier serving the workload's entries.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List

from repro.serve.load import latency_percentile

from perfbench import analysis, serving
from perfbench.common import (
    DEFAULT_SEED,
    ROOT,
    Gate,
    REFERENCE_PROBE_S,
    peak_rss_mb,
    provenance,
    result_digests,
    self_check_gate,
    tail,
)

#: Where runs keep their catalogs; removed when a run ends.
WORK = ROOT / ".perfbench-work"

#: Closed-loop read load against an analyze-* workload's own entries in
#: its traced run, so its serving counters have traffic behind them.
PROBE_LOAD_SECONDS = 2.0

#: Minimum traced rounds when the layer replay is not the workload's
#: main load (serve-*).
SERVE_LAYER_ROUNDS = 3


@dataclass
class Report:
    """One run's verdict, metrics and human-readable lines."""

    gate: Gate = field(default_factory=Gate)
    metrics: Dict[str, dict] = field(default_factory=dict)
    lines: List[str] = field(default_factory=list)
    #: Operation counts by kind, for the provenance block.
    requests: Dict[str, int] = field(default_factory=dict)

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def say(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.lines.append(f"{name:<32} {value:14.4f} {unit:<6} {note}".rstrip())


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_frac", "ratio"),
                         ("_ratio", "ratio"), ("_share", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def write_pins(path: Path) -> None:
    """Pin every analysis digest of the default seed."""
    pins = {}
    for workload, pairs in analysis.PAIRS.items():
        analyses = analysis.build(pairs, DEFAULT_SEED)
        _, results = analysis.run_pass(analyses)
        pins[workload] = {
            a.label: result_digests(r, a.node, DEFAULT_SEED)
            for a, r in zip(analyses, results)
        }
    path.write_text(json.dumps({"seed": DEFAULT_SEED, **pins}, indent=2, sort_keys=True) + "\n")


def run(workload: str, seed: int, seconds: int, traced: bool, pins: Path) -> Report:
    work = WORK / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if workload in analysis.PAIRS:
            report = _analyze(workload, seed, seconds, traced, pins, work)
        else:
            report = _serve(workload, seed, seconds, traced, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    gate = report.gate
    if not traced:
        report.say("ops_failed_frac", gate.failed / gate.attempted, "ratio")
    for problem in gate.wrong[:20]:
        report.lines.append(f"WRONG: {problem}")
    report.lines.append(
        "provenance: "
        + json.dumps(
            provenance(
                workload, seed, seconds, traced,
                {"sent": gate.attempted, "succeeded": gate.attempted - gate.failed,
                 "failed": gate.failed, **report.requests},
            ),
            sort_keys=True,
        )
    )
    return report


def _finish_e2e(
    report: Report, setup_times: List[float], p50_ms: float, ops_per_s: float, probe_s: float
) -> None:
    """The end-to-end metrics; every time is already speed-normalized."""
    report.add("setup_s", median(setup_times), "s")
    report.add("op_p50_ms", p50_ms, "ms")
    report.add("ops_per_s", ops_per_s, "1/s")
    report.add("peak_rss_mb", peak_rss_mb(), "MB")
    for name, entry in report.metrics.items():
        report.say(name, entry["value"], entry["unit"])
    report.say("host_probe_ms", probe_s * 1e3, "ms", f"reference {REFERENCE_PROBE_S * 1e3:g} ms")


def _finish_layers(report: Report, metrics: Dict[str, float], absent: List[str]) -> None:
    """The per-layer metrics, and a line naming any this version lacks."""
    for name in sorted(metrics):
        report.add(name, float(metrics[name]), unit_of(name))
        report.say(name, float(metrics[name]), unit_of(name))
    if absent:
        report.lines.append(f"absent layer metrics: {', '.join(sorted(absent))}")


def _analyze(workload, seed, seconds, traced, pins: Path, work: Path) -> Report:
    report = Report()
    gate = report.gate
    pairs = analysis.PAIRS[workload]
    want: Dict[str, Dict[str, str]] = {}
    if seed == DEFAULT_SEED:
        want = json.loads(pins.read_text())[workload]
    analyses, setup_times = analysis.setup(pairs, seed)

    if not traced:
        passes, scaled = analysis.timed(analyses, seed, seconds, gate, want)
        _finish_e2e(
            report, setup_times, median(scaled) * 1e3, len(scaled) / sum(scaled),
            REFERENCE_PROBE_S * median(passes) / median(scaled),
        )
        report.say("analysis_pass_s", median(passes), "s", f"wall, median of {len(passes)} passes")
        report.requests = {"passes": len(passes)}
    else:
        layers, table, results = analysis.layer_rounds(
            analyses, seed, gate, seconds=seconds, min_rounds=1
        )
        analysis.check_pass(gate, analyses, results, seed, want)
        first = analyses[0]
        loop = serving.EventLoopThread()
        try:
            root = work / "catalog"
            serving.publish(root, analyses, results, seed)
            tier = serving.Tier(loop, root)
            try:
                load = serving.run_load(
                    tier.port, (first.system, first.domain), seed, want[first.label],
                    PROBE_LOAD_SECONDS, 0, traced=True,
                )
                serving.merge(gate, load.clients)
                served, absent = serving.layer_metrics(
                    loop, tier, root, work / "scratch",
                    [(a.system, a.domain, seed) for a in analyses], load.clients,
                )
            finally:
                tier.stop(gate)
        finally:
            loop.close()
        _finish_layers(report, {**layers, **served}, absent)
        report.lines.extend(analysis.format_table(table))
        report.requests = {"reads": len(load.reads)}

    problem = self_check_gate(next(iter(want.values())))
    if problem:
        gate.fail(problem)
    return report


def _serve(workload, seed, seconds, traced, work: Path) -> Report:
    report = Report()
    gate = report.gate
    want = serving.expected_digests(serving.SYSTEM, serving.DOMAIN, seed)
    problem = self_check_gate(want)
    if problem:
        gate.fail(problem)
    layers: Dict[str, float] = {}
    table = {}
    if traced:
        analyses = analysis.build([(serving.SYSTEM, serving.DOMAIN)], seed)
        layers, table, _ = analysis.layer_rounds(
            analyses, seed, gate, seconds=0, min_rounds=SERVE_LAYER_ROUNDS
        )
    write_every = serving.WRITE_EVERY if workload == "serve-write" else 0
    loop = serving.EventLoopThread()
    try:
        tier, root, setup_times = serving.setup(loop, work, seed, want, gate)
        try:
            load = serving.run_load(
                tier.port, (serving.SYSTEM, serving.DOMAIN), seed, want,
                seconds, write_every, traced,
            )
            if traced:
                served, absent = serving.layer_metrics(
                    loop, tier, root, work / "scratch",
                    [(serving.SYSTEM, serving.DOMAIN, seed)], load.clients,
                )
        finally:
            tier.stop(gate)
    finally:
        loop.close()
    serving.merge(gate, load.clients)
    serving.verify_writes(gate, load.clients)
    reads = [t for c in load.clients for t in c.read_times]
    writes = [t for c in load.clients for t in c.write_times]
    report.requests = {"reads": len(reads), "writes": len(writes)}

    if traced:
        _finish_layers(report, {**layers, **served}, absent)
        report.lines.extend(analysis.format_table(table))
        return report
    p50 = latency_percentile(load.writes if workload == "serve-write" else load.reads, 50)
    _finish_e2e(
        report, setup_times, p50 * 1e3, (len(reads) + len(writes)) / load.scaled_wall,
        REFERENCE_PROBE_S * load.wall / load.scaled_wall,
    )
    for kind, sample in (("read", reads), ("write", writes)):
        if not sample:
            continue
        note = f"wall, n={len(sample)}"
        report.say(f"{kind}_p50_ms", latency_percentile(sample, 50) * 1e3, "ms", note)
        found = tail(sample)
        if found is not None:
            q, value = found
            report.say(f"{kind}_p{q}_ms", value * 1e3, "ms", note)
    report.say("read_rps", len(reads) / load.wall, "req/s", "wall")
    return report
