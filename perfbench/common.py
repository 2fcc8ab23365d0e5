"""Pieces shared by the analysis and serving workloads.

The correctness gate (:class:`Gate`), the host-speed probe, latency
summaries, peak RSS and the provenance block every result carries.
"""

from __future__ import annotations

import os
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.serve.load import latency_percentile

ROOT = Path(__file__).resolve().parent.parent

#: The seed whose analysis digests are pinned in ``digests.json``.
DEFAULT_SEED = 2024

#: Percentiles a tail is reported at, highest first; a tail is reported
#: only at a percentile with at least ``TAIL_MIN_BEYOND`` samples above it.
TAIL_PERCENTILES = (99, 90, 75)
TAIL_MIN_BEYOND = 10


#: The host-speed probe's time on the reference host (a 2-core Xeon VM
#: at 2.1 GHz, Python 3.11, numpy 2.4), so speed-normalized times read
#: as times on that host.
REFERENCE_PROBE_S = 0.036


def _probe_kernel() -> float:
    total = 0
    for i in range(300_000):
        total += i * i % 7
    a = np.arange(200_000, dtype=float)
    for _ in range(10):
        a = np.sqrt(a * a + 1.0)
    return total + float(a[-1])


def probe_host() -> float:
    """The host's current speed: the best of three runs of a fixed
    kernel of interpreter and numpy work, in seconds.

    On a shared host the speed of the same code drifts by some 15% over
    minutes.  Every time the benchmark reports is multiplied by
    ``REFERENCE_PROBE_S / probe`` with probes taken around it, which
    takes that drift out.  Probes run only while the program under test
    is idle, so they never measure its own load.
    """
    best = float("inf")
    for _ in range(3):
        began = time.perf_counter()
        _probe_kernel()
        best = min(best, time.perf_counter() - began)
    return best


def normalized(seconds: float, probe_s: float) -> float:
    """``seconds`` as it would read on the reference host."""
    return seconds * REFERENCE_PROBE_S / probe_s


class Gate:
    """Counts operations and judges every answer against ground truth.

    An operation fails when its answer's digest differs from the
    expected one, when it raised, or when the server refused it.  A
    wrong digest or an untyped error also makes the run incorrect; a
    typed refusal (429/503/504 or a transport error) is only a failure.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: List[str] = []

    @property
    def correct(self) -> bool:
        return not self.wrong

    def check(
        self, what: str, got: Mapping[str, str], want: Mapping[str, str]
    ) -> bool:
        """One operation whose answer is ``{metric: digest}``."""
        self.attempted += 1
        bad = sorted(
            name for name in set(got) | set(want) if got.get(name) != want.get(name)
        )
        if bad:
            self.failed += 1
            self.wrong.append(f"{what}: digest mismatch on {', '.join(bad)}")
            return False
        return True

    def refused(self, what: str, error: BaseException) -> None:
        """One operation that ended in an error instead of an answer."""
        from repro.serve.service import ServiceError, TransportError

        self.attempted += 1
        self.failed += 1
        typed = isinstance(error, TransportError) or (
            isinstance(error, ServiceError)
            and error.status in (429, 503, 504)
            and isinstance(error.payload, dict)
            and "error" in error.payload
        )
        if not typed:
            self.wrong.append(f"{what}: {type(error).__name__}: {error}")

    def fail(self, what: str) -> None:
        """A check outside any operation failed (restart, leaked worker)."""
        self.attempted += 1
        self.failed += 1
        self.wrong.append(what)


def self_check_gate(want: Mapping[str, str]) -> Optional[str]:
    """Show that the gate counts a corrupted digest as a failure.

    Returns None when it does, or what went wrong.
    """
    name = sorted(want)[0]
    digest = want[name]
    corrupted = dict(want)
    corrupted[name] = ("0" if digest[0] != "0" else "1") + digest[1:]
    probe = Gate()
    probe.check("gate self-check", corrupted, want)
    if probe.failed != 1 or probe.correct:
        return "gate self-check: a corrupted digest was not counted as a failure"
    return None


def result_digests(result, node, seed: int) -> Dict[str, str]:
    """Per-metric definition digests of one ``pipeline.run()`` result,
    computed the way the serving tier digests a served answer."""
    from repro.serve.catalog import entries_from_result
    from repro.serve.chaos import definition_digest

    return {
        entry.metric: definition_digest(entry.to_payload())
        for entry in entries_from_result(
            result, arch=node.name, seed=seed, events_digest=node.events.content_digest()
        )
    }


def tail(latencies: Sequence[float]) -> Optional[Tuple[int, float]]:
    """``(percentile, value)`` at the highest percentile with enough
    samples beyond it, or None when the sample is too small."""
    n = len(latencies)
    for q in TAIL_PERCENTILES:
        if n * (100 - q) / 100 >= TAIL_MIN_BEYOND:
            return q, latency_percentile(latencies, q)
    return None


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git;
    ``unknown`` outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(
    workload: str, seed: int, seconds: int, trace: bool, requests: Mapping[str, int]
) -> Dict[str, object]:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "platform": sys.platform,
        "requests": dict(requests),
    }
