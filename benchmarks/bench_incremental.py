"""EXP-INCR: end-to-end refresh speedup (``results/incremental.md``).

A full catalog build over every (system, domain) of the sweep matrix,
versus :func:`~repro.incr.engine.refresh_catalog` after a single-event
registry edit with a warm column cache.  The refresh must be at least
10x faster AND provably equivalent: refreshed entries content-digest
identical to a from-scratch build on the edited registry, untouched
entries answering with bit-identical coefficients.
"""

import time

from repro.core.sweep import SWEEP_SYSTEMS, SYSTEM_DOMAINS
from repro.incr import RegistryEdit, apply_edits, refresh_catalog
from repro.io.cache import MeasurementCache
from repro.io.tables import write_markdown
from repro.serve.catalog import MetricCatalogStore

MIN_SPEEDUP = 10.0


def _build_everything(store, nodes, cache):
    """One full catalog build through the refresh path (empty store =
    from-scratch), over every (system, domain) of the sweep matrix."""
    reports = {}
    for system, node in nodes.items():
        reports[system] = refresh_catalog(
            store, node, SYSTEM_DOMAINS[system], cache=cache
        )
    return reports


def test_incremental_refresh(results_dir, tmp_path):
    nodes = {
        system: factory(seed=7) for system, factory in SWEEP_SYSTEMS.items()
    }
    cache = MeasurementCache(max_memory_entries=4096)

    # -- Full build (cold cache) vs post-edit refresh (warm). -----------
    store = MetricCatalogStore(tmp_path / "catalog")
    t0 = time.perf_counter()
    build_reports = _build_everything(store, nodes, cache)
    t_build = time.perf_counter() - t0
    total_entries = sum(
        len(report.refreshed) for report in build_reports.values()
    )

    # The canonical edit: one GPU VALU event counts differently now.
    # Only frontier's gpu_flops domain measures it, so 1 of the sweep's
    # 9 (system, domain) analyses is genuinely stale.
    target = next(
        e.full_name for e in nodes["frontier"].events if e.domain == "gpu_valu"
    )
    edit = RegistryEdit(action="scale-response", event=target, factor=1.05)
    edited = {
        system: apply_edits(node.events, [edit])
        if any(e.full_name == target for e in node.events)
        else node.events
        for system, node in nodes.items()
    }

    t0 = time.perf_counter()
    refresh_reports = {
        system: refresh_catalog(
            store,
            node,
            SYSTEM_DOMAINS[system],
            registry=edited[system],
            cache=cache,
        )
        for system, node in nodes.items()
    }
    t_refresh = time.perf_counter() - t0

    refreshed = [
        (system, domain, metric)
        for system, report in refresh_reports.items()
        for domain, metric in report.refreshed
    ]
    unchanged = sum(
        len(report.unchanged) for report in refresh_reports.values()
    )
    stale_domains = {
        (system, domain)
        for system, domain, _ in refreshed
    }
    assert stale_domains == {("frontier", "gpu_flops")}, stale_domains
    assert unchanged == total_entries - len(refreshed)

    speedup = t_build / t_refresh

    # -- Equivalence: refresh-after-edit == build-from-scratch. ----------
    scratch_store = MetricCatalogStore(tmp_path / "scratch")
    scratch_reports = {
        system: refresh_catalog(
            scratch_store,
            node,
            SYSTEM_DOMAINS[system],
            registry=edited[system],
            cache=cache,
        )
        for system, node in nodes.items()
    }
    refreshed_keys = {(d, m) for _, d, m in refreshed}
    for system in nodes:
        incr_entries = refresh_reports[system].entries
        scratch_entries = scratch_reports[system].entries
        assert set(incr_entries) == set(scratch_entries)
        for key, scratch_entry in scratch_entries.items():
            entry = incr_entries[key]
            if key in refreshed_keys:
                # Recomputed under the edited registry: every bit of the
                # stored definition must match the from-scratch build.
                assert entry.content_digest() == scratch_entry.content_digest()
            else:
                # Proven fresh: the definition itself is bit-identical
                # (its lineage legitimately records the pre-edit digest).
                assert tuple(entry.coefficients) == tuple(
                    scratch_entry.coefficients
                )
                assert entry.error == scratch_entry.error

    # -- No-op refresh: freshness proofs cost milliseconds. --------------
    t0 = time.perf_counter()
    noop = {
        system: refresh_catalog(
            store,
            node,
            SYSTEM_DOMAINS[system],
            registry=edited[system],
            cache=cache,
        )
        for system, node in nodes.items()
    }
    t_noop = time.perf_counter() - t0
    assert all(not report.refreshed for report in noop.values())

    # -- Render the report, then gate on it: a failing gate still leaves
    # this run's numbers in the results file, never a previous run's. ---
    delta = refresh_reports["frontier"].deltas["gpu_flops"]
    rows = [
        ["full catalog build (9 analyses, cold cache)", f"{t_build:.3f}",
         f"{total_entries} entries"],
        ["refresh after 1-event edit (warm cache)", f"{t_refresh:.3f}",
         f"{len(refreshed)} entries recomputed, {unchanged} proven fresh; "
         f"{delta.reused}/{delta.total} columns reused"],
        ["no-op refresh (same edit again)", f"{t_noop:.3f}",
         f"0 recomputed, {total_entries} proven fresh"],
    ]
    path = write_markdown(
        results_dir / "incremental.md",
        ["scenario", "wall time (s)", "work"],
        rows,
        title="Incremental recomputation: refresh, don't resweep",
    )
    with path.open("a") as fh:
        fh.write(
            f"\nMeasured speedup: **{speedup:.1f}x** "
            f"(threshold {MIN_SPEEDUP:g}x: "
            f"{'met' if speedup >= MIN_SPEEDUP else 'NOT met'}).  "
            "Refreshed entries are content-digest identical to a "
            "from-scratch build on the edited registry; untouched entries "
            "keep bit-identical coefficients.\n"
        )
    assert speedup >= MIN_SPEEDUP, (
        f"single-event refresh must be >= {MIN_SPEEDUP}x faster than the "
        f"full build; measured {speedup:.1f}x "
        f"({t_build:.2f}s vs {t_refresh:.2f}s)"
    )
