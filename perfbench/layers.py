"""Which layer entry points the traced run wraps, and the per-layer
metrics derived from what it recorded."""

from __future__ import annotations

import statistics

import repro.federation.digest as digest_module
from repro.cache.base import Cache
from repro.cache.lru import LRUCache
from repro.core.events import HitLocation
from repro.core.simulator import Simulator
from repro.core.stream_engine import StreamSimulator
from repro.federation.engine import FederatedSimulator
from repro.index.bloom import BloomFilter
from repro.index.browser_index import BrowserIndex
from repro.traces.record import Trace
from repro.traces.streaming import TraceStream

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("traces.generate_s", "s", "lower"),
    ("traces.iter_s", "s", "lower"),
    ("cache.put_calls", "count", "lower"),
    ("cache.put_s", "s", "lower"),
    ("cache.evictions", "count", "lower"),
    ("cache.peek_calls", "count", "lower"),
    ("cache.peek_s", "s", "lower"),
    ("index.insert_calls", "count", "lower"),
    ("index.insert_s", "s", "lower"),
    ("index.evict_calls", "count", "lower"),
    ("index.evict_s", "s", "lower"),
    ("index.peak_entries", "count", "lower"),
    ("index.lookup_calls", "count", "lower"),
    ("index.lookup_s", "s", "lower"),
    ("index.lookup_hit_share", "share", "higher"),
    ("index.false_hit_share", "share", "lower"),
    ("bloom.add_calls", "count", "lower"),
    ("bloom.add_s", "s", "lower"),
    ("federation.digest_builds", "count", "lower"),
    ("federation.digest_build_self_s", "s", "lower"),
    ("federation.digest_build_s", "s", "lower"),
    ("federation.digest_build_share", "share", "lower"),
    ("federation.digest_bytes", "bytes", "lower"),
    ("federation.interproxy_hit_share", "share", "higher"),
    ("federation.digest_false_hit_share", "share", "lower"),
    ("federation.run_self_s", "s", "lower"),
    ("simulator.setup_s", "s", "lower"),
    ("simulator.run_self_s", "s", "lower"),
    ("simulator.remote_hit_share", "share", "higher"),
    ("simulator.failover_attempts", "count", "lower"),
    ("stream.setup_s", "s", "lower"),
    ("stream.run_self_s", "s", "lower"),
    ("sweep.cells", "count", "higher"),
    ("sweep.cell_s_p50", "s", "lower"),
    ("sweep.cell_s_p90", "s", "lower"),
    ("sweep.pool_efficiency", "share", "higher"),
    ("sweep.straggler_s", "s", "lower"),
    ("check.oracle_s", "s", "lower"),
    ("trace.overhead_share", "share", "lower"),
)

#: per-layer metrics only ``mrc-sizing`` reaches.  That workload is left
#: out of ``BENCHMARK.json`` until ``repro.analysis.mrc`` is bit-exact
#: again (see README.md), so these are printed by its runs alone.
MRC_LAYER = (
    ("traces.sample_keep_share", "share", "higher"),
    ("mrc.full_pass_s", "s", "lower"),
    ("mrc.sampled_pass_s", "s", "lower"),
    ("mrc.points", "count", "higher"),
)

#: call sites the production loops inline, so no wrapper can see them;
#: their share of the layer's work is missing from the counts above.
NOT_OBSERVABLE = {
    "cache.get": "Simulator._run_fast and StreamSimulator.run probe LRUCache._entries directly",
    "cache.put (proxy populate)": "Simulator._run_fast inlines LRUCache.put for an LRU proxy",
    "cache.put (browser populate, no index)": "Simulator._run_fast inlines LRUCache.put when no browser index exists",
    "stream browser caches": "StreamSimulator keeps browsers in flat array slot pools, not LRUCache objects",
    "mrc stack updates": "compute_mrc's per-request stack work is private; only whole passes are timed",
}


def install(tracer) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    tracer.wrap_row_source(Trace, "iter_rows", "traces.iter")
    tracer.wrap_row_source(TraceStream, "iter_rows", "traces.iter")
    tracer.wrap_leaf(
        LRUCache, "put", "cache.put", observe=lambda evicted: tracer.count("cache.evictions", len(evicted))
    )
    tracer.wrap_leaf(Cache, "peek", "cache.peek")
    tracer.wrap_leaf(BrowserIndex, "record_insert", "index.insert")
    tracer.wrap_leaf(BrowserIndex, "record_evict", "index.evict")
    tracer.wrap_leaf(
        BrowserIndex, "lookup", "index.lookup", observe=lambda hit: tracer.count("index.lookup_hits", hit is not None)
    )
    tracer.wrap_leaf(BloomFilter, "add", "bloom.add")
    tracer.wrap_span(digest_module, "build_proxy_digest", "federation.digest_build")
    tracer.wrap_span(FederatedSimulator, "__init__", "federation.setup")
    tracer.wrap_span(FederatedSimulator, "run", "federation.run", keep_return=True)
    tracer.wrap_span(Simulator, "__init__", "simulator.setup")
    tracer.wrap_span(Simulator, "run", "simulator.run", keep_return=True)
    tracer.wrap_span(StreamSimulator, "__init__", "stream.setup")
    tracer.wrap_span(StreamSimulator, "run", "stream.run", keep_return=True)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def metrics(tracer, extra: dict) -> dict:
    """Every per-layer metric: measured ones from *tracer*, the rest
    from *extra* (values the run measured itself), zero where the
    workload never reached the layer."""
    t = tracer
    values = {name: 0.0 for name, _, _ in PER_LAYER + MRC_LAYER}
    for layer in ("cache.put", "cache.peek", "index.lookup", "bloom.add"):
        values[f"{layer}_calls"] = t.leaf_calls(layer)
        values[f"{layer}_s"] = t.leaf_seconds(layer)
    values["index.insert_calls"] = t.leaf_calls("index.insert")
    values["index.insert_s"] = t.leaf_seconds("index.insert")
    values["index.evict_calls"] = t.leaf_calls("index.evict")
    values["index.evict_s"] = t.leaf_seconds("index.evict")
    values["traces.iter_s"] = t.leaf_seconds("traces.iter")
    values["cache.evictions"] = t.counters.get("cache.evictions", 0)

    lookup_hits = t.counters.get("index.lookup_hits", 0)
    values["index.lookup_hit_share"] = _share(lookup_hits, t.leaf_calls("index.lookup"))
    engine_results = (
        t.returns.get("simulator.run", [])
        + t.returns.get("stream.run", [])
        + t.returns.get("federation.run", [])
    )
    values["index.peak_entries"] = max((r.index_peak_entries for r in engine_results), default=0)
    values["index.false_hit_share"] = _share(
        sum(r.index_stats.false_hits for r in engine_results), lookup_hits
    )

    values["federation.digest_builds"] = t.span_count("federation.digest_build")
    values["federation.digest_build_self_s"] = t.span_self_seconds("federation.digest_build")
    values["federation.digest_build_s"] = t.span_seconds("federation.digest_build")
    values["federation.digest_build_share"] = _share(
        t.span_seconds("federation.digest_build"), t.span_seconds("federation.run")
    )
    values["federation.run_self_s"] = t.span_self_seconds("federation.run")
    federated = t.returns.get("federation.run", [])
    if federated:
        requests = sum(r.n_requests for r in federated)
        ipx = sum(r.interproxy_hits for r in federated)
        false_hits = sum(r.digest_false_hits for r in federated)
        values["federation.digest_bytes"] = sum(r.digest_bytes_exchanged for r in federated)
        values["federation.interproxy_hit_share"] = _share(ipx, requests)
        values["federation.digest_false_hit_share"] = _share(false_hits, ipx + false_hits)

    values["simulator.setup_s"] = t.span_seconds("simulator.setup")
    values["simulator.run_self_s"] = t.span_self_seconds("simulator.run")
    plain = t.returns.get("simulator.run", [])
    values["simulator.remote_hit_share"] = _share(
        sum(r.by_location[HitLocation.REMOTE_BROWSER].hits for r in plain),
        sum(r.n_requests for r in plain),
    )
    values["simulator.failover_attempts"] = sum(r.failover_attempts for r in plain)
    values["stream.setup_s"] = t.span_seconds("stream.setup")
    values["stream.run_self_s"] = t.span_self_seconds("stream.run")
    values["mrc.full_pass_s"] = t.span_seconds("mrc.full_pass")
    values["mrc.sampled_pass_s"] = t.span_seconds("mrc.sampled_pass")

    unknown = set(extra) - set(values)
    if unknown:
        raise KeyError(f"not per-layer metrics: {sorted(unknown)}")
    values.update(extra)
    return values


def sweep_metrics(timings) -> dict:
    """Pool metrics from the untraced pooled sweeps' ``SweepTiming``s:
    per-cell quantiles over every cell, the rest as medians over
    sweeps.  ``straggler_s`` is the wall time the pool was not fully
    busy: wall minus the cell seconds spread evenly over the workers."""
    cells = sorted(s for t in timings for s in t.cell_seconds)
    deciles = statistics.quantiles(cells, n=10)
    return {
        "sweep.cells": timings[0].n_cells,
        "sweep.cell_s_p50": statistics.median(cells),
        "sweep.cell_s_p90": deciles[8],
        "sweep.pool_efficiency": statistics.median(
            sum(t.cell_seconds) / (max(t.workers, 1) * t.wall_seconds) for t in timings
        ),
        "sweep.straggler_s": statistics.median(
            t.wall_seconds - sum(t.cell_seconds) / max(t.workers, 1) for t in timings
        ),
    }
