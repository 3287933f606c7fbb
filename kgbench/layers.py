"""Per-layer metrics of a traced run.

Layer names follow the modules of ``src/repro``.  Counters the program
already keeps (``ServiceStats``, ``Gateway.stats()``, ``FleetRouter.stats()``,
``EntityLinker.cache_info()``) are read as deltas over the traced window;
busy and self times come from the spans in :mod:`tracing`.

Wall-time accounting: in-process workloads charge the traced window; the
HTTP workloads charge request time (the sum of client latencies), where each
request's latency splits into the gateway's part (latency minus the seat
``annotate_batch`` span of the batch that carried it) and that seat span's
subtree.  Either way the layer shares plus ``trace.unaccounted_share`` sum
to one.
"""

from __future__ import annotations

from common import percentile
from tracing import LAYERS, Analysis, Tracer

# name -> unit; every traced run reports all of them (0 where a layer idles).
PER_LAYER = {
    "gateway.self_ms": "ms",
    "gateway.mean_batch_size": "tables",
    "gateway.batches": "count",
    "gateway.shed": "count",
    "gateway.expired": "count",
    "gateway.errors": "count",
    "fleet.results_cache.hit_ratio": "share",
    "fleet.results_cache.coalesced": "count",
    "fleet.results_cache.evictions": "count",
    "fleet.dispatches": "count",
    "fleet.failovers": "count",
    "fleet.replica_errors": "count",
    "fleet.timeouts": "count",
    "fleet.wire.roundtrip_ms": "ms",
    "fleet.wire.overhead_ms": "ms",
    "fleet.hit_latency_ms_p50": "ms",
    "fleet.miss_latency_ms_p50": "ms",
    "serve.part1_s": "s",
    "serve.encode_s": "s",
    "serve.cache.hit_ratio": "share",
    "serve.bucket_fill": "share",
    "serve.batches": "count",
    "serve.retries": "count",
    "serve.fallbacks": "count",
    "core.step1_link_s": "s",
    "core.step2_filter_s": "s",
    "core.step3_types_s": "s",
    "core.serialize_s": "s",
    "core.predict_s": "s",
    "core.tables_processed": "count",
    "core.train_loop_s": "s",
    "core.train_steps": "count",
    "kg.link_batch_s": "s",
    "kg.mentions": "count",
    "kg.mention_cache.hit_ratio": "share",
    "kg.search_calls": "count",
    "kg.search_s": "s",
    "plm.encoder_forward_s": "s",
    "plm.encoder_calls": "count",
    "plm.pretrain_s": "s",
    "nn.backward_s": "s",
    "nn.optimizer_step_s": "s",
    "nn.clip_grad_s": "s",
    "text.tokenize_s": "s",
    "text.tokenize_calls": "count",
    **{f"{layer}.self_share": "share" for layer in LAYERS},
    "trace.unaccounted_share": "share",
    "trace.overhead": "ratio",
    "host.ref_loop_ms": "ms",  # filled in by run.py: mean of the before/after probes
}

_SERVE_KEYS = ("part1_seconds", "encode_seconds", "cache_hits", "cache_misses",
               "batches", "useful_tokens", "padded_tokens", "retries", "fallbacks")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# --------------------------------------------------------------------------- #
# counters read from the program
# --------------------------------------------------------------------------- #
def _linker_counts(infos) -> tuple[int, int]:
    return sum(info.hits for info in infos), sum(info.misses for info in infos)


def service_snapshot(service) -> dict:
    stats = service.stats().to_dict()
    hits, misses = _linker_counts([service.linker.cache_info()])
    return {**{key: stats[key] for key in _SERVE_KEYS}, "linker_hits": hits,
            "linker_misses": misses}


def service_delta(service, before: dict) -> dict:
    after = service_snapshot(service)
    return {key: after[key] - before[key] for key in after}


def _replica_stats(router) -> dict:
    """Summed ``ServiceStats`` of every live replica, asked over the wire."""
    from repro.fleet import ReplicaClient

    total = dict.fromkeys(_SERVE_KEYS, 0.0)
    for member in router.supervisor.members():
        client = ReplicaClient(member.address, name=member.name)
        try:
            stats = client.request("stats")
        finally:
            client.close()
        for key in _SERVE_KEYS:
            total[key] += stats[key]
    return total


def embedded_service(bundle: str, module: str):
    """The object the CLI ``module`` puts in the gateway's seat, with its
    default settings."""
    from repro.serve import AnnotationService

    if module == "repro.gateway":
        return AnnotationService.load(bundle, max_batch=16, cache_size=1024)
    from repro.fleet import FleetRouter, ProcessLauncher, ReplicaSupervisor, SharedResultsCache
    from repro.runtime.resilience import RuntimePolicy

    policy = RuntimePolicy(timeout_s=30.0)
    launcher = ProcessLauncher(bundle, service_kwargs={"max_batch": 16, "cache_size": 1024})
    supervisor = ReplicaSupervisor(launcher, 2, policy=policy, heartbeat_interval_s=1.0,
                                   heartbeat_timeout_s=5.0, max_restarts=3)
    supervisor.start()
    return FleetRouter(supervisor, policy=policy, cache=SharedResultsCache(maxsize=4096),
                       max_batch=16, own_supervisor=True)


def embedded_snapshot(gateway, service) -> dict:
    snapshot = {"gateway": dict(gateway.stats())}
    if hasattr(service, "supervisor"):
        snapshot["fleet"] = service.stats().to_dict()
        snapshot["serve"] = _replica_stats(service)
    else:
        snapshot["serve"] = service_snapshot(service)
    return snapshot


# --------------------------------------------------------------------------- #
# assembling the report
# --------------------------------------------------------------------------- #
def _base(analysis: Analysis, overhead: float) -> dict[str, float]:
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    train_spans = analysis.named("core.train")
    metrics.update({
        "core.step1_link_s": analysis.busy("core.link_table"),
        "core.step2_filter_s": analysis.busy("core.step2"),
        "core.step3_types_s": analysis.self_seconds("core.process_table"),
        "core.serialize_s": analysis.busy("core.prepare_example"),
        "core.predict_s": analysis.busy("core.predict"),
        "core.tables_processed": analysis.count("core.process_table"),
        "core.train_loop_s": analysis.busy("core.train"),
        "core.train_steps": sum(span.tag or 0 for span in train_spans),
        "kg.link_batch_s": analysis.busy("kg.link_batch"),
        "kg.mentions": sum(span.tag for span in analysis.named("kg.link_batch")),
        "kg.search_calls": analysis.count("kg.search"),
        "kg.search_s": analysis.busy("kg.search"),
        "plm.encoder_forward_s": analysis.busy("plm.encoder_forward"),
        "plm.encoder_calls": analysis.count("plm.encoder_forward"),
        "plm.pretrain_s": analysis.busy("plm.pretrain"),
        "nn.backward_s": analysis.busy("nn.backward"),
        "nn.optimizer_step_s": analysis.busy("nn.optimizer_step"),
        "nn.clip_grad_s": analysis.busy("nn.clip_grad"),
        "text.tokenize_s": analysis.busy("text.tokenize"),
        "text.tokenize_calls": analysis.count("text.tokenize"),
        "trace.overhead": overhead,
    })
    return metrics


def _serve(metrics: dict, delta: dict) -> None:
    metrics.update({
        "serve.part1_s": delta["part1_seconds"],
        "serve.encode_s": delta["encode_seconds"],
        "serve.cache.hit_ratio": _ratio(delta["cache_hits"],
                                        delta["cache_hits"] + delta["cache_misses"]),
        "serve.bucket_fill": _ratio(delta["useful_tokens"], delta["padded_tokens"]),
        "serve.batches": delta["batches"],
        "serve.retries": delta["retries"],
        "serve.fallbacks": delta["fallbacks"],
    })
    if "linker_hits" in delta:
        metrics["kg.mention_cache.hit_ratio"] = _ratio(
            delta["linker_hits"], delta["linker_hits"] + delta["linker_misses"])


def in_process(tracer: Tracer, wall: float, overhead: float, *, serve: dict | None = None,
               linker=None) -> dict[str, float]:
    """Layer shares of the traced window's wall time (one thread of work)."""
    analysis = Analysis(tracer.spans)
    metrics = _base(analysis, overhead)
    for layer, seconds in analysis.layer_self().items():
        metrics[f"{layer}.self_share"] = seconds / wall
    covered = sum(span.duration for span in analysis.roots())
    metrics["trace.unaccounted_share"] = (wall - covered) / wall
    if serve is not None:
        _serve(metrics, serve)
    if linker:
        hits, misses = _linker_counts(linker)
        metrics["kg.mention_cache.hit_ratio"] = _ratio(hits, hits + misses)
    return metrics


def embedded(tracer: Tracer, seat: str, correct, tables: list, before: dict, after: dict,
             overhead: float) -> dict[str, float]:
    """Layer shares of request time for a gateway (or fleet) in this process."""
    analysis = Analysis(tracer.spans)
    metrics = _base(analysis, overhead)
    seats: dict[str, list] = {}
    for span in analysis.named(seat):
        for table_id in span.tag:
            seats.setdefault(table_id, []).append(span)
    shares = dict.fromkeys(LAYERS, 0.0)
    subtree: dict[int, dict[str, float]] = {}
    request_time, unmatched, gateway_ms = 0.0, 0.0, []
    for outcome in correct:
        latency = outcome.end - outcome.start
        request_time += latency
        candidates = [span for span in seats.get(tables[outcome.key].table_id, ())
                      if outcome.start <= span.start and span.end <= outcome.end]
        if not candidates:
            unmatched += latency
            continue
        span = max(candidates, key=lambda item: item.end)
        if span.span_id not in subtree:
            subtree[span.span_id] = analysis.layer_self(span)
        for layer, seconds in subtree[span.span_id].items():
            shares[layer] += seconds
        shares["gateway"] += latency - span.duration
        gateway_ms.append((latency - span.duration) * 1e3)
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = _ratio(shares[layer], request_time)
    metrics["trace.unaccounted_share"] = _ratio(unmatched, request_time)
    metrics["gateway.self_ms"] = percentile(gateway_ms, 0.5) if gateway_ms else 0.0

    gateway = {key: after["gateway"].get(key, 0) - before["gateway"].get(key, 0)
               for key in after["gateway"] if isinstance(after["gateway"][key], (int, float))}
    metrics.update({
        "gateway.batches": gateway["batches"],
        "gateway.mean_batch_size": _ratio(gateway["batched_tables"], gateway["batches"]),
        "gateway.shed": gateway["shed_queue_full"] + gateway["shed_expired"],
        "gateway.expired": gateway["expired_at_admission"] + gateway["expired_in_flight"],
        "gateway.errors": gateway["errors"],
    })
    _serve(metrics, {key: after["serve"][key] - before["serve"][key] for key in after["serve"]})
    if "fleet" in after:
        fleet = {key: after["fleet"][key] - before["fleet"].get(key, 0) for key in after["fleet"]}
        hits, misses = fleet["results_cache_hits"], fleet["results_cache_misses"]
        trips = [span for span in analysis.named("fleet.wire.request")
                 if span.tag == "annotate_batch"]
        replica_busy = sum(after["serve"][key] - before["serve"][key]
                           for key in ("part1_seconds", "encode_seconds"))
        metrics.update({
            "fleet.results_cache.hit_ratio": _ratio(hits, hits + misses),
            "fleet.results_cache.coalesced": fleet["results_cache_coalesced"],
            "fleet.results_cache.evictions": fleet["results_cache_evictions"],
            "fleet.dispatches": fleet["dispatches"],
            "fleet.failovers": fleet["failovers"],
            "fleet.replica_errors": fleet["replica_errors"],
            "fleet.timeouts": fleet["timeouts"],
            "fleet.wire.roundtrip_ms": (percentile([s.duration for s in trips], 0.5) * 1e3
                                        if trips else 0.0),
            "fleet.wire.overhead_ms": _ratio(
                sum(s.duration for s in trips) - replica_busy, len(trips)) * 1e3,
        })
    return metrics
