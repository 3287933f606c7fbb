"""The four workloads, each in an untraced (end-to-end) and a traced form.

Every workload returns a :class:`Outcome` holding the attempted and failed
operation counts, the failure breakdown and its metrics.  Untraced runs give
the end-to-end metrics; traced runs measure the first half of the window
untraced and the second half traced, and report per-layer metrics.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from collections import Counter
from dataclasses import dataclass, field

import layers
from common import beyond, metric, median, percentile, vm_hwm_mb
from inputs import CHUNK, Profile, build_world, kglink_config, table_json
from loadgen import (
    Deployment,
    closed_loop,
    encode_request,
    fleet_ready,
    gateway_ready,
    send_each,
)
from tracing import Tracer


@dataclass
class Run:
    """What one invocation runs on."""

    workload: str
    profile: Profile
    seed: int
    seconds: float
    bundle: str
    groups: dict[str, list]
    traced: bool


@dataclass
class Outcome:
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    checked: int = 0
    metrics: dict[str, dict] = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    tracer: object = None  # the traced run's spans

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


# --------------------------------------------------------------------------- #
# answer checking
# --------------------------------------------------------------------------- #
def reference(bundle: str, tables: list) -> dict[str, list[str]]:
    """Predictions of a separate cache-less service, keyed by table id
    (ids are unique within a run, so this is keyed by table content)."""
    from repro.serve import AnnotationService

    answers: dict[str, list[str]] = {}
    with AnnotationService.load(bundle, cache_size=0) as service:
        for start in range(0, len(tables), CHUNK):
            chunk = tables[start:start + CHUNK]
            for table, predicted in zip(chunk, service.annotate_batch(chunk), strict=True):
                answers[table.table_id] = predicted
    return answers


def quality(tables: list, answers: dict[str, list[str]]) -> tuple[float, float, int]:
    """Accuracy and weighted F1 (shares) of ``answers`` against generator labels."""
    from repro.data import evaluate_predictions

    y_true, y_pred = [], []
    for table in tables:
        for column, predicted in zip(table.columns, answers[table.table_id], strict=False):
            if column.label is not None:
                y_true.append(column.label)
                y_pred.append(predicted)
    result = evaluate_predictions(y_true, y_pred)
    return result.accuracy / 100.0, result.weighted_f1 / 100.0, len(y_true)


def score_http(outcomes, tables: list, expected: dict[str, list[str]], report: Outcome,
               served: dict[str, list[str]]) -> list:
    """Count every request; return those answered 200 with the reference answer."""
    correct = []
    for outcome in outcomes:
        report.attempted += 1
        if outcome.status == -1:
            report.failures["transport"] += 1
            continue
        if outcome.status != 200:
            report.failures[f"http_{outcome.status}"] += 1
            continue
        table = tables[outcome.key]
        body = json.loads(outcome.body)
        report.checked += 1
        if (body.get("table_id") != table.table_id
                or body.get("predictions") != expected[table.table_id]):
            report.failures["mismatch"] += 1
            continue
        served[table.table_id] = body["predictions"]
        correct.append(outcome)
    return correct


def latency_metrics(report: Outcome, latencies_ms: list[float]) -> None:
    """The median per operation is an end-to-end metric; the tail percentiles
    go to the detail line with the number of samples beyond them, because on
    a shared 2-core host they move with interference more than with code."""
    report.metrics["latency_p50_ms"] = metric(percentile(latencies_ms, 0.5), "ms",
                                              len(latencies_ms))
    for name, q in (("latency_p90_ms", 0.9), ("latency_p99_ms", 0.99)):
        report.detail[name] = metric(percentile(latencies_ms, q), "ms", len(latencies_ms),
                                     beyond=beyond(latencies_ms, q))


def block_rates(ends: list[float], block: int = 128) -> list[float]:
    """Answers per second over consecutive blocks of ``block`` answers (fewer
    when a short run has too few for four blocks).  Every block is the same
    work, and their median is the HTTP workloads' ``tables_per_s``, which a
    few blocks slowed by the shared host do not move."""
    ends = sorted(ends)
    block = min(block, max(1, (len(ends) - 1) // 4))
    return [block / (ends[i + block] - ends[i])
            for i in range(0, len(ends) - block, block)]


def quality_metrics(report: Outcome, tables: list, served: dict[str, list[str]]) -> None:
    accuracy, f1, columns = quality(tables, served)
    report.metrics["accuracy"] = metric(accuracy, "share", columns)
    report.metrics["weighted_f1"] = metric(f1, "share", columns)


# --------------------------------------------------------------------------- #
# batch-cold: in-process annotate_batch over never-seen tables
# --------------------------------------------------------------------------- #
def _cold_pass(run: Run, tables: list, report: Outcome, latencies_ms: list[float],
               tracer=None):
    """One pass: load a fresh service (timed: one ``setup_s`` sample), warm it
    on the warm-up tables (untimed), then annotate ``tables`` in chunks
    (timed).  A fresh service has an empty Part-1 cache and an empty linker
    cache, so every pass does the same kind of never-seen work.

    Returns (set-up seconds, pass seconds, answers, counter delta); answers
    of a failed chunk are missing.
    """
    from repro.core.errors import ServingError
    from repro.serve import AnnotationService

    warm = run.groups["warmup"]
    start = time.perf_counter()
    service = AnnotationService.load(run.bundle)
    setup = time.perf_counter() - start
    answers: dict[str, list[str]] = {}
    with service:
        for start in range(0, len(warm), CHUNK):
            service.annotate_batch(warm[start:start + CHUNK])
        before = layers.service_snapshot(service)
        with tracer if tracer is not None else contextlib.nullcontext():
            started = time.perf_counter()
            for start in range(0, len(tables), CHUNK):
                chunk = tables[start:start + CHUNK]
                report.attempted += len(chunk)
                begin = time.perf_counter()
                try:
                    predicted = service.annotate_batch(chunk)
                except ServingError:
                    report.failures["error"] += len(chunk)
                    continue
                latencies_ms.append((time.perf_counter() - begin) * 1e3)
                answers.update(zip((table.table_id for table in chunk), predicted,
                                   strict=True))
            wall = time.perf_counter() - started
        delta = layers.service_delta(service, before)
    return setup, wall, answers, delta


def batch_cold(run: Run) -> Outcome:
    """Consecutive passes over the stream, each in a fresh service, until the
    window is spent.  Every pass is the same amount of never-seen work, so the
    median over passes is not moved by a few passes the shared host slowed,
    and a fast host does not reach a warmer cache than a slow one.

    Answers are checked on every ``check_stride``-th stream table; sampled
    tables the window did not reach are annotated afterwards, untimed, so the
    sample (and with it accuracy) depends on the seed alone.  A traced run
    spends the first half of the window untraced and traces whole passes from
    then on (at least one).
    """
    from repro.serve import AnnotationService

    stream, size, report = run.groups["stream"], run.profile.cold_pass, Outcome()
    tracer = Tracer() if run.traced else None
    passes, latencies_ms = [], []  # (traced, set-up s, pass s, answers, counters)
    started = time.perf_counter()
    while (not passes or time.perf_counter() - started < run.seconds
           or (tracer is not None and not passes[-1][0])):
        in_trace = tracer is not None and time.perf_counter() - started >= run.seconds / 2
        first = len(passes) * size % len(stream)
        passes.append((in_trace, *_cold_pass(run, stream[first:first + size], report,
                                              latencies_ms, tracer if in_trace else None)))
    setups = [setup for _, setup, _, _, _ in passes]
    while len(setups) < run.profile.inproc_setup_repeats:
        start = time.perf_counter()
        AnnotationService.load(run.bundle).close()
        setups.append(time.perf_counter() - start)
    peak = vm_hwm_mb()  # before the catch-up and reference services exist

    served: dict[str, list[str]] = {}
    for _, _, _, answers, _ in passes:
        for table_id, columns in answers.items():
            served.setdefault(table_id, columns)
    sample = stream[run.seed % run.profile.check_stride::run.profile.check_stride]
    missing = [table for table in sample if table.table_id not in served]
    if missing:
        served.update(_cold_pass(run, missing, report, [])[2])
    expected = reference(run.bundle, sample)
    report.checked = len(sample)
    rates, halves, counters = [], {False: [0, 0.0], True: [0, 0.0]}, {}
    for in_trace, _, wall, answers, delta in passes:
        wrong = [table_id for table_id, columns in answers.items()
                 if table_id in expected and columns != expected[table_id]]
        if wrong:
            report.failures["mismatch"] += len(wrong)
            report.detail.setdefault("mismatched_ids", wrong[:10])
        good = len(answers) - len(wrong)
        halves[in_trace][0] += good
        halves[in_trace][1] += wall
        if not in_trace:
            rates.append(good / wall)
        if in_trace:
            for key, value in delta.items():
                counters[key] = counters.get(key, 0) + value
    if missing:  # answered after the window: checked, but in no pass's rate
        wrong = [t.table_id for t in missing
                 if t.table_id in served and served[t.table_id] != expected[t.table_id]]
        report.failures["mismatch"] += len(wrong)
    if tracer is not None:
        (plain, plain_wall), (done, wall) = halves[False], halves[True]
        report.tracer = tracer
        report.detail["trace"] = layers.in_process(
            tracer, wall, (done / wall) / (plain / plain_wall), serve=counters)
    report.detail["tables_per_s_blocks"] = [round(rate, 1) for rate in rates]
    report.detail["stream_laps"] = len(passes) * size / len(stream)
    report.metrics = {
        "setup_s": metric(median(setups), "s", len(setups)),
        "tables_per_s": metric(median(rates), "tables/s", len(rates)),
        "peak_rss_mb": metric(peak, "MB", 1),
    }
    latency_metrics(report, latencies_ms)
    quality_metrics(report, [t for t in sample if t.table_id in served], served)
    return report


# --------------------------------------------------------------------------- #
# http-hot and fleet-mixed: closed-loop HTTP clients against a deployment
# --------------------------------------------------------------------------- #
def _deploy(run: Run, module: str, extra: list[str], ready) -> tuple[Deployment, list[float]]:
    """Start the deployment ``setup_repeats`` times; keep the last one up."""
    setups = []
    for attempt in range(run.profile.setup_repeats):
        deployment = Deployment(module, run.bundle, extra)
        try:
            setups.append(deployment.wait_ready(ready))
        except BaseException:
            deployment.stop()
            raise
        if attempt < run.profile.setup_repeats - 1:
            deployment.stop()
    return deployment, setups


async def _embedded(service, client):
    """Run ``client(port)`` against an in-process gateway over ``service``."""
    from repro.gateway import Gateway, GatewayConfig

    async with Gateway(service, GatewayConfig(port=0)) as gateway:
        return await client(gateway)


def _http(run: Run, tables: list, schedule, warm_keys: list[int], must_answer: list[int],
          module: str, extra: list[str], ready, seat: str):
    """Shared by both HTTP workloads: deploy, warm up, run the closed loop, catch up, stop.

    Returns the report plus the timed loop and the warm-up/catch-up outcomes.
    """
    requests = [encode_request(table_json(table)) for table in tables]
    report = Outcome()

    async def drive(port, gateway=None, service=None):
        warm = await send_each(port, requests, warm_keys)
        if gateway is None:
            loop = await closed_loop(port, requests, schedule, run.seconds)
            trace = None
        else:
            plain = await closed_loop(port, requests, schedule, run.seconds / 2)
            before = layers.embedded_snapshot(gateway, service)
            with Tracer() as tracer:
                loop = await closed_loop(port, requests, schedule, run.seconds / 2,
                                         first=len(plain.outcomes))
            trace = (plain, tracer, before, layers.embedded_snapshot(gateway, service))
        sent = {outcome.key for outcome in loop.outcomes}
        if trace is not None:
            sent |= {outcome.key for outcome in plain.outcomes}
        catch_up = await send_each(port, requests, [k for k in must_answer if k not in sent])
        return warm + catch_up, loop, trace

    if not run.traced:
        deployment, setups = _deploy(run, module, extra, ready)
        try:
            extra_outcomes, loop, _ = asyncio.run(drive(deployment.port))
            peak = deployment.peak_rss_mb()
        finally:
            deployment.stop()
        report.metrics["setup_s"] = metric(median(setups), "s", len(setups))
        report.metrics["peak_rss_mb"] = metric(peak, "MB", 1)
        return report, extra_outcomes, loop, None

    service = layers.embedded_service(run.bundle, module)
    try:
        extra_outcomes, loop, trace = asyncio.run(_embedded(
            service, lambda gateway: drive(gateway.port, gateway, service)))
    finally:
        service.close()
    return report, extra_outcomes, loop, (trace, seat)


def _finish_http(run: Run, tables: list, report: Outcome, extra_outcomes, loop, traced,
                 quality_tables: list) -> dict[str, list[str]]:
    outcomes = loop.outcomes + extra_outcomes + (traced[0][0].outcomes if traced else [])
    sent = {outcome.key for outcome in outcomes}
    expected = reference(run.bundle, [tables[key] for key in sorted(sent)])
    served: dict[str, list[str]] = {}
    score_http(extra_outcomes, tables, expected, report, served)
    if traced is not None:
        (plain, tracer, before, after), seat = traced
        plain_correct = score_http(plain.outcomes, tables, expected, report, served)
    correct = score_http(loop.outcomes, tables, expected, report, served)
    blocks = block_rates([o.end for o in correct])
    report.detail["tables_per_s_blocks"] = [round(rate, 1) for rate in blocks]
    report.metrics["tables_per_s"] = metric(median(blocks) if blocks else 0.0, "tables/s",
                                            len(blocks))
    latency_metrics(report, [(o.end - o.start) * 1e3 for o in correct])
    quality_metrics(report, quality_tables, served)
    if traced is not None:
        report.tracer = tracer
        plain_rate = len(plain_correct) / (plain.finished - plain.started)
        report.detail["trace"] = layers.embedded(
            tracer, seat, correct, tables, before, after,
            report.metrics["tables_per_s"]["value"] / plain_rate)
    return served


def http_hot(run: Run) -> Outcome:
    pool = run.groups["pool"]
    keys = list(range(len(pool)))
    report, extra_outcomes, loop, traced = _http(
        run, pool, lambda i: i % len(pool), keys, [], "repro.gateway", [],
        gateway_ready, "serve.annotate_batch")
    _finish_http(run, pool, report, extra_outcomes, loop, traced, pool)
    return report


def fleet_mixed(run: Run) -> Outcome:
    hot, cold, warm = run.groups["hot"], run.groups["cold"], run.groups["warmup"]
    tables = hot + cold + warm
    n_hot, n_cold = len(hot), len(cold)

    def schedule(i: int) -> int:
        # Alternate results-cache reads (hot pool) and writes (never-seen).
        return (i // 2) % n_hot if i % 2 == 0 else n_hot + (i // 2) % n_cold

    warm_keys = list(range(n_hot)) + list(range(n_hot + n_cold, len(tables)))
    must = list(range(n_hot, n_hot + run.profile.fleet_check_cold))
    report, extra_outcomes, loop, traced = _http(
        run, tables, schedule, warm_keys, must, "repro.fleet", ["--replicas", "2"],
        fleet_ready, "fleet.annotate_batch")
    _finish_http(run, tables, report, extra_outcomes, loop, traced,
                 hot + cold[:run.profile.fleet_check_cold])
    ok = {o.key for o in loop.outcomes if o.status == 200}
    for kind, chosen in (("hit", lambda k: k < n_hot), ("miss", lambda k: k >= n_hot)):
        samples = [(o.end - o.start) * 1e3 for o in loop.outcomes
                   if o.key in ok and chosen(o.key)]
        value = percentile(samples, 0.5) if samples else 0.0
        report.detail[f"{kind}_latency_ms_p50"] = value
        if run.traced:
            report.detail["trace"][f"fleet.{kind}_latency_ms_p50"] = value
    return report


# --------------------------------------------------------------------------- #
# train: in-process fit + evaluate of the seeded recipe
# --------------------------------------------------------------------------- #
def _corpora(run: Run):
    from repro.data import TableCorpus

    train = TableCorpus("train", run.groups["train"])
    return (train, *(TableCorpus(name, run.groups[name], train.label_vocabulary)
                     for name in ("validation", "test")))


def _setup(run: Run):
    """The train workload's set-up: build the world, construct the annotator."""
    from repro.core import KGLinkAnnotator

    world = build_world(run.profile)
    return KGLinkAnnotator(world.graph, kglink_config(run.profile, run.seed))


def _fits(run: Run, seconds: float, report: Outcome, state: dict) -> tuple[float, int]:
    """Set up and fit repeatedly for ``seconds``; returns (fit seconds, tables×epochs).

    Each fit is checked against the first by its validation-split predictions
    (Part 1 of those tables is cached by the fit, so the check is cheap).
    """
    train, validation, _ = _corpora(run)
    fit_seconds, work = 0.0, 0
    stop_at = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        annotator = _setup(run)
        state["setups"].append(time.perf_counter() - start)
        start = time.perf_counter()
        history = annotator.fit(train, validation)
        elapsed = time.perf_counter() - start
        state["fits_ms"].append(elapsed * 1e3)
        fit_seconds += elapsed
        work += len(train.tables) * history.epochs_completed
        state["rates"].append(len(train.tables) * history.epochs_completed / elapsed)
        state["linker"].append(annotator.linker.cache_info())
        predicted = annotator.predict_corpus(validation)
        report.attempted += 1
        report.checked += 1
        if state.setdefault("first", predicted) != predicted:
            report.failures["nondeterministic_fit"] += 1
        state["annotator"] = annotator
        if time.perf_counter() >= stop_at:
            return fit_seconds, work


def train(run: Run) -> Outcome:
    report = Outcome()
    state: dict = {"setups": [], "fits_ms": [], "rates": [], "linker": []}
    if run.traced:
        plain_s, plain_work = _fits(run, run.seconds / 2, report, state)
        state["linker"].clear()
        start = time.perf_counter()
        with Tracer() as tracer:
            fit_s, work = _fits(run, run.seconds / 2, report, state)
        report.tracer = tracer
        report.detail["trace"] = layers.in_process(
            tracer, time.perf_counter() - start, (work / fit_s) / (plain_work / plain_s),
            linker=state["linker"])
    else:
        fit_s, work = _fits(run, run.seconds, report, state)
    result = state["annotator"].evaluate(_corpora(run)[2])
    peak = vm_hwm_mb()
    setups = state["setups"]
    while len(setups) < run.profile.inproc_setup_repeats:
        start = time.perf_counter()
        _setup(run)
        setups.append(time.perf_counter() - start)
    columns = result.num_columns
    report.metrics = {
        "setup_s": metric(median(setups), "s", len(setups)),
        "tables_per_s": metric(median(state["rates"]), "tables/s", len(state["rates"])),
        "accuracy": metric(result.accuracy / 100.0, "share", columns),
        "weighted_f1": metric(result.weighted_f1 / 100.0, "share", columns),
        "peak_rss_mb": metric(peak, "MB", 1),
    }
    latency_metrics(report, state["fits_ms"])
    return report


WORKLOADS = {
    "batch-cold": batch_cold,
    "http-hot": http_hot,
    "fleet-mixed": fleet_mixed,
    "train": train,
}
