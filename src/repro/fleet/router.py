"""The fleet router: one service-shaped front door over N replicas.

:class:`FleetRouter` satisfies the duck type the gateway serves —
``annotate_batch(tables, budget_s=...)``, ``stats()`` / ``health()``
(objects with ``to_dict()``), ``close()``, ``max_batch`` — so it drops into
:class:`~repro.gateway.app.Gateway` where a single in-process
:class:`~repro.serve.service.AnnotationService` normally sits.  It adds the
seat's one optional method, ``cached(tables)``: the answer when every table
is already in the results cache, else ``None``, without blocking, so the
gateway answers all-hit requests on its event loop.  Behind that surface:

* **least-outstanding routing** — each batch goes to the live replica with
  the fewest requests currently in flight (ties break by slot order), so a
  slow replica sheds load to its siblings instead of queueing it;
* **per-replica circuit breakers** — one
  :class:`~repro.runtime.resilience.CircuitBreaker` per *slot name* (not
  per process: breakers deliberately survive respawns, so a freshly
  restarted replica is admitted through the half-open probe rather than
  trusted blindly);
* **transparent failover** — a batch that hits a dead or unreachable
  replica (:class:`~repro.core.errors.ReplicaUnavailable`, connection
  reset, :class:`~repro.core.errors.WorkerCrashed`) is re-dispatched to the
  next-best replica, keeping the gateway's zero-silent-drop accounting
  intact across worker death.  Replicas are deterministic over the same
  bundle, so a re-dispatched batch returns bitwise-identical predictions;
  only :class:`~repro.core.errors.DeadlineExceeded` and replica-side
  *application* errors (the replica answered; retrying elsewhere would
  produce the same answer) propagate to the caller;
* a **shared results cache** (:class:`~repro.core.cache.SharedResultsCache`)
  in front of the whole fleet: repeat tables are answered from memory, and
  concurrent duplicates collapse to a single dispatch (single-flight), with
  hit/miss/coalesced counters surfaced through ``stats()`` for ``/stats``
  and ``/metrics``.

Membership comes from a :class:`~repro.fleet.supervisor.ReplicaSupervisor`:
the router reads ``members()`` fresh on every dispatch, so respawned
replicas (new port, same slot name) are picked up automatically and their
stale endpoints redialed.  ``health()`` aggregates the supervisor's cached
per-replica health snapshots — no wire I/O, so it is safe to call from the
gateway's event loop.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from collections.abc import Callable, Iterator, Sequence
from typing import Any

from repro.core.cache import SharedResultsCache
from repro.core.errors import (
    DeadlineExceeded,
    ReplicaUnavailable,
    ServiceClosed,
    ServingError,
    WorkerCrashed,
)
from repro.fleet.supervisor import FleetMember, ReplicaSupervisor
from repro.fleet.wire import ReplicaClient
from repro.runtime.resilience import CircuitBreaker, RuntimePolicy

__all__ = ["FleetRouter", "FleetStats", "FleetHealth"]

#: Fallback per-batch budget when neither the caller nor the policy sets one.
DEFAULT_BUDGET_S = 30.0

#: Errors that mean "this replica, right now" — the batch fails over.
_FAILOVER_ERRORS = (
    ReplicaUnavailable,
    WorkerCrashed,
    ServiceClosed,  # the replica is draining; its siblings are not
    ConnectionError,
    EOFError,
    OSError,
)


@dataclass(frozen=True)
class FleetStats:
    """Cumulative router telemetry (all-numeric, ``/metrics``-safe)."""

    requests: int
    tables: int
    dispatches: int
    failovers: int
    timeouts: int
    replica_errors: int
    rejected: int
    results_cache: dict[str, int] = field(default_factory=dict)
    supervisor: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Flat JSON-safe counters; cache and supervisor namespaced by prefix
        so the gateway's ``/metrics`` endpoint (numeric values only) can emit
        every key."""
        payload = {
            "requests": int(self.requests),
            "tables": int(self.tables),
            "dispatches": int(self.dispatches),
            "failovers": int(self.failovers),
            "timeouts": int(self.timeouts),
            "replica_errors": int(self.replica_errors),
            "rejected": int(self.rejected),
        }
        for key, value in self.results_cache.items():
            payload[f"results_cache_{key}"] = int(value)
        for key, value in self.supervisor.items():
            payload[f"fleet_{key}"] = int(value)
        return payload


@dataclass(frozen=True)
class FleetHealth:
    """Aggregated fleet health: the worst of the replicas, with reasons.

    ``status`` is ``"healthy"`` (every slot up and healthy, breakers
    closed), ``"degraded"`` (the fleet answers, but some slot is down,
    restarting, unhealthy, or breaker-limited) or ``"failed"`` (no live
    replica, or the router is closed).  ``replicas`` carries one entry per
    slot — state, restart count, the replica's own last-reported status and
    its breaker state — so ``/healthz`` shows *which* replica is sick, not
    just that one is.
    """

    status: str
    reasons: tuple[str, ...] = ()
    replicas: dict[str, dict] = field(default_factory=dict)
    breakers: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """A JSON-safe snapshot for the gateway's ``/healthz`` endpoint."""
        return {
            "status": str(self.status),
            "reasons": [str(reason) for reason in self.reasons],
            "replicas": {
                str(name): dict(info) for name, info in self.replicas.items()
            },
            "breakers": {str(name): str(state)
                         for name, state in self.breakers.items()},
        }


class FleetRouter:
    """Route ``annotate_batch`` calls across a supervised replica fleet.

    Thread-safe: the gateway's micro-batcher calls ``annotate_batch`` from
    worker threads while the event loop calls ``cached()`` and reads
    ``stats()`` / ``health()``; each takes only short-held locks.
    ``endpoint_factory(name, address)`` is injectable so tests can wrap the
    real :class:`~repro.fleet.wire.ReplicaClient` in a
    :class:`~repro.runtime.faults.FaultyEndpoint` and script wire failures
    without killing anything.

    With ``own_supervisor=True`` (the CLI default) :meth:`close` also stops
    the supervisor — the graceful-drain path: gateway stops admitting,
    in-flight batches finish, then every replica gets SIGTERM.
    """

    def __init__(self, supervisor: ReplicaSupervisor, *,
                 policy: RuntimePolicy | None = None,
                 cache: SharedResultsCache | None = None,
                 max_batch: int = 16,
                 endpoint_factory: Callable[[str, tuple[str, int]], Any] | None = None,
                 own_supervisor: bool = False,
                 clock: Callable[[], float] = time.monotonic):
        self.supervisor = supervisor
        self.policy = policy or supervisor.policy
        self.cache = cache if cache is not None else SharedResultsCache()
        self.max_batch = max_batch
        self._endpoint_factory = endpoint_factory or self._default_endpoint
        self._own_supervisor = own_supervisor
        self._clock = clock
        self._lock = threading.Lock()
        # Slot name -> (address, endpoint); a respawn changes the address,
        # which invalidates the cached endpoint on next use.
        self._endpoints: dict[str, tuple[tuple[str, int], Any]] = {}  # guarded-by: _lock
        # Slot name -> breaker.  Keyed by name, not process: survives respawns.
        self._breakers: dict[str, CircuitBreaker] = {}  # guarded-by: _lock
        self._outstanding: dict[str, int] = {}  # guarded-by: _lock
        self._requests = 0  # guarded-by: _lock
        self._tables = 0  # guarded-by: _lock
        self._dispatches = 0  # guarded-by: _lock
        self._failovers = 0  # guarded-by: _lock
        self._timeouts = 0  # guarded-by: _lock
        self._replica_errors = 0  # guarded-by: _lock
        self._rejected = 0  # guarded-by: _lock
        self._lifecycle = threading.Condition()
        self._in_flight = 0  # guarded-by: _lifecycle
        self._closed = False  # guarded-by: _lifecycle

    @property
    def replicas(self) -> int:
        """Fleet size; the gateway gives each replica its own batch slot."""
        return self.supervisor.replicas

    def _default_endpoint(self, name: str, address: tuple[str, int]) -> Any:
        timeout = self.policy.timeout_s or DEFAULT_BUDGET_S
        return ReplicaClient(address, name=name, default_timeout_s=timeout,
                             clock=self._clock)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @contextmanager
    def _track(self) -> Iterator[None]:
        with self._lifecycle:
            if self._closed:
                raise ServiceClosed("fleet router is closed")
            self._in_flight += 1
        try:
            yield
        finally:
            with self._lifecycle:
                self._in_flight -= 1
                if self._in_flight == 0:
                    self._lifecycle.notify_all()

    def close(self) -> None:
        """Drain in-flight batches, drop endpoints, stop an owned fleet."""
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
            while self._in_flight > 0:
                self._lifecycle.wait()
        with self._lock:
            endpoints = [endpoint for _, endpoint in self._endpoints.values()]
            self._endpoints.clear()
        for endpoint in endpoints:
            try:
                endpoint.close()
            except (ServingError, OSError):  # pragma: no cover - best effort
                pass
        if self._own_supervisor:
            self.supervisor.stop()

    def __enter__(self) -> FleetRouter:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # the serving surface
    # ------------------------------------------------------------------ #
    def annotate_batch(self, tables: Sequence[Any], *,
                       budget_s: float | None = None) -> list:
        """Annotate ``tables`` somewhere in the fleet; cache-first.

        The batch is resolved through the shared results cache
        (:meth:`~repro.core.cache.SharedResultsCache.resolve`): hits are
        answered from memory, concurrent duplicates join the in-flight lead,
        and only *lead* tables travel the wire — as one sub-batch, with the
        remaining budget, failing over across replicas as needed.
        """
        with self._track():
            if budget_s is not None:
                deadline_s = self._clock() + budget_s
            else:
                deadline_s = self._clock() + (self.policy.timeout_s
                                              or DEFAULT_BUDGET_S)
            with self._lock:
                self._requests += 1
                self._tables += len(tables)
            return self.cache.resolve(
                tables, lambda leads: self._dispatch(leads, deadline_s),
                deadline_s=deadline_s, clock=self._clock,
            )

    def cached(self, tables: Sequence[Any]) -> list | None:
        """The predictions for ``tables`` if every one is cached, else ``None``.

        Never blocks (:meth:`~repro.core.cache.SharedResultsCache.lookup`
        plus the router's counter lock), so the gateway calls it on its event
        loop.  An answer counts as a request, like :meth:`annotate_batch`;
        ``None`` — a closed router, any miss or in-flight key — counts
        nothing and leaves the batch to :meth:`annotate_batch`.
        """
        with self._lifecycle:
            if self._closed:
                return None
        values = self.cache.lookup(tables)
        if values is not None:
            with self._lock:
                self._requests += 1
                self._tables += len(tables)
        return values

    def _dispatch(self, tables: Sequence[Any], deadline_s: float) -> list:
        """Send one sub-batch to the best replica, failing over on death."""
        tried: set[str] = set()
        last_error: BaseException | None = None
        while True:
            member = self._pick(tried)
            if member is None:
                with self._lock:
                    self._rejected += 1
                raise ReplicaUnavailable(
                    "no healthy replica available "
                    f"(tried {sorted(tried) if tried else 'none'})"
                ) from last_error
            name = member.name
            breaker = self._breaker(name)
            if not breaker.allow():
                tried.add(name)
                continue
            remaining = deadline_s - self._clock()
            if remaining <= 0:
                with self._lock:
                    self._timeouts += 1
                raise DeadlineExceeded(
                    "batch deadline expired before a replica could be reached"
                ) from last_error
            endpoint = self._endpoint(member)
            with self._lock:
                self._outstanding[name] = self._outstanding.get(name, 0) + 1
                self._dispatches += 1
            try:
                value = endpoint.request(
                    "annotate_batch",
                    {"tables": list(tables), "budget_s": remaining},
                    deadline_s=deadline_s,
                )
            except DeadlineExceeded:
                # The deadline is the caller's, not the replica's fault —
                # but the breaker still counts it: a replica that keeps
                # timing out deserves ejection.
                breaker.record_failure()
                with self._lock:
                    self._timeouts += 1
                raise
            except _FAILOVER_ERRORS as error:
                breaker.record_failure()
                self._drop_endpoint(name)
                with self._lock:
                    self._replica_errors += 1
                tried.add(name)
                last_error = error
                continue
            except ServingError:
                # The replica answered with a typed application error;
                # replicas are deterministic, so failover would only repeat it.
                breaker.record_success()
                raise
            finally:
                with self._lock:
                    self._outstanding[name] -= 1
            breaker.record_success()
            if tried:
                with self._lock:
                    self._failovers += 1
            return value

    # ------------------------------------------------------------------ #
    # routing internals
    # ------------------------------------------------------------------ #
    def _pick(self, tried: set[str]) -> FleetMember | None:
        """The live, untried, non-open-breaker member with least outstanding."""
        members = self.supervisor.members()
        with self._lock:
            candidates = [
                member for member in members
                if member.name not in tried
                and self._breaker_locked(member.name).state != CircuitBreaker.OPEN
            ]
            if not candidates:
                return None
            return min(candidates,
                       key=lambda m: self._outstanding.get(m.name, 0))

    def _breaker_locked(self, name: str) -> CircuitBreaker:
        # The _locked suffix is the repo convention: callers hold self._lock.
        breaker = self._breakers.get(name)
        if breaker is None:
            breaker = CircuitBreaker(
                threshold=self.policy.breaker_threshold,
                reset_s=self.policy.breaker_reset_s,
                clock=self._clock,
            )
            self._breakers[name] = breaker
        return breaker

    def _breaker(self, name: str) -> CircuitBreaker:
        with self._lock:
            return self._breaker_locked(name)

    def _endpoint(self, member: FleetMember) -> Any:
        assert member.address is not None  # members() only returns live slots
        with self._lock:
            cached = self._endpoints.get(member.name)
            if cached is not None and cached[0] == member.address:
                return cached[1]
        # Dial outside the lock; the stale endpoint (if any) is closed here.
        endpoint = self._endpoint_factory(member.name, member.address)
        stale = None
        with self._lock:
            cached = self._endpoints.get(member.name)
            if cached is not None and cached[0] != member.address:
                stale = cached[1]
            self._endpoints[member.name] = (member.address, endpoint)
        if stale is not None:
            try:
                stale.close()
            except (ServingError, OSError):  # pragma: no cover - best effort
                pass
        return endpoint

    def _drop_endpoint(self, name: str) -> None:
        with self._lock:
            cached = self._endpoints.pop(name, None)
        if cached is not None:
            try:
                cached[1].close()
            except (ServingError, OSError):  # pragma: no cover - best effort
                pass

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #
    def stats(self) -> FleetStats:
        """Cumulative routing counters plus cache and supervisor accounting."""
        with self._lock:
            requests, tables = self._requests, self._tables
            dispatches, failovers = self._dispatches, self._failovers
            timeouts, replica_errors = self._timeouts, self._replica_errors
            rejected = self._rejected
        return FleetStats(
            requests=requests, tables=tables, dispatches=dispatches,
            failovers=failovers, timeouts=timeouts,
            replica_errors=replica_errors, rejected=rejected,
            results_cache=self.cache.stats(),
            supervisor=self.supervisor.stats(),
        )

    def health(self) -> FleetHealth:
        """Aggregate per-replica health without wire I/O.

        Uses the supervisor's cached heartbeat snapshots (each ping carries
        the replica's own ``health()``), so this is safe to call from the
        gateway's event loop: ``failed`` when the router is closed or no
        replica is up; ``degraded`` when any slot is down/failed, reports a
        non-healthy status, or its breaker is not closed.
        """
        with self._lifecycle:
            closed = self._closed
        slots = self.supervisor.describe()
        failure_reasons = self.supervisor.failure_reasons()
        with self._lock:
            breakers = {name: breaker.state
                        for name, breaker in self._breakers.items()}
        replicas: dict[str, dict] = {}
        reasons: list[str] = []
        up = 0
        for slot in slots:
            replica_status = "unknown"
            if slot.last_health is not None:
                replica_status = str(slot.last_health.get("status", "unknown"))
            breaker_state = breakers.get(slot.name, CircuitBreaker.CLOSED)
            replicas[slot.name] = {
                "state": slot.state,
                "status": replica_status,
                "restarts": slot.restarts,
                "breaker": breaker_state,
            }
            if slot.state == "up":
                up += 1
                if replica_status not in ("healthy", "unknown"):
                    reasons.append(f"{slot.name} reports {replica_status}")
            else:
                note = failure_reasons.get(slot.name)
                reasons.append(
                    f"{slot.name} is {slot.state}" + (f": {note}" if note else "")
                )
            if breaker_state != CircuitBreaker.CLOSED:
                reasons.append(f"breaker {slot.name} is {breaker_state}")
        if closed:
            return FleetHealth("failed", ("fleet router closed",),
                               replicas, breakers)
        if up == 0:
            reasons.insert(0, "no live replicas")
            return FleetHealth("failed", tuple(reasons), replicas, breakers)
        status = "degraded" if reasons else "healthy"
        return FleetHealth(status, tuple(reasons), replicas, breakers)
