"""The serving error taxonomy: every partial-failure mode has a typed name.

Without it, a dead replica would surface as a raw ``ConnectionResetError``,
a truncated bundle as whatever ``numpy`` happened to raise first, and a blown
budget as an opaque ``TimeoutError`` — none of which a caller can handle
without string-matching tracebacks.  The serving layers
(:class:`~repro.serve.service.AnnotationService`, the gateway and the fleet)
translate every failure they detect into one of these classes, so operators
and tests can route on type:

* :class:`DeadlineExceeded` — a request ran past its budget (the caller's
  ``budget_s`` / ``X-Deadline-Ms``, or ``RuntimePolicy.timeout_s`` on the
  fleet's wire);
* :class:`WorkerCrashed` — a fleet replica process died while running a
  batch; the router fails the batch over to a sibling;
* :class:`BundleCorrupted` — a service bundle failed validation before or
  during load (missing file, checksum mismatch, malformed manifest).  Also a
  ``ValueError`` so legacy ``except ValueError`` call sites keep working;
* :class:`ServiceClosed` — an ``annotate*`` call arrived after
  :meth:`~repro.serve.service.AnnotationService.close`;
* :class:`GatewayOverloaded` — the serving gateway shed the request before
  running it (intake queue full, or the gateway is draining).  The request
  did no work; the caller should back off and retry (HTTP 503 +
  ``Retry-After``);
* :class:`ReplicaUnavailable` — a fleet replica could not be reached over
  the wire (connection refused/reset, mid-frame EOF), or every replica was
  tried and none could serve the batch.  Transient by construction: the
  supervisor respawns dead replicas, so the caller should retry (HTTP 503 +
  ``Retry-After``).

This module is intentionally dependency-free so the runtime, retrieval and
serving layers can all import it without cycles.
"""

from __future__ import annotations

__all__ = [
    "ServingError",
    "DeadlineExceeded",
    "WorkerCrashed",
    "BundleCorrupted",
    "ServiceClosed",
    "GatewayOverloaded",
    "ReplicaUnavailable",
]


class ServingError(Exception):
    """Base class of every typed serving/runtime failure."""


class DeadlineExceeded(ServingError):
    """A request ran past its deadline (budget or ``RuntimePolicy.timeout_s``)."""


class WorkerCrashed(ServingError):
    """A worker (replica) process died while running a task."""


class BundleCorrupted(ServingError, ValueError):
    """A service bundle failed validation (missing/corrupt/malformed artifact)."""


class ServiceClosed(ServingError):
    """The service was closed; no further annotate calls are accepted."""


class GatewayOverloaded(ServingError):
    """The gateway shed the request (queue full or draining); retry later."""


class ReplicaUnavailable(ServingError):
    """A fleet replica (or the whole fleet) is unreachable; retry later."""
