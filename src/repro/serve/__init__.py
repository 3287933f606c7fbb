"""Serving-first front door for trained KGLink systems.

``repro.serve`` turns a fitted :class:`~repro.core.annotator.KGLinkAnnotator`
into something a production process can load and hit with traffic:

* :class:`~repro.serve.bundle.ServiceBundle` — a self-contained, versioned
  on-disk bundle: config, tokenizer, label vocabulary, model weights, the
  *compiled* retrieval index arrays and a knowledge-graph snapshot.  Loading
  a bundle needs no :class:`~repro.kg.graph.KnowledgeGraph` object and no
  index rebuild.
* :class:`~repro.serve.service.AnnotationService` — the request-serving API:
  ``annotate`` / ``annotate_batch`` micro-batch tables through the
  length-bucketed prediction path under ``no_grad`` and report per-request
  telemetry (:class:`~repro.serve.service.ServiceStats`).
  Part 1 runs serially in the service's process against one in-process
  retrieval index; more processes come from replicating whole services
  behind a :mod:`repro.fleet` router, which owns wire deadlines,
  per-replica circuit breakers and failover.
  :meth:`~repro.serve.service.AnnotationService.health` reports
  ``healthy``, or ``failed`` once closed
  (:class:`~repro.serve.service.ServiceHealth`).
  It is also the fitted annotator's own inference path: ``annotate``,
  ``predict_corpus`` and ``evaluate`` call a service built by ``into_service``.
* :class:`~repro.serve.replica.ReplicaServer` /
  :func:`~repro.serve.replica.run_replica` — the fleet worker: one process,
  one loaded bundle, serving ``annotate_batch`` over the loopback wire
  protocol for the :mod:`repro.fleet` supervisor and router.

Typical flow::

    service = annotator.into_service()          # train -> serve, in process
    service.save("bundle/")                     # persist for the fleet
    service = AnnotationService.load("bundle/") # in each serving process
    predictions = service.annotate_batch(tables)
"""

from repro.serve.bundle import BUNDLE_FORMAT_VERSION, ServiceBundle
from repro.serve.replica import ReplicaServer, run_replica
from repro.serve.service import AnnotationService, ServiceHealth, ServiceStats

__all__ = [
    "AnnotationService",
    "ServiceBundle",
    "ServiceStats",
    "ServiceHealth",
    "ReplicaServer",
    "run_replica",
    "BUNDLE_FORMAT_VERSION",
]
