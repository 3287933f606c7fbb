"""repro.fleet: the replicated serving tier behind the gateway.

One gateway process, N worker processes, one shared results cache:

* :mod:`repro.fleet.wire` — the length-prefixed loopback protocol replicas
  speak (stdlib-only; every socket operation carries an explicit deadline);
* :mod:`repro.fleet.supervisor` — :class:`ReplicaSupervisor` spawns the
  workers (each a :func:`repro.serve.replica.run_replica` process over the
  same :class:`~repro.serve.bundle.ServiceBundle`), heartbeats them, and
  respawns the dead with bounded, backed-off restarts;
* :mod:`repro.fleet.router` — :class:`FleetRouter` presents the fleet as a
  single service-shaped object to the gateway: least-outstanding routing,
  one circuit breaker per replica, transparent failover on worker death,
  and a :class:`~repro.core.cache.SharedResultsCache` of per-table
  predictions with single-flight de-dup across the whole fleet (re-exported
  here).  It is the fleet's only answer cache: ``python -m repro.fleet``
  starts its replicas with ``cache_size=0``, since a replica sees only the
  router's misses.

``python -m repro.fleet --bundle bundle/ --replicas 2`` stands the whole
tier up; SIGTERM drains it gracefully (gateway stops admitting → in-flight
batches finish → every replica is terminated and joined).
"""

from repro.core.cache import SharedResultsCache
from repro.data.table import table_key
from repro.fleet.router import FleetHealth, FleetRouter, FleetStats
from repro.fleet.supervisor import (
    FleetMember,
    ProcessLauncher,
    ReplicaHandle,
    ReplicaSupervisor,
    ThreadLauncher,
)
from repro.fleet.wire import ReplicaClient, WireClosed, ping

__all__ = [
    "FleetHealth",
    "FleetMember",
    "FleetRouter",
    "FleetStats",
    "ProcessLauncher",
    "ReplicaClient",
    "ReplicaHandle",
    "ReplicaSupervisor",
    "SharedResultsCache",
    "ThreadLauncher",
    "WireClosed",
    "ping",
    "table_key",
]
