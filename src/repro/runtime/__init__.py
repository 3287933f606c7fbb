"""Resilience runtime for the serving fleet.

:mod:`repro.runtime.resilience` holds the retry policy the fleet runs under
(``RuntimePolicy``), its seeded retry spacing (``Backoff``) and the
per-target ``CircuitBreaker`` the router keeps for each replica;
:mod:`repro.runtime.faults` provides the matching deterministic fault
injector (``FaultPlan`` + ``FaultyEndpoint``) so every replica failure mode
is reproducible in tests.
"""

from repro.runtime.faults import FaultPlan, FaultRule, FaultyEndpoint
from repro.runtime.resilience import Backoff, CircuitBreaker, RuntimePolicy

__all__ = [
    "RuntimePolicy",
    "Backoff",
    "CircuitBreaker",
    "FaultPlan",
    "FaultRule",
    "FaultyEndpoint",
]
