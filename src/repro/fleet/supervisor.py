"""The replica supervisor: spawn N workers, heartbeat them, respawn the dead.

:class:`ReplicaSupervisor` owns the fleet's process (or thread) lifecycle so
the router can stay a pure dispatcher:

* ``start()`` launches one replica per slot through the injected *launcher*
  and waits for each to report ready;
* a monitor thread heartbeats every live replica on the wire
  (:func:`repro.fleet.wire.ping`) against **monotonic deadlines** — a
  replica that misses its heartbeat (or whose handle reports dead) is
  respawned with **bounded restarts**, spaced by the
  :class:`~repro.runtime.resilience.Backoff` schedule of the fleet's
  :class:`~repro.runtime.RuntimePolicy`.  A slot that exhausts
  ``max_restarts`` is marked ``failed`` and left down — a crash loop must
  not become a fork bomb;
* heartbeats double as health polls: the ping response carries the
  replica's own ``health()`` snapshot, which the supervisor caches per slot
  so the router's ``health()`` (called on the gateway's event loop) never
  does wire I/O;
* ``stop()`` drains the fleet: each handle gets a graceful ``terminate()``
  (SIGTERM for process replicas — the replica answers in-flight requests,
  then closes its service), then a bounded ``join``, then ``kill()`` for
  stragglers.

Launchers adapt the supervisor to a deployment:

* :class:`ProcessLauncher` — real worker processes via ``multiprocessing``,
  each running :func:`repro.serve.replica.run_replica` over a shared bundle
  directory.  This is what ``python -m repro.fleet`` and the benchmark use;
* :class:`ThreadLauncher` — in-process replicas (a real
  :class:`~repro.serve.replica.ReplicaServer` on a daemon thread, real
  loopback sockets) for tests and demos.  Its handles expose ``crash()``,
  which slams the replica's sockets shut — worker death without killing a
  process, so the chaos suite runs fast and deterministically.

Restart accounting is explicit and must balance: ``spawned`` counts every
successful launch, so ``spawned == replicas + restarts`` whenever every
respawn succeeded — the fleet chaos suite pins exactly this.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass
from collections.abc import Callable
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.errors import ServingError, WorkerCrashed
from repro.fleet import wire
from repro.runtime.resilience import Backoff, RuntimePolicy

if TYPE_CHECKING:  # runtime import would cycle: replica.py imports fleet.wire
    from repro.serve.replica import ReplicaServer

__all__ = [
    "FleetMember",
    "ReplicaHandle",
    "ProcessLauncher",
    "ThreadLauncher",
    "ReplicaSupervisor",
]


@dataclass(frozen=True)
class FleetMember:
    """One slot's public snapshot (what the router sees)."""

    name: str
    state: str  # "up" | "down" | "failed" | "stopped"
    address: tuple[str, int] | None
    restarts: int
    generation: int
    last_health: dict | None = None


class ReplicaHandle:
    """What a launcher returns: the supervisor's grip on one live replica.

    Subclasses wrap a process or a thread; the surface is what the
    supervisor needs and nothing more.
    """

    def address(self) -> tuple[str, int]:
        raise NotImplementedError

    def alive(self) -> bool:
        raise NotImplementedError

    def terminate(self) -> None:
        """Ask for a graceful drain (SIGTERM-equivalent)."""
        raise NotImplementedError

    def kill(self) -> None:
        """Stop without grace (straggler cleanup)."""
        raise NotImplementedError

    def join(self, timeout_s: float) -> bool:
        """Wait for exit; returns whether the replica is down."""
        raise NotImplementedError


# --------------------------------------------------------------------------- #
# process replicas
# --------------------------------------------------------------------------- #
class _ProcessHandle(ReplicaHandle):
    def __init__(self, process: multiprocessing.Process, port: int, host: str):
        self._process = process
        self._address = (host, port)

    def address(self) -> tuple[str, int]:
        return self._address

    def alive(self) -> bool:
        return self._process.is_alive()

    def terminate(self) -> None:
        if self._process.is_alive():
            self._process.terminate()  # SIGTERM -> replica drains gracefully

    def kill(self) -> None:
        if self._process.is_alive():
            self._process.kill()

    def join(self, timeout_s: float) -> bool:
        self._process.join(timeout=timeout_s)
        if self._process.is_alive():
            return False
        # A joined process's resources are released eagerly so a fleet that
        # churns replicas does not accumulate zombies.
        self._process.close()
        return True


class ProcessLauncher:
    """Launch real worker processes, each loading ``bundle_dir``.

    ``service_kwargs`` is forwarded to
    :meth:`~repro.serve.service.AnnotationService.load` in the child
    (``max_batch``, ``cache_size``); each replica prepares Part 1
    serially in its own process, so the fleet is the process pool.
    Readiness is a pipe handshake: the child reports its bound port,
    or the error that kept it from loading; silence past
    ``ready_timeout_s`` is a failed launch either way.
    """

    def __init__(self, bundle_dir: str | Path, *,
                 service_kwargs: dict[str, Any] | None = None,
                 host: str = "127.0.0.1", ready_timeout_s: float = 120.0,
                 mp_context: multiprocessing.context.BaseContext | None = None):
        self.bundle_dir = str(bundle_dir)
        self.service_kwargs = dict(service_kwargs or {})
        self._host = host
        self._ready_timeout_s = ready_timeout_s
        self._ctx = mp_context or multiprocessing.get_context()

    def launch(self, name: str) -> ReplicaHandle:
        from repro.serve.replica import run_replica

        parent, child = self._ctx.Pipe()
        process = self._ctx.Process(
            target=run_replica,
            args=(self.bundle_dir, child),
            kwargs={"name": name, "host": self._host,
                    "service_kwargs": self.service_kwargs},
            name=name, daemon=True,
        )
        process.start()
        child.close()
        try:
            if not parent.poll(self._ready_timeout_s):
                raise WorkerCrashed(
                    f"replica {name!r} did not report ready within "
                    f"{self._ready_timeout_s}s"
                )
            kind, value = parent.recv()
        except (EOFError, OSError) as error:
            raise WorkerCrashed(
                f"replica {name!r} died before reporting ready"
            ) from error
        except WorkerCrashed:
            process.terminate()
            raise
        finally:
            parent.close()
        if kind != "ready":
            process.join(timeout=5.0)
            raise WorkerCrashed(f"replica {name!r} failed to start: {value}")
        return _ProcessHandle(process, value, self._host)


# --------------------------------------------------------------------------- #
# in-process (thread) replicas
# --------------------------------------------------------------------------- #
class _ThreadHandle(ReplicaHandle):
    def __init__(self, server: ReplicaServer, service, owns_service: bool):
        self._server = server
        self._service = service
        self._owns_service = owns_service
        self._crashed = False

    @property
    def service(self):
        return self._service

    def address(self) -> tuple[str, int]:
        return ("127.0.0.1", self._server.port)

    def alive(self) -> bool:
        return not self._crashed and not self._server._stopping.is_set()

    def terminate(self) -> None:
        self._server.stop()
        if self._owns_service:
            self._service.close()

    def kill(self) -> None:
        self._server.abort()
        if self._owns_service:
            self._service.close()

    def join(self, timeout_s: float) -> bool:
        return True  # stop()/abort() are synchronous for thread replicas

    def crash(self) -> None:
        """Simulate worker death: sockets slam shut, heartbeats start failing."""
        self._crashed = True
        self._server.abort()


class ThreadLauncher:
    """In-process replicas over real loopback sockets (tests, demos).

    ``service_factory(name)`` builds (or returns a shared) service for each
    launched replica; set ``owns_services=False`` when the factory hands out
    a shared service the caller closes itself.  Handles additionally expose
    ``crash()`` — the chaos suite's no-real-kill worker death.
    """

    def __init__(self, service_factory: Callable[[str], Any], *,
                 owns_services: bool = True):
        self._factory = service_factory
        self._owns_services = owns_services
        self.launched: list[_ThreadHandle] = []

    def launch(self, name: str) -> _ThreadHandle:
        from repro.serve.replica import ReplicaServer

        service = self._factory(name)
        server = ReplicaServer(service, name=name)
        server.serve_in_thread()
        handle = _ThreadHandle(server, service, self._owns_services)
        self.launched.append(handle)
        return handle


# --------------------------------------------------------------------------- #
# the supervisor
# --------------------------------------------------------------------------- #
@dataclass
class _Slot:
    name: str
    handle: ReplicaHandle | None = None
    state: str = "down"  # "up" | "down" | "failed" | "stopped"
    restarts: int = 0
    generation: int = 0
    last_health: dict | None = None
    failure: str | None = None

    def member(self) -> FleetMember:
        address = None
        if self.handle is not None and self.state == "up":
            address = self.handle.address()
        return FleetMember(
            name=self.name, state=self.state, address=address,
            restarts=self.restarts, generation=self.generation,
            last_health=self.last_health,
        )


class ReplicaSupervisor:
    """Spawn, heartbeat and respawn a fixed-size fleet of replicas.

    Thread-safe: the monitor thread, the router (reading :meth:`members`)
    and the owner (calling :meth:`stop`) may overlap freely.  All deadlines
    run on the injectable monotonic ``clock``.
    """

    def __init__(self, launcher, replicas: int = 2, *,
                 policy: RuntimePolicy | None = None,
                 heartbeat_interval_s: float = 1.0,
                 heartbeat_timeout_s: float = 5.0,
                 max_restarts: int = 3,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep):
        if replicas < 1:
            raise ValueError("a fleet needs at least one replica")
        self.launcher = launcher
        self.policy = policy or RuntimePolicy()
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.max_restarts = max_restarts
        self._clock = clock
        self._sleep = sleep
        self._backoff = Backoff(self.policy)
        self._lock = threading.Lock()
        self._slots = [_Slot(name=f"replica-{i}") for i in range(replicas)]  # guarded-by: _lock
        self._spawned = 0  # guarded-by: _lock
        self._restarts = 0  # guarded-by: _lock
        self._heartbeats = 0  # guarded-by: _lock
        self._heartbeat_failures = 0  # guarded-by: _lock
        self._gave_up = 0  # guarded-by: _lock
        self._stop_event = threading.Event()
        self._monitor: threading.Thread | None = None
        self._started = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def replicas(self) -> int:
        with self._lock:
            return len(self._slots)

    def start(self) -> None:
        """Launch every slot and start the heartbeat monitor."""
        if self._started:
            raise RuntimeError("supervisor already started")
        self._started = True
        with self._lock:
            slots = list(self._slots)
        for slot in slots:
            self._launch_slot(slot)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="fleet-monitor", daemon=True
        )
        self._monitor.start()

    def stop(self, *, drain_timeout_s: float = 15.0) -> None:
        """Drain the fleet: graceful terminate, bounded join, kill stragglers."""
        self._stop_event.set()
        if self._monitor is not None:
            self._monitor.join(timeout=drain_timeout_s)
        with self._lock:
            slots = list(self._slots)
        for slot in slots:
            handle = slot.handle
            if handle is None:
                continue
            try:
                handle.terminate()
            except (ServingError, OSError):  # already dead is fine
                pass
        deadline_s = self._clock() + drain_timeout_s
        for slot in slots:
            handle = slot.handle
            if handle is None:
                continue
            remaining = max(0.1, deadline_s - self._clock())
            if not handle.join(remaining):
                handle.kill()
                handle.join(5.0)
            with self._lock:
                slot.state = "stopped"
                slot.handle = None

    def __enter__(self) -> ReplicaSupervisor:
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # membership & accounting
    # ------------------------------------------------------------------ #
    def members(self) -> list[FleetMember]:
        """Routable replicas: slots that are up, with their live addresses."""
        with self._lock:
            return [slot.member() for slot in self._slots if slot.state == "up"]

    def describe(self) -> list[FleetMember]:
        """Every slot, whatever its state (health aggregation, debugging)."""
        with self._lock:
            return [slot.member() for slot in self._slots]

    def stats(self) -> dict[str, int]:
        """Restart accounting.  Balances: every successful launch is counted
        in ``spawned``, so ``spawned == replicas + restarts`` exactly when
        every respawn attempt succeeded."""
        with self._lock:
            return {
                "replicas": len(self._slots),
                "up": sum(1 for s in self._slots if s.state == "up"),
                "failed": sum(1 for s in self._slots if s.state == "failed"),
                "spawned": self._spawned,
                "restarts": self._restarts,
                "heartbeats": self._heartbeats,
                "heartbeat_failures": self._heartbeat_failures,
                "gave_up": self._gave_up,
            }

    # ------------------------------------------------------------------ #
    # spawning & monitoring
    # ------------------------------------------------------------------ #
    def _launch_slot(self, slot: _Slot) -> None:
        handle = self.launcher.launch(slot.name)
        with self._lock:
            slot.handle = handle
            slot.state = "up"
            slot.generation += 1
            slot.failure = None
            self._spawned += 1

    def _monitor_loop(self) -> None:
        while not self._stop_event.wait(self.heartbeat_interval_s):
            self.check_now()

    def check_now(self) -> None:
        """One synchronous heartbeat sweep (the monitor's body; tests call
        it directly to step the supervisor without waiting on wall clock)."""
        with self._lock:
            slots = list(self._slots)
        for slot in slots:
            if self._stop_event.is_set():
                return
            with self._lock:
                state, handle = slot.state, slot.handle
            if state == "up" and handle is not None:
                if self._heartbeat(slot, handle):
                    continue
                with self._lock:
                    if slot.state != "up" or slot.handle is not handle:
                        continue  # another sweep already acted on this death
                    slot.state = "down"
                    self._heartbeat_failures += 1
                handle.kill()  # no half-dead replicas: down means down
                handle.join(self.heartbeat_timeout_s)
                self._respawn(slot)
            elif state == "down":
                self._respawn(slot)

    def _heartbeat(self, slot: _Slot, handle: ReplicaHandle) -> bool:
        if not handle.alive():
            return False
        try:
            payload = wire.ping(
                handle.address(),
                deadline_s=self._clock() + self.heartbeat_timeout_s,
                clock=self._clock,
            )
        except ServingError:
            return False
        with self._lock:
            self._heartbeats += 1
            slot.last_health = payload.get("health")
        return True

    def _respawn(self, slot: _Slot) -> None:
        with self._lock:
            # Only one respawner per slot: the monitor thread and an explicit
            # check_now() may both notice the same death — the transition
            # "down" -> "restarting" is the slot's mutual exclusion.
            if slot.state != "down":
                return
            if slot.restarts >= self.max_restarts:
                slot.state = "failed"
                slot.handle = None
                slot.failure = (
                    f"gave up after {slot.restarts} restarts "
                    f"(max_restarts={self.max_restarts})"
                )
                self._gave_up += 1
                return
            slot.state = "restarting"
            slot.restarts += 1
            attempt = slot.restarts
            self._restarts += 1
        self._sleep(self._backoff.next_s(attempt))
        if self._stop_event.is_set():
            return
        try:
            self._launch_slot(slot)
        except (ServingError, OSError) as error:
            # Launch failed: the slot stays down and the next sweep tries
            # again (bounded by max_restarts above).
            with self._lock:
                slot.state = "down"
                slot.handle = None
                slot.failure = f"respawn failed: {type(error).__name__}: {error}"

    def failure_reasons(self) -> dict[str, str]:
        """Per-slot failure notes for health aggregation (empty when clean)."""
        with self._lock:
            return {
                slot.name: slot.failure
                for slot in self._slots if slot.failure is not None
            }
