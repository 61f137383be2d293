"""The serving layer: a batched, backpressured simulation service.

``cohort serve`` turns the repository's :class:`~repro.runner.SweepRunner`
into a long-lived JSON-over-HTTP service: submissions from many clients
run as whatever batch is queued when the runner is free, share one
on-disk result cache, and are admission-controlled by a bounded queue
with explicit backpressure.  See ``docs/serving.md``.

``cohort fleet`` (:mod:`repro.serve.fleet`) scales that out and makes it
self-healing: a :class:`ShardSupervisor` spawns N serve shards as
subprocesses, routes jobs by consistent hash of their content key,
write-ahead-journals every accepted job before acknowledging it,
forwards each shard's jobs with one batching dispatch loop and one
polling collector, and restarts crashed or hung shards with capped
exponential backoff while the survivors absorb the failover.

Public surface:

* :class:`BatchingService` — queue + batcher over one runner, fed
  :class:`JobSpec` submissions,
* :class:`ShardSupervisor` — the supervised shard fleet (``cohort fleet``),
* :func:`run_server` — the one asyncio HTTP front-end and lifecycle,
  serving either backend (a :class:`BatchingService` for ``cohort
  serve``, a :class:`ShardSupervisor` for ``cohort fleet``),
* :class:`ServerThread` / :class:`FleetThread` — the same lifecycle
  in-process, for tests, benchmarks and the chaos and capacity soaks,
* :class:`ServeClient` — synchronous stdlib client (``cohort submit``),
  with bounded retries for both backpressure and transient connections;
  it raises :class:`ServeClientError`, and :class:`BackpressureError`
  once 429 retries run out,
* :class:`LoadGenerator` / :func:`theta_population` — open-loop Poisson
  load generation for the capacity soak
  (``benchmarks/capacity_soak.py``).

Everything else (the journal, the hash ring, the error types of the
service) is imported from its submodule.

Operationally, every submission carries a trace id end to end
(``X-Trace-Id``), the whole stack logs structured JSON-lines events
through :class:`repro.obs.OpLogger`, and ``/metrics`` doubles as a
Prometheus scrape target — see ``docs/operations.md`` and, for the
failure-mode map, ``docs/resilience.md``.
"""

from repro.serve.client import (
    BackpressureError,
    ServeClient,
    ServeClientError,
)
from repro.serve.fleet import FleetThread, ShardSupervisor
from repro.serve.loadgen import LoadGenerator, theta_population
from repro.serve.server import ServerThread, run_server
from repro.serve.service import BatchingService, JobSpec

__all__ = [
    "BackpressureError",
    "BatchingService",
    "FleetThread",
    "JobSpec",
    "LoadGenerator",
    "ServeClient",
    "ServeClientError",
    "ServerThread",
    "ShardSupervisor",
    "run_server",
    "theta_population",
]
