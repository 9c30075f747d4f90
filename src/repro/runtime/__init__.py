"""Sharded runtime: parallel session execution across worker engines.

The paper's Automata Engine executes one merged automaton reactively; the
session multiplexing of PR 1 let many legacy interactions *interleave* in
one event loop.  This package adds the next scaling axes — *parallelism*
and *elasticity*:

* :class:`~repro.runtime.sharding.HashRing` — deterministic consistent
  hashing of session correlation keys onto shard indices;
* :class:`~repro.runtime.router.ShardRouter` — the network node owning the
  bridge's public endpoints and multicast groups, routing each datagram to
  the worker that owns its session (sticky, rebalance-safe);
* :class:`~repro.runtime.runtime.ShardedRuntime` — builds and deploys the
  N worker engines around one read-only behaviour model, aggregates their
  sessions and statistics, and resizes the pool loss-free (shrinking
  *drains*: no new keys, wait for the session table to empty, detach);
* :class:`~repro.runtime.aio_live.AsyncLiveShardedRuntime` — the same
  deployment on real loopback sockets: every worker a queue-draining task
  on the socket engine's one asyncio loop, behind an
  :class:`~repro.runtime.aio_live.AsyncShardRouter`; rebalances in place
  too (import it from :mod:`repro.runtime.aio_live` — this package does
  not pull ``asyncio`` in for simulation-only users);
* :mod:`~repro.runtime.metrics` — :class:`ShardMetrics` load snapshots
  (session tables, compute backlogs, queue depths, router dispatch cost);
* :mod:`~repro.runtime.elastic` — the control plane: an
  :class:`Autoscaler` policy consuming metrics snapshots, driven by engine
  timers (:class:`ElasticController`) or a control thread
  (:class:`LiveElasticController`).

See docs/architecture.md and ROADMAP.md ("Concurrency model") for the
invariants.
"""

from .elastic import (
    Autoscaler,
    AutoscaleDecision,
    AutoscalerPolicy,
    ElasticController,
    LiveElasticController,
)
from .health import (
    FailureDetector,
    HealthAction,
    HealthController,
    HealthPolicy,
    HealthProbe,
    LiveHealthController,
    wedge_simulated_worker,
)
from .metrics import RouterMetrics, ShardMetrics, WorkerMetrics
from .router import ShardRouter
from .runtime import DEFAULT_WORKERS, VICTIM_STRATEGIES, ScaleEvent, ShardedRuntime
from .sharding import HashRing, stable_hash

__all__ = [
    "HashRing",
    "stable_hash",
    "VICTIM_STRATEGIES",
    "ShardRouter",
    "ShardedRuntime",
    "ScaleEvent",
    "DEFAULT_WORKERS",
    "ShardMetrics",
    "WorkerMetrics",
    "RouterMetrics",
    "Autoscaler",
    "AutoscaleDecision",
    "AutoscalerPolicy",
    "ElasticController",
    "LiveElasticController",
    "HealthPolicy",
    "HealthProbe",
    "HealthAction",
    "FailureDetector",
    "HealthController",
    "LiveHealthController",
    "wedge_simulated_worker",
]
