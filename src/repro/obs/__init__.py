"""Low-overhead tracing and stage-latency attribution (`repro.obs`).

The evaluation tables say *how much* throughput the bridge sustains; this
package says *where a single datagram's time went*.  A :class:`Tracer`
stamps every inbound datagram with a trace id at the edge (router or
engine ingress), and the existing seams of the data path — router
classify/place/fan-out, live worker-queue wait, ``EngineCore.dispatch``,
MDL parse/compose, automaton transition, translation — record spans into
per-component fixed-size ring buffers plus always-on power-of-two-bucket
latency histograms.

Two levels of detail, two costs:

* **histograms** are unconditional: every datagram's per-stage duration
  lands in a :class:`LatencyHistogram` (one integer increment + one
  float add), aggregated into ``ShardMetrics.latency`` and the
  ``--table latency`` CLI table;
* **spans** are sampled (default 1-in-64; ``trace_sample=1.0`` for
  tests): only stamped-and-sampled datagrams pay the ring-buffer append,
  and ``runtime.trace_export()`` reassembles their spans into one tree
  per datagram.

Design notes — sampling encoding, clock domains, ring sizing, and the
<5 % parse-overhead gate — live in ``docs/observability.md``.
"""

from .recorder import (
    DEFAULT_JOURNAL_CAPACITY,
    EventJournal,
    FlightRecorder,
    MetricsEndpoint,
    render_prometheus,
)
from .timeseries import (
    DEFAULT_WINDOW_CAPACITY,
    DEFAULT_WINDOW_SECONDS,
    MetricsCollector,
)
from .tracing import (
    DEFAULT_RING_SIZE,
    DEFAULT_SAMPLE_RATE,
    SPAN_PARENTS,
    STAGE_CLASSIFY,
    STAGE_COMPOSE,
    STAGE_DISPATCH,
    STAGE_FANOUT,
    STAGE_INGRESS,
    STAGE_PARSE,
    STAGE_PLACE,
    STAGE_QUEUE_WAIT,
    STAGE_TRANSITION,
    STAGE_TRANSLATE,
    STAGES,
    LatencyHistogram,
    SpanRecorder,
    Tracer,
    export_traces,
)

__all__ = [
    "DEFAULT_JOURNAL_CAPACITY",
    "DEFAULT_RING_SIZE",
    "DEFAULT_SAMPLE_RATE",
    "DEFAULT_WINDOW_CAPACITY",
    "DEFAULT_WINDOW_SECONDS",
    "SPAN_PARENTS",
    "STAGES",
    "STAGE_CLASSIFY",
    "STAGE_COMPOSE",
    "STAGE_DISPATCH",
    "STAGE_FANOUT",
    "STAGE_INGRESS",
    "STAGE_PARSE",
    "STAGE_PLACE",
    "STAGE_QUEUE_WAIT",
    "STAGE_TRANSITION",
    "STAGE_TRANSLATE",
    "EventJournal",
    "FlightRecorder",
    "LatencyHistogram",
    "MetricsCollector",
    "MetricsEndpoint",
    "SpanRecorder",
    "Tracer",
    "export_traces",
    "render_prometheus",
]
