"""The top-level Starlink runtime API.

A :class:`StarlinkBridge` packages everything needed to connect two (or
more) heterogeneous legacy systems at runtime:

* the MDL specifications of the protocols involved,
* their k-coloured automata,
* the merged automaton and translation logic describing the bridge,

validates the merge constraints, and deploys the resulting
:class:`~repro.core.engine.automata_engine.AutomataEngine` onto a network
engine.  This mirrors the deployment story of Section IV: the framework is
dropped into the network, the models are loaded, and the legacy
applications interoperate without being aware of the bridge.

Bridges can be built programmatically (see :mod:`repro.bridges.specs` for
the paper's six discovery cases) or loaded entirely from XML documents with
:meth:`StarlinkBridge.from_xml`, which is the paper's "models are data"
workflow.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from ...network.engine import NetworkEngine
from ...obs.tracing import Tracer
from ..automata.colored import ColoredAutomaton
from ..automata.merge import MergedAutomaton, derive_equivalence
from ..automata.xml_loader import loads_automaton
from ..errors import ConfigurationError
from ..mdl.spec import MDLSpec
from ..mdl.xml_loader import loads_mdl
from ..translation.xml_loader import loads_bridge
from .actions import ActionRegistry
from .automata_engine import DEFAULT_SESSION_TIMEOUT, AutomataEngine
from .session import SessionCorrelator, SessionRecord

__all__ = ["StarlinkBridge"]


class StarlinkBridge:
    """A deployable interoperability bridge between heterogeneous protocols."""

    def __init__(
        self,
        merged: MergedAutomaton,
        mdl_specs: Mapping[str, MDLSpec],
        host: str = "starlink.bridge",
        base_port: int = 41000,
        processing_delay: float = 0.0,
        actions: Optional[ActionRegistry] = None,
        correlator: Optional[SessionCorrelator] = None,
        session_timeout: Optional[float] = DEFAULT_SESSION_TIMEOUT,
        ephemeral_ports: bool = True,
        interpreted: bool = False,
        tracer: Optional[Tracer] = None,
    ) -> None:
        missing = [name for name in merged.automaton_names if name not in mdl_specs]
        if missing:
            raise ConfigurationError(
                f"missing MDL specifications for automata: {', '.join(missing)}"
            )
        self.merged = merged
        self.mdl_specs: Dict[str, MDLSpec] = dict(mdl_specs)
        self.host = host
        self.base_port = base_port
        self.processing_delay = processing_delay
        self.actions = actions
        #: Session correlation strategy handed to the engine (``None`` keeps
        #: the engine's default source-endpoint correlation).
        self.correlator = correlator
        self.session_timeout = session_timeout
        #: Per-session ephemeral source ports on upstream legs without a
        #: transaction identifier (exact reply attribution).
        self.ephemeral_ports = ephemeral_ports
        #: Force the interpreting MDL codecs and trial-parse classification
        #: instead of the compiled hot path (debug/differential escape hatch).
        self.interpreted = interpreted
        #: Optional :class:`repro.obs.tracing.Tracer` handed to the engine
        #: at deploy time: stage histograms and sampled spans for the
        #: single-engine deployment, same surface as the sharded runtime.
        self.tracer = tracer
        self._engine: Optional[AutomataEngine] = None
        self._network: Optional[NetworkEngine] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_xml(
        cls,
        bridge_document: str,
        automata_documents: Sequence[str],
        mdl_documents: Mapping[str, str],
        **kwargs: object,
    ) -> "StarlinkBridge":
        """Build a bridge purely from XML model documents.

        ``automata_documents`` are ``<ColoredAutomaton>`` documents,
        ``bridge_document`` is the ``<Bridge>`` document referencing them,
        and ``mdl_documents`` maps automaton names to ``<MDL>`` documents.
        """
        automata = [loads_automaton(document) for document in automata_documents]
        merged = loads_bridge(bridge_document, automata)
        specs = {name: loads_mdl(document) for name, document in mdl_documents.items()}
        return cls(merged, specs, **kwargs)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check MDLs and merge constraints before deployment."""
        for name, spec in self.mdl_specs.items():
            spec.validate()
        mandatory = {
            message.name: message.mandatory_fields
            for spec in self.mdl_specs.values()
            for message in spec.messages
        }
        self.merged.translation.validate()
        equivalence = derive_equivalence(self.merged.translation, mandatory)
        self.merged.validate(equivalence)

    def deploy(self, network: NetworkEngine, validate: bool = True) -> AutomataEngine:
        """Instantiate the automata engine and attach it to ``network``."""
        if self._engine is not None:
            raise ConfigurationError(f"bridge '{self.merged.name}' is already deployed")
        if validate:
            self.validate()
        if self.tracer is not None:
            # Span timeline positions follow the deployment's clock, as on
            # the sharded runtimes (socket substrates run on wall time).
            self.tracer.use_clock(
                network.now,
                "perf_counter" if network.kernel_ephemeral_ports else "virtual",
            )
        engine = AutomataEngine(
            self.merged,
            self.mdl_specs,
            host=self.host,
            base_port=self.base_port,
            processing_delay=self.processing_delay,
            actions=self.actions,
            correlator=self.correlator,
            session_timeout=self.session_timeout,
            ephemeral_ports=self.ephemeral_ports,
            interpreted=self.interpreted,
            tracer=self.tracer,
        )
        network.attach(engine)
        self._engine = engine
        self._network = network
        return engine

    def undeploy(self) -> None:
        """Detach the automata engine from the network."""
        if self._engine is not None and self._network is not None:
            self._network.detach(self._engine)
        self._engine = None
        self._network = None

    # ------------------------------------------------------------------
    @property
    def engine(self) -> Optional[AutomataEngine]:
        return self._engine

    @property
    def sessions(self) -> List[SessionRecord]:
        """The most recent completed interoperability sessions (the
        engine's ring; empty before deployment)."""
        return list(self._engine.sessions) if self._engine is not None else []

    @property
    def completed_count(self) -> int:
        """Sessions completed, exact (:attr:`sessions` keeps the recent)."""
        return self._engine.completed_count if self._engine is not None else 0

    @property
    def active_session_count(self) -> int:
        """Number of in-flight (not yet completed) sessions."""
        return len(self._engine.active_sessions) if self._engine is not None else 0

    @property
    def unrouted_datagrams(self) -> int:
        """Datagrams the engine could not route to any session.

        Mirrors :class:`~repro.runtime.runtime.ShardedRuntime`, so the
        evaluation scenarios drive either deployment through one surface.
        """
        return self._engine.unrouted_datagrams if self._engine is not None else 0

    @property
    def ignored_datagrams(self) -> int:
        """Datagrams routed to a session that was not receptive to them."""
        return self._engine.ignored_datagrams if self._engine is not None else 0

    @property
    def protocols(self) -> List[str]:
        return [automaton.protocol for automaton in self.merged.automata.values()]

    def __repr__(self) -> str:
        deployed = "deployed" if self._engine is not None else "not deployed"
        return f"StarlinkBridge({self.merged.name!r}, {deployed})"
