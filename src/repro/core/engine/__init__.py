"""Runtime engines: λ-actions, sessions, the automata engine and the bridge API."""

from .actions import ActionRegistry, default_action_registry
from .automata_engine import (
    AutomataEngine,
    DEFAULT_SESSION_TIMEOUT,
    ProtocolBinding,
    binding_plan,
)
from .bridge import StarlinkBridge
from .session import (
    EndpointCorrelator,
    FieldCorrelator,
    SessionContext,
    SessionCorrelator,
    SessionRecord,
)

__all__ = [
    "ActionRegistry",
    "default_action_registry",
    "AutomataEngine",
    "DEFAULT_SESSION_TIMEOUT",
    "ProtocolBinding",
    "binding_plan",
    "SessionRecord",
    "SessionContext",
    "SessionCorrelator",
    "EndpointCorrelator",
    "FieldCorrelator",
    "StarlinkBridge",
]
