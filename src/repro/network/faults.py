"""Seeded UDP fault injection for the socket engine.

:class:`FaultPlan` draws the deterministic per-window verdicts;
:class:`FaultInjectorMixin` decorates a network engine's ``_send_udp`` —
the one seam every outgoing datagram crosses — with them.
:class:`~repro.network.aio.AsyncFaultyNetwork` is the mixin over the
socket engine; the heal harness (``--table heal --chaos-live``) and
``tests/test_health.py`` drive it.
"""

from __future__ import annotations

import random
import threading
from typing import List, Optional, Tuple

from ..core.errors import ConfigurationError
from .addressing import Endpoint

__all__ = ["FaultPlan", "FaultInjectorMixin"]


class FaultPlan:
    """Deterministic per-window fault decisions for a faulty network.

    One plan governs one loss window: it is seeded from ``(seed, window)``
    so the decision sequence depends only on the seed, the window index
    and the order of sends *inside* the window — never on how many
    datagrams flowed before the window opened (live runs have
    nondeterministic background traffic between windows).  Same seed and
    window → byte-for-byte the same verdict trace, which is what the
    determinism tests pin.
    """

    #: Verdicts a draw can return, in probability order.
    VERDICTS = ("drop", "dup", "reorder", "pass")

    def __init__(
        self,
        seed: int,
        window: int = 0,
        loss: float = 0.35,
        duplicate: float = 0.15,
        reorder: float = 0.15,
    ) -> None:
        for name, rate in (("loss", loss), ("duplicate", duplicate), ("reorder", reorder)):
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(f"{name} rate must be in [0, 1], got {rate!r}")
        if loss + duplicate + reorder > 1.0:
            raise ConfigurationError(
                "loss + duplicate + reorder rates must not exceed 1.0, got "
                f"{loss + duplicate + reorder}"
            )
        self.seed = seed
        self.window = window
        self.loss = loss
        self.duplicate = duplicate
        self.reorder = reorder
        self._rng = random.Random(f"fault-plan:{seed}:{window}")
        #: The verdicts drawn so far, in order (the deterministic trace).
        self.decisions: List[str] = []

    def draw(self) -> str:
        """The verdict for the next datagram: drop | dup | reorder | pass."""
        roll = self._rng.random()
        if roll < self.loss:
            verdict = "drop"
        elif roll < self.loss + self.duplicate:
            verdict = "dup"
        elif roll < self.loss + self.duplicate + self.reorder:
            verdict = "reorder"
        else:
            verdict = "pass"
        self.decisions.append(verdict)
        return verdict


class FaultInjectorMixin:
    """Seeded UDP fault injection decorating a network's ``_send_udp``.

    Mix in *before* a concrete engine class (``class AsyncFaultyNetwork(
    FaultInjectorMixin, AsyncSocketNetwork)``): while a **loss window** is
    open, every outgoing datagram draws a verdict from the window's
    :class:`FaultPlan` — dropped, duplicated, reordered (held back one
    slot and sent after the *next* datagram) or passed through.  Outside
    a window the engine is byte-for-byte the plain engine: no verdict is
    drawn, nothing is counted, and closing a window flushes any held
    datagram, so faults can never leak past the window bounds (the
    bounds tests pin this).

    TCP and the receive path are untouched — the injector models a lossy
    UDP segment, which is the fault the paper's discovery protocols
    actually face.  Thread-safe: verdicts and the one-slot holdback are
    serialised under a dedicated lock (the loop thread sends while control
    threads open and close windows).
    """

    def _init_fault_state(
        self,
        seed: int,
        loss: float,
        duplicate: float,
        reorder: float,
    ) -> None:
        self.seed = seed
        self.loss = loss
        self.duplicate = duplicate
        self.reorder = reorder
        #: Windows opened so far; each gets its own freshly-seeded plan.
        self.windows_opened = 0
        #: Fault counters across all windows.
        self.udp_dropped = 0
        self.udp_duplicated = 0
        self.udp_reordered = 0
        #: ``(window, verdict)`` for every in-window datagram, in order.
        self.decisions: List[Tuple[int, str]] = []
        self._plan: Optional[FaultPlan] = None
        self._held: Optional[Tuple[bytes, Endpoint, Endpoint]] = None
        self._fault_lock = threading.Lock()

    @property
    def window_open(self) -> bool:
        return self._plan is not None

    def open_loss_window(self) -> FaultPlan:
        """Start injecting faults; returns the window's plan.

        Seeded from ``(seed, window_index)``, so traces are reproducible
        per window regardless of traffic between windows.  Opening while
        a window is already open is an error — nested windows would make
        the per-window seeding ambiguous.
        """
        with self._fault_lock:
            if self._plan is not None:
                raise ConfigurationError("a loss window is already open")
            self._plan = FaultPlan(
                self.seed,
                self.windows_opened,
                loss=self.loss,
                duplicate=self.duplicate,
                reorder=self.reorder,
            )
            self.windows_opened += 1
            return self._plan

    def close_loss_window(self) -> None:
        """Stop injecting faults and flush any held (reordered) datagram.

        Closing an already-closed window is a no-op, so harness cleanup
        paths can close unconditionally.
        """
        with self._fault_lock:
            self._plan = None
            held, self._held = self._held, None
        if held is not None:
            data, source, destination = held
            super()._send_udp(data, source, destination)

    def _send_udp(self, data: bytes, source: Endpoint, destination: Endpoint) -> None:
        with self._fault_lock:
            plan = self._plan
            if plan is None:
                # Outside a window: pure pass-through (no draw, no count).
                # Send under the lock so a concurrent close's flush cannot
                # overtake a datagram already committed as "pass".
                super()._send_udp(data, source, destination)
                return
            verdict = plan.draw()
            self.decisions.append((plan.window, verdict))
            if verdict == "drop":
                self.udp_dropped += 1
                return
            if verdict == "reorder" and self._held is None:
                # Hold this datagram one slot: the *next* send goes out
                # first, then the held one follows (a one-slot swap).
                self._held = (data, source, destination)
                self.udp_reordered += 1
                return
            held, self._held = self._held, None
            super()._send_udp(data, source, destination)
            if verdict == "dup":
                self.udp_duplicated += 1
                super()._send_udp(data, source, destination)
            if held is not None:
                held_data, held_source, held_destination = held
                super()._send_udp(held_data, held_source, held_destination)
