"""Seeded UDP fault verdicts for the socket engine.

:class:`FaultPlan` draws the deterministic per-window verdicts;
:class:`~repro.network.aio.AsyncFaultyNetwork` applies them in its
``_send_udp`` — the one seam every outgoing datagram crosses.  The live
chaos and heal runs (``--chaos-live``) and ``tests/test_health.py`` drive
it.
"""

from __future__ import annotations

import random
from typing import List

from ..core.errors import ConfigurationError

__all__ = ["FaultPlan"]


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
