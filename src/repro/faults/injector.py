"""Deterministic fault draws: named SHA-256 substreams off one seed.

Fault injection must be *replayable*: the same :class:`~repro.faults.
plan.FaultPlan` seed must produce the identical fault sequence whatever
process runs the simulation, so stored results, the determinism guard
and the robustness sweep all agree.  Python's ``hash()`` is salted per
process and the global ``random`` module is ambient state, so neither is
usable; instead every stream derives from the plan seed plus string
labels through SHA-256 (:func:`fault_seed`).

Streams are independent per link and per fault process: whether the
delay process is enabled never shifts the loss draws, so enabling one
fault does not scramble another's sequence.
"""

from __future__ import annotations

import hashlib
import random
from functools import partial
from typing import Any, Callable

from ..netmodel import FAULT_LINKS, LINK_P2P, LINK_PROXY, LINK_PUSH
from .plan import FaultPlan

__all__ = ["fault_seed", "FaultInjector"]


def fault_seed(base: int, *parts: Any) -> int:
    """Deterministic 63-bit child seed from ``base`` and string labels."""
    canonical = repr((int(base),) + tuple(str(p) for p in parts))
    digest = hashlib.sha256(canonical.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class FaultInjector:
    """Draws fault events for one simulation under one plan.

    ``scope`` namespaces the substreams (e.g. the scheme name) so two
    schemes running under the same plan do not share draw sequences.
    """

    def __init__(self, plan: FaultPlan, scope: str = "") -> None:
        self.plan = plan
        self._scope = scope
        self._loss_prob = {
            LINK_P2P: plan.p2p_loss,
            LINK_PROXY: plan.proxy_loss,
            LINK_PUSH: plan.push_loss,
        }
        self._loss = {
            link: random.Random(fault_seed(plan.seed, scope, "loss", link))
            for link in FAULT_LINKS
        }
        self._delay = {
            link: random.Random(fault_seed(plan.seed, scope, "delay", link))
            for link in FAULT_LINKS
        }
        self._jitter: dict[str, random.Random] = {}
        #: (cluster, client) -> answer of :meth:`unresponsive`: one
        #: SHA-256 per client cache, not one per push probe.
        self._unresponsive: dict[tuple[int, int], bool] = {}

    def loss_uniform(self, link: str) -> float | None:
        """Raw uniform behind one loss draw, or ``None`` when loss is off.

        Loss-free links never consume a draw, so plans differing only in
        *which* links lose keep the other links' sequences aligned.  The
        ladder engine (:func:`~repro.protocol.policy.run_ladder`) compares
        the uniform against the link's loss probability itself so the
        same uniforms can be replayed from a recorded trace.
        """
        if self._loss_prob[link] <= 0.0:
            return None
        return self._loss[link].random()

    def delay_uniform(self, link: str) -> float | None:
        """Raw uniform behind one delay draw, or ``None`` when delay is off."""
        if self.plan.delay_rate <= 0.0:
            return None
        return self._delay[link].random()

    def jitter_uniform(self, link: str) -> float:
        """One uniform from the per-link jitter substream.

        The stream is created lazily: the default exponential ladder
        never jitters, so pre-policy builds (which never instantiated
        these streams) keep byte-identical RNG state.
        """
        rng = self._jitter.get(link)
        if rng is None:
            rng = random.Random(fault_seed(self.plan.seed, self._scope, "jitter", link))
            self._jitter[link] = rng
        return rng.random()

    def uniforms(
        self, link: str
    ) -> tuple[Callable[[], float], Callable[[], float], Callable[[], float]]:
        """``link``'s loss, delay and jitter draws as zero-argument callables.

        The loss and delay substreams' own bound ``random`` — what
        :meth:`loss_uniform` / :meth:`delay_uniform` return while their
        process is on, without the per-draw lookups — and
        :meth:`jitter_uniform` bound to the link (its stream stays lazy).
        The ladder engine asks each only while the plan has that process
        on (:class:`~repro.protocol.policy.LinkLadder`).
        """
        return (
            self._loss[link].random,
            self._delay[link].random,
            partial(self.jitter_uniform, link),
        )

    def unresponsive(self, cluster: int, client: int) -> bool:
        """Is this client cache permanently unreachable for pushes?

        Hash-based rather than drawn, so the answer is stable for the
        whole run and independent of call order — a firewalled machine
        stays firewalled.
        """
        fraction = self.plan.unresponsive_fraction
        if fraction <= 0.0:
            return False
        answer = self._unresponsive.get((cluster, client))
        if answer is None:
            draw = fault_seed(
                self.plan.seed, self._scope, "unresponsive", cluster, client
            )
            answer = self._unresponsive[cluster, client] = draw < fraction * float(1 << 63)
        return answer

    def stream(self, *parts: Any) -> random.Random:
        """A fresh named substream (e.g. per-cluster eviction-notice loss)."""
        return random.Random(fault_seed(self.plan.seed, self._scope, *parts))
