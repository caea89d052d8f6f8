"""Composable transports: who carries an exchange, and what can go wrong.

A :class:`Transport` answers one question per cooperation message — did
this exchange get through, and what did the attempt cost?  Schemes call
:meth:`Transport.attempt` at every point their request flow crosses a
cooperation link and branch on the answer; everything else (timeout
ladders, retry budgets, fault counters) lives in the transport stack,
not in scheme subclasses.

The stack separates *deciding* from *paying*.  Deciding is
:meth:`Transport.draw`, the one method a layer overrides: it returns the
exchange's :class:`~repro.protocol.policy.LadderOutcome` and touches
nothing else.  Paying is written once, in :meth:`Transport.attempt` on
whichever layer sits outermost: draw, book the outcome's counter deltas,
charge its amounts in ladder order through the bound scheme's
``add_extra_latency`` (a daemon applies the outcome by hand).

* :class:`Transport` — the base layer: every exchange is delivered at
  once and for free.  Tier latency stays charged by the simulator's
  request loop (the §5.1 additive model sums per *serving tier*, and
  keeping the float summation there preserves byte-identical totals).
* :class:`FaultTransport` — decides under a
  :class:`~repro.faults.plan.FaultPlan`: per-link Bernoulli loss drives
  the timeout → bounded-exponential-backoff-retry → fallback ladder,
  delay inflation on successful rounds; hash-stable unresponsive push
  targets; lossy eviction-notice channels (:meth:`wrap_directory`).  A
  **zero plan is the identity layer**: the wrapper delegates everything
  unchanged and installs nothing, so results are byte-identical to the
  base transport.
* :class:`EventFedTransport` — the base of the two carriers whose
  outcomes arrive as trace events (a recorded file, a live socket)
  instead of being drawn; it keeps the one fault decision that never
  crosses the wire, lossy eviction notices, local.

One transport instance serves one scheme run: :meth:`bind` attaches the
scheme's latency sink (and is how the paying layer reaches
``add_extra_latency`` without the scheme knowing the stack's shape).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..netmodel import FAULT_LINKS, NetworkConfig
from .messages import FAULT_COUNTERS, Exchange
from .policy import LadderOutcome, LinkLadder

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.plan import FaultPlan

__all__ = [
    "LadderOutcome",
    "Transport",
    "TransportLayer",
    "FaultTransport",
    "EventFedTransport",
    "build_transport",
]


def _discard_latency(_amount: float) -> None:
    """Default sink before :meth:`Transport.bind` attaches a scheme."""


#: What the base stack decides: no ladder ran, so nothing is charged and
#: nothing booked (read-only, hence shared by every plain exchange).
_DELIVERED = LadderOutcome(True, (), {})
_REFUSED = LadderOutcome(False, (), {})


def attach_request_counter(transport: Any, scheme: Any) -> None:
    """Wrap ``scheme.process`` so ``transport._req`` tracks the request index.

    Installed by the layer's ``attach``, which
    :func:`~repro.core.run.assemble_run` calls on the finished scheme, in
    one fixed order, for each layer that counts requests (an event-fed
    carrier, the recording): each keeps its own counter, and the
    wrappers chain.  :meth:`Transport.bind` only hands over the latency
    sink, from inside ``CachingScheme.__init__``.
    """
    process = scheme.process

    def counted(cluster: int, client: int, obj: int) -> str:
        transport._req += 1
        return process(cluster, client, obj)

    scheme.process = counted


def merge_counters(own: dict[str, int], msg: dict[str, int]) -> dict[str, int]:
    """Fold a layer's fault counters into the scheme's dict; returns ``msg``.

    Merge, don't rebind-and-drop: any timeouts/retries/fallbacks
    accumulated before installation must survive the handover (the
    identity guard keeps a re-install from double-counting).
    """
    if own is not msg:
        for key in FAULT_COUNTERS:
            msg[key] = msg.get(key, 0) + own.get(key, 0)
    return msg


def lossy_notices(directory: Any, injector: Any, cluster: int) -> Any:
    """Make a directory's eviction notices lossy per ``plan.stale_rate``.

    The one fault decision that never crosses the wire: drops come from
    the plan's ``"notices"`` substream, so a simulated, a replayed and a
    live run of one ``(plan, scope)`` lose the same notices.
    """
    stale_rate = injector.plan.stale_rate
    if stale_rate > 0.0:
        from ..core.directory import LossyDirectory

        directory = LossyDirectory(
            directory,
            drop_prob=stale_rate,
            rng=injector.stream("notices", cluster),
        )
    return directory


class Transport:
    """Base transport: every cooperation exchange succeeds immediately.

    Also the stack's contract — layers override :meth:`draw` (and the
    probe / directory / counter hooks they own) and delegate the rest
    (:class:`TransportLayer`).
    """

    #: True when a fault process is active somewhere in the stack.
    #: Schemes branch on this once at construction/finalize time (never
    #: per request) to keep fault-only accounting out of plain results.
    faulty = False

    def __init__(self, network: NetworkConfig) -> None:
        self.network = network
        self._charge = _discard_latency

    def bind(self, scheme: Any) -> None:
        """Attach the running scheme's warmup-aware latency sink."""
        self._charge = scheme.add_extra_latency

    def draw(self, exchange: Exchange, force_fail: bool = False) -> LadderOutcome:
        """Decide one exchange — the one method a layer overrides.

        Every RNG draw behind the outcome happens inside this call, in
        call order, and nothing is paid: no latency charged, no counter
        booked.  ``force_fail`` marks a peer that will never answer (an
        explicitly-unresponsive push target): the exchange fails on every
        stack, fault layer or not — only the *cost* of failing (the
        timeout ladder) is the fault layer's business, so the base stack
        refuses it for free and books nothing.
        """
        return _REFUSED if force_fail else _DELIVERED

    def _book(self, deltas: dict[str, int]) -> None:
        """Add one outcome's counter deltas to the stack's counters."""
        counters = self.fault_counters
        for key, d in deltas.items():
            counters[key] = counters.get(key, 0) + d

    def attempt(self, exchange: Exchange, force_fail: bool = False) -> bool:
        """Carry one exchange; True iff it (eventually) got through.

        Paying, written once for every stack: draw, book the deltas,
        charge every amount one by one in ladder order (float addition
        is not associative — per-amount charging is what keeps
        ``total_latency`` byte-identical across carriers).
        """
        outcome = self.draw(exchange, force_fail)
        if outcome.deltas:
            self._book(outcome.deltas)
        for amount in outcome.charges:
            self._charge(amount)
        return outcome.ok

    def unresponsive(self, cluster: int, client: int) -> bool:
        """Will this client cache never answer a push request?"""
        return False

    def wrap_directory(self, directory: Any, cluster: int) -> Any:
        """Give a cluster's lookup directory this stack's failure modes."""
        return directory

    def install_counters(self, msg: dict[str, int]) -> None:
        """Point fault-counter accounting at the scheme's message dict.

        Hier-GD merges the :data:`~repro.core.metrics.FAULT_COUNTERS`
        straight into its protocol-message dict; schemes that skip this
        keep the transport's private dict and fold
        :attr:`fault_counters` in at finalize.  A no-op unless a fault
        layer is active.
        """

    @property
    def fault_counters(self) -> dict[str, int]:
        """The stack's fault-counter dict ({} when no fault layer is active)."""
        return {}


class TransportLayer(Transport):
    """A transport wrapping another: delegates everything by default."""

    def __init__(self, inner: Transport) -> None:
        super().__init__(inner.network)
        self.inner = inner

    @property
    def faulty(self) -> bool:  # type: ignore[override]
        """True when any wrapped layer carries an active fault process."""
        return self.inner.faulty

    def bind(self, scheme: Any) -> None:
        """Attach the scheme's latency sink to this layer and the stack below."""
        super().bind(scheme)
        self.inner.bind(scheme)

    def draw(self, exchange: Exchange, force_fail: bool = False) -> LadderOutcome:
        """Delegate the decision to the wrapped transport."""
        return self.inner.draw(exchange, force_fail)

    def unresponsive(self, cluster: int, client: int) -> bool:
        """Delegate the unresponsiveness probe to the wrapped transport."""
        return self.inner.unresponsive(cluster, client)

    def wrap_directory(self, directory: Any, cluster: int) -> Any:
        """Delegate directory wrapping to the wrapped transport."""
        return self.inner.wrap_directory(directory, cluster)

    def install_counters(self, msg: dict[str, int]) -> None:
        """Delegate counter installation to the wrapped transport."""
        self.inner.install_counters(msg)

    @property
    def fault_counters(self) -> dict[str, int]:
        """The wrapped stack's fault-counter dict."""
        return self.inner.fault_counters


class FaultTransport(TransportLayer):
    """The fault layer: a :class:`FaultPlan`'s failure semantics.

    The ladder itself lives in :class:`repro.protocol.policy.LinkLadder`:
    per link the plan's :class:`~repro.protocol.policy.PolicySet` picks
    the response strategy (the default is the PR-3 exponential ladder,
    byte-identical: a lost message costs one link RTT, retries inflate
    the timeout by ``plan.backoff_base`` each round, and an exhausted
    budget returns False so the caller falls back to the next tier).
    ``force_fail`` models a peer that will never answer (an unresponsive
    push target): the ladder is paid without consuming any RNG draw.

    ``scope`` namespaces the injector's substreams (the scheme name, so
    two schemes under one plan draw independent sequences).  Each link's
    ladder — its policy's constants, the plan's probabilities, the RTT
    and the injector's bound uniform draws — is resolved once, here.
    """

    def __init__(self, inner: Transport, plan: "FaultPlan", scope: str = "") -> None:
        super().__init__(inner)
        # Deferred import: repro.faults imports the core layer, which
        # imports this module — by the time a fault layer is built, the
        # cycle has resolved.
        from ..faults.injector import FaultInjector

        self.plan = plan
        self.scope = scope
        self._active = not plan.is_zero()
        self.injector = injector = FaultInjector(plan, scope=scope)
        self._counters = dict.fromkeys(FAULT_COUNTERS, 0)
        policies = plan.policy_set()
        rtts = inner.network.link_rtts()
        #: Link -> its ladder; empty for a zero plan (the identity layer).
        self._ladders = {
            link: LinkLadder(
                policies.for_link(link), plan, link, rtts[link],
                *injector.uniforms(link),
            )
            for link in FAULT_LINKS
        } if self._active else {}

    @property
    def faulty(self) -> bool:  # type: ignore[override]
        """True unless the plan is zero (the identity layer)."""
        return self._active or self.inner.faulty

    def draw(self, exchange: Exchange, force_fail: bool = False) -> LadderOutcome:
        """Decide one ladder: every round's draws, atomically, in order.

        Loss and delay draws for every round happen here, in ladder
        order, before any wait is taken — which is what keeps a daemon's
        concurrent ladders on one fault-RNG substream deterministic: the substream
        advances in ladder *start* order, never in wait-completion order.
        A delivered ladder's last round is handed to the wrapped stack
        (layers inside a fault layer see wire rounds that got through,
        never the timed-out ones); a zero plan or a LAN-side exchange is
        the wrapped stack's alone.
        """
        ladder = self._ladders.get(exchange.link)
        if ladder is None:
            return self.inner.draw(exchange, force_fail)
        outcome = ladder.decide(force_fail)
        return outcome.then(self.inner.draw(exchange)) if outcome.ok else outcome

    def unresponsive(self, cluster: int, client: int) -> bool:
        """Hash-stable answer: does this client never answer pushes?"""
        if not self._active:
            return self.inner.unresponsive(cluster, client)
        return self.injector.unresponsive(cluster, client)

    def wrap_directory(self, directory: Any, cluster: int) -> Any:
        """Make eviction notices lossy per ``plan.stale_rate``."""
        directory = self.inner.wrap_directory(directory, cluster)
        if self._active:
            directory = lossy_notices(directory, self.injector, cluster)
        return directory

    def install_counters(self, msg: dict[str, int]) -> None:
        """Fold the layer's counters into the scheme's message dict."""
        if self._active:
            self._counters = merge_counters(self._counters, msg)
        self.inner.install_counters(msg)

    @property
    def fault_counters(self) -> dict[str, int]:
        """This layer's counters (the inner stack's when plan is zero)."""
        return self._counters if self._active else self.inner.fault_counters


class EventFedTransport(Transport):
    """A carrier answered from an event stream instead of a fault RNG.

    What a recorded file (:class:`~repro.protocol.replay.ReplayTransport`)
    and a live socket (:class:`~repro.daemon.driver.DaemonTransport`)
    share: every wire decision arrives as a trace event produced under
    ``plan`` (``None`` / zero: a plain stack).  Subclasses supply
    :meth:`draw` / :meth:`unresponsive` — where the next event comes
    from, how a mismatch is reported — and hand the event's outcome back
    (:meth:`LadderOutcome.from_event`); paying it is the base's
    :meth:`attempt`, counters booked on the dict held here.
    """

    def __init__(self, network: NetworkConfig, plan: Any = None, scope: str = "") -> None:
        super().__init__(network)
        self.plan = plan
        self.scope = scope
        self._active = plan is not None and not plan.is_zero()
        self._counters = dict.fromkeys(FAULT_COUNTERS, 0) if self._active else {}
        #: Request index maintained by :func:`attach_request_counter`;
        #: -1 until the first request enters the scheme.
        self._req = -1

    @property
    def faulty(self) -> bool:  # type: ignore[override]
        """True when the events come from an active fault plan."""
        return self._active

    def attach(self, scheme: Any) -> None:
        """Start counting request indices (call after scheme construction)."""
        attach_request_counter(self, scheme)

    def close(self) -> None:
        """Release what feeds the events (nothing, for an in-memory stream)."""

    def wrap_directory(self, directory: Any, cluster: int) -> Any:
        """Rebuild the plan's lossy-notice channel locally (never on wire)."""
        if self._active:
            from ..faults.injector import FaultInjector

            injector = FaultInjector(self.plan, scope=self.scope)
            directory = lossy_notices(directory, injector, cluster)
        return directory

    def install_counters(self, msg: dict[str, int]) -> None:
        """Fold the event-fed counter deltas into the scheme's dict."""
        if self._active:
            self._counters = merge_counters(self._counters, msg)

    @property
    def fault_counters(self) -> dict[str, int]:
        """Counters accumulated from event deltas ({} when plan-free)."""
        return self._counters if self._active else {}


def build_transport(
    network: NetworkConfig,
    plan: "FaultPlan | None" = None,
    scope: str = "",
) -> Transport:
    """Assemble the standard stack: base → fault layer.

    ``plan=None`` (or a zero plan) yields the identity semantics.
    """
    transport: Transport = Transport(network)
    if plan is not None:
        transport = FaultTransport(transport, plan, scope=scope)
    return transport
