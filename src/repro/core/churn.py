"""Client churn for Hier-GD: node failures and joins during a run.

The paper leans on Pastry for the P2P client cache being "efficient,
scalable, fault-resilient, and self-organizing ... in the presence of
heavy load and network and node failure" (§4.1, §6) but never simulates
failures.  This module adds that experiment: client machines crash (their
browser caches vanish) and new machines join *while the trace replays*.

What failure does to the system (all mechanisms, not abstractions):

* the overlay repairs its routing state — Pastry's leaf sets and
  routing tables, Chord's successor lists and (lazily) fingers
  (:meth:`~repro.overlay.contract.OverlayBackend.fail`) — and DHT
  placement shifts: objectIds owned by the dead cache acquire new
  owners;
* the objects stored on the dead cache are gone, but the proxy's lookup
  directory *does not know yet* — entries go stale.  Repair is lazy, as
  it would be in a real deployment: the next lookup that redirects into
  the P2P cache and finds nothing repairs the entry (and is charged the
  wasted ``Tp2p`` round, same as a Bloom false positive);
* diversion pointers through or to the dead cache dangle and are swept;
* objects whose DHT owner changed remain physically cached at the old
  owner but become unreachable — they age out of the old owner's
  greedy-dual cache naturally (a DHT would *migrate* keys; a cache
  rationally chooses not to copy data on churn and re-fetches instead).

A join shifts placement the same way (keys split toward the newcomer)
without losing data.

A run has churn exactly when :class:`~repro.core.hiergd.HierGdScheme`
is given a schedule (even an empty one; churn schedules are
experiment-specific, so no registry name carries one)::

    events = [ChurnEvent(at_request=5_000, kind="fail", cluster=0, client=3)]
    result = HierGdScheme(config, traces, events=events).run()

A schedule naming a missing cluster or client, or failing a client
twice, is refused at construction.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ChurnEvent"]


@dataclass(frozen=True)
class ChurnEvent:
    """One membership change, fired before the ``at_request``-th request.

    ``client`` indexes the cluster's client list for ``kind="fail"``; it
    is ignored for ``kind="join"`` (the newcomer gets the next index).
    """

    at_request: int
    kind: str  # "fail" | "join"
    cluster: int
    client: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("fail", "join"):
            raise ValueError("kind must be 'fail' or 'join'")
        if self.at_request < 0:
            raise ValueError("at_request must be non-negative")
