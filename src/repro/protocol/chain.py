"""The push protocol's scan (§4.5) as a transport-mediated stage.

Hier-GD's request path lives in :mod:`repro.core.hiergd_indexed`; what
stays here is the one step of its miss chain that asks every exchange
of the scheme's :class:`~repro.protocol.transport.Transport` on *every*
run that reaches it — the scan of other clusters' lookup directories,
which the engine takes wherever a directory can over-claim (Bloom
filters, and exact directories gone stale under faults or churn):

* under the base transport every :meth:`attempt` succeeds and the stage
  is line-for-line the paper's fault-free flow;
* under a :class:`~repro.protocol.transport.FaultTransport` the same
  code acquires timeout → retry → fallback semantics — a failed
  exchange moves on to the next claiming cluster, ultimately to the
  origin server.

A free function over a Hier-GD-like scheme (anything with the cluster
states, ``_locate``/``_proxy_insert`` and a bound transport).  Returns
the serving tier or ``None`` ("not served here, try the next stage").
"""

from __future__ import annotations

from typing import Any

from ..netmodel import TIER_COOP_P2P
from .messages import PUSH

__all__ = ["push_stage"]


def push_stage(scheme: Any, state: Any, cluster: int, obj: int) -> str | None:
    """Step 3, continued: other clusters' P2P caches via the push protocol.

    Each remote directory claim costs one ``PUSH`` round trip.  An
    over-claiming directory wastes ``Tc + Tp2p``; an unresponsive holder
    (firewalled/hung client, §4.3) never answers, so the proxy pays the
    whole timeout ladder before moving on.
    """
    msg = scheme._msg
    transport = scheme.transport
    for other, other_state in enumerate(scheme.states):
        if other == cluster or obj not in other_state.directory:
            continue
        msg["push_requests"] += 1
        holder = scheme._locate(other_state, obj)
        if holder is None:
            msg[scheme._overclaim_key] += 1
            scheme.add_extra_latency(scheme._t_coop + scheme._t_p2p)
            continue
        if transport.unresponsive(other, holder):
            transport.attempt(PUSH, force_fail=True)
            msg["failed_pushes"] += 1
            continue
        if transport.attempt(PUSH):
            other_state.clients[holder].lookup(obj)  # GD credit refresh
            scheme._proxy_insert(state, obj, cost=scheme._t_coop + scheme._t_p2p)
            return TIER_COOP_P2P
        msg["failed_pushes"] += 1
    return None
