"""Hier-GD's miss chain (§3–§4) as transport-mediated protocol stages.

The paper's request flow — directory lookup into the own P2P cache,
cooperating proxies, the push protocol, the origin server — with every
cooperation hop routed through the scheme's
:class:`~repro.protocol.transport.Transport`.  This is the miss path of
Hier-GD's protocol-chain engine (:mod:`repro.core.hiergd` says which
runs get it; the indexed engine inlines the fault-free flow instead and
borrows :func:`push_stage` under Bloom directories):

* under the base transport every :meth:`attempt` succeeds and the chain
  is line-for-line the paper's fault-free flow;
* under a :class:`~repro.protocol.transport.FaultTransport` the same
  code acquires timeout → retry → fallback semantics — a failed
  exchange drops the request to the next stage, ultimately to the
  origin server, which never fails (why faulty Hier-GD degrades toward
  NC, never below it).

The stages are free functions over a Hier-GD-like scheme (anything with
the cluster states, ``_locate``/``_proxy_insert`` and a bound
transport), so the churn scheme and any future variant reuse them
without another subclass fork.  Each returns the serving tier or
``None`` ("not served here, try the next stage").
"""

from __future__ import annotations

from typing import Any

from ..netmodel import (
    TIER_COOP_P2P,
    TIER_COOP_PROXY,
    TIER_LOCAL_P2P,
    TIER_SERVER,
)
from .messages import LOOKUP_QUERY, PROXY_FETCH, PUSH

__all__ = [
    "lookup_stage",
    "coop_proxy_stage",
    "push_stage",
    "origin_stage",
    "serve_miss",
]


def lookup_stage(scheme: Any, state: Any, obj: int) -> str | None:
    """Step 2: redirect into the own P2P cache via the lookup directory.

    A directory claim sends one ``LOOKUP_QUERY`` into the overlay.  If
    the claim was an over-claim — a Bloom false positive, or a stale
    entry under fault injection — the wasted ``Tp2p`` round is charged
    and counted under the scheme's over-claim key.  On ladder exhaustion
    the redirect is abandoned unserved (a stale entry, if any, survives
    undetected: the proxy never learned it was wrong).
    """
    if obj not in state.directory:
        return None
    msg = scheme._msg
    msg["p2p_lookups"] += 1
    if scheme.transport.attempt(LOOKUP_QUERY):
        holder = scheme._locate(state, obj)
        if holder is not None:
            state.clients[holder].lookup(obj)  # GD credit refresh
            if scheme._promote:
                scheme._proxy_insert(state, obj, cost=scheme._t_p2p)
            return TIER_LOCAL_P2P
        msg[scheme._overclaim_key] += 1
        scheme.add_extra_latency(scheme._t_p2p)
    return None


def coop_proxy_stage(scheme: Any, state: Any, cluster: int, obj: int) -> str | None:
    """Step 3: cooperating proxies' own caches first (cheaper than a push)."""
    for other, other_state in enumerate(scheme.states):
        if other != cluster and other_state.proxy.contains(obj):
            if scheme.transport.attempt(PROXY_FETCH):
                scheme._proxy_insert(state, obj, cost=scheme._t_coop)
                return TIER_COOP_PROXY
            break  # retry budget spent: fall back a tier, don't re-scan
    return None


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


def origin_stage(scheme: Any, state: Any, obj: int) -> str:
    """Step 4: the origin server — the fallback that never fails."""
    scheme._proxy_insert(state, obj, cost=scheme._t_server)
    return TIER_SERVER


def serve_miss(scheme: Any, state: Any, cluster: int, obj: int) -> str:
    """Run the full miss chain: lookup → coop proxies → push → origin."""
    tier = lookup_stage(scheme, state, obj)
    if tier is not None:
        return tier
    tier = coop_proxy_stage(scheme, state, cluster, obj)
    if tier is not None:
        return tier
    tier = push_stage(scheme, state, cluster, obj)
    if tier is not None:
        return tier
    return origin_stage(scheme, state, obj)
