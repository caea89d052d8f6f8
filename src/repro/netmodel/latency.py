"""The paper's four-parameter network latency model (§5.1).

The paper models the network with four scalar latencies:

* ``Ts`` — proxy ↔ origin Web server,
* ``Tc`` — proxy ↔ cooperating proxy,
* ``Tl`` — client ↔ local proxy,
* ``Tp2p`` — client/proxy ↔ P2P client cache (a few LAN hops of Pastry
  routing),

configured through the ratios it sweeps: ``Ts/Tc`` (default 10),
``Ts/Tl`` (default 20) and ``Tp2p/Tl`` (default 1.4).

Every request resolves to one of five *serving tiers*; the
client-perceived latency is the additive composition of the path
segments (DESIGN.md §3):

=================  =========================  ================
tier               path                       latency
=================  =========================  ================
``local_proxy``    client → proxy             ``Tl``
``local_p2p``      … → own P2P cache          ``Tl + Tp2p``
``coop_proxy``     … → cooperating proxy      ``Tl + Tc``
``coop_p2p``       … → coop proxy's P2P push  ``Tl + Tc + Tp2p``
``server``         … → origin server          ``Tl + Ts``
=================  =========================  ================

This preserves the paper's ordering: a P2P hit is cheaper than a
cooperating-proxy fetch, and both are far cheaper than the server.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = [
    "TIER_LOCAL_PROXY",
    "TIER_LOCAL_P2P",
    "TIER_COOP_PROXY",
    "TIER_COOP_P2P",
    "TIER_SERVER",
    "ALL_TIERS",
    "LINK_P2P",
    "LINK_PROXY",
    "LINK_PUSH",
    "FAULT_LINKS",
    "NetworkConfig",
]

TIER_LOCAL_PROXY = "local_proxy"
TIER_LOCAL_P2P = "local_p2p"
TIER_COOP_PROXY = "coop_proxy"
TIER_COOP_P2P = "coop_p2p"
TIER_SERVER = "server"

ALL_TIERS = (
    TIER_LOCAL_PROXY,
    TIER_LOCAL_P2P,
    TIER_COOP_PROXY,
    TIER_COOP_P2P,
    TIER_SERVER,
)

#: Cooperation links fault injection can degrade (``repro.faults``).  The
#: client → local proxy → origin path is deliberately absent: it is the
#: non-cooperative baseline every scheme falls back to, so faults on it
#: would shift NC and the fallback tier alike and cancel out of the
#: latency-gain metric.
LINK_P2P = "p2p"  #: proxy → own P2P client cache (a directory redirect)
LINK_PROXY = "proxy"  #: proxy → cooperating proxy
LINK_PUSH = "push"  #: proxy → remote proxy → pushed P2P object

FAULT_LINKS = (LINK_P2P, LINK_PROXY, LINK_PUSH)


@dataclass(frozen=True)
class NetworkConfig:
    """Latency parameters, expressed as the paper's ratios over ``Tl``."""

    t_local: float = 1.0
    ts_over_tc: float = 10.0
    ts_over_tl: float = 20.0
    tp2p_over_tl: float = 1.4

    def __post_init__(self) -> None:
        if self.t_local <= 0:
            raise ValueError("t_local must be positive")
        if self.ts_over_tc <= 0 or self.ts_over_tl <= 0 or self.tp2p_over_tl <= 0:
            raise ValueError("latency ratios must be positive")

    # -- derived absolute latencies ----------------------------------------

    @property
    def t_server(self) -> float:
        """Ts: proxy → origin server."""
        return self.t_local * self.ts_over_tl

    @property
    def t_coop(self) -> float:
        """Tc: proxy → cooperating proxy."""
        return self.t_server / self.ts_over_tc

    @property
    def t_p2p(self) -> float:
        """Tp2p: fetch from the P2P client cache."""
        return self.t_local * self.tp2p_over_tl

    # -- per-tier client-perceived latency -----------------------------------

    def latency(self, tier: str) -> float:
        """Client-perceived latency of a request served from ``tier``."""
        t = self.t_local
        if tier == TIER_LOCAL_PROXY:
            return t
        if tier == TIER_LOCAL_P2P:
            return t + self.t_p2p
        if tier == TIER_COOP_PROXY:
            return t + self.t_coop
        if tier == TIER_COOP_P2P:
            return t + self.t_coop + self.t_p2p
        if tier == TIER_SERVER:
            return t + self.t_server
        raise KeyError(f"unknown tier {tier!r}")

    def link_rtt(self, link: str) -> float:
        """One round-trip over a cooperation ``link`` (see ``FAULT_LINKS``).

        This is the time a proxy waits before declaring a request over
        that link timed out — the natural timeout is one expected RTT —
        and therefore the latency charged per wasted round when fault
        injection makes the link lose the message.
        """
        if link == LINK_P2P:
            return self.t_p2p
        if link == LINK_PROXY:
            return self.t_coop
        if link == LINK_PUSH:
            return self.t_coop + self.t_p2p
        raise KeyError(f"unknown link {link!r}")

    def link_rtts(self) -> dict[str, float]:
        """RTT per cooperation link — the fault transport's charge table."""
        return {link: self.link_rtt(link) for link in FAULT_LINKS}

    # -- benefit terms for cost-benefit replacement -----------------------------

    @property
    def benefit_first_copy_remote(self) -> float:
        """Latency a remote cluster's access saves thanks to *any* cached
        copy existing in the cluster (server → cooperating proxy)."""
        return self.t_server - self.t_coop

    @property
    def benefit_local_copy(self) -> float:
        """Extra saving when the copy is at the accessor's own proxy
        (cooperating proxy → local)."""
        return self.t_coop

    def with_ratios(
        self,
        ts_over_tc: float | None = None,
        ts_over_tl: float | None = None,
        tp2p_over_tl: float | None = None,
    ) -> "NetworkConfig":
        """Copy with some ratios replaced (Figure 5 (a)/(b) sweeps)."""
        return replace(
            self,
            ts_over_tc=self.ts_over_tc if ts_over_tc is None else ts_over_tc,
            ts_over_tl=self.ts_over_tl if ts_over_tl is None else ts_over_tl,
            tp2p_over_tl=self.tp2p_over_tl if tp2p_over_tl is None else tp2p_over_tl,
        )
