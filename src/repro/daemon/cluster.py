"""An in-process daemon cluster: proxy + N client daemons on one thread.

:class:`LocalCluster` exists for the places that need live daemons
without shelling out — the end-to-end tests, the ledger's ``daemon_live``
workload and ``examples/live_cluster.py``.  It
runs a private asyncio event loop on a background thread, starts one
proxy :class:`~repro.daemon.node.CacheDaemon` and ``n_clients`` client
daemons on ephemeral localhost ports, and exposes the routing table a
:class:`~repro.daemon.driver.DaemonTransport` consumes directly.

Byte-identity note: :func:`~repro.daemon.driver.drive_scheme` against a
``LocalCluster(n_clients=1)`` reproduces a simulated recording byte for
byte (one daemon per role keeps every fault link's RNG substream whole);
more clients are fine for traffic demos and still record replayable
traces, but their fault draws split across connections.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any

from .node import CacheDaemon

__all__ = ["LocalCluster"]


class LocalCluster:
    """Start/stop a proxy + N client daemons; context-manager friendly.

    ``scale`` (shared by every daemon) converts simulated waits into
    wall-clock seconds; the default ``0`` keeps concurrency real without
    wasting wall time on simulated timeouts.
    """

    def __init__(
        self,
        n_clients: int = 1,
        host: str = "127.0.0.1",
        scale: float = 0.0,
    ) -> None:
        if n_clients < 1:
            raise ValueError("a cluster needs at least one client daemon")
        self.host = host
        self.proxy = CacheDaemon("proxy", node=0, scale=scale)
        self.clients = [
            CacheDaemon("client", node=i, scale=scale) for i in range(n_clients)
        ]
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    @property
    def daemons(self) -> list[CacheDaemon]:
        """Every daemon, proxy first."""
        return [self.proxy, *self.clients]

    @property
    def routes(self) -> dict[str, list[tuple[str, int]]]:
        """The routing table a :class:`DaemonTransport` takes verbatim."""
        if self._loop is None:
            raise RuntimeError("cluster is not running")
        return {
            "proxy": [self.proxy.address],
            "client": [d.address for d in self.clients],
        }

    def stats(self) -> list[dict[str, Any]]:
        """Per-daemon service counters, proxy first."""
        return [d.stats for d in self.daemons]

    def start(self) -> "LocalCluster":
        """Bind every daemon on an ephemeral port; returns self."""
        if self._loop is not None:
            raise RuntimeError("cluster is already running")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-daemon-cluster", daemon=True
        )
        self._thread.start()
        try:
            for daemon in self.daemons:
                asyncio.run_coroutine_threadsafe(
                    daemon.start(self.host, 0), self._loop
                ).result(timeout=30)
        except BaseException:
            self.stop()
            raise
        return self

    def stop(self) -> None:
        """Stop every daemon (cancelling in-flight exchanges) and the loop."""
        loop, thread = self._loop, self._thread
        if loop is None:
            return
        self._loop = self._thread = None
        for daemon in self.daemons:
            try:
                asyncio.run_coroutine_threadsafe(
                    daemon.stop(), loop
                ).result(timeout=30)
            except Exception:  # pragma: no cover - teardown best effort
                pass
        loop.call_soon_threadsafe(loop.stop)
        if thread is not None:
            thread.join(timeout=30)
        loop.close()

    def __enter__(self) -> "LocalCluster":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
