"""Live cache daemons: the cooperation scheme as a network service.

Everything below :mod:`repro.protocol` treats the six cooperation
exchanges as in-process calls; this package stands them up as actual
sockets — the shape Squirrel-style systems deploy:

- :mod:`repro.daemon.node` — :class:`CacheDaemon`: a per-node asyncio
  socket server (proxy or client-cache role) answering the wire protocol
  of :mod:`repro.protocol.wire`.  One transport stack per connection,
  built from the hello's network/plan, with ladder draws done atomically
  at arrival and the waits run concurrently as asyncio sleeps.
- :mod:`repro.daemon.driver` — :class:`DaemonTransport`: the
  :class:`~repro.protocol.transport.Transport` contract answered by live
  daemons over TCP, plus :func:`drive_scheme`, which replays a workload
  trace against a running cluster and (with ``record_dir``) produces the
  same JSONL exchange traces as a simulated run — record/replay is the
  regression harness keeping the live path honest against the simulator.
- :mod:`repro.daemon.cluster` — :class:`LocalCluster`: a proxy + N
  client daemons on a private event-loop thread, for examples, tests and
  the CI smoke gate.
- :mod:`repro.daemon.cli` — the ``repro-experiments serve`` / ``drive``
  subcommands.

The wire format is specified normatively in ``docs/PROTOCOL.md``.
"""

from .cluster import LocalCluster
from .driver import DaemonTransport, DriveReport, drive_scheme
from .node import CacheDaemon

__all__ = [
    "CacheDaemon",
    "DaemonTransport",
    "DriveReport",
    "LocalCluster",
    "drive_scheme",
]
