#!/usr/bin/env python
"""Live cluster: a proxy + N client daemons in-process, driven over TCP.

Boots a :class:`~repro.daemon.LocalCluster` (real asyncio socket
servers on localhost — the same daemons ``repro-experiments serve``
runs in the foreground), drives a faulty Hier-GD workload against it
with :func:`~repro.daemon.drive_scheme`, verifies the live result
matches the pure simulation byte for byte, and prints each daemon's
per-link wire traffic from its own counters.

Usage::

    python examples/live_cluster.py [n_clients]
"""

import dataclasses
import sys

from repro.daemon import LocalCluster, drive_scheme
from repro.experiments.robustness import ROBUSTNESS_FRACTION, robustness_plan
from repro.experiments.runner import SCALES, base_config
from repro.faults.run import run_scheme_with_faults

SCHEME = "hier-gd"
RATE = 0.1


def main() -> None:
    n_clients = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    # Smoke scale keeps the example in seconds: every faulty exchange is
    # a real TCP round-trip to a daemon.
    config = base_config(SCALES["smoke"], proxy_cache_fraction=ROBUSTNESS_FRACTION)
    plan = robustness_plan(RATE, seed=0)

    with LocalCluster(n_clients=n_clients) as cluster:
        routes = cluster.routes
        print(f"cluster up: 1 proxy + {n_clients} client daemons")
        for role, addrs in sorted(routes.items()):
            for host, port in addrs:
                print(f"  {role:7s} {host}:{port}")

        report = drive_scheme(SCHEME, config, routes=routes, plan=plan, seed=0)
        print(
            f"\ndrove {report.scheme} at fault rate {RATE}: "
            f"{report.n_requests} requests, {report.exchanges} wire "
            f"exchanges, {report.probes} probes across {n_clients} client daemons"
        )
        print(f"  {report.result.summary()}")

        # The wire protocol's determinism rules (docs/PROTOCOL.md §8)
        # make a live run reproduce the simulation draw for draw when
        # each fault link lives whole on one connection — i.e. one
        # daemon per role.  (With N>1 client daemons the p2p substream
        # is sharded round-robin, so the runs legitimately differ.)
        solo = {"proxy": routes["proxy"], "client": routes["client"][:1]}
        live = drive_scheme(SCHEME, config, routes=solo, plan=plan, seed=0)
        simulated = run_scheme_with_faults(SCHEME, config, plan=plan, seed=0)
        identical = dataclasses.asdict(live.result) == dataclasses.asdict(simulated)
        verdict = "byte-identical" if identical else "DIVERGED"
        print(f"\nsolo-daemon live run vs pure simulation: {verdict}")

        print("\nper-daemon wire traffic (daemon counters):")
        for stats in cluster.stats():
            who = f"{stats['role']} #{stats['node']}"
            print(f"  {who}: {stats['connections']} connections, "
                  f"max {stats['max_in_flight']} ladders in flight, "
                  f"{stats['latency_charged']:.1f} ms simulated latency charged")
            for link, slot in sorted(stats.get("links", {}).items()):
                if slot["attempts"]:
                    print(f"    link {link:6s} attempts={slot['attempts']:6d} "
                          f"ok={slot['ok']:6d} failed={slot['failed']:6d}")
            for kind, slot in sorted(stats.get("exchanges", {}).items()):
                if slot["attempts"]:
                    print(f"    {kind:16s} attempts={slot['attempts']:6d} "
                          f"ok={slot['ok']:6d} failed={slot['failed']:6d}")


if __name__ == "__main__":
    main()
