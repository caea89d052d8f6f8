#!/usr/bin/env python
"""Fault resilience: what happens when client machines crash mid-run.

The paper claims the Pastry-based P2P client cache is "fault-resilient
and self-organizing" (§4.1) but never quantifies it.  This example
injects client failures (and a recovery join) into a Hier-GD run and
reports the cost: objects lost, stale directory entries lazily repaired,
and how much mean latency degrades relative to a churn-free run.

Usage::

    python examples/failure_resilience.py
"""

from repro.core.churn import ChurnEvent
from repro.core.config import SimulationConfig
from repro.core.hiergd import HierGdScheme
from repro.core.run import generate_workloads
from repro.workload import ProWGenConfig


def main() -> None:
    config = SimulationConfig(
        workload=ProWGenConfig(n_requests=40_000, n_objects=2_000, n_clients=40),
        n_proxies=1,
        proxy_cache_fraction=0.1,  # small proxy: the P2P tier carries weight
        client_cache_fraction=0.0025,  # 40 clients x 0.25% => 10% P2P
    )
    traces = generate_workloads(config, seed=17)

    baseline = HierGdScheme(config, traces).run()

    # A quarter of the machines crash across the middle of the run; one
    # replacement machine joins near the end.
    events = [
        ChurnEvent(at_request=10_000 + 2_000 * i, kind="fail", cluster=0, client=i)
        for i in range(10)
    ] + [ChurnEvent(at_request=34_000, kind="join", cluster=0)]
    churned = HierGdScheme(config, traces, events=events).run()

    print("churn schedule: 10 failures (25% of machines) + 1 join\n")
    print(f"{'':24s} {'no churn':>12} {'with churn':>12}")
    print(f"{'mean latency':24s} {baseline.mean_latency:>12.4f} {churned.mean_latency:>12.4f}")
    print(f"{'P2P hit rate':24s} {baseline.hit_rate('local_p2p'):>12.2%} "
          f"{churned.hit_rate('local_p2p'):>12.2%}")
    print(f"{'server miss rate':24s} {baseline.miss_rate:>12.2%} {churned.miss_rate:>12.2%}")
    print()
    print("churn accounting:")
    for key in ("client_failures", "client_joins", "objects_lost",
                "directory_repairs", "directory_false_positives"):
        print(f"  {key:28s} {churned.messages[key]}")
    degradation = churned.mean_latency / baseline.mean_latency - 1
    print(f"\nlatency degradation under churn: {degradation:+.2%}")
    print("The directory self-heals: every stale entry costs one wasted")
    print("Tp2p round, then disappears — no lasting damage beyond the")
    print("lost cache contents themselves.")


if __name__ == "__main__":
    main()
