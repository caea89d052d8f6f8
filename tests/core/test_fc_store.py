"""FC's copy store against its literal model (``tests/models/fc_store.py``).

``FcScheme._consider_copy`` reads sizes, values and the heap's head in
its own frame; the model scans a dict.  Driven request by request, the
two must hold the same copies at the same ``(density, seq)`` records,
the same primaries and the same capacity in use.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.config import SimulationConfig
from repro.core.run import generate_workloads
from repro.core.schemes import FcEcScheme, FcScheme
from repro.experiments.runner import base_config
from repro.workload import ProWGenConfig, Trace
from tests.models.fc_store import NaiveFc, NaiveFcEc


def store_config(sizes):
    cfg = base_config()
    wl = dataclasses.replace(cfg.workload, n_requests=2_000, n_objects=300, n_clients=10)
    if sizes == "sized":
        wl = dataclasses.replace(wl, object_sizes="heavy-tailed")
    return dataclasses.replace(cfg, workload=wl, n_proxies=3, proxy_cache_fraction=0.2)


@pytest.mark.parametrize("sizes", ["unit", "sized"])
@pytest.mark.parametrize("scheme,model", [(FcScheme, NaiveFc), (FcEcScheme, NaiveFcEc)])
def test_store_matches_model_after_every_request(scheme, model, sizes):
    config = store_config(sizes)
    traces = generate_workloads(config, seed=0)
    fast, naive = scheme(config, traces), model(config, traces)
    rejected = []  # requests whose admission popped incumbents and put them back
    consider = naive._consider_copy

    def counted(obj, cluster):
        requeued = naive.requeued
        consider(obj, cluster)
        if naive.requeued != requeued:
            rejected.append(obj)

    naive._consider_copy = counted
    for i in range(len(traces[0].object_ids)):
        for ci, trace in enumerate(traces):
            obj = int(trace.object_ids[i])
            assert fast.process(ci, 0, obj) == naive.process(ci, 0, obj)
            assert {k: r[:2] for k, r in fast._copies._live.items()} == naive.copies
            assert fast._primary == naive._primary
            assert fast._used == naive._used
            assert fast._holders == naive._holders
            if scheme is FcEcScheme:
                for tiers, naive_tiers in zip(fast._tiers, naive._tiers):
                    assert set(tiers._top._live) == set(naive_tiers._top._live)
    assert fast._placement_updates == naive._placement_updates > 0
    # Sized stores reject after popping (the restore path runs).
    assert bool(rejected) == (sizes == "sized")


def test_rejected_admission_requeues_its_victims_in_pop_order():
    """A rejected admission puts its popped incumbents back with their
    own records, sequence numbers included, so the store's order is the
    one before the attempt.  Built here: two unit copies of equal density
    ahead of a dense one, a newcomer that pops both and is refused by the
    third; the older of the tied pair is still evicted first."""
    trace = Trace(
        np.arange(5, dtype=np.int64), np.zeros(5, dtype=np.int32), n_objects=5, n_clients=1
    )
    config = SimulationConfig(
        workload=ProWGenConfig(n_requests=100, n_objects=5, n_clients=1), n_proxies=1
    )
    scheme = FcScheme(config, [trace])
    # One cluster: a copy's density is f·Ts / size.  Objects 0 and 1 tie.
    scheme.capacity = 4
    scheme._size_list = [1, 1, 2, 3, 1]
    scheme._freq = [[1, 1, 4, 5, 2]]
    scheme._freq_total = scheme._freq[0]
    for obj in (0, 1, 2):
        scheme._consider_copy(obj, 0)
    live = scheme._copies._live

    def order():
        return sorted(live, key=lambda copy: live[copy][:2])

    assert order() == [(0, 0), (1, 0), (2, 0)] and scheme._used == 4
    tied = live[(0, 0)][0]
    assert live[(1, 0)][0] == tied
    updates = scheme._placement_updates
    scheme._consider_copy(3, 0)  # 5/3 Ts: pops 0 and 1, refused by 2 (2 Ts)
    assert scheme._placement_updates == updates and scheme._used == 4
    assert [live[copy][1] for copy in order()] == [1, 2, 3]  # their own seqs
    assert order() == [(0, 0), (1, 0), (2, 0)]
    scheme._consider_copy(4, 0)  # 2 Ts, one unit: evicts the older of the tie
    assert set(live) == {(1, 0), (2, 0), (4, 0)}
