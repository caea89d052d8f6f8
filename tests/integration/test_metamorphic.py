"""Metamorphic relations: exact oracles from the model's own symmetries.

Every other whole-scheme oracle is a second implementation of the same
mechanism.  These need none: each relation transforms the input in a way
whose effect on the output is known exactly, then runs the one program
twice.

- **R1, latency scaling.**  Every latency is ``t_local`` times a fixed
  ratio, so multiplying ``t_local`` by a power of two multiplies every
  latency by it exactly in binary floating point, and every comparison a
  replacement policy makes keeps its outcome.  Tier counts, messages and
  every other extra stay byte-identical; ``total_latency``,
  ``extra_latency`` and ``byte_latency`` scale exactly.  This holds under
  fault plans too, with the plan left unscaled: a plan's timeouts, backoff rounds and delays are multiples of
  the link RTT, so they scale with ``t_local``, and its draws do not
  depend on latencies.
- **R2, empty client caches collapse an -EC scheme onto its base.**  At
  ``client_cache_fraction=0`` there is no P2P capacity: NC-EC is NC, and
  SC-EC is SC apart from a zero ``push_requests`` counter.  FC-EC is not
  FC: FC pools every proxy's capacity into one store, FC-EC's
  per-cluster tracker labels the surplus copies P2P hits (ROADMAP
  item 14), so that case is a strict xfail until the science is decided.
- **R3, one proxy leaves nothing to share.**  At ``n_proxies=1`` there is
  no peer proxy to probe or push to: SC is NC and SC-EC is NC-EC on
  ``tier_counts``, ``total_latency``, every extra and every other
  message counter, for unit and sized runs.  Only the cooperation
  counters (``coop_probes``, ``coop_fetches``, ``push_requests``) tell
  them apart, and they stay zero.
- **R5, piggybacking only relabels the destage connection (§4.4).**  With
  ``piggyback=False`` Hier-GD makes the same pass-downs over dedicated
  connections: tier counts, latency, extras and every message counter
  stay identical, except that ``piggybacked_destages`` and
  ``dedicated_destage_connections`` swap.
- **R6, Pastry's ``b`` changes routes, not placement (§4.1).**  An object's
  owner is the numerically closest node id whatever the digit width, so
  ``pastry_b=2`` leaves everything identical but ``mean_pastry_hops``.

R5 and R6 run at smoke scale with exact and Bloom directories, fault-free
and under the composite robustness plan.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.core.config import SimulationConfig
from repro.core.run import available_schemes, generate_workloads
from repro.experiments.robustness import robustness_plan
from repro.experiments.runner import SCALES, base_config
from repro.faults import FaultPlan, run_scheme_with_faults
from repro.netmodel import NetworkConfig
from repro.workload import ProWGenConfig

#: Extras that are latencies (scale with ``t_local``); every other extra
#: is a count, a byte tally, a hop statistic or a memory size.
LATENCY_EXTRAS = ("extra_latency", "byte_latency")

#: No shrink phase: the strategies are a few discrete choices each, and
#: shrinking a failing whole-scheme run would take minutes.
SETTINGS = settings(
    max_examples=10,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)


def config(sizes: str, proxy_fraction: float, **overrides) -> SimulationConfig:
    workload = ProWGenConfig(
        n_requests=1_500, n_objects=150, n_clients=8, object_sizes=sizes
    )
    fields = dict(
        workload=workload,
        n_proxies=3,
        proxy_cache_fraction=proxy_fraction,
        client_cache_fraction=0.02,
    )
    fields.update(overrides)
    return SimulationConfig(**fields)


def result(name, cfg, traces, plan=None) -> dict:
    return dataclasses.asdict(run_scheme_with_faults(name, cfg, traces, plan, seed=0))


#: R1's fault plans: none, the composite robustness plan, churn alone and
#: message loss alone (a plan is a no-op on a scheme it cannot fault).
R1_PLANS = {
    "none": None,
    "composite": robustness_plan(0.1),
    "churn": FaultPlan(churn_rate=0.004, seed=5),
    "loss": FaultPlan(p2p_loss=0.2, proxy_loss=0.2, push_loss=0.2, seed=5),
}


sizes = st.sampled_from(["off", "heavy-tailed"])
proxy_fractions = st.sampled_from([0.1, 0.3, 0.6])
seeds = st.integers(min_value=0, max_value=3)


@pytest.mark.parametrize("name", available_schemes())
@SETTINGS
@given(
    k=st.integers(min_value=-2, max_value=3),
    sizes=sizes,
    fraction=proxy_fractions,
    seed=seeds,
    directory=st.sampled_from(["exact", "bloom"]),
    hiergd_policy=st.sampled_from(["gd", "lru", "lfu"]),
    gd_cost_model=st.sampled_from(["gds", "gd"]),
    plan=st.sampled_from(list(R1_PLANS)),
)
def test_r1_scaling_t_local_scales_every_latency_exactly(
    name, k, sizes, fraction, seed, directory, hiergd_policy, gd_cost_model, plan
):
    base = config(
        sizes,
        fraction,
        directory=directory,
        hiergd_policy=hiergd_policy,
        gd_cost_model=gd_cost_model,
    )
    traces = generate_workloads(base, seed=seed)
    factor = 2.0**k
    scaled_config = dataclasses.replace(base, network=NetworkConfig(t_local=factor))
    plain = result(name, base, traces, R1_PLANS[plan])
    scaled = result(name, scaled_config, traces, R1_PLANS[plan])

    assert scaled["tier_counts"] == plain["tier_counts"]
    assert scaled["messages"] == plain["messages"]
    assert scaled["total_latency"] == plain["total_latency"] * factor
    assert scaled["extras"].keys() == plain["extras"].keys()
    for key, value in plain["extras"].items():
        expected = value * factor if key in LATENCY_EXTRAS else value
        assert scaled["extras"][key] == expected, key


def r2_results(extended, base_name, cfg, seed):
    traces = generate_workloads(cfg, seed=seed)
    ec = result(extended, cfg, traces)
    assert ec["messages"].pop("push_requests", 0) == 0
    plain = result(base_name, cfg, traces)
    ec["scheme"] = plain["scheme"]
    return ec, plain


@pytest.mark.parametrize("extended, base_name", [("nc-ec", "nc"), ("sc-ec", "sc")])
@SETTINGS
@given(sizes=sizes, fraction=proxy_fractions, seed=seeds)
def test_r2_empty_client_caches_collapse_ec_onto_its_base(
    extended, base_name, sizes, fraction, seed
):
    cfg = config(sizes, fraction, client_cache_fraction=0.0)
    ec, plain = r2_results(extended, base_name, cfg, seed)
    assert ec == plain


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 14: FC pools the proxies' capacity into one store "
    "and FC-EC labels the surplus copies as P2P hits",
)
@pytest.mark.parametrize("sizes", ["off", "heavy-tailed"])
def test_r2_fc_ec_collapses_onto_fc(sizes):
    cfg = config(sizes, 0.3, client_cache_fraction=0.0)
    ec, plain = r2_results("fc-ec", "fc", cfg, seed=0)
    assert ec == plain


#: Counters only the cooperating scheme of an R3 pair reports.
COOPERATION_COUNTERS = ("coop_probes", "coop_fetches", "push_requests")


@pytest.mark.parametrize("shared, alone", [("sc", "nc"), ("sc-ec", "nc-ec")])
@SETTINGS
@given(sizes=sizes, fraction=proxy_fractions, seed=seeds)
def test_r3_one_proxy_collapses_sharing_onto_no_sharing(shared, alone, sizes, fraction, seed):
    cfg = config(sizes, fraction, n_proxies=1)
    traces = generate_workloads(cfg, seed=seed)
    coop = result(shared, cfg, traces)
    plain = result(alone, cfg, traces)
    for counter in COOPERATION_COUNTERS:
        assert coop["messages"].pop(counter, 0) == 0, counter
        plain["messages"].pop(counter, None)
    coop["scheme"] = plain["scheme"]
    assert coop == plain


@lru_cache(maxsize=None)
def hier_gd_smoke(directory: str, plan: str, **change) -> dict:
    """Hier-GD at smoke scale, S = 0.3, with ``change`` applied."""
    cfg = base_config(
        SCALES["smoke"], overlay="pastry", proxy_cache_fraction=0.3, directory=directory
    )
    traces = generate_workloads(cfg, seed=0)
    return result("hier-gd", cfg.with_changes(**change), traces, R1_PLANS[plan])


R56_CELLS = pytest.mark.parametrize(
    "directory, plan",
    [(d, p) for d in ("exact", "bloom") for p in ("none", "composite")],
)


@R56_CELLS
def test_r5_piggyback_off_only_swaps_the_destage_counters(directory, plan):
    piggybacked = hier_gd_smoke(directory, plan)
    dedicated = hier_gd_smoke(directory, plan, piggyback=False)
    messages = dict(dedicated["messages"])
    messages["piggybacked_destages"], messages["dedicated_destage_connections"] = (
        messages["dedicated_destage_connections"], messages["piggybacked_destages"]
    )
    sent = piggybacked["messages"]
    assert sent["piggybacked_destages"] == sent["passdowns"] > 0
    assert sent["dedicated_destage_connections"] == 0
    assert {**dedicated, "messages": messages} == piggybacked


@R56_CELLS
def test_r6_pastry_b_moves_only_the_hop_count(directory, plan):
    b4 = hier_gd_smoke(directory, plan)
    b2 = hier_gd_smoke(directory, plan, pastry_b=2)
    extras4, extras2 = dict(b4["extras"]), dict(b2["extras"])
    for extras in (extras4, extras2):
        del extras["mean_pastry_hops"]
    assert {**b2, "extras": extras2} == {**b4, "extras": extras4}
