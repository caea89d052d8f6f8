"""Unit tests for the retry-policy engine (:mod:`repro.protocol.policy`).

The contracts pinned here:

* **validation** — unknown strategies and out-of-range knobs fail at
  construction, and a :class:`PolicySet` refuses per-link overrides
  naming links that do not exist (listing the known ones, so a typo can
  never silently fall through to the default ladder);
* **ladder semantics** — :func:`run_ladder` charges each strategy
  exactly as documented: the exponential series for the default,
  one round for ``immediate``, clamped-and-jittered waits for
  ``capped``, and max-not-sum charging with full counter accounting for
  ``hedged``;
* **draw discipline** — the uniforms a ladder consumes are returned on
  the outcome in the trace-schema-2 ``draws`` shape, and a force-failed
  ladder consumes nothing;
* **fingerprints** — :func:`plan_fingerprint` covers the retry policies,
  so a policy change is visible in replay reports.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan
from repro.netmodel import FAULT_LINKS, LINK_P2P, LINK_PROXY
from repro.protocol import (
    DEFAULT_POLICIES,
    DEFAULT_POLICY,
    STRATEGIES,
    PolicySet,
    RetryPolicy,
    plan_fingerprint,
    run_ladder,
)

RTT = 4.0


class _Source:
    """Scripted draw source: pops from fixed uniform lists.

    The plan decides which processes are on: the engine asks for a loss
    uniform only on a lossy link and for the delay uniform (returned
    verbatim) only under a delay rate, so a script holds just the draws
    the ladder takes.
    """

    def __init__(self, loss=(), delay=None, jitter=()):
        self.loss = list(loss)
        self.delay = delay
        self.jitter = list(jitter)

    def loss_uniform(self, link):
        return self.loss.pop(0)

    def delay_uniform(self, link):
        return self.delay

    def jitter_uniform(self, link):
        return self.jitter.pop(0)


def plan(**kw):
    kw.setdefault("p2p_loss", 0.5)
    kw.setdefault("seed", 3)
    return FaultPlan(**kw)


class TestRetryPolicyValidation:
    def test_default_policy_is_the_identity(self):
        assert DEFAULT_POLICY.is_default
        assert DEFAULT_POLICY.label == "exp"
        assert RetryPolicy() == DEFAULT_POLICY

    def test_unknown_strategy_lists_known_ones(self):
        with pytest.raises(ValueError, match="known strategies"):
            RetryPolicy(strategy="exponential-ish")
        for name in STRATEGIES:
            RetryPolicy(strategy=name)  # every documented strategy builds

    @pytest.mark.parametrize(
        "kw",
        [
            {"max_retries": -1},
            {"backoff_base": 0.5},
            {"timeout_cap": 0.9},
            {"jitter": -0.1},
            {"jitter": 1.5},
        ],
    )
    def test_out_of_range_knobs_rejected(self, kw):
        with pytest.raises(ValueError):
            RetryPolicy(**kw)

    def test_knobs_inherit_from_the_plan(self):
        p = plan(max_retries=4, backoff_base=1.5)
        assert RetryPolicy().rounds(p) == 5
        assert RetryPolicy().backoff(p) == 1.5
        assert RetryPolicy(max_retries=1).rounds(p) == 2
        assert RetryPolicy(backoff_base=3.0).backoff(p) == 3.0
        assert RetryPolicy(strategy="immediate").rounds(p) == 1

    def test_labels_name_the_overridden_knobs(self):
        assert RetryPolicy(max_retries=3, backoff_base=1.5).label == "exp(mr=3,b=1.5)"
        assert RetryPolicy(strategy="capped", timeout_cap=2.0).label == "capped(cap=2)"


class TestPolicySet:
    def test_unknown_link_override_is_refused_with_known_links(self):
        with pytest.raises(ValueError) as err:
            PolicySet(per_link={"p2p_fetch": RetryPolicy()})
        for link in FAULT_LINKS:
            assert link in str(err.value)

    def test_mapping_values_are_coerced(self):
        # JSON round-trips hand back plain dicts; the constructor must
        # rebuild real policies (and validate them).
        ps = PolicySet(
            default={"strategy": "immediate"},
            per_link={LINK_P2P: {"max_retries": 3}},
        )
        assert ps.default == RetryPolicy(strategy="immediate")
        assert ps.for_link(LINK_P2P) == RetryPolicy(max_retries=3)
        assert ps.for_link(LINK_PROXY) == ps.default
        with pytest.raises(ValueError):
            PolicySet(default={"strategy": "nope"})

    def test_identity_detection_and_label(self):
        assert DEFAULT_POLICIES.is_default
        assert PolicySet(per_link={LINK_P2P: RetryPolicy()}).is_default
        hybrid = PolicySet(per_link={LINK_P2P: RetryPolicy(strategy="hedged")})
        assert not hybrid.is_default
        assert hybrid.label == "exp;p2p=hedged"


class TestRunLadder:
    def test_first_round_success_charges_nothing(self):
        out = run_ladder(DEFAULT_POLICY, plan(), LINK_P2P, RTT, _Source(loss=[0.9]))
        assert out.ok and out.charges == ()
        assert out.draws == {"l": [0.9]}
        assert out.deltas == {}

    def test_exhausted_default_ladder_is_the_exponential_series(self):
        p = plan(max_retries=2, backoff_base=2.0)
        out = run_ladder(
            DEFAULT_POLICY, p, LINK_P2P, RTT, _Source(loss=[0.1, 0.2, 0.3])
        )
        assert not out.ok
        assert out.charges == (RTT, RTT * 2.0, RTT * 4.0)
        assert out.deltas == {"timeouts": 3, "retries": 2, "fallbacks": 1}
        assert out.draws == {"l": [0.1, 0.2, 0.3]}

    def test_success_after_retries_books_retry_counters(self):
        out = run_ladder(
            DEFAULT_POLICY, plan(), LINK_P2P, RTT, _Source(loss=[0.1, 0.9])
        )
        assert out.ok and out.charges == (RTT,)
        assert out.deltas == {"timeouts": 1, "retries": 1}

    def test_immediate_falls_back_after_one_round(self):
        out = run_ladder(
            RetryPolicy(strategy="immediate"),
            plan(),
            LINK_P2P,
            RTT,
            _Source(loss=[0.1, 0.9, 0.9]),
        )
        assert not out.ok
        assert out.charges == (RTT,)
        assert out.deltas == {"timeouts": 1, "fallbacks": 1}
        # Only the one round's uniform was consumed.
        assert out.draws == {"l": [0.1]}

    def test_capped_ladder_clamps_the_backoff(self):
        policy = RetryPolicy(strategy="capped", timeout_cap=2.0, max_retries=3)
        out = run_ladder(
            policy, plan(), LINK_P2P, RTT, _Source(loss=[0.1, 0.1, 0.1, 0.1])
        )
        assert out.charges == (RTT, 2 * RTT, 2 * RTT, 2 * RTT)

    def test_capped_jitter_is_recorded_and_bounded(self):
        policy = RetryPolicy(strategy="capped", timeout_cap=2.0, jitter=0.5)
        out = run_ladder(
            policy,
            plan(max_retries=1),
            LINK_P2P,
            RTT,
            _Source(loss=[0.1, 0.1], jitter=[0.0, 1.0]),
        )
        # u=0 scales by 1 - jitter, u=1 by 1 + jitter (around the clamp).
        assert out.charges == (RTT * 0.5, 2 * RTT * 1.5)
        assert out.draws == {"l": [0.1, 0.1], "j": [0.0, 1.0]}

    def test_hedged_success_matches_the_exponential_ladder(self):
        uniforms = [0.1, 0.9]
        exp = run_ladder(
            DEFAULT_POLICY, plan(), LINK_P2P, RTT, _Source(loss=list(uniforms))
        )
        hedged = run_ladder(
            RetryPolicy(strategy="hedged"),
            plan(),
            LINK_P2P,
            RTT,
            _Source(loss=list(uniforms)),
        )
        assert hedged == exp

    def test_hedged_exhaustion_charges_max_not_sum(self):
        out = run_ladder(
            RetryPolicy(strategy="hedged"),
            plan(max_retries=2),
            LINK_P2P,
            RTT,
            _Source(loss=[0.1, 0.2, 0.3]),
        )
        assert not out.ok
        assert out.charges == (RTT,)  # fallback racing since the first timeout
        # ... but every drawn round is booked.
        assert out.deltas == {"timeouts": 3, "retries": 2, "fallbacks": 1}
        assert out.draws == {"l": [0.1, 0.2, 0.3]}

    def test_force_fail_consumes_no_uniforms(self):
        source = _Source(loss=[0.9, 0.9, 0.9], delay=0.0)
        out = run_ladder(
            DEFAULT_POLICY, plan(), LINK_P2P, RTT, source, force_fail=True
        )
        assert not out.ok
        assert len(out.charges) == plan().max_retries + 1
        assert out.draws == {"ff": True}
        assert len(source.loss) == 3  # untouched

    def test_slow_success_charges_the_delay_factor(self):
        p = plan(delay_rate=0.5, delay_factor=3.0)
        out = run_ladder(
            DEFAULT_POLICY, p, LINK_P2P, RTT, _Source(loss=[0.9], delay=0.2)
        )
        assert out.ok
        assert out.charges == ((p.delay_factor - 1.0) * RTT,)
        assert out.draws == {"l": [0.9], "d": 0.2}


def naive_deltas(policy, p, loss, force_fail):
    """``(ok, deltas)`` derived from the rounds, the way an outcome's
    counters were before the ladder decided them: count the rounds that
    timed out, then book a timeout each, a retry for each but the last
    failed one (each, on success) and a fallback on exhaustion."""
    timed_out, ok = 0, False
    for u in loss[: policy.rounds(p)]:
        if not force_fail and (p.p2p_loss <= 0.0 or u >= p.p2p_loss):
            ok = True
            break
        timed_out += 1
    deltas = {}
    if timed_out:
        deltas["timeouts"] = timed_out
        retries = timed_out if ok else timed_out - 1
        if retries:
            deltas["retries"] = retries
    if not ok:
        deltas["fallbacks"] = 1
    return ok, deltas


class TestDeltasDecidedWithTheRounds:
    """``run_ladder`` books what the naive derive-from-rounds model books,
    key order included (the order is in every recorded event's bytes)."""

    @pytest.mark.parametrize("force_fail", [False, True])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @settings(max_examples=60, deadline=None)
    @given(
        loss_p=st.sampled_from([0.0, 0.5, 1.0]),
        max_retries=st.integers(0, 4),
        delay=st.none() | st.floats(0.0, 0.999),
        uniforms=st.lists(st.floats(0.0, 0.999), min_size=5, max_size=5),
    )
    def test_against_the_naive_model(
        self, strategy, force_fail, loss_p, max_retries, delay, uniforms
    ):
        policy = RetryPolicy(
            strategy=strategy,
            max_retries=max_retries,
            timeout_cap=2.0 if strategy == "capped" else None,
            jitter=0.5 if strategy == "capped" else 0.0,
        )
        p = plan(p2p_loss=loss_p, delay_rate=0.0 if delay is None else 0.5)
        source = _Source(loss=list(uniforms), delay=delay, jitter=list(uniforms))
        out = run_ladder(policy, p, LINK_P2P, RTT, source, force_fail=force_fail)
        ok, deltas = naive_deltas(policy, p, uniforms, force_fail)
        assert out.ok is ok
        assert list(out.deltas.items()) == list(deltas.items())
        timed_out = deltas.get("timeouts", 0)
        if strategy == "hedged" and not ok and timed_out > 1:
            assert len(out.charges) == 1  # max, not sum
        else:
            slow = ok and delay is not None and delay < p.delay_rate
            assert len(out.charges) == timed_out + slow


class TestPlanFingerprint:
    def test_stable_and_policy_sensitive(self):
        a = plan()
        assert plan_fingerprint(a) == plan_fingerprint(plan())
        with_policy = plan(policies=PolicySet(default=RetryPolicy(strategy="hedged")))
        assert plan_fingerprint(with_policy) != plan_fingerprint(a)
        assert plan_fingerprint(None) == "none"

    def test_plan_coerces_mapping_policies(self):
        # A plan rebuilt from a JSON trace header carries plain dicts.
        raw = FaultPlan(
            p2p_loss=0.1,
            policies={"default": {"strategy": "immediate"}, "per_link": {}},
        )
        assert isinstance(raw.policies, PolicySet)
        assert raw.policy_set().for_link(LINK_P2P) == RetryPolicy(strategy="immediate")
        assert "policy=immediate" in raw.label

    def test_plan_refuses_unknown_policy_links(self):
        with pytest.raises(ValueError, match="known links"):
            FaultPlan(policies={"per_link": {"lan": {}}})
