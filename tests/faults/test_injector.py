"""Tests for the seeded fault injector and its named substreams."""

from repro.faults import FaultInjector, FaultPlan, fault_seed
from repro.netmodel import FAULT_LINKS, LINK_P2P, LINK_PROXY, LINK_PUSH


def link_ok(injector, link):
    """One loss draw on ``link``, judged as the ladder judges it: the
    message gets through unless the uniform falls below the loss rate."""
    u = injector.loss_uniform(link)
    return u is None or u >= injector._loss_prob[link]


class TestFaultSeed:
    def test_deterministic(self):
        assert fault_seed(0, "loss", LINK_P2P) == fault_seed(0, "loss", LINK_P2P)

    def test_distinct_streams(self):
        seeds = {fault_seed(0, "loss", link) for link in FAULT_LINKS}
        seeds |= {fault_seed(0, "delay", link) for link in FAULT_LINKS}
        seeds.add(fault_seed(1, "loss", LINK_P2P))
        assert len(seeds) == 7

    def test_stable_across_calls(self):
        assert fault_seed(0, "a") == fault_seed(0, "a")
        assert fault_seed(7, "x", 3) == fault_seed(7, "x", 3)

    def test_distinct_for_distinct_parts(self):
        seeds = {
            fault_seed(0),
            fault_seed(1),
            fault_seed(0, "a"),
            fault_seed(0, "b"),
            fault_seed(0, "a", 1),
        }
        assert len(seeds) == 5

    def test_63_bit_range(self):
        assert 0 <= fault_seed(12345, "x") < 2**63
        assert 0 <= fault_seed(0, "anything") < 2**63


class TestLinkOk:
    def test_lossless_link_never_fails(self):
        injector = FaultInjector(FaultPlan())
        assert all(link_ok(injector, LINK_P2P) for _ in range(100))

    def test_full_loss_always_fails(self):
        injector = FaultInjector(FaultPlan(p2p_loss=1.0))
        assert not any(link_ok(injector, LINK_P2P) for _ in range(100))

    def test_loss_rate_roughly_respected(self):
        injector = FaultInjector(FaultPlan(proxy_loss=0.3, seed=7))
        losses = sum(not link_ok(injector, LINK_PROXY) for _ in range(5000))
        assert 0.25 < losses / 5000 < 0.35

    def test_replay_identical(self):
        plan = FaultPlan(p2p_loss=0.2, proxy_loss=0.1, seed=9)
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        draws_a = [link_ok(a, LINK_P2P) for _ in range(200)]
        draws_b = [link_ok(b, LINK_P2P) for _ in range(200)]
        assert draws_a == draws_b

    def test_links_draw_from_independent_streams(self):
        """Consuming one link's stream never shifts another's draws —
        adding faults to a link cannot perturb an unrelated link."""
        plan = FaultPlan(p2p_loss=0.5, proxy_loss=0.5, seed=4)
        solo = FaultInjector(plan)
        proxy_only = [link_ok(solo, LINK_PROXY) for _ in range(100)]
        interleaved = FaultInjector(plan)
        got = []
        for _ in range(100):
            link_ok(interleaved, LINK_P2P)  # interleave the other stream
            got.append(link_ok(interleaved, LINK_PROXY))
        assert got == proxy_only

    def test_scope_separates_schemes(self):
        plan = FaultPlan(push_loss=0.5, seed=2)
        a = [link_ok(FaultInjector(plan, scope="fc"), LINK_PUSH) for _ in range(1)]
        fc = FaultInjector(plan, scope="fc")
        hg = FaultInjector(plan, scope="hier-gd")
        assert [link_ok(fc, LINK_PUSH) for _ in range(64)] != [
            link_ok(hg, LINK_PUSH) for _ in range(64)
        ]
        del a


class TestUnresponsive:
    def test_zero_fraction_marks_nobody(self):
        injector = FaultInjector(FaultPlan())
        assert not any(injector.unresponsive(0, c) for c in range(50))

    def test_full_fraction_marks_everybody(self):
        injector = FaultInjector(FaultPlan(unresponsive_fraction=1.0))
        assert all(injector.unresponsive(0, c) for c in range(50))

    def test_membership_is_stable(self):
        """A client is either unresponsive for the whole run or never —
        it's a property of the node, not a per-request coin flip."""
        injector = FaultInjector(FaultPlan(unresponsive_fraction=0.5, seed=3))
        first = [injector.unresponsive(1, c) for c in range(50)]
        again = [injector.unresponsive(1, c) for c in range(50)]
        assert first == again
        assert 0 < sum(first) < 50

    def test_memoised_answers_are_the_hash_in_any_call_order(self):
        """The per-injector memo changes no answer: each is still the
        ``(seed, scope, cluster, client)`` hash against the fraction,
        whichever probes came first and however often."""
        plan = FaultPlan(unresponsive_fraction=0.3, seed=11)
        probes = [(cl, c) for cl in range(3) for c in range(40)]
        expected = {
            (cl, c): fault_seed(11, "hier-gd", "unresponsive", cl, c) < 0.3 * float(1 << 63)
            for cl, c in probes
        }
        forward = FaultInjector(plan, scope="hier-gd")
        backward = FaultInjector(plan, scope="hier-gd")
        assert {p: forward.unresponsive(*p) for p in probes} == expected
        assert {p: backward.unresponsive(*p) for p in reversed(probes * 2)} == expected
        assert 0 < sum(expected.values()) < len(probes)
        # Another scope is another population, memo or not.
        other = FaultInjector(plan, scope="fc")
        assert {p: other.unresponsive(*p) for p in probes} != expected

    def test_fraction_roughly_respected(self):
        injector = FaultInjector(FaultPlan(unresponsive_fraction=0.25, seed=5))
        marked = sum(injector.unresponsive(c % 4, c) for c in range(2000))
        assert 0.2 < marked / 2000 < 0.3
