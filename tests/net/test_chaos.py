"""Chaos-hardened distributed races: faulty links, leases, degradation.

The soak matrix at the bottom is the PR's acceptance gate: every chaos
scenario x seed must leave the distributed block observably equivalent
to a serial replay of the same block -- same winner, same value, same
variables, byte-identical parent space -- with every lease settled.
"""

import os

import pytest

from repro.core.alternative import Alternative
from repro.core.selection import OrderedPolicy
from repro.core.sequential import SequentialExecutor
from repro.errors import AltBlockFailure, NetworkError
from repro.net.distributed import DistributedAltExecutor, _Assignment
from repro.net.lease import RaceWarden
from repro.net.network import Network, link_key
from repro.obs import events as _ev
from repro.obs.tracer import tracing
from repro.resilience.chaos import CHAOS_SCENARIOS, NetFaultPlan, chaos_injector
from repro.resilience.injector import FaultInjector, injected
from repro.sim.costs import CostModel

FAST_LAN = CostModel(
    name="fast LAN",
    fork_latency=0.001,
    page_copy_rate=100_000.0,
    page_size=2048,
    checkpoint_rate=50_000_000.0,
    network_bandwidth=10_000_000.0,
    network_latency=0.001,
    restore_rate=50_000_000.0,
)

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def make_net():
    network = Network(cost_model=FAST_LAN)
    network.add_node("home")
    for name in ("w1", "w2", "w3"):
        network.add_node(name)
        network.connect("home", name)
    return network


@pytest.fixture
def net():
    return make_net()


def executor(net, **kwargs):
    return DistributedAltExecutor(
        net, home="home", workers=["w1", "w2", "w3"], **kwargs
    )


def ok(name, value, cost):
    def body(ctx):
        ctx.put("result", value)
        return value

    return Alternative(name, body=body, cost=cost)


def bad(name, cost):
    return Alternative(name, body=lambda ctx: ctx.fail("guard"), cost=cost)


# ----------------------------------------------------------------------
# the faulty wire


class TestTransmit:
    def test_clean_wire_delivers_exactly_once(self, net):
        deliveries = net.transmit("home", "w1", payload="hi", nbytes=100, at=1.0)
        assert len(deliveries) == 1
        (d,) = deliveries
        assert d.payload == "hi"
        assert d.arrive_at > d.sent_at
        assert not d.duplicate

    def test_injected_loss_eats_the_message(self, net):
        with injected(FaultInjector(seed=1).net_drop(times=None)):
            assert net.transmit("home", "w1", at=0.0) == []
        assert net.drops == 1

    def test_injected_duplication_delivers_twice(self, net):
        with injected(FaultInjector(seed=1).net_dup(times=None)):
            deliveries = net.transmit("home", "w1", at=0.0)
        assert len(deliveries) == 2
        assert [d.duplicate for d in deliveries] == [False, True]
        assert deliveries[1].arrive_at > deliveries[0].arrive_at
        assert net.dups == 1

    def test_injected_delay_spikes_latency(self, net):
        clean = net.transmit("home", "w1", at=0.0)[0].latency
        with injected(FaultInjector(seed=1).net_delay(times=None, duration=0.5)):
            spiked = net.transmit("home", "w1", at=0.0)[0].latency
        assert spiked == pytest.approx(clean + 0.5)

    def test_injected_partition_opens_and_heals(self, net):
        with injected(FaultInjector(seed=1).net_partition(duration=2.0)):
            assert net.transmit("home", "w1", at=1.0) == []  # first casualty
        assert net.partitions_opened == 1
        assert not net.reachable("home", "w1", at=2.0)
        assert net.partition_heals_at("home", "w1") == pytest.approx(3.0)
        assert net.reachable("home", "w1", at=3.5)  # healed on its own
        assert net.transmit("home", "w1", at=3.5) != []

    def test_partitioned_transmit_is_silent_loss(self, net):
        net.partition("home", "w1")
        assert net.transmit("home", "w1", at=0.0) == []
        assert net.drops == 1
        # the bulk API still raises (the PR-0 contract)
        with pytest.raises(NetworkError):
            net.transfer("home", "w1", 100)

    def test_rules_can_target_one_link(self, net):
        plan = NetFaultPlan(loss=1.0, links=frozenset({link_key("home", "w1")}))
        with injected(plan.injector(seed=0)):
            assert net.transmit("home", "w1", at=0.0) == []
            assert len(net.transmit("home", "w2", at=0.0)) == 1

    def test_transmit_traces_chaos_events(self, net):
        with tracing() as tracer:
            with injected(FaultInjector(seed=1).net_drop(times=None)):
                net.transmit("home", "w1", at=0.0)
        kinds = [e.kind for e in tracer.events]
        assert _ev.NET_DROP in kinds

    def test_keyed_rng_makes_loss_deterministic(self):
        def drop_pattern():
            network = make_net()
            results = []
            with injected(FaultInjector(seed=42).net_drop(
                times=None, probability=0.5
            )):
                for i in range(20):
                    results.append(
                        bool(network.transmit("home", "w1", at=i * 0.1))
                    )
            return results

        assert drop_pattern() == drop_pattern()
        assert len(set(drop_pattern())) == 2  # both outcomes occur


class TestTimedPartitions:
    def test_manual_partition_needs_heal(self, net):
        net.partition("home", "w1")
        assert not net.reachable("home", "w1", at=100.0)
        net.heal("home", "w1")
        assert net.reachable("home", "w1")

    def test_timed_partition_expires(self, net):
        net.partition("home", "w1", until=5.0)
        assert not net.reachable("home", "w1", at=4.9)
        assert net.reachable("home", "w1", at=5.0)

    def test_untimed_query_treats_open_partition_as_in_force(self, net):
        net.partition("home", "w1", until=5.0)
        assert not net.reachable("home", "w1")


# ----------------------------------------------------------------------
# leases: the ladder's incarnation record and its book


class TestLease:
    def lease(self, **kw):
        defaults = dict(
            index=0, arm=ok("a", 1, 0.1), node="w1", name="w1", epoch=1,
            started=0.0, deadline=0.08,
        )
        defaults.update(kw)
        return _Assignment(**defaults)

    def test_deadline_follows_renewals(self):
        lease = self.lease()
        assert lease.deadline == pytest.approx(0.08)
        lease.renew(0.05, timeout=0.08)
        assert lease.deadline == pytest.approx(0.13)
        assert lease.renewals == 1

    def test_stale_renewal_never_moves_deadline_back(self):
        lease = self.lease()
        lease.renew(0.05, timeout=0.08)
        lease.renew(0.01, timeout=0.08)  # a reordered old heartbeat
        assert lease.deadline == pytest.approx(0.13)

    def test_terminal_states_are_sticky(self):
        lease = self.lease()
        lease.expire(0.09)
        assert lease.state == "expired"
        with pytest.raises(ValueError):
            lease.renew(0.1, timeout=0.08)
        with pytest.raises(ValueError):
            lease.settle("committed", 0.1)
        for state in ("committed", "eliminated"):
            settled = self.lease()
            settled.settle(state, 0.1)
            with pytest.raises(ValueError):
                settled.expire(0.2)
            assert settled.state == state

    def test_timeout_must_exceed_interval(self):
        for timeout in (0.01, 0.02):
            with pytest.raises(ValueError):
                RaceWarden(lease_interval=0.02, lease_timeout=timeout)

    def test_renew_and_expire_are_traced(self):
        with tracing() as tracer:
            lease = self.lease()
            lease.renew(0.05, timeout=0.08, block=4)
            lease.expire(0.13, block=4)
        kinds = [e.kind for e in tracer.events]
        assert kinds == [_ev.LEASE_RENEW, _ev.LEASE_EXPIRE]
        renew, expire = tracer.events
        assert renew.attrs == {"epoch": 1, "at": 0.05, "deadline": 0.13}
        assert expire.attrs == {"epoch": 1, "at": 0.13, "renewals": 1}
        assert [(e.block, e.arm, e.name) for e in tracer.events] == [
            (4, 0, "w1"), (4, 0, "w1")
        ]


class TestLeaseTable:
    """What the lease table held is the ladder's book now: the epochs
    per arm for the ladder's life, the last race's incarnations."""

    def crash_race(self, dist):
        """Arm 0's first incarnation crashes and is respawned."""
        injector = FaultInjector(seed=0).worker_crash(
            arms=[0], duration=0.05
        )
        with injected(injector):
            return dist.run([ok("phoenix", 1, 0.5), ok("slow", 2, 2.0)])

    def test_epochs_increment_per_arm(self, net):
        dist = executor(net, warden=RaceWarden())
        self.crash_race(dist)
        assert [(l.index, l.epoch) for l in dist.leases] == [
            (0, 1), (1, 1), (0, 2)
        ]
        dist.run([ok("phoenix", 1, 0.5), ok("slow", 2, 2.0)])
        assert [(l.index, l.epoch) for l in dist.leases] == [(0, 3), (1, 2)]

    def test_settle_commits_winner_and_eliminates_rest(self, net):
        dist = executor(net, warden=RaceWarden())
        result = self.crash_race(dist)
        assert result.winner.name == "phoenix"
        assert [l.state for l in dist.leases] == [
            "expired",  # untouched by the settle
            "eliminated",
            "committed",
        ]
        assert dist.all_settled

    def test_warden_validation(self):
        with pytest.raises(ValueError):
            RaceWarden(lease_interval=0.1, lease_timeout=0.05)
        with pytest.raises(ValueError):
            RaceWarden(max_respawns=-1)
        warden = RaceWarden()
        with pytest.raises(AttributeError):
            warden.max_respawns = 5  # frozen: only its terms, fixed
        assert not hasattr(warden, "table")


# ----------------------------------------------------------------------
# supervised distributed races


class TestSupervisedRace:
    def test_clean_race_settles_every_lease(self, net):
        dist = executor(net, warden=RaceWarden())
        result = dist.run([ok("fast", 1, 0.2), ok("slow", 2, 1.0)])
        assert result.value == 1
        assert dist.all_settled
        states = sorted(l.state for l in dist.leases)
        assert states == ["committed", "eliminated"]

    def test_crashed_worker_respawns_and_still_wins(self, net):
        warden = RaceWarden()
        injector = FaultInjector(seed=0).worker_crash(
            arms=[0], duration=0.05
        )
        dist = executor(net, warden=warden, seed=3)
        with tracing() as tracer, injected(injector):
            result = dist.run([ok("phoenix", "rises", 0.5)])
        assert result.value == "rises"
        assert result.winner.name == "phoenix"
        kinds = [e.kind for e in tracer.events]
        assert _ev.LEASE_EXPIRE in kinds
        assert _ev.WORKER_RESPAWN in kinds
        assert dist.all_settled
        # two incarnations: the crashed one expired, the respawn committed
        states = [l.state for l in dist.leases]
        assert states == ["expired", "committed"]
        assert dist.leases[1].epoch == 2

    def test_lease_events_belong_to_their_block(self, net):
        injector = FaultInjector(seed=0).worker_crash(
            arms=[0], duration=0.05
        )
        with tracing() as tracer, injected(injector):
            executor(net, warden=RaceWarden()).run([ok("phoenix", 1, 0.5)])
        (begin,) = [e for e in tracer.events if e.kind == _ev.BLOCK_BEGIN]
        kinds = [e.kind for e in tracer.block_events(begin.block)]
        assert _ev.LEASE_EXPIRE in kinds
        assert _ev.LEASE_RENEW in kinds
        leases = [e for e in tracer.events
                  if e.kind in (_ev.LEASE_RENEW, _ev.LEASE_EXPIRE)]
        assert {e.block for e in leases} == {begin.block}

    def test_a_respawn_that_finds_no_node_emits_no_respawn(self):
        """One worker, crashing every incarnation: the lapsed arm has
        nowhere left to go, so no fresh incarnation is granted and no
        ``worker-respawn`` names one."""
        network = Network(cost_model=FAST_LAN)
        network.add_node("home")
        network.add_node("w1")
        network.connect("home", "w1")
        dist = DistributedAltExecutor(
            network, home="home", workers=["w1"],
            warden=RaceWarden(max_respawns=2, degrade_to_serial=False),
        )
        injector = FaultInjector(seed=0).worker_crash(
            times=None, duration=0.05
        )
        with tracing() as tracer, injected(injector):
            with pytest.raises(AltBlockFailure) as caught:
                dist.run([ok("alone", 1, 0.5)])
        assert [(l.epoch, l.state) for l in dist.leases] == [(1, "expired")]
        assert caught.value.outcomes[0].detail == "no reachable worker node"
        kinds = [e.kind for e in tracer.events]
        assert _ev.LEASE_EXPIRE in kinds
        assert _ev.WORKER_RESPAWN not in kinds

    def test_zombie_winner_fenced_by_epoch(self, net):
        """Heartbeats all lost: home declares the worker dead though its
        body finishes.  The zombie must not commit -- the respawned
        incarnation (or nobody) does."""
        warden = RaceWarden()
        injector = FaultInjector(seed=0).net_drop(
            times=None, arms=[link_key("home", "w1")]
        )
        dist = executor(net, warden=warden)
        with tracing() as tracer, injected(injector):
            result = dist.run([ok("zombie-then-won", 9, 0.5)])
        assert result.value == 9
        # the winning lease is the second incarnation, on a healthy node
        committed = [l for l in dist.leases if l.state == "committed"]
        assert len(committed) == 1
        assert committed[0].epoch == 2
        assert committed[0].name != "w1"
        fence = [
            e for e in tracer.events
            if e.kind == _ev.LOSER_ELIMINATE
            and e.attrs.get("reason") == "stale-epoch-fence"
        ]
        assert len(fence) == 1
        labels = " ".join(label for _, label in result.timeline)
        assert "fenced at winner-commit" in labels
        assert dist.all_settled

    def test_respawn_exhaustion_degrades_to_serial(self, net):
        warden = RaceWarden(max_respawns=0)
        injector = FaultInjector(seed=0).worker_crash(
            times=None, duration=0.01
        )
        dist = executor(net, warden=warden)
        with tracing() as tracer, injected(injector):
            result = dist.run([ok("only-hope", "serial-value", 0.5)])
        assert result.value == "serial-value"
        assert result.winner.status == "won"
        kinds = [e.kind for e in tracer.events]
        assert _ev.DEGRADE in kinds
        assert dist.all_settled
        labels = " ".join(label for _, label in result.timeline)
        assert "degrading to serial replay" in labels
        assert "[replay]" in labels

    def test_degradation_disabled_raises(self, net):
        warden = RaceWarden(max_respawns=0, degrade_to_serial=False)
        injector = FaultInjector(seed=0).worker_crash(
            times=None, duration=0.01
        )
        dist = executor(net, warden=warden)
        with injected(injector):
            with pytest.raises(AltBlockFailure):
                dist.run([ok("doomed", 1, 0.5)])
        assert dist.all_settled  # failure settles leases too

    def test_heartbeats_renew_over_clean_wire(self, net):
        warden = RaceWarden(lease_interval=0.02, lease_timeout=0.08)
        dist = executor(net, warden=warden)
        dist.run([ok("steady", 1, 0.3)])
        (lease,) = dist.leases
        assert lease.renewals >= 10  # ~0.3s of 0.02s beats


class TestMidRacePartition:
    def test_partitioned_winner_demoted_to_loser(self, net):
        """Regression: a mid-race partition used to escape as a raw
        NetworkError out of the unsupervised race loop."""

        def sabotage(ctx):
            net.partition("home", "w1")
            ctx.put("result", "never")
            return "never"

        result = executor(net).run(
            [
                Alternative("saboteur", body=sabotage, cost=0.1),
                ok("backup", "promoted", 1.0),
            ]
        )
        assert result.value == "promoted"
        assert result.winner.name == "backup"
        saboteur = result.outcome("saboteur")
        assert saboteur.status == "failed"
        assert "unreachable at winner-commit" in saboteur.detail
        labels = " ".join(label for _, label in result.timeline)
        assert "grant revoked" in labels

    def test_all_winners_partitioned_degrades_with_warden(self, net):
        def sabotage_all(ctx):
            for worker in ("w1", "w2", "w3"):
                net.partition("home", worker)
            return "never"

        warden = RaceWarden()
        result = executor(net, warden=warden).run(
            [Alternative("cut-everything", body=sabotage_all, cost=0.1)]
        )
        # nothing could commit remotely; the serial replay still answers
        assert result.winner.name == "cut-everything"
        assert result.value == "never"


class TestDeterminism:
    def scenario_run(self, scenario, seed):
        net = make_net()
        dist = executor(net, warden=RaceWarden(), seed=seed)
        with injected(chaos_injector(scenario, seed=seed)):
            result = dist.run(
                [ok("a", 1, 0.4), ok("b", 2, 0.6), bad("c", 0.3)]
            )
        return (
            result.winner.name,
            result.value,
            result.elapsed,
            result.timeline,
            [l.state for l in dist.leases],
        )

    @pytest.mark.parametrize("scenario", sorted(CHAOS_SCENARIOS))
    def test_same_seed_same_race(self, scenario):
        assert self.scenario_run(scenario, 7) == self.scenario_run(scenario, 7)


# ----------------------------------------------------------------------
# the soak matrix (the acceptance gate; slow by marker, not by wall-clock)


def one_success_block():
    """A block whose observable outcome is forced: exactly one arm can
    succeed, so *any* correct execution -- parallel, degraded, respawned
    -- must converge to the same (winner, value, variables)."""
    return [
        bad("guard-a", 0.4),
        ok("the-answer", 42, 0.6),
        bad("guard-b", 0.3),
    ]


def serial_reference(seed):
    network = make_net()
    serial = SequentialExecutor(
        policy=OrderedPolicy(),
        try_all=True,
        seed=seed,
        manager=network.node("home").manager,
    )
    parent = network.node("home").manager.create_initial(space_size=64 * 1024)
    result = serial.run(one_success_block(), parent=parent)
    return result, parent


def soak_once(scenario, seed):
    """One wall-clock soak run, judged against the serial reference."""
    ref, ref_parent = serial_reference(seed)

    net = make_net()
    dist = executor(net, warden=RaceWarden(), seed=seed)
    parent = dist.new_parent()
    with injected(chaos_injector(scenario, seed=seed)):
        result = dist.run(one_success_block(), parent=parent)

    assert result.winner.name == ref.winner.name == "the-answer"
    assert result.value == ref.value == 42
    assert parent.space.get("result") == ref_parent.space.get("result")
    assert parent.space.read(0, parent.space.size) == ref_parent.space.read(
        0, ref_parent.space.size
    )
    # zero leaked workers: every lease committed/eliminated/expired
    assert dist.all_settled
    for lease in dist.leases:
        assert lease.state in ("committed", "eliminated", "expired")


class TestChaosSoakSmoke:
    """The one wall-clock seed the fast lane keeps: proof the real
    (uncontrolled) execution path still converges.  The full matrix
    lives in the slow lane; its virtual-time twin below covers every
    scenario on every run."""

    def test_loss_scenario_wall_clock(self):
        soak_once("loss", CHAOS_SEED)


@pytest.mark.slow
class TestChaosSoak:
    @pytest.mark.parametrize("scenario", sorted(CHAOS_SCENARIOS))
    def test_chaos_converges_to_serial_semantics(self, scenario):
        soak_once(scenario, CHAOS_SEED)


class TestVirtualChaosSoak:
    """The soak matrix under ``repro.check``: same scenarios, same
    serial-equivalence gate, but every fault draw is recorded and the
    whole matrix runs in checked virtual time -- cheap enough to keep
    out of the slow lane entirely."""

    @pytest.mark.parametrize("scenario", sorted(CHAOS_SCENARIOS))
    def test_checked_scenario_converges(self, scenario):
        from repro.check.chaos import run_scenario

        run = run_scenario(scenario, seed=CHAOS_SEED)
        assert not run.failed, run.problems
        assert run.winner == "the-answer"
        assert run.value == 42

    def test_recorded_faults_replay_without_the_rng(self):
        from repro.check.chaos import run_scenario

        first = run_scenario("partition", seed=CHAOS_SEED)
        again = run_scenario(
            "partition",
            seed=CHAOS_SEED,
            schedule=first.schedule,
            injector_seed=CHAOS_SEED + 4242,
        )
        assert not again.failed, again.problems
        assert again.schedule.faults == first.schedule.faults
