"""The fault-free simulated remote race, pinned result for result.

Every cell races one block on a fast LAN of three workers and compares
the whole :class:`AltResult` -- outcomes, elapsed, overhead, wasted
work, timeline and the parent's bytes -- with literals recorded before
the simulated network and the TCP cluster shared one home-node ladder.
The grid is ``warden`` {None, ``RaceWarden()``} x ``use_consensus``
{False, True} x {three arms with one page-writing winner, five arms on
three workers}, plus the unsupervised all-fail cells, whose
:class:`AltBlockFailure` carries ``elapsed``, ``outcomes`` and
``timeline``.  A degraded (supervised all-fail) block is left out: its
serial replay starts after the last remote verdict, which the ladder
changed on purpose.
"""

import hashlib

import pytest

from repro.core.alternative import Alternative
from repro.errors import AltBlockFailure
from repro.net.distributed import DistributedAltExecutor
from repro.net.lease import RaceWarden
from repro.net.network import Network
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


def make_executor(warden, use_consensus):
    network = Network(cost_model=FAST_LAN)
    network.add_node("home")
    for name in ("w1", "w2", "w3"):
        network.add_node(name)
        network.connect("home", name)
    return DistributedAltExecutor(
        network, home="home", workers=["w1", "w2", "w3"],
        use_consensus=use_consensus,
        warden=RaceWarden() if warden else None,
    )


def ok(name, value, cost):
    def body(ctx):
        ctx.put("result", value)
        return value

    return Alternative(name, body=body, cost=cost)


def bad(name, cost):
    return Alternative(name, body=lambda ctx: ctx.fail("guard"), cost=cost)


def writer(name, cost):
    def body(ctx):
        ctx.put("blob", "w" * 9000)
        return "written"

    return Alternative(name, body=body, cost=cost)


BLOCKS = {
    "three": lambda: [
        bad("guard", 0.2), writer("writer", 0.5), ok("slow", 3, 1.5),
    ],
    "five": lambda: [
        ok("a", 0, 0.9), bad("b", 0.3), ok("c", 2, 1.2),
        ok("d", 3, 0.6), ok("e", 4, 2.0),
    ],
    "three-fail": lambda: [bad("x", 0.5), bad("y", 0.3), bad("z", 0.7)],
    "five-fail": lambda: [bad(f"f{i}", 0.2 * (5 - i)) for i in range(5)],
}


def outcome(o):
    return (o.index, o.name, o.status, o.value, o.duration, o.pages_written,
            o.pid, o.started_at, o.finished_at, o.cpu_consumed, o.detail)


def snapshot(result, parent):
    return {
        "value": result.value,
        "winner": result.winner.name,
        "outcomes": [outcome(o) for o in result.outcomes],
        "elapsed": result.elapsed,
        "overhead": (result.overhead.setup, result.overhead.runtime,
                     result.overhead.selection),
        "wasted_work": result.wasted_work,
        "timeline": result.timeline,
        "page_transport": result.page_transport,
        "space": hashlib.sha256(
            parent.space.read(0, parent.space.size)
        ).hexdigest()[:16],
    }


PINNED = {
    (False, False, 'three'): {
        'value': 'written',
        'winner': 'writer',
        'outcomes': [
            (0, 'guard', 'failed', None, 0.2, 0,
             1, 0.01017504, 0.21017504, 0.2, 'guard'),
            (1, 'writer', 'won', 'written', 0.50005, 5,
             1, 0.01772864, 0.51777864, 0.50005, ''),
            (2, 'slow', 'eliminated', None, 1.50001, 1,
             1, 0.02528224, 0.5233026399999999, 0.4980203999999999, ''),
        ],
        'elapsed': 0.52180264,
        'overhead': (0.01772864, 5e-05, 0.004024),
        'wasted_work': 0.6980203999999999,
        'timeline': [
            (0.0, 'block entered'),
            (0.01017504, 'rfork guard onto w1'),
            (0.01772864, 'rfork writer onto w2'),
            (0.02528224, 'rfork slow onto w3'),
            (0.21017504, '1 aborts: guard'),
            (0.51777864, 'writer requests sync'),
            (0.51977864, 'sync granted at home'),
            (0.52180264, 'parent resumes (state shipped home)'),
            (0.5233026399999999, 'kill message to w3'),
        ],
        'page_transport': None,
        'space': '39eb0dd84a2b56fa',
    },
    (False, False, 'five'): {
        'value': 3,
        'winner': 'd',
        'outcomes': [
            (0, 'a', 'eliminated', None, 0.90001, 1,
             1, 0.01017504, 0.6370506399999999, 0.6268755999999999, ''),
            (1, 'b', 'failed', None, 0.3, 0,
             1, 0.01772864, 0.31772864, 0.3, 'guard'),
            (2, 'c', 'eliminated', None, 1.20001, 1,
             1, 0.02528224, 0.6380506399999999, 0.6127683999999999, ''),
            (3, 'd', 'won', 3, 0.6000099999999999, 1,
             2, 0.03283584, 0.6328458399999999, 0.6000099999999999, ''),
            (4, 'e', 'eliminated', None, 2.00001, 1,
             2, 0.04038944, 0.6385506399999998, 0.5981611999999998, ''),
        ],
        'elapsed': 0.6360506399999999,
        'overhead': (0.03283584, 1e-05, 0.0032048),
        'wasted_work': 2.1378051999999994,
        'timeline': [
            (0.0, 'block entered'),
            (0.01017504, 'rfork a onto w1'),
            (0.01772864, 'rfork b onto w2'),
            (0.02528224, 'rfork c onto w3'),
            (0.03283584, 'rfork d onto w1'),
            (0.04038944, 'rfork e onto w2'),
            (0.31772864, '1 aborts: guard'),
            (0.6328458399999999, 'd requests sync'),
            (0.6348458399999999, 'sync granted at home'),
            (0.6360506399999999, 'parent resumes (state shipped home)'),
            (0.6370506399999999, 'kill message to w1'),
            (0.6380506399999999, 'kill message to w3'),
            (0.6385506399999998, 'kill message to w2'),
        ],
        'page_transport': None,
        'space': 'a2a0423c0edb7b6e',
    },
    (False, True, 'three'): {
        'value': 'written',
        'winner': 'writer',
        'outcomes': [
            (0, 'guard', 'failed', None, 0.2, 0,
             1, 0.01017504, 0.21017504, 0.2, 'guard'),
            (1, 'writer', 'won', 'written', 0.50005, 5,
             1, 0.01772864, 0.51777864, 0.50005, ''),
            (2, 'slow', 'eliminated', None, 1.50001, 1,
             1, 0.02528224, 0.5303026399999999, 0.5050203999999999, ''),
        ],
        'elapsed': 0.52880264,
        'overhead': (0.01772864, 5e-05, 0.011024),
        'wasted_work': 0.7050204,
        'timeline': [
            (0.0, 'block entered'),
            (0.01017504, 'rfork guard onto w1'),
            (0.01772864, 'rfork writer onto w2'),
            (0.02528224, 'rfork slow onto w3'),
            (0.21017504, '1 aborts: guard'),
            (0.51777864, 'writer requests sync'),
            (0.52677864, 'sync granted at home'),
            (0.52880264, 'parent resumes (state shipped home)'),
            (0.5303026399999999, 'kill message to w3'),
        ],
        'page_transport': None,
        'space': '39eb0dd84a2b56fa',
    },
    (False, True, 'five'): {
        'value': 3,
        'winner': 'd',
        'outcomes': [
            (0, 'a', 'eliminated', None, 0.90001, 1,
             1, 0.01017504, 0.6440506399999999, 0.6338755999999999, ''),
            (1, 'b', 'failed', None, 0.3, 0,
             1, 0.01772864, 0.31772864, 0.3, 'guard'),
            (2, 'c', 'eliminated', None, 1.20001, 1,
             1, 0.02528224, 0.6450506399999999, 0.6197683999999999, ''),
            (3, 'd', 'won', 3, 0.6000099999999999, 1,
             2, 0.03283584, 0.6328458399999999, 0.6000099999999999, ''),
            (4, 'e', 'eliminated', None, 2.00001, 1,
             2, 0.04038944, 0.6455506399999998, 0.6051611999999998, ''),
        ],
        'elapsed': 0.6430506399999999,
        'overhead': (0.03283584, 1e-05, 0.010204800000000002),
        'wasted_work': 2.1588051999999998,
        'timeline': [
            (0.0, 'block entered'),
            (0.01017504, 'rfork a onto w1'),
            (0.01772864, 'rfork b onto w2'),
            (0.02528224, 'rfork c onto w3'),
            (0.03283584, 'rfork d onto w1'),
            (0.04038944, 'rfork e onto w2'),
            (0.31772864, '1 aborts: guard'),
            (0.6328458399999999, 'd requests sync'),
            (0.6418458399999999, 'sync granted at home'),
            (0.6430506399999999, 'parent resumes (state shipped home)'),
            (0.6440506399999999, 'kill message to w1'),
            (0.6450506399999999, 'kill message to w3'),
            (0.6455506399999998, 'kill message to w2'),
        ],
        'page_transport': None,
        'space': 'a2a0423c0edb7b6e',
    },
    (True, False, 'three'): {
        'value': 'written',
        'winner': 'writer',
        'outcomes': [
            (0, 'guard', 'failed', None, 0.2, 0,
             1, 0.01017504, 0.21017504, 0.2, 'guard'),
            (1, 'writer', 'won', 'written', 0.50005, 5,
             1, 0.01772864, 0.51777864, 0.50005, ''),
            (2, 'slow', 'eliminated', None, 1.50001, 1,
             1, 0.02528224, 0.5233026399999999, 0.4980203999999999, ''),
        ],
        'elapsed': 0.52180264,
        'overhead': (0.01772864, 5e-05, 0.004024),
        'wasted_work': 0.6980203999999999,
        'timeline': [
            (0.0, 'block entered'),
            (0.01017504, 'rfork guard onto w1'),
            (0.01772864, 'rfork writer onto w2'),
            (0.02528224, 'rfork slow onto w3'),
            (0.21017504, '1 aborts: guard'),
            (0.51777864, 'writer requests sync'),
            (0.51977864, 'sync granted at home'),
            (0.52180264, 'parent resumes (state shipped home)'),
            (0.5233026399999999, 'kill message to w3'),
        ],
        'page_transport': None,
        'space': '39eb0dd84a2b56fa',
    },
    (True, False, 'five'): {
        'value': 3,
        'winner': 'd',
        'outcomes': [
            (0, 'a', 'eliminated', None, 0.90001, 1,
             1, 0.01017504, 0.6370506399999999, 0.6268755999999999, ''),
            (1, 'b', 'failed', None, 0.3, 0,
             1, 0.01772864, 0.31772864, 0.3, 'guard'),
            (2, 'c', 'eliminated', None, 1.20001, 1,
             1, 0.02528224, 0.6380506399999999, 0.6127683999999999, ''),
            (3, 'd', 'won', 3, 0.6000099999999999, 1,
             2, 0.03283584, 0.6328458399999999, 0.6000099999999999, ''),
            (4, 'e', 'eliminated', None, 2.00001, 1,
             2, 0.04038944, 0.6385506399999998, 0.5981611999999998, ''),
        ],
        'elapsed': 0.6360506399999999,
        'overhead': (0.03283584, 1e-05, 0.0032048),
        'wasted_work': 2.1378051999999994,
        'timeline': [
            (0.0, 'block entered'),
            (0.01017504, 'rfork a onto w1'),
            (0.01772864, 'rfork b onto w2'),
            (0.02528224, 'rfork c onto w3'),
            (0.03283584, 'rfork d onto w1'),
            (0.04038944, 'rfork e onto w2'),
            (0.31772864, '1 aborts: guard'),
            (0.6328458399999999, 'd requests sync'),
            (0.6348458399999999, 'sync granted at home'),
            (0.6360506399999999, 'parent resumes (state shipped home)'),
            (0.6370506399999999, 'kill message to w1'),
            (0.6380506399999999, 'kill message to w3'),
            (0.6385506399999998, 'kill message to w2'),
        ],
        'page_transport': None,
        'space': 'a2a0423c0edb7b6e',
    },
    (True, True, 'three'): {
        'value': 'written',
        'winner': 'writer',
        'outcomes': [
            (0, 'guard', 'failed', None, 0.2, 0,
             1, 0.01017504, 0.21017504, 0.2, 'guard'),
            (1, 'writer', 'won', 'written', 0.50005, 5,
             1, 0.01772864, 0.51777864, 0.50005, ''),
            (2, 'slow', 'eliminated', None, 1.50001, 1,
             1, 0.02528224, 0.5303026399999999, 0.5050203999999999, ''),
        ],
        'elapsed': 0.52880264,
        'overhead': (0.01772864, 5e-05, 0.011024),
        'wasted_work': 0.7050204,
        'timeline': [
            (0.0, 'block entered'),
            (0.01017504, 'rfork guard onto w1'),
            (0.01772864, 'rfork writer onto w2'),
            (0.02528224, 'rfork slow onto w3'),
            (0.21017504, '1 aborts: guard'),
            (0.51777864, 'writer requests sync'),
            (0.52677864, 'sync granted at home'),
            (0.52880264, 'parent resumes (state shipped home)'),
            (0.5303026399999999, 'kill message to w3'),
        ],
        'page_transport': None,
        'space': '39eb0dd84a2b56fa',
    },
    (True, True, 'five'): {
        'value': 3,
        'winner': 'd',
        'outcomes': [
            (0, 'a', 'eliminated', None, 0.90001, 1,
             1, 0.01017504, 0.6440506399999999, 0.6338755999999999, ''),
            (1, 'b', 'failed', None, 0.3, 0,
             1, 0.01772864, 0.31772864, 0.3, 'guard'),
            (2, 'c', 'eliminated', None, 1.20001, 1,
             1, 0.02528224, 0.6450506399999999, 0.6197683999999999, ''),
            (3, 'd', 'won', 3, 0.6000099999999999, 1,
             2, 0.03283584, 0.6328458399999999, 0.6000099999999999, ''),
            (4, 'e', 'eliminated', None, 2.00001, 1,
             2, 0.04038944, 0.6455506399999998, 0.6051611999999998, ''),
        ],
        'elapsed': 0.6430506399999999,
        'overhead': (0.03283584, 1e-05, 0.010204800000000002),
        'wasted_work': 2.1588051999999998,
        'timeline': [
            (0.0, 'block entered'),
            (0.01017504, 'rfork a onto w1'),
            (0.01772864, 'rfork b onto w2'),
            (0.02528224, 'rfork c onto w3'),
            (0.03283584, 'rfork d onto w1'),
            (0.04038944, 'rfork e onto w2'),
            (0.31772864, '1 aborts: guard'),
            (0.6328458399999999, 'd requests sync'),
            (0.6418458399999999, 'sync granted at home'),
            (0.6430506399999999, 'parent resumes (state shipped home)'),
            (0.6440506399999999, 'kill message to w1'),
            (0.6450506399999999, 'kill message to w3'),
            (0.6455506399999998, 'kill message to w2'),
        ],
        'page_transport': None,
        'space': 'a2a0423c0edb7b6e',
    },
    (False, False, 'three-fail'): {
        'elapsed': 0.72528224,
        'outcomes': [
            (0, 'x', 'failed', None, 0.5, 0,
             1, 0.01017504, 0.51017504, 0.5, 'guard'),
            (1, 'y', 'failed', None, 0.3, 0,
             1, 0.01772864, 0.31772864, 0.3, 'guard'),
            (2, 'z', 'failed', None, 0.7, 0,
             1, 0.02528224, 0.72528224, 0.7, 'guard'),
        ],
        'timeline': [
            (0.0, 'block entered'),
            (0.01017504, 'rfork x onto w1'),
            (0.01772864, 'rfork y onto w2'),
            (0.02528224, 'rfork z onto w3'),
            (0.31772864, '1 aborts: guard'),
            (0.51017504, '1 aborts: guard'),
            (0.72528224, '1 aborts: guard'),
        ],
    },
    (False, False, 'five-fail'): {
        'elapsed': 1.01017504,
        'outcomes': [
            (0, 'f0', 'failed', None, 1.0, 0,
             1, 0.01017504, 1.01017504, 1.0, 'guard'),
            (1, 'f1', 'failed', None, 0.8, 0,
             1, 0.01772864, 0.81772864, 0.8, 'guard'),
            (2, 'f2', 'failed', None, 0.6000000000000001, 0,
             1, 0.02528224, 0.6252822400000001, 0.6000000000000001, 'guard'),
            (3, 'f3', 'failed', None, 0.4, 0,
             2, 0.03283584, 0.43283584, 0.4, 'guard'),
            (4, 'f4', 'failed', None, 0.2, 0,
             2, 0.04038944, 0.24038944, 0.2, 'guard'),
        ],
        'timeline': [
            (0.0, 'block entered'),
            (0.01017504, 'rfork f0 onto w1'),
            (0.01772864, 'rfork f1 onto w2'),
            (0.02528224, 'rfork f2 onto w3'),
            (0.03283584, 'rfork f3 onto w1'),
            (0.04038944, 'rfork f4 onto w2'),
            (0.24038944, '2 aborts: guard'),
            (0.43283584, '2 aborts: guard'),
            (0.6252822400000001, '1 aborts: guard'),
            (0.81772864, '1 aborts: guard'),
            (1.01017504, '1 aborts: guard'),
        ],
    },
    (False, True, 'three-fail'): {
        'elapsed': 0.72528224,
        'outcomes': [
            (0, 'x', 'failed', None, 0.5, 0,
             1, 0.01017504, 0.51017504, 0.5, 'guard'),
            (1, 'y', 'failed', None, 0.3, 0,
             1, 0.01772864, 0.31772864, 0.3, 'guard'),
            (2, 'z', 'failed', None, 0.7, 0,
             1, 0.02528224, 0.72528224, 0.7, 'guard'),
        ],
        'timeline': [
            (0.0, 'block entered'),
            (0.01017504, 'rfork x onto w1'),
            (0.01772864, 'rfork y onto w2'),
            (0.02528224, 'rfork z onto w3'),
            (0.31772864, '1 aborts: guard'),
            (0.51017504, '1 aborts: guard'),
            (0.72528224, '1 aborts: guard'),
        ],
    },
    (False, True, 'five-fail'): {
        'elapsed': 1.01017504,
        'outcomes': [
            (0, 'f0', 'failed', None, 1.0, 0,
             1, 0.01017504, 1.01017504, 1.0, 'guard'),
            (1, 'f1', 'failed', None, 0.8, 0,
             1, 0.01772864, 0.81772864, 0.8, 'guard'),
            (2, 'f2', 'failed', None, 0.6000000000000001, 0,
             1, 0.02528224, 0.6252822400000001, 0.6000000000000001, 'guard'),
            (3, 'f3', 'failed', None, 0.4, 0,
             2, 0.03283584, 0.43283584, 0.4, 'guard'),
            (4, 'f4', 'failed', None, 0.2, 0,
             2, 0.04038944, 0.24038944, 0.2, 'guard'),
        ],
        'timeline': [
            (0.0, 'block entered'),
            (0.01017504, 'rfork f0 onto w1'),
            (0.01772864, 'rfork f1 onto w2'),
            (0.02528224, 'rfork f2 onto w3'),
            (0.03283584, 'rfork f3 onto w1'),
            (0.04038944, 'rfork f4 onto w2'),
            (0.24038944, '2 aborts: guard'),
            (0.43283584, '2 aborts: guard'),
            (0.6252822400000001, '1 aborts: guard'),
            (0.81772864, '1 aborts: guard'),
            (1.01017504, '1 aborts: guard'),
        ],
    },
}

WINNING = [key for key in PINNED if not key[2].endswith("-fail")]
FAILING = [key for key in PINNED if key[2].endswith("-fail")]


@pytest.mark.parametrize("cell", WINNING, ids=str)
def test_fault_free_race_is_pinned(cell):
    warden, use_consensus, block = cell
    executor = make_executor(warden, use_consensus)
    parent = executor.new_parent()
    result = executor.run(BLOCKS[block](), parent=parent)
    assert snapshot(result, parent) == PINNED[cell]


@pytest.mark.parametrize("cell", FAILING, ids=str)
def test_unsupervised_failure_is_pinned(cell):
    warden, use_consensus, block = cell
    executor = make_executor(warden, use_consensus)
    with pytest.raises(AltBlockFailure) as caught:
        executor.run(BLOCKS[block]())
    exc = caught.value
    assert {
        "elapsed": exc.elapsed,
        "outcomes": [outcome(o) for o in exc.outcomes],
        "timeline": exc.timeline,
    } == PINNED[cell]
