"""Interprocess communication (paper section 3.4).

Messages are the only way one process can observe or change another's
state.  Every message carries a *sending predicate* -- the assumptions
under which it was sent -- and the receiving side applies the
accept/ignore/split rule of section 3.4.2 through the
:class:`~repro.predicates.WorldSet` machinery.

Devices model the source/sink division of section 3.1: sink state
(page-backed, idempotent) can be buffered and hidden; source state
(a teletype) cannot be retried, so predicated processes are barred from it.

Channels are reliable by fiat in the default mode and by
acknowledgement/retransmission in ``at_least_once`` mode; the
:class:`RouterJournal` makes the router itself recoverable.
"""

from repro.ipc.channel import Channel
from repro.ipc.devices import SinkDevice, SourceDevice
from repro.ipc.journal import (
    JournalRecord,
    JournalSink,
    RouterJournal,
    load_journal,
)
from repro.ipc.message import Message
from repro.ipc.router import MessageRouter

__all__ = [
    "Channel",
    "JournalRecord",
    "JournalSink",
    "Message",
    "MessageRouter",
    "RouterJournal",
    "SinkDevice",
    "SourceDevice",
    "load_journal",
]
