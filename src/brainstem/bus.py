"""Priority message bus: three FIFO channels with message-boundary preemption.

Delivery is pull-based from per-subscriber inboxes, which keeps runs
deterministic under a single-threaded scheduler while staying safe for
concurrent publishers and subscribers. The bus holds a message only until
each subscriber that owes it has pulled it. Preemption never truncates an
in-flight message: after each delivery the next pull re-selects the
highest-priority non-empty channel.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Iterable, Optional

from .errors import UnregisteredSender
from .protocol import Envelope, Importance

PRIORITY_ORDER = (Importance.HIGH, Importance.MEDIUM, Importance.LOW)


class MessageBus:
    """Three priority channels with exactly-once per-subscriber delivery.

    ``is_registered`` gates publishers and subscribers; the registry wires
    itself in at construction time. Every publish and delivery is recorded
    in memory, in order, for ``audit_log``.
    """

    def __init__(self, is_registered: Callable[[str], bool]):
        self._is_registered = is_registered
        self._lock = threading.RLock()
        # level -> agent_id -> deque of the envelopes the agent owes
        self._inboxes = {level: {} for level in PRIORITY_ORDER}
        self._subscriptions: dict = {}   # agent_id -> set[Importance]
        self._audit: list = []

    # -- subscriptions ------------------------------------------------------

    def subscribe(self, agent_id: str, priorities: Iterable[Importance]) -> None:
        """Replace the agent's subscription set atomically.

        An empty inbox is created on first contact with a channel, so messages
        published before then are not replayed. Inboxes persist across
        reassignments, so queued messages are neither dropped nor duplicated
        by a reassignment.
        """
        if not self._is_registered(agent_id):
            raise UnregisteredSender(f"{agent_id!r} is not registered")
        wanted = set(priorities)
        with self._lock:
            for level in wanted:
                self._inboxes[level].setdefault(agent_id, deque())
            self._subscriptions[agent_id] = wanted

    def subscriptions_of(self, agent_id: str) -> set:
        with self._lock:
            return set(self._subscriptions.get(agent_id, ()))

    # -- publish / deliver ---------------------------------------------------

    def publish(self, envelope: Envelope) -> None:
        sender = envelope.header.agent_id
        if not self._is_registered(sender):
            raise UnregisteredSender(f"{sender!r} is not registered")
        with self._lock:
            self._audit.append(("publish", envelope.log_id, envelope))
            for inbox in self._inboxes[envelope.header.importance].values():
                inbox.append(envelope)

    def next_message(self, subscriber: str) -> Optional[Envelope]:
        """Head of the highest-priority non-empty channel for ``subscriber``.

        Returns None when nothing is pending. Each delivered message is
        delivered at most once per subscriber.
        """
        if not self._is_registered(subscriber):
            raise UnregisteredSender(f"{subscriber!r} is not registered")
        with self._lock:
            subscribed = self._subscriptions.get(subscriber, ())
            for level in PRIORITY_ORDER:
                inbox = self._inboxes[level].get(subscriber)
                if level in subscribed and inbox:
                    envelope = inbox.popleft()
                    self._audit.append(("deliver", envelope.log_id, subscriber))
                    return envelope
        return None

    def pending_count(self, subscriber: str) -> int:
        with self._lock:
            return sum(len(self._inboxes[level][subscriber])
                       for level in self._subscriptions.get(subscriber, ()))

    # -- introspection --------------------------------------------------------

    def audit_log(self) -> list:
        with self._lock:
            return list(self._audit)
