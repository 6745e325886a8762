"""Priority message bus: three FIFO channels with message-boundary preemption.

Delivery is pull-based against per-subscriber cursors, which keeps runs
deterministic under a single-threaded scheduler while staying safe for
concurrent publishers and subscribers. Preemption never truncates an
in-flight message: after each delivery the next pull re-selects the
highest-priority non-empty channel.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .errors import UnregisteredSender
from .protocol import Envelope, Importance, serialize_envelope

PRIORITY_ORDER = (Importance.HIGH, Importance.MEDIUM, Importance.LOW)


@dataclass
class DeliveryReceipt:
    log_id: str
    enqueued_at: int
    delivered_at: dict = field(default_factory=dict)  # subscriber -> tick


class MessageBus:
    """Three priority channels with exactly-once per-subscriber delivery.

    ``is_registered`` gates publishers and subscribers; the registry wires
    itself in at construction time. ``clock`` supplies virtual ticks for
    receipts (defaults to an internal operation counter).
    """

    def __init__(self, is_registered: Callable[[str], bool],
                 clock: Optional[Callable[[], int]] = None,
                 audit_path: Optional[str] = None):
        self._is_registered = is_registered
        self._clock = clock
        self._ops = 0
        self._lock = threading.RLock()
        self._queues = {level: [] for level in PRIORITY_ORDER}
        self._subscriptions: dict = {}   # agent_id -> set[Importance]
        self._cursors: dict = {}         # (agent_id, Importance) -> int
        self._receipts: dict = {}        # log_id -> DeliveryReceipt
        self._audit: list = []
        self._audit_path = audit_path

    # -- time ---------------------------------------------------------------

    def _now(self) -> int:
        if self._clock is not None:
            return self._clock()
        return self._ops

    # -- subscriptions ------------------------------------------------------

    def subscribe(self, agent_id: str, priorities: Iterable[Importance]) -> None:
        """Replace the agent's subscription set atomically.

        Cursors are created at the current channel tail on first contact with
        a channel and persist across reassignments, so queued messages are
        neither dropped nor duplicated by a reassignment.
        """
        if not self._is_registered(agent_id):
            raise UnregisteredSender(f"{agent_id!r} is not registered")
        wanted = set(priorities)
        with self._lock:
            for level in wanted:
                key = (agent_id, level)
                if key not in self._cursors:
                    self._cursors[key] = len(self._queues[level])
            self._subscriptions[agent_id] = wanted

    def subscriptions_of(self, agent_id: str) -> set:
        with self._lock:
            return set(self._subscriptions.get(agent_id, ()))

    # -- publish / deliver ---------------------------------------------------

    def publish(self, envelope: Envelope) -> DeliveryReceipt:
        sender = envelope.header.agent_id
        if not self._is_registered(sender):
            raise UnregisteredSender(f"{sender!r} is not registered")
        with self._lock:
            self._ops += 1
            receipt = DeliveryReceipt(envelope.log_id, enqueued_at=self._now())
            # audit entry is appended before the receipt is returned
            self._audit.append(("publish", envelope.log_id, envelope))
            if self._audit_path is not None:
                with open(self._audit_path, "ab") as sink:
                    sink.write(serialize_envelope(envelope) + b"\n")
            self._queues[envelope.header.importance].append(envelope)
            self._receipts[envelope.log_id] = receipt
            return receipt

    def next_message(self, subscriber: str) -> Optional[Envelope]:
        """Head of the highest-priority non-empty channel for ``subscriber``.

        Returns None when nothing is pending. Each delivered message is
        delivered at most once per subscriber.
        """
        if not self._is_registered(subscriber):
            raise UnregisteredSender(f"{subscriber!r} is not registered")
        with self._lock:
            self._ops += 1
            subscribed = self._subscriptions.get(subscriber, ())
            for level in PRIORITY_ORDER:
                if level not in subscribed:
                    continue
                queue = self._queues[level]
                cursor = self._cursors[(subscriber, level)]
                if cursor < len(queue):
                    envelope = queue[cursor]
                    self._cursors[(subscriber, level)] = cursor + 1
                    receipt = self._receipts[envelope.log_id]
                    receipt.delivered_at[subscriber] = self._now()
                    self._audit.append(("deliver", envelope.log_id, subscriber))
                    if self._audit_path is not None:
                        record = json.dumps({
                            "receipt": envelope.log_id,
                            "delivered_to": subscriber,
                            "at": receipt.delivered_at[subscriber],
                        }, sort_keys=True)
                        with open(self._audit_path, "a",
                                  encoding="utf-8") as sink:
                            sink.write(record + "\n")
                    return envelope
        return None

    def pending_count(self, subscriber: str) -> int:
        with self._lock:
            total = 0
            for level in self._subscriptions.get(subscriber, ()):
                total += len(self._queues[level]) - self._cursors[(subscriber, level)]
            return total

    # -- introspection --------------------------------------------------------

    def audit_log(self) -> list:
        with self._lock:
            return list(self._audit)
