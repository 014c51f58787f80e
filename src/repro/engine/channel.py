"""A FIFO data channel between two workers, with latency, finite capacity
and backpressure.

Capacity counts both in-transit and delivered-but-unprocessed messages;
when full, the sending worker blocks (backpressure propagates upstream —
§3.2's reason small buffers do not fix epoch delay). Markers do not count
against capacity (they are tiny control records riding the data FIFO), but
they are strictly FIFO-ordered behind previously sent data.

Wake-up rule: consuming a data message frees one unit of capacity, and
the channel wakes its sender (``on_channel_freed``, at the same instant)
only if the sender is waiting for room at that moment (a worker blocked on
pending emits, or a source holding a backpressured tuple). A sender that
is not waiting checks room itself before it next sends; if it then has to
wait, the next pop on one of its channels wakes it.
"""
from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from .messages import DataMsg

if TYPE_CHECKING:  # pragma: no cover
    from .simulator import Simulator
    from .worker import Worker


class Channel:
    """Single-producer single-consumer FIFO link ``src -> dst``."""

    def __init__(
        self,
        sim: "Simulator",
        src: "Worker",
        dst: "Worker",
        edge: tuple[str, str],
        *,
        latency: float = 0.001,
        capacity: int = 100,
    ) -> None:
        self.sim = sim
        self.src = src
        self.dst = dst
        self.edge = edge  # the logical edge (src_op, dst_op) it implements
        self.latency = latency
        self.capacity = capacity
        self.queue: deque = deque()  # delivered, awaiting processing
        self.in_transit = 0
        self.blocked = False  # alignment block: dst must not consume

    # -- producer side ----------------------------------------------------
    def data_load(self) -> int:
        return self.in_transit + len(self.queue)

    def send(self, msg) -> None:
        """Enqueue ``msg`` for delivery after ``latency``. Caller must have
        checked room (``data_load() < capacity``) for data messages;
        markers always fit."""
        if isinstance(msg, DataMsg):
            self.in_transit += 1
        self.sim.schedule(self.sim.now + self.latency, self._deliver, msg)

    # -- delivery ----------------------------------------------------------
    def _deliver(self, msg) -> None:
        if isinstance(msg, DataMsg):
            self.in_transit -= 1
        self.queue.append((self.sim.global_seq(), msg))
        self.dst.notify()

    # -- consumer side -----------------------------------------------------
    def pop(self):
        """Remove and return the head message (the consumer has checked that
        the channel is unblocked and non-empty)."""
        _, msg = self.queue.popleft()
        src = self.src
        if isinstance(msg, DataMsg) and src.waiting_for_room():
            self.sim.schedule(self.sim.now, src.on_channel_freed, self)
        return msg
