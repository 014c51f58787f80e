"""Deterministic discrete-event simulator assembling workers + channels
from a :class:`repro.engine.workload.WorkflowSpec`.

The simulator also builds the worker-level DAG G* (via
``repro.core.parallel.expand``, which validates the spec's parallelism
and partitionings) to map reconfiguration operators to their workers, and
keeps the run's observable logs: the operation schedule (for
conflict-serializability checking), configuration apply times
(reconfiguration delay), sink latencies and checkpoint snapshots. Each
channel knows the logical edge it implements, which is what epoch-marker
scopes are written in.
"""
from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Callable, Iterable

from repro.core.parallel import ParallelDataflow, expand
from repro.core.transactions import Schedule

from .channel import Channel
from .messages import FCM
from .worker import Worker
from .workload import WorkflowSpec


class Simulator:
    """One engine instance executing one workflow spec."""

    def __init__(
        self,
        spec: WorkflowSpec,
        *,
        record: str = "watched",  # "none" | "watched" | "all"
        watched_ops: Iterable[str] = (),
        sink_log: bool = False,
    ) -> None:
        self.spec = spec
        self.now = 0.0
        self._heap: list = []  # (t, seq, fn, args) of events not on the FIFO
        self._fifo: deque = deque()  # the same tuples, events at _fifo_t
        self._fifo_t = 0.0  # the instant the FIFO serves: now, or NaN (none)
        self._evseq = 0
        self._gseq = 0
        self._txn = 0
        self.record = record
        self.watched_ops = set(watched_ops)
        self.schedule_log = Schedule()
        self.data_log: list[tuple[float, str, int, int]] = []  # (t, worker, txn, version)
        self.apply_times: dict[str, float] = {}
        self.sink_enabled = sink_log
        self.sink_log: list[tuple[float, float, int]] = []  # (arrival, created, txn)
        self.snapshots: dict[int, dict[str, int]] = {}

        # Worker-level DAG (G*): validates the spec, maps 𝓡 to 𝓡*.
        self.pdf: ParallelDataflow = expand(
            spec.dag, spec.parallelism(), spec.strategies()
        )

        # Instantiate workers.
        self.workers: dict[str, Worker] = {}
        self.by_op: dict[str, list[Worker]] = {}
        for op_name in spec.dag.topological_order():
            op = spec.ops[op_name]
            ws = [Worker(self, op, i) for i in range(op.parallelism)]
            self.by_op[op_name] = ws
            for w in ws:
                self.workers[w.name] = w

        # Wire channels per logical edge.
        self.channels: list[Channel] = []
        for (a, b) in spec.dag.edges:
            es = spec.edge_spec((a, b))
            pa, pb = spec.ops[a].parallelism, spec.ops[b].parallelism
            for i in range(pa):
                src = self.by_op[a][i]
                if es.strategy == "forward":
                    targets = [i]
                else:
                    targets = list(range(pb))
                chans = []
                for j in targets:
                    dst = self.by_op[b][j]
                    ch = Channel(
                        self, src, dst, (a, b), latency=es.latency, capacity=es.capacity
                    )
                    dst.inputs.append(ch)
                    chans.append(ch)
                    self.channels.append(ch)
                src.out.append((b, es.strategy, chans))

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------
    def schedule(self, t: float, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` at simulated time ``t``.

        Events run in ``(t, schedule sequence)`` order. An event at the
        current instant goes on a FIFO instead of the heap: everything it
        could be ordered against at this instant was scheduled earlier, so
        appending keeps that order at O(1). An event in the past (t < now)
        moves the FIFO back onto the heap, and the heap takes every event
        until the clock next moves, so the order stays that of one heap.
        """
        self._evseq += 1
        if t == self._fifo_t:
            self._fifo.append((t, self._evseq, fn, args))
            return
        if t < self.now:
            self._spill()
        heapq.heappush(self._heap, (t, self._evseq, fn, args))

    def _spill(self) -> None:
        for ev in self._fifo:
            heapq.heappush(self._heap, ev)
        self._fifo.clear()
        self._fifo_t = math.nan  # compares unequal to every time

    def global_seq(self) -> int:
        self._gseq += 1
        return self._gseq

    def next_txn(self) -> int:
        self._txn += 1
        return self._txn

    def run(self, until: float | None = None, max_events: int = 50_000_000) -> None:
        """Run events in ``(t, seq)`` order until none is left or the next
        one is later than ``until`` (then the clock stops at ``until``).

        Each step drains the same-instant FIFO, then advances the clock to
        the earliest heap event and moves every heap event at that instant
        to the FIFO. Those were scheduled before the clock reached the
        instant, so they precede (in heap order) whatever their execution
        appends at the same instant: the FIFO replays exactly the old
        single-heap order.
        """
        heap, fifo = self._heap, self._fifo
        pop, popleft = heapq.heappop, fifo.popleft
        if until is not None and self.now > until:
            self._spill()  # the clock steps back; the FIFO's events are later
        n = 0
        while True:
            while fifo:
                _, _, fn, args = popleft()
                fn(*args)
                n += 1
                if n >= max_events:
                    raise RuntimeError("simulation exceeded max_events")
            if not heap:
                return
            t = heap[0][0]
            if until is not None and t > until:
                self.now = self._fifo_t = until
                return
            self.now = self._fifo_t = t
            while heap and heap[0][0] == t:
                fifo.append(pop(heap))

    def start(self) -> None:
        for w in self.workers.values():
            w.start_source()

    # ------------------------------------------------------------------
    # controller-side helpers
    # ------------------------------------------------------------------
    def send_fcm(self, worker: str, fcm: FCM, at: float | None = None) -> None:
        """Deliver an FCM to ``worker`` over the control plane."""
        t = self.now + self.spec.fcm_latency if at is None else at
        self.schedule(t, self.workers[worker].on_fcm, fcm)

    def reconfig_workers(self, reconfig_ops: Iterable[str]) -> frozenset[str]:
        return self.pdf.map_reconfig(set(reconfig_ops))

    # ------------------------------------------------------------------
    # logging
    # ------------------------------------------------------------------
    def records_op(self, op_name: str) -> bool:
        """Whether data operations of ``op_name``'s workers are logged
        (each worker asks once, at construction)."""
        if self.record == "all":
            return True
        if self.record == "watched":
            return op_name in self.watched_ops
        return False

    def log_data(self, worker_name: str, msg, version: int) -> None:
        self.schedule_log.record_data(msg.txn, worker_name, msg.tuple_id)
        self.data_log.append((self.now, worker_name, msg.txn, version))

    def log_update(self, worker_name: str) -> None:
        self.apply_times[worker_name] = self.now
        if self.record != "none":
            self.schedule_log.record_update(worker_name)

    def log_sink(self, msg) -> None:
        if self.sink_enabled:
            self.sink_log.append((self.now, msg.created, msg.txn))

    def log_snapshot(self, ckpt_id: int, worker_name: str, version: int) -> None:
        self.snapshots.setdefault(ckpt_id, {})[worker_name] = version
