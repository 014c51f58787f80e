"""A simulated operator worker.

Each worker processes one data tuple at a time (cost = seconds per tuple of
its current configuration version), emits derived tuples downstream subject
to channel backpressure, and participates in the control protocols:

* **FCMs** are handled between tuples — immediately if the worker is idle,
  otherwise right after the current tuple finishes and its outputs flush
  (Def 4.1's "applies the new configuration immediately after finishing the
  processing of its current tuple"). Handling an FCM never reorders it
  ahead of this worker's *already sent* data, so marker FIFO holds.
* **Epoch markers** ride the data FIFO. On popping a marker from a channel,
  the worker blocks that channel and waits for markers on every in-scope
  input (epoch alignment, §3.1). On full alignment it unblocks those
  inputs; then — or at once, for a plan head started by a
  ``start_markers`` FCM — it snapshots its configuration version if the
  marker is a §7.3 checkpoint barrier, applies the piggybacked
  reconfiguration if targeted, and forwards the marker on its in-scope
  output channels. Reconfigurations and checkpoints share this one path
  and one alignment table, keyed by scope.
"""
from __future__ import annotations

import random
from collections import deque
from typing import TYPE_CHECKING

from .channel import Channel
from .messages import DataMsg, EpochMarker, FCM
from .workload import OpSpec

if TYPE_CHECKING:  # pragma: no cover
    from .simulator import Simulator


class Worker:
    """One parallel instance of an operator in the simulated engine."""

    def __init__(self, sim: "Simulator", op: OpSpec, index: int) -> None:
        self.sim = sim
        self.op = op
        self.index = index
        self.name = f"{op.name}#{index}"
        # zlib.crc32 is process-stable (str.__hash__ is salted per process,
        # which would make runs non-reproducible across invocations).
        import zlib

        self.rng = random.Random(
            zlib.crc32(f"{sim.spec.seed}/{op.name}/{index}".encode())
        )
        self.inputs: list[Channel] = []
        # Per logical out-edge: (dst op name, strategy, channels by dst index).
        self.out: list[tuple[str, str, list[Channel]]] = []
        self.version = 1
        self.applied = False
        self.multiversion = False  # registered new config, per-tuple versioning
        self.control: deque[FCM] = deque()
        self.state = "idle"  # idle | busy | blocked
        self._pending: list[tuple[Channel, DataMsg]] = []
        self._dispatch_scheduled = False
        # Marker alignment: scope_id -> the inputs its marker arrived on,
        # each blocked until the scope aligns (so listed at most once).
        self._aligning: dict[str, list[Channel]] = {}
        # Self-join per-transaction arrival counts.
        self._sj_state: dict[int, int] = {}
        self.processed = 0
        self._emit_count = 0
        # Per-tuple path, fixed at construction: whether this worker's data
        # operations are logged, whether lineage tuple ids are built at all
        # (only a recording run reads them), and cost per config version.
        self._logged = sim.records_op(op.name)
        self._build_ids = sim.record != "none"
        self._cost: dict[int, float] = {}
        # Source state: the backpressured tuple and its target channels.
        self._emitted = 0
        self._src_pending: DataMsg | None = None
        self._src_targets: list[Channel] = []

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def on_fcm(self, fcm: FCM) -> None:
        self.control.append(fcm)
        if self.op.kind == "source":
            self._handle_control()
        else:
            self.notify()

    def _handle_control(self) -> None:
        """Drain the control queue. Only called between tuples (idle, or a
        source between emissions), so configuration swaps never split the
        processing of a tuple and markers stay FIFO behind sent data."""
        while self.control:
            fcm = self.control.popleft()
            if fcm.kind == "start_markers":
                # Plan head (a Fries component head, or a source under EBR
                # or a checkpoint): no in-scope inputs, so already aligned.
                self._aligned(fcm.payload)
            elif fcm.kind == "register":
                self.multiversion = True
            elif fcm.kind == "bump_version":
                self.version = 2
            else:  # pragma: no cover
                raise ValueError(f"unknown FCM {fcm.kind!r}")

    def _apply_reconfig(self) -> None:
        if self.applied:
            return
        self.applied = True
        self.version = 2
        self.sim.log_update(self.name)

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def notify(self) -> None:
        if self.state == "idle" and not self._dispatch_scheduled:
            self._dispatch_scheduled = True
            self.sim.schedule(self.sim.now, self._dispatch)

    def _dispatch(self) -> None:
        self._dispatch_scheduled = False
        while self.state == "idle":
            if self.control:
                self._handle_control()
                continue
            ch = self._next_channel()
            if ch is None:
                return
            msg = ch.pop()
            if isinstance(msg, DataMsg):
                self._start_processing(msg)
            else:
                self._on_marker(ch, msg)

    def _next_channel(self) -> Channel | None:
        """The unblocked input whose head arrived first (global arrival
        order), or None if no input has a message to consume."""
        best, best_seq = None, 0
        for ch in self.inputs:
            q = ch.queue
            if q and not ch.blocked and (best is None or q[0][0] < best_seq):
                best, best_seq = ch, q[0][0]
        return best

    def _start_processing(self, msg: DataMsg) -> None:
        version = (
            msg.version_tag
            if (self.multiversion and msg.version_tag is not None)
            else self.version
        )
        if self._logged:
            self.sim.log_data(self.name, msg, version)
        self.state = "busy"
        cost = self._cost.get(version)
        if cost is None:
            cost = self._cost[version] = self.op.cost_at(version, self.index)
        self.sim.schedule(self.sim.now + cost, self._finish, msg)

    def _finish(self, msg: DataMsg) -> None:
        self.processed += 1
        self._pending = self._emissions(msg)
        self.state = "blocked"
        self._try_emit()

    def _emissions(self, msg: DataMsg) -> list[tuple[Channel, DataMsg]]:
        op, out = self.op, self.out
        kind = op.kind
        targets: list[tuple[int, int]] = []  # (out-edge idx, key)
        if kind in ("map", "union"):
            targets = [(i, msg.key) for i in range(min(1, len(out)))]
        elif kind == "filter":
            if self.rng.random() < op.selectivity:
                targets = [(0, msg.key)] if out else []
        elif kind == "split":
            if out:
                targets = [(msg.key % len(out), msg.key)]
        elif kind == "join":
            if out and self.rng.random() < op.selectivity:
                for _ in range(op.fanout):
                    key = op.out_key.sample(self.rng) if op.out_key else msg.key
                    targets.append((0, key))
        elif kind == "replicate":
            targets = [(i, msg.key) for i in range(len(out))]
        elif kind == "selfjoin":
            n = self._sj_state.get(msg.txn, 0) + 1
            if n >= op.arity:
                self._sj_state.pop(msg.txn, None)
                if out:
                    targets = [(0, msg.key)]
            else:
                self._sj_state[msg.txn] = n
        elif kind == "sink":
            self.sim.log_sink(msg)
            targets = []
        emits: list[tuple[Channel, DataMsg]] = []
        for edge_idx, key in targets:
            dst_op, strategy, channels = out[edge_idx]
            tuple_id = ""
            if self._build_ids:
                self._emit_count += 1
                tuple_id = f"{msg.tuple_id}/{self.name}.{self._emit_count}"
            child = DataMsg(msg.txn, key, tuple_id, msg.created, msg.version_tag)
            if strategy == "broadcast":
                emits.extend((ch, child) for ch in channels)
            elif strategy == "forward":
                emits.append((channels[0], child))
            else:  # hash / rebalance
                emits.append((channels[key % len(channels)], child))
        return emits

    def _try_emit(self) -> None:
        for ch, _ in self._pending:
            if ch.in_transit + len(ch.queue) >= ch.capacity:
                return  # stay blocked; on_channel_freed retries
        for ch, m in self._pending:
            ch.send(m)
        self._pending = []
        self.state = "idle"
        if self.op.kind == "source":
            self._schedule_next_emit()
        else:
            self.notify()

    def waiting_for_room(self) -> bool:
        """True while a send is held back by a full output channel."""
        return (self.state == "blocked" and bool(self._pending)) or (
            self._src_pending is not None
        )

    def on_channel_freed(self, channel: Channel) -> None:
        if self.state == "blocked" and self._pending:
            self._try_emit()
        elif self.op.kind == "source" and self._src_pending is not None:
            self._source_try_send()

    # ------------------------------------------------------------------
    # epoch markers
    # ------------------------------------------------------------------
    def _on_marker(self, ch: Channel, marker: EpochMarker) -> None:
        ch.blocked = True
        arrived = self._aligning.setdefault(marker.scope_id, [])
        arrived.append(ch)
        if len(arrived) >= sum(c.edge in marker.edges for c in self.inputs):
            del self._aligning[marker.scope_id]
            for c in arrived:
                c.blocked = False
            self._aligned(marker)
            self.notify()

    def _aligned(self, marker: EpochMarker) -> None:
        """Snapshot if a checkpoint, apply if targeted, then forward the
        marker on every in-scope output channel."""
        if marker.ckpt_id is not None:
            self.sim.log_snapshot(marker.ckpt_id, self.name, self.version)
        if self.name in marker.reconfig_workers:
            self._apply_reconfig()
        for dst_op, _, channels in self.out:
            if (self.op.name, dst_op) in marker.edges:
                for ch in channels:
                    ch.send(marker)

    # ------------------------------------------------------------------
    # source behaviour
    # ------------------------------------------------------------------
    def start_source(self) -> None:
        if self.op.kind == "source":
            self.sim.schedule(self.sim.now, self._source_emit)

    def _source_emit(self) -> None:
        if self.op.n_tuples is not None and self._emitted >= self.op.n_tuples:
            return
        if self._src_pending is not None:
            return
        txn = self.sim.next_txn()
        key = (
            self.op.key_dist.sample(self.rng)
            if self.op.key_dist
            else self.rng.randrange(1 << 30)
        )
        self._src_pending = DataMsg(
            txn,
            key,
            f"t{txn}" if self._build_ids else "",
            self.sim.now,
            self.version if self.multiversion else None,
        )
        targets: list[Channel] = []
        for _, strategy, channels in self.out:
            if strategy == "broadcast":
                targets.extend(channels)
            elif strategy == "forward":
                targets.append(channels[self.index % len(channels)])
            else:
                targets.append(channels[key % len(channels)])
        self._src_targets = targets
        self._source_try_send()

    def _source_try_send(self) -> None:
        msg = self._src_pending
        assert msg is not None
        # Tag lazily so a version bump while blocked tags correctly: the
        # tuple enters the stream only now.
        if self.multiversion:
            msg.version_tag = self.version
        for ch in self._src_targets:
            if ch.in_transit + len(ch.queue) >= ch.capacity:
                return  # backpressured; resumed by on_channel_freed
        if self._logged:
            self.sim.log_data(self.name, msg, self.version)
        for ch in self._src_targets:
            ch.send(msg)
        self._src_pending = None
        self._emitted += 1
        self.processed += 1
        self._schedule_next_emit()

    def _schedule_next_emit(self) -> None:
        if self.op.kind != "source":
            return
        if self.op.n_tuples is not None and self._emitted >= self.op.n_tuples:
            return
        rate = self.op.rate_at(self.sim.now)
        self.sim.schedule(self.sim.now + 1.0 / rate, self._source_emit)
