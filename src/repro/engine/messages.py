"""Message types exchanged in the simulated engine.

Data messages and epoch markers travel through FIFO data channels (markers
cannot overtake data — the source of epoch-based reconfiguration delay).
FCMs (Def 4.1) travel on the control plane and are delivered to a worker
with a small fixed latency, never queued behind data.

An epoch marker's scope is a set of *logical* edges: the marker is aligned
and forwarded on every worker channel that implements one of them, so a
scope's size does not grow with parallelism. A §7.3 checkpoint barrier is
an epoch marker too: scoped to the whole DAG, carrying a ``ckpt_id``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(slots=True)
class DataMsg:
    """A data tuple: transaction id (= source tuple id), routing key, and a
    creation timestamp for end-to-end latency accounting. ``tuple_id`` is
    the lineage id ``t{txn}/{worker}.{n}/...`` when the run records, else
    empty. ``version_tag`` is used only by the FCM multi-version scheduler
    (§4.1)."""

    txn: int
    key: int
    tuple_id: str
    created: float
    version_tag: int | None = None


@dataclass
class EpochMarker:
    """An epoch marker (§3.1) with a propagation scope.

    ``scope_id`` identifies the synchronization round; ``edges`` are the
    logical edges (src_op, dst_op) of one plan component — the whole DAG
    for EBR, one MCS component for Fries — on whose channels the marker is
    aligned and forwarded; ``reconfig_workers`` apply the piggybacked
    reconfiguration when aligned. A marker with a ``ckpt_id`` is a
    checkpoint barrier: every worker it reaches snapshots when aligned."""

    scope_id: str
    edges: frozenset[tuple[str, str]]
    reconfig_workers: frozenset[str]
    ckpt_id: int | None = None


@dataclass
class FCM:
    """A fast control message from the controller to one worker."""

    kind: str  # "start_markers" | "register" | "bump_version"
    payload: Any = None
