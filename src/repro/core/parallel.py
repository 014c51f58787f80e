"""§7.2 — parallel execution: expanding an operator DAG to a worker DAG.

Each operator ``o`` with parallelism ``p`` becomes workers ``o#0..o#p-1``.
Each logical edge carries a partitioning strategy that determines the
worker-level data channels:

``hash`` / ``range`` / ``rebalance``
    every upstream worker connects to every downstream worker (p_a × p_b
    channels); workers keep the operator's one-to-one/one-to-many class.
``forward``
    worker i connects only to worker i (operator chaining / local forward;
    requires equal parallelism; p channels).
``broadcast``
    p_a × p_b channels, and the paper treats the upstream operator as if a
    Replicate operator followed it — :func:`broadcast_adjusted` gives it
    the edge-wise one-to-one (hence one-to-many) property, on the logical
    DAG and on its workers alike, so Algorithm 4's pruning rules still
    apply.

``channel_counts`` reproduces Table 7: total worker-level data channels vs
channels whose endpoints both lie in the MCS.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .dag import DAG
from .fries import ReconfigPlan

PARTITIONINGS = ("hash", "range", "rebalance", "forward", "broadcast")


def worker_name(op: str, i: int) -> str:
    return f"{op}#{i}"


@dataclass(frozen=True)
class ParallelDataflow:
    """The worker-level DAG G* plus the mapping back to operators."""

    dag: DAG  # worker-level
    parallelism: dict[str, int]
    edge_strategy: dict[tuple[str, str], str]

    def workers(self, op: str) -> list[str]:
        return [worker_name(op, i) for i in range(self.parallelism[op])]

    def map_reconfig(self, reconfig_ops: frozenset[str] | set[str]) -> frozenset[str]:
        """𝓡 → 𝓡*: a function update on o maps to updates on all workers."""
        return frozenset(w for o in reconfig_ops for w in self.workers(o))


def broadcast_adjusted(dag: DAG, edge_strategy: dict[tuple[str, str], str]) -> DAG:
    """§7.2's broadcast rule: an operator with a broadcast out-edge behaves
    as if a Replicate operator followed it — one-to-many overall but
    edge-wise one-to-one — so Algorithm 4's pruning rules apply unchanged.
    Unlisted edges default to ``hash``."""
    broadcasters = {e[0] for e in dag.edges if edge_strategy.get(e) == "broadcast"}
    out = DAG()
    for v in dag.topological_order():
        o = dag.op(v)
        bc = v in broadcasters
        out.add_operator(
            replace(
                o,
                one_to_many=o.one_to_many or bc,
                edgewise_one_to_one=o.edgewise_one_to_one or (bc and not o.one_to_many),
            )
        )
    for e in dag.edges:
        out.add_edge(*e)
    return out


def expand(
    dag: DAG,
    parallelism: dict[str, int],
    edge_strategy: dict[tuple[str, str], str],
) -> ParallelDataflow:
    """Build G* = (V*, E*) from G, per-operator parallelism and per-edge
    partitioning strategies. Unlisted edges default to ``hash``; workers
    take their operator's class from :func:`broadcast_adjusted`."""
    for op in dag.vertices:
        if parallelism.get(op, 1) < 1:
            raise ValueError(f"parallelism of {op!r} must be >= 1")
    strategies = {}
    for e in dag.edges:
        s = edge_strategy.get(e, "hash")
        if s not in PARTITIONINGS:
            raise ValueError(f"unknown partitioning {s!r} for edge {e}")
        strategies[e] = s
    adjusted = broadcast_adjusted(dag, strategies)
    wdag = DAG()
    for op in dag.topological_order():
        o = adjusted.op(op)
        for i in range(parallelism.get(op, 1)):
            wdag.add_operator(replace(o, name=worker_name(op, i)))
    for (a, b), s in strategies.items():
        pa, pb = parallelism.get(a, 1), parallelism.get(b, 1)
        if s == "forward":
            if pa != pb:
                raise ValueError(
                    f"forward edge {a}->{b} requires equal parallelism ({pa} != {pb})"
                )
            for i in range(pa):
                wdag.add_edge(worker_name(a, i), worker_name(b, i))
        else:
            for i in range(pa):
                for j in range(pb):
                    wdag.add_edge(worker_name(a, i), worker_name(b, j))
    wdag.validate()
    return ParallelDataflow(wdag, dict(parallelism), strategies)


def n_channels(pdf: ParallelDataflow, edge: tuple[str, str]) -> int:
    """Worker-level channel count of one logical edge."""
    a, b = edge
    if pdf.edge_strategy[edge] == "forward":
        return pdf.parallelism.get(a, 1)
    return pdf.parallelism.get(a, 1) * pdf.parallelism.get(b, 1)


def channel_counts(pdf: ParallelDataflow, plan: ReconfigPlan) -> tuple[int, int]:
    """(total channels between all workers, channels between MCS workers)
    — the two columns of Table 7. ``plan`` is the operator-level Fries plan;
    MCS channels are the worker-level channels of the MCS's edges."""
    logical = pdf.edge_strategy.keys()
    total = sum(n_channels(pdf, e) for e in logical)
    mcs_edges = set(plan.mcs.edges)
    mcs = sum(n_channels(pdf, e) for e in logical if e in mcs_edges)
    return total, mcs
