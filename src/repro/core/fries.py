"""The Fries scheduler's planning side — Algorithms 2, 3 and 4 — plus the
epoch-based (EBR) plan used by the baseline.

Planning is pure graph computation: given the dataflow DAG and the set of
reconfiguration operators, produce a :class:`ReconfigPlan` describing where
FCMs are sent and along which edges epoch markers are propagated. EBR is
the special case whose single component is the whole DAG with the sources
as heads (:func:`plan_epoch`). The runtime in :mod:`repro.engine.schedulers`
executes any plan the same way: one epoch marker per component, scoped to
the component's logical edges, started by FCMs to its head operators.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .dag import DAG, SubDAG
from .mcs import components, find_mcs, head_operators
from .pruning import ancestor_one_to_many, earliest_ancestors, prune_ancestors


@dataclass(frozen=True)
class ReconfigPlan:
    """A scheduled reconfiguration.

    ``reconfig_ops``
        the operators whose function is updated (the set in 𝓡).
    ``m``
        the vertex set used to build the MCS (reconfig ops + any earliest
        one-to-many ancestors kept after pruning).
    ``mcs``
        the minimal covering sub-DAG.
    ``component_list``
        weakly-connected components of the MCS, each a synchronization unit.
    ``heads``
        per component, the operators receiving an FCM from the controller.
        A component's edges are the only edges on which its epoch marker
        propagates (none for a singleton component).
    """

    reconfig_ops: frozenset[str]
    m: frozenset[str]
    mcs: SubDAG
    component_list: tuple[SubDAG, ...]
    heads: tuple[tuple[str, ...], ...]

    def longest_path_length(self) -> int:
        """Max over components of the longest path (in edges) — the metric
        reported in Tables 4–6."""
        return max(
            (
                DAG.from_edges(c.edges, extra_vertices=c.vertices).longest_path_edges()
                for c in self.component_list
            ),
            default=0,
        )


def _plan_from_m(dag: DAG, reconfig_ops: frozenset[str], m: set[str]) -> ReconfigPlan:
    mcs = find_mcs(dag, m)
    comps = tuple(components(dag, mcs))
    heads = tuple(tuple(head_operators(c)) for c in comps)
    return ReconfigPlan(
        reconfig_ops=reconfig_ops,
        m=frozenset(m),
        mcs=mcs,
        component_list=comps,
        heads=heads,
    )


def plan_one_to_one(dag: DAG, reconfig_ops: Iterable[str]) -> ReconfigPlan:
    """Algorithm 2 — valid only for dataflows with one-to-one operators.

    Raises ``ValueError`` if the dataflow contains a one-to-many operator
    upstream of a reconfiguration operator (Algorithm 3 is required then).
    """
    ops = frozenset(reconfig_ops)
    for o in ops:
        bad = ancestor_one_to_many(dag, o)
        if bad:
            raise ValueError(
                f"operator {o!r} has one-to-many ancestors {sorted(bad)}; "
                "use plan_general (Algorithm 3/4)"
            )
    return _plan_from_m(dag, ops, set(ops))


def plan_general(dag: DAG, reconfig_ops: Iterable[str], *, prune: bool = True) -> ReconfigPlan:
    """Algorithm 3 (``prune=False``) / Algorithm 4 (``prune=True``).

    For each reconfiguration operator, its earliest ancestor one-to-many
    operators (after optional §6.3 pruning) are added to M before the MCS
    is computed, so marker propagation starts at the fan-out points.
    """
    ops = frozenset(reconfig_ops)
    m: set[str] = set(ops)
    for o in ops:
        anc = ancestor_one_to_many(dag, o)
        if prune:
            anc = prune_ancestors(dag, anc, o, set(ops))
        m |= earliest_ancestors(dag, anc)
    return _plan_from_m(dag, ops, m)


def plan_epoch(dag: DAG, reconfig_ops: Iterable[str]) -> ReconfigPlan:
    """The EBR baseline expressed in the same plan shape: markers are
    injected at every source and aligned over the whole DAG, so the "MCS"
    is the entire dataflow and every source is a head (in ``dag.sources()``
    order, which fixes the order the sources' FCMs are delivered in)."""
    ops = frozenset(reconfig_ops)
    vs = frozenset(dag.vertices)
    whole = SubDAG(vs, frozenset(dag.edges))
    return ReconfigPlan(
        reconfig_ops=ops,
        m=vs,
        mcs=whole,
        component_list=(whole,),
        heads=(tuple(dag.sources()),),
    )
