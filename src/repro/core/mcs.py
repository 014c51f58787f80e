"""Algorithm 1 — Minimal Covering Sub-DAG (MCS) — and its components (§5.2–5.3).

``find_mcs`` is the paper's red/blue marking algorithm, O(V+E):
a vertex is in the MCS iff it is marked both "red" (in M or a descendant of
an M vertex) and "blue" (in M or an ancestor of an M vertex), i.e. it is in
M or lies on a directed path between two M vertices. ``brute_force_mcs``
(used only in tests) constructs the MCS directly from Def 5.4 by path
enumeration, validating Lemma 5.5's uniqueness.

``components`` returns the weakly-connected components of the MCS, each the
synchronization unit of the Fries scheduler (§5.3).
"""
from __future__ import annotations

from typing import Iterable

from .dag import DAG, SubDAG


def find_mcs(dag: DAG, m: Iterable[str]) -> SubDAG:
    """Algorithm 1: minimal covering sub-DAG of ``dag`` and vertex set ``m``."""
    mset = set(m)
    for v in mset:
        if v not in dag:
            raise KeyError(f"operator {v!r} not in dataflow")
    red: set[str] = set()
    blue: set[str] = set()
    topo = dag.topological_order()
    for v in topo:  # forward pass: v in M, or a parent is red
        if v in mset or any(p in red for p in dag.in_edges(v)):
            red.add(v)
    for v in reversed(topo):  # backward pass: v in M, or a child is blue
        if v in mset or any(c in blue for c in dag.out_edges(v)):
            blue.add(v)
    vertices = red & blue
    edges = frozenset(dag.induced_edges(vertices))
    return SubDAG(frozenset(vertices), edges)


def brute_force_mcs(dag: DAG, m: Iterable[str]) -> SubDAG:
    """Def 5.4 built literally: union of all paths between pairs of M vertices.

    Exponential in the worst case — test oracle only.
    """
    mset = set(m)
    vertices: set[str] = set(mset)
    edges: set[tuple[str, str]] = set()
    for a in mset:
        for b in mset:
            if a == b:
                continue
            for path in dag.paths(a, b):
                vertices.update(path)
                edges.update(zip(path, path[1:]))
    return SubDAG(frozenset(vertices), frozenset(edges))


def components(dag: DAG, mcs: SubDAG) -> list[SubDAG]:
    """Weakly-connected components of the MCS (maximal sub-DAGs whose vertices
    are connected ignoring edge direction), in deterministic topo order."""
    adj: dict[str, set[str]] = {v: set() for v in mcs.vertices}
    for a, b in mcs.edges:
        adj[a].add(b)
        adj[b].add(a)
    rank = {v: i for i, v in enumerate(dag.topological_order())}
    seen: set[str] = set()
    out: list[SubDAG] = []
    for v in sorted(mcs.vertices, key=rank.__getitem__):
        if v in seen:
            continue
        comp: set[str] = set()
        stack = [v]
        while stack:
            u = stack.pop()
            if u in comp:
                continue
            comp.add(u)
            stack.extend(adj[u] - comp)
        seen |= comp
        out.append(SubDAG(frozenset(comp), frozenset(e for e in mcs.edges if e[0] in comp)))
    return out


def head_operators(comp: SubDAG) -> list[str]:
    """Operators with no incoming edge *within the component* (§5.3)."""
    have_in = {b for _, b in comp.edges}
    return sorted(v for v in comp.vertices if v not in have_in)
