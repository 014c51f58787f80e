"""Runtime reconfiguration schedulers on the simulated engine.

Each scheduler issues controller actions for a reconfiguration request at
time ``t`` and defines how the reconfiguration delay is measured.

The three consistent schedulers differ only in their
:class:`~repro.core.fries.ReconfigPlan`; :class:`PlanScheduler` executes
any plan the same way (:func:`start_plan`, which §7.3 checkpoints use
too). For each plan component it builds one
:class:`~repro.engine.messages.EpochMarker` scoped to the component's
*logical* edges and sends a ``start_markers`` FCM to every worker of the
component's head operators; the delay is the time until the last worker
of the plan's reconfiguration operators has applied.

* :class:`FriesScheduler` — Algorithms 2/3/4 on the broadcast-adjusted
  logical DAG (§6.3, §7.2): markers only inside MCS components.
* :class:`EpochScheduler` — the EBR baseline (Chi): :func:`plan_epoch`,
  one component spanning the whole DAG with the sources as heads.
* :class:`SavepointScheduler` — Flink stop-and-restart: the EBR plan with
  the sinks added to the reconfiguration set, plus a fixed stop/restart
  overhead.
* :class:`NaiveFCMScheduler` — FCMs straight to the reconfiguration
  workers (one singleton component per operator, no markers); low delay
  but not conflict-serializable (§4.1).
* :class:`MultiVersionScheduler` — the FCM multi-version scheduler (§4.1):
  consistent, but old-version in-flight tuples still processed under the
  old configuration, and double state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.dag import DAG, SubDAG
from repro.core.fries import ReconfigPlan, plan_epoch, plan_general
from repro.core.parallel import broadcast_adjusted

from .messages import EpochMarker, FCM
from .simulator import Simulator
from .workload import WorkflowSpec


def effective_logical_dag(spec: WorkflowSpec) -> DAG:
    """The logical DAG the Fries planner runs on (§7.2 broadcast rule)."""
    return broadcast_adjusted(spec.dag, spec.strategies())


@dataclass
class ReconfigResult:
    """Delay measurement for one reconfiguration request."""

    request_time: float
    apply_times: dict[str, float] = field(default_factory=dict)
    delay: float = math.inf
    completed: bool = False
    plan: ReconfigPlan | None = None


def start_plan(
    sim: Simulator, plan: ReconfigPlan, scope: str, at: float, ckpt_id: int | None = None
) -> None:
    """Start ``plan``: per component, one marker scoped to its logical
    edges (scope id ``{scope}-{index}``), delivered at ``at`` by a
    ``start_markers`` FCM to every worker of the component's heads."""
    for idx, (comp, heads) in enumerate(zip(plan.component_list, plan.heads)):
        marker = EpochMarker(
            scope_id=f"{scope}-{idx}",
            edges=comp.edges,
            reconfig_workers=sim.reconfig_workers(plan.reconfig_ops & comp.vertices),
            ckpt_id=ckpt_id,
        )
        for op in heads:
            for w in sim.by_op[op]:
                sim.send_fcm(w.name, FCM("start_markers", marker), at=at)


class PlanScheduler:
    """Executes a :class:`ReconfigPlan`; subclasses say which plan."""

    def __init__(self) -> None:
        self.plan: ReconfigPlan | None = None

    def make_plan(self, sim: Simulator, reconfig_ops: set[str]) -> ReconfigPlan:
        raise NotImplementedError

    def request(self, sim: Simulator, reconfig_ops: set[str], t: float) -> None:
        self.plan = self.make_plan(sim, set(reconfig_ops))
        start_plan(sim, self.plan, str(t), t + sim.spec.fcm_latency)

    def result(self, sim: Simulator, t: float) -> ReconfigResult:
        workers = sim.reconfig_workers(self.plan.reconfig_ops)
        times = {w: sim.apply_times[w] for w in workers if w in sim.apply_times}
        stale = sorted(w for w, at in times.items() if at < t)
        if stale:
            # Workers apply a reconfiguration only once, so a second request
            # would otherwise be measured with the first one's apply times.
            raise RuntimeError(
                f"workers {stale} applied before the request at t={t}: "
                "repeated reconfigurations of a worker are not supported"
            )
        done = len(times) == len(workers)
        return ReconfigResult(
            request_time=t,
            apply_times=times,
            delay=(max(times.values()) - t) if done else math.inf,
            completed=done,
            plan=self.plan,
        )


class FriesScheduler(PlanScheduler):
    """Fries runtime (§5.3/§6.2/§6.3/§7.2).

    The plan (MCS, components, heads) is computed on the *logical* DAG with
    the broadcast adjustment — the §6.3 pruning rules are defined on
    logical edges (a hash edge's p² channels implement one logical edge) —
    and executed at the worker level: FCMs go to every worker of each head
    operator, and epoch markers propagate on the worker channels of the
    component's edges, exactly as the paper's Flink implementation (§8.1).
    """

    def __init__(self, *, prune: bool = True) -> None:
        super().__init__()
        self.prune = prune

    def make_plan(self, sim: Simulator, reconfig_ops: set[str]) -> ReconfigPlan:
        return plan_general(effective_logical_dag(sim.spec), reconfig_ops, prune=self.prune)


class EpochScheduler(PlanScheduler):
    """EBR baseline: new epoch at every source, global alignment."""

    def make_plan(self, sim: Simulator, reconfig_ops: set[str]) -> ReconfigPlan:
        return plan_epoch(sim.spec.dag, reconfig_ops)


class SavepointScheduler(PlanScheduler):
    """Flink savepoint + stop-and-restart: EBR delay at the *sinks* (the
    whole old epoch must drain) plus a fixed stop/restart overhead."""

    def __init__(self, stop_restart_cost: float = 10.0) -> None:
        super().__init__()
        self.stop_restart_cost = stop_restart_cost

    def make_plan(self, sim: Simulator, reconfig_ops: set[str]) -> ReconfigPlan:
        # The savepoint must cover every operator, so the marker also
        # targets the sinks: their apply time marks epoch completion.
        return plan_epoch(sim.spec.dag, reconfig_ops | set(sim.spec.dag.sinks()))

    def result(self, sim: Simulator, t: float) -> ReconfigResult:
        r = super().result(sim, t)
        if r.completed:
            r.delay += self.stop_restart_cost
        return r


class NaiveFCMScheduler(PlanScheduler):
    """§4.1 naive scheduler: FCM directly to each reconfiguration worker —
    a plan with one marker-free singleton component per operator."""

    def make_plan(self, sim: Simulator, reconfig_ops: set[str]) -> ReconfigPlan:
        ops = sorted(reconfig_ops)
        return ReconfigPlan(
            reconfig_ops=frozenset(ops),
            m=frozenset(ops),
            mcs=SubDAG(frozenset(ops)),
            component_list=tuple(SubDAG(frozenset({o})) for o in ops),
            heads=tuple((o,) for o in ops),
        )


class MultiVersionScheduler:
    """§4.1 FCM multi-version scheduler.

    All workers get a "register" FCM (they will honour per-tuple version
    tags); after an ack round-trip the sources bump their version and tag
    subsequent tuples v2. The reconfiguration is complete when no
    reconfiguration worker will ever process a v1 tuple again — measured
    post-hoc as the last v1 data operation on a reconfiguration worker.
    """

    def request(self, sim: Simulator, reconfig_ops: set[str], t: float) -> None:
        self._workers = sim.reconfig_workers(reconfig_ops)
        for w in sim.workers:
            sim.send_fcm(w, FCM("register"), at=t + sim.spec.fcm_latency)
        # Version bump after every registration acked (one more RTT).
        t_bump = t + 3 * sim.spec.fcm_latency
        for op in sim.spec.dag.sources():
            for w in sim.by_op[op]:
                sim.send_fcm(w.name, FCM("bump_version"), at=t_bump)

    def result(self, sim: Simulator, t: float) -> ReconfigResult:
        last_v1: dict[str, float] = {w: t for w in self._workers}
        seen_v2: set[str] = set()
        for when, worker, _txn, version in sim.data_log:
            if worker in last_v1 and when >= t:
                if version <= 1:
                    last_v1[worker] = max(last_v1[worker], when)
                else:
                    seen_v2.add(worker)
        done = seen_v2 >= self._workers
        delay = (max(last_v1.values()) - t) if done else math.inf
        return ReconfigResult(
            request_time=t,
            apply_times=dict(last_v1) if done else {},
            delay=delay,
            completed=done,
        )


def run_reconfig_experiment(
    sim: Simulator,
    scheduler,
    reconfig_ops: set[str],
    *,
    t_request: float,
    t_end: float,
    step: float | None = None,
) -> ReconfigResult:
    """Warm the engine up to ``t_request``, issue the reconfiguration, then
    run in steps of ``step`` (default: one step to ``t_end``) until it
    completes or ``t_end`` is reached, and return the measured delay."""
    sim.start()
    sim.run(until=t_request)
    scheduler.request(sim, reconfig_ops, t_request)
    t = t_request
    while True:
        t = t_end if step is None else min(t + step, t_end)
        sim.run(until=t)
        r = scheduler.result(sim, t_request)
        if r.completed or t >= t_end:
            return r
