"""Simulator workloads: ``table4-p4`` and ``w5-recorded``.

Each experiment follows ``repro.experiments.run_delay`` step for step (the
same warm-up, step and ``t_max`` as the Table 4/6 harness), but builds the
spec and the ``Simulator`` itself so that set-up is timed apart from the
run. Experiments are issued as a closed loop with one client: the next
one starts only after the previous one has returned its delay.
"""
from __future__ import annotations

import gc
import math
import pathlib
import statistics
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.core import serializability
from repro.engine.schedulers import EpochScheduler, FriesScheduler
from repro.engine.simulator import Simulator
from repro.engine.workload import WorkflowSpec
from repro.workflows import defs

TABLES = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "out"
REFERENCE_SEED = 7  # the seed the committed tables were generated with
# Extra timed set-ups of a whole round, spread over each measured round.
# The host's CPU speed flips between two levels every few seconds, so the
# samples are spread out and averaged: a median of samples taken close
# together snaps to whichever level held at that moment.
SETUP_SAMPLES = 16
WARMUP = (
    "untimed: one simulated second of the first experiment's dataflow "
    "before the measured rounds"
)

# Loop parameters of the Table 4 and Table 6 harnesses (repro.experiments).
TABLE4_LOOP = {"warmup": 12.0, "t_max": 300.0, "step": 5.0}
TABLE6_LOOP = {"warmup": 60.0, "t_max": 2000.0, "step": 10.0}


@dataclass(frozen=True)
class Experiment:
    """One reconfiguration request on one freshly built dataflow.

    ``cell`` names the committed delay this experiment reproduces at the
    reference seed: (table file, {column: value} row match, column).
    """

    name: str
    build: Callable[[], WorkflowSpec]
    scheduler: Callable[[], object]
    ops: frozenset[str]
    warmup: float
    t_max: float
    step: float
    record: str = "none"
    cell: tuple[str, dict[str, str], str] | None = None


@dataclass(frozen=True)
class Workload:
    experiments: tuple[Experiment, ...]
    # (faster, slower) experiment pairs on the same request: Fries vs EBR,
    # or pruned vs unpruned Fries.
    ordered_pairs: tuple[tuple[str, str], ...]


def _w2_p4() -> WorkflowSpec:
    return defs.w2(parallelism=4, rate=8000.0)


def _w3_p4() -> WorkflowSpec:
    return defs.w3(parallelism=4, rate=8000.0 * 0.75)


def _w5_p4() -> WorkflowSpec:
    return defs.w5(parallelism=4, rate=300.0)


def _table4(name, build, scheduler, ops, workflow, column) -> Experiment:
    row = {"workflow": workflow, "reconfig_ops": ", ".join(sorted(ops))}
    return Experiment(
        name, build, scheduler, frozenset(ops), **TABLE4_LOOP,
        cell=("table4.txt", row, column),
    )


def _w5(name, prune, column) -> Experiment:
    return Experiment(
        name, _w5_p4, partial(FriesScheduler, prune=prune), frozenset({"FD4"}),
        **TABLE6_LOOP, record="all",
        cell=("table6.txt", {"reconfig_ops": "FD4"}, column),
    )


WORKLOADS: dict[str, Workload] = {
    "table4-p4": Workload(
        (
            _table4("w2_fries", _w2_p4, FriesScheduler, {"J1", "J4"}, "W2", "fries_ms"),
            _table4("w2_ebr", _w2_p4, EpochScheduler, {"J1", "J4"}, "W2", "epoch_ms"),
            _table4("w3_fries", _w3_p4, FriesScheduler, {"J7", "J8", "J9"}, "W3", "fries_ms"),
            _table4("w3_ebr", _w3_p4, EpochScheduler, {"J7", "J8", "J9"}, "W3", "epoch_ms"),
        ),
        (("w2_fries", "w2_ebr"), ("w3_fries", "w3_ebr")),
    ),
    "w5-recorded": Workload(
        (_w5("w5_pruned", True, "pruned_ms"), _w5("w5_unpruned", False, "unpruned_ms")),
        (("w5_pruned", "w5_unpruned"),),
    ),
}


def _set_up(exp: Experiment, seed: int, tracer) -> Simulator:
    with tracer.span("setup.spec"):
        spec = exp.build()
        spec.seed = seed
    with tracer.span("engine.init"):
        sim = Simulator(spec, record=exp.record)
    tracer.count_events(sim)
    return sim


def _run_experiment(exp: Experiment, seed: int, tracer) -> dict:
    """Set up, warm up, request, step until the reconfiguration completes
    (or ``t_max``); then check the recorded schedule, if any."""
    t0 = time.perf_counter()
    sim = _set_up(exp, seed, tracer)
    t1 = time.perf_counter()
    scheduler = exp.scheduler()
    run_s = 0.0

    def run(until: float) -> None:
        nonlocal run_s
        start = time.perf_counter()
        with tracer.span("engine.run"):
            sim.run(until=until)
        run_s += time.perf_counter() - start

    with tracer.span("engine.start"):
        sim.start()
    run(exp.warmup)
    backlog = sum(ch.data_load() for ch in sim.channels)
    with tracer.span("engine.request"):
        scheduler.request(sim, set(exp.ops), exp.warmup)
    delay = math.inf
    t = exp.warmup
    while t < exp.t_max:
        t = min(t + exp.step, exp.t_max)
        run(t)
        with tracer.span("engine.result"):
            r = scheduler.result(sim, exp.warmup)
        if r.completed:
            delay = r.delay * 1000.0
            break
    outputs = {
        "delay_ms": delay,
        "source_tuples": sum(w.processed for w in sim.workers.values() if w.op.kind == "source"),
        "tuples_processed": sum(
            w.processed for w in sim.workers.values() if w.op.kind != "source"
        ),
        "backlog_at_request": backlog,
    }
    if exp.record != "none":
        with tracer.span("core.check"):
            verdict = serializability.check(sim.schedule_log)
            mixed = serializability.mixed_version_transactions(sim.schedule_log)
        outputs["schedule_ops"] = len(sim.schedule_log)
        outputs["serializable"] = verdict.serializable
        outputs["mixed_txns"] = len(mixed)
    end = time.perf_counter()
    return {"setup_s": t1 - t0, "wall_s": end - t1, "run_s": run_s, "outputs": outputs}


def _committed_cell(cell: tuple[str, dict[str, str], str]) -> str:
    """The committed value of one table cell, as printed."""
    file, match, column = cell
    lines = (TABLES / file).read_text().splitlines()
    header = [c.strip() for c in lines[1].split("|")]
    for line in lines[3:]:
        row = dict(zip(header, (c.strip() for c in line.split("|"))))
        if all(row.get(k) == v for k, v in match.items()):
            return row[column]
    raise LookupError(f"no row {match} in {file}")


def _check_round(workload: Workload, outputs: dict[str, dict], seed: int) -> list[tuple[str, bool, str]]:
    checks = []
    for exp in workload.experiments:
        out = outputs[exp.name]
        d = out["delay_ms"]
        checks.append((f"{exp.name}.delay_finite_nonneg", math.isfinite(d) and d >= 0, repr(d)))
        if exp.cell is not None and seed == REFERENCE_SEED:
            want = _committed_cell(exp.cell)
            got = f"{d:,.0f}" if math.isfinite(d) else "inf"
            checks.append((f"{exp.name}.matches_{exp.cell[0]}", got == want, f"{got} vs {want}"))
        if "serializable" in out:
            checks.append((f"{exp.name}.serializable", out["serializable"], ""))
            checks.append((f"{exp.name}.no_mixed_txns", out["mixed_txns"] == 0, str(out["mixed_txns"])))
    for fast, slow in workload.ordered_pairs:
        a, b = outputs[fast]["delay_ms"], outputs[slow]["delay_ms"]
        checks.append((f"{fast}<={slow}", a <= b, f"{a!r} vs {b!r}"))
    return checks


def run(name: str, seed: int, seconds: float, tracer) -> dict:
    """Warm up, then run measured rounds of every experiment for
    ``seconds`` (at least one round), timing extra set-ups between them.

    ``wall_s`` sums each experiment's median over the rounds, and
    ``sim_tuples_per_s`` divides by the sum of each one's median run time,
    so a slow spell of the host that catches one experiment in one round
    moves neither."""
    workload = WORKLOADS[name]
    exps = workload.experiments
    # A fresh process runs its first experiment 10-35% slower.
    tracer.set_context(round_index=None, experiment="warmup")
    warm = _set_up(exps[0], seed, tracer)
    warm.start()
    warm.run(until=1.0)
    del warm

    def time_setups() -> None:
        """Time extra set-ups of every experiment; keep nothing they build."""
        tracer.set_context(round_index=None, experiment="setup")
        for _ in range(-(-SETUP_SAMPLES // (len(exps) + 1))):
            total = 0.0
            for exp in exps:
                gc.collect()
                t0 = time.perf_counter()
                _set_up(exp, seed, tracer)
                total += time.perf_counter() - t0
            setup_samples.append(total)

    setup_samples: list[float] = []
    rounds = []
    checks = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        r = len(rounds)
        per_exp = {}
        for exp in exps:
            time_setups()
            tracer.set_context(round_index=r, experiment=f"r{r}.{exp.name}")
            gc.collect()  # only the set-up samples' garbage is left here
            with tracer.span("experiment"):
                per_exp[exp.name] = _run_experiment(exp, seed, tracer)
            # The finished Simulator is cyclic garbage; freeing it counts
            # towards this experiment's wall time.
            t0 = time.perf_counter()
            with tracer.span("experiment.gc"):
                gc.collect()
            per_exp[exp.name]["wall_s"] += time.perf_counter() - t0
        time_setups()
        outputs = {k: v["outputs"] for k, v in per_exp.items()}
        checks += _check_round(workload, outputs, seed)
        if rounds:
            checks.append((f"round{r}.outputs_repeat", outputs == rounds[0]["outputs"], ""))
        rounds.append({"outputs": outputs, "times": per_exp})
    setup_samples += [sum(v["setup_s"] for v in r["times"].values()) for r in rounds]

    def median(exp, key):
        return statistics.median(r["times"][exp.name][key] for r in rounds)

    source_tuples = sum(o["source_tuples"] for o in rounds[0]["outputs"].values())
    end_to_end = {
        "wall_s": sum(median(e, "wall_s") for e in exps),
        "setup_s": statistics.fmean(setup_samples),
        "sim_tuples_per_s": source_tuples / sum(median(e, "run_s") for e in exps),
    }
    per_layer = {}
    if tracer.enabled:
        per_layer = _per_layer(tracer, rounds)
    return {
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "outputs": rounds[0]["outputs"],
        "checks": checks,
        "rounds": len(rounds),
    }


def _per_layer(tracer, rounds: list[dict]) -> dict[str, float]:
    """Per-layer numbers of each measured round; the median over rounds."""
    per_round = []
    for r, rnd in enumerate(rounds):
        st = tracer.self_times(r)
        counts = tracer.counts[r]
        outs = rnd["outputs"].values()
        events = counts["engine.events"]
        processed = sum(o["tuples_processed"] for o in outs)
        m = {
            "core.expand_s": st["core.expand"],
            "core.worker_edges": counts["core.worker_edges"],
            "core.plan_s": st["core.plan"],
            "core.check_s": st["core.check"],
            "core.schedule_ops": sum(o.get("schedule_ops", 0) for o in outs),
            "engine.init_s": st["engine.init"],
            "engine.run_s": st["engine.run"],
            "engine.events": events,
            "engine.events_per_s": events / st["engine.run"],
            "engine.events_per_tuple": events / processed,
            "engine.request_s": st["engine.request"],
            "engine.source_tuples": sum(o["source_tuples"] for o in outs),
            "engine.tuples_processed": processed,
            "engine.backlog_at_request": sum(o["backlog_at_request"] for o in outs),
        }
        for name, o in rnd["outputs"].items():
            m[f"engine.sim_delay_ms.{name}"] = o["delay_ms"]
        per_round.append(m)
    return {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
