"""Determinism of simulated runs: recording must not perturb a run, and a
run must not depend on the process's string-hash seed."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from repro.core.transactions import DataOp
from repro.engine.schedulers import FriesScheduler, run_reconfig_experiment
from repro.engine.simulator import Simulator
from repro.workflows import defs

SRC = Path(__file__).resolve().parent.parent / "src"
W2_CHAIN = ["src", "J1", "J2", "J3", "J4", "sink"]


def w2_fries(record: str, *, parallelism: int, rate: float, t_request: float):
    sim = Simulator(
        defs.w2(parallelism=parallelism, rate=rate),
        record=record,
        watched_ops={"J1", "J4"},
        sink_log=True,
    )
    res = run_reconfig_experiment(
        sim, FriesScheduler(), {"J1", "J4"}, t_request=t_request, t_end=10.0, step=0.5
    )
    return sim, res


class TestRecordingDoesNotPerturb:
    def runs(self):
        return {
            rec: w2_fries(rec, parallelism=2, rate=4000.0, t_request=1.0)
            for rec in ("none", "watched", "all")
        }

    def test_same_run_in_every_record_mode(self):
        runs = self.runs()
        ref_sim, ref_res = runs["none"]
        assert ref_res.completed and ref_res.delay > 0
        for rec, (sim, res) in runs.items():
            assert res.delay == ref_res.delay, rec
            assert res.apply_times == ref_res.apply_times, rec
            assert {w: x.processed for w, x in sim.workers.items()} == {
                w: x.processed for w, x in ref_sim.workers.items()
            }, rec
            assert sim.sink_log == ref_sim.sink_log, rec
        assert len(runs["none"][0].schedule_log) == 0
        # "watched" logs exactly the watched workers' part of "all".
        watched = [
            op for op in runs["all"][0].schedule_log
            if op.operator.rsplit("#", 1)[0] in {"J1", "J4"}
        ]
        assert list(runs["watched"][0].schedule_log) == watched

    def test_tuple_ids_follow_lineage(self):
        sim, _ = w2_fries("all", parallelism=2, rate=4000.0, t_request=1.0)
        data = [op for op in sim.schedule_log if isinstance(op, DataOp)]
        assert len(data) > 1000
        assert len({(op.txn, op.operator, op.tuple_id) for op in data}) == len(data)
        for op in data:
            head, *segments = op.tuple_id.split("/")
            assert head == f"t{op.txn}", op
            # One segment per upstream emitter, along the W2 chain.
            k = W2_CHAIN.index(op.operator.rsplit("#", 1)[0])
            assert [s.split("#")[0] for s in segments] == W2_CHAIN[1:k], op
            assert all(re.fullmatch(r"J\d#\d+\.\d+", s) for s in segments), op


# Runs one W2 p = 4 {J1, J4} Fries request and prints what it measured,
# including every event the simulator scheduled.
CHILD = """
import json
from repro.engine.schedulers import FriesScheduler, run_reconfig_experiment
from repro.engine.simulator import Simulator
from repro.workflows import defs

sim = Simulator(defs.w2(parallelism=4, rate=8000.0), record="none")
events = 0
inner = sim.schedule

def schedule(t, fn, *args):
    global events
    events += 1
    inner(t, fn, *args)

sim.schedule = schedule
res = run_reconfig_experiment(
    sim, FriesScheduler(), {"J1", "J4"}, t_request=2.0, t_end=10.0, step=0.5
)
print(json.dumps({
    "delay": res.delay,
    "processed": {w: x.processed for w, x in sim.workers.items()},
    "events": events,
}))
"""


def test_runs_repeat_across_processes_and_hash_seeds():
    outs = []
    for hash_seed in ("1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        outs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    a, b = outs
    assert a["delay"] > 0 and a["events"] > 100_000
    assert a == b
