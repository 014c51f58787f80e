"""Marker-protocol tests: FIFO ordering behind data, epoch alignment,
scope filtering, checkpoint markers, FCM bypass, and multi-version
tagging."""
from collections import Counter

import pytest

from repro.core.dag import DAG
from repro.engine import (
    Channel,
    CheckpointCoordinator,
    EpochMarker,
    EpochScheduler,
    FriesScheduler,
    KeyDist,
    MultiVersionScheduler,
    OpSpec,
    SavepointScheduler,
    Simulator,
    Worker,
    WorkflowSpec,
    run_reconfig_experiment,
)
from repro.workflows import defs


def slow_chain(cost=0.02, n=200) -> WorkflowSpec:
    dag = DAG.from_edges([("src", "A"), ("A", "B"), ("B", "sink")])
    ops = {
        "src": OpSpec("src", kind="source", rate=500, n_tuples=n,
                      key_dist=KeyDist.uniform(16)),
        "A": OpSpec("A", kind="map", cost={1: cost, 2: 0.001}),
        "B": OpSpec("B", kind="map", cost={1: 0.001, 2: 0.001}),
        "sink": OpSpec("sink", kind="sink"),
    }
    return WorkflowSpec(dag=dag, ops=ops)


class TestMarkerFIFO:
    def test_marker_waits_behind_inflight_data(self):
        """The epoch marker cannot overtake buffered tuples: A's apply time
        grows with A's backlog (the §3.2 delay source)."""
        delays = []
        for cost in (0.005, 0.02):
            sim = Simulator(slow_chain(cost=cost), record="none")
            res = run_reconfig_experiment(
                sim, EpochScheduler(), {"A"}, t_request=0.3, t_end=100.0
            )
            delays.append(res.delay)
        assert delays[1] > 2 * delays[0]

    def test_fcm_bypasses_data(self):
        """Def 4.1: the FCM reaches a backlogged operator in ~latency time."""
        spec = slow_chain(cost=0.05)
        sim = Simulator(spec, record="none")
        res = run_reconfig_experiment(
            sim, FriesScheduler(), {"A"}, t_request=0.3, t_end=100.0
        )
        assert res.delay < spec.fcm_latency + 0.06  # + one in-flight tuple

    def test_data_behind_marker_processed_with_new_config(self):
        """After the swap, A's remaining backlog is processed at the new
        (cheap) cost, so the run finishes much earlier than without swap."""
        sim1 = Simulator(slow_chain(), record="none", sink_log=True)
        run_reconfig_experiment(sim1, FriesScheduler(), {"A"}, t_request=0.1, t_end=10_000)
        sim1.run()
        end_with_swap = max(t for t, _, _ in sim1.sink_log)
        sim2 = Simulator(slow_chain(), record="none", sink_log=True)
        sim2.start()
        sim2.run()
        end_without = max(t for t, _, _ in sim2.sink_log)
        assert end_with_swap < end_without


class TestAlignment:
    def two_path_spec(self) -> WorkflowSpec:
        # src -> {fast, slow} -> join-point M -> sink; M must align markers
        # from both branches.
        dag = DAG.from_edges(
            [("src", "RE"), ("RE", "fast"), ("RE", "slow"), ("fast", "M"),
             ("slow", "M"), ("M", "sink")],
            edgewise_one_to_one=["RE"],
        )
        ops = {
            "src": OpSpec("src", kind="source", rate=200, n_tuples=150,
                          key_dist=KeyDist.uniform(16)),
            "RE": OpSpec("RE", kind="replicate"),
            "fast": OpSpec("fast", kind="map", cost={1: 0.0005}),
            "slow": OpSpec("slow", kind="map", cost={1: 0.02}),
            "M": OpSpec("M", kind="selfjoin", arity=2),
            "sink": OpSpec("sink", kind="sink"),
        }
        return WorkflowSpec(dag=dag, ops=ops)

    def test_alignment_waits_for_slowest_branch(self):
        """M applies only after the marker traverses the *slow* branch —
        the straggler effect of §8.3."""
        sim = Simulator(self.two_path_spec(), record="none")
        sched = FriesScheduler(prune=False)
        res = run_reconfig_experiment(sim, sched, {"M"}, t_request=0.4, t_end=200.0)
        assert res.completed
        # Far more than the fast branch would need (~ms): the slow branch
        # backlog (~0.4s × 200/s × 20ms = seconds) dominates.
        assert res.delay > 0.5

    def test_pruned_plan_skips_alignment(self):
        # With pruning M is NOT synchronized with RE... M is a selfjoin
        # without unique flag? It has arity 2 (receives both replicas), so
        # pruning must NOT fire (both RE edges reach M). Verify that.
        sim = Simulator(self.two_path_spec(), record="none")
        sched = FriesScheduler(prune=True)
        res = run_reconfig_experiment(sim, sched, {"M"}, t_request=0.4, t_end=200.0)
        assert set(sched.plan.component_list[0].vertices) == {"RE", "fast", "slow", "M"}
        assert res.delay > 0.5

    def test_consistency_under_alignment(self):
        from repro.core import check

        sim = Simulator(self.two_path_spec(), record="watched", watched_ops={"M"})
        res = run_reconfig_experiment(
            sim, FriesScheduler(prune=False), {"M"}, t_request=0.4, t_end=200.0
        )
        assert res.completed
        assert check(sim.schedule_log).serializable


def count_marker_sends(monkeypatch) -> Counter:
    """Count, per channel, the epoch markers sent on it from now on."""
    sends: Counter = Counter()
    send = Channel.send

    def counting_send(ch, msg):
        if isinstance(msg, EpochMarker):
            sends[ch] += 1
        send(ch, msg)

    monkeypatch.setattr(Channel, "send", counting_send)
    return sends


def w2_p3() -> Simulator:
    """W2 at p = 3: 9 channels per hash edge, 3 on the forward J4 → sink
    edge, 39 in all."""
    return Simulator(defs.w2(parallelism=3, rate=600.0), record="none")


class TestLogicalEdgeScope:
    """A marker's scope is a set of logical edges; it reaches every worker
    channel of an in-scope edge exactly once and no other channel."""

    def run_counting(self, monkeypatch, scheduler, ops):
        sends = count_marker_sends(monkeypatch)
        sim = w2_p3()
        res = run_reconfig_experiment(sim, scheduler, ops, t_request=1.0, t_end=30.0)
        assert res.completed
        by_edge: dict = {}
        for ch in sim.channels:
            by_edge.setdefault(ch.edge, []).append(sends[ch])
        return res, by_edge

    def test_fries_markers_only_on_component_edges(self, monkeypatch):
        _, by_edge = self.run_counting(monkeypatch, FriesScheduler(), {"J1", "J4"})
        for e in (("J1", "J2"), ("J2", "J3"), ("J3", "J4")):
            assert by_edge[e] == [1] * 9, e
        assert by_edge[("src", "J1")] == [0] * 9
        assert by_edge[("J4", "sink")] == [0] * 3

    def test_epoch_markers_on_every_channel(self, monkeypatch):
        _, by_edge = self.run_counting(monkeypatch, EpochScheduler(), {"J1", "J4"})
        assert by_edge[("J4", "sink")] == [1] * 3
        assert all(counts == [1] * len(counts) for counts in by_edge.values())
        assert sum(map(len, by_edge.values())) == 4 * 9 + 3

    def test_savepoint_sinks_apply(self, monkeypatch):
        res, _ = self.run_counting(
            monkeypatch, SavepointScheduler(stop_restart_cost=1.0), {"J1", "J4"}
        )
        assert {"sink#0", "sink#1", "sink#2"} <= set(res.apply_times)


class TestCheckpointMarkers:
    """A §7.3 checkpoint is the EBR plan with a snapshot in place of an
    apply: its marker reaches every worker channel exactly once, and it
    aligns in the same per-scope table as a concurrent reconfiguration,
    both completing and leaving no channel blocked."""

    def test_checkpoint_marker_on_every_channel_once(self, monkeypatch):
        sends = count_marker_sends(monkeypatch)
        snapshots: Counter = Counter()
        log_snapshot = Simulator.log_snapshot

        def counting_snapshot(sim, ckpt_id, worker_name, version):
            snapshots[worker_name] += 1
            log_snapshot(sim, ckpt_id, worker_name, version)

        monkeypatch.setattr(Simulator, "log_snapshot", counting_snapshot)
        sim = w2_p3()
        coord = CheckpointCoordinator(sim)
        sim.start()
        sim.run(until=1.0)
        cid = coord.start_checkpoint(1.0)
        sim.run(until=10.0)
        assert len(sim.channels) == 4 * 9 + 3
        assert [sends[ch] for ch in sim.channels] == [1] * len(sim.channels)
        assert snapshots == Counter(set(sim.workers))
        assert cid in coord.valid_snapshots()

    @pytest.mark.parametrize("scheduler", [EpochScheduler, FriesScheduler])
    def test_checkpoint_aligns_beside_a_reconfiguration(self, monkeypatch, scheduler):
        # When each marker is popped, and whether it is a checkpoint's.
        popped: list[tuple[float, bool]] = []
        on_marker = Worker._on_marker

        def recording_on_marker(w, ch, marker):
            popped.append((w.sim.now, marker.ckpt_id is not None))
            on_marker(w, ch, marker)

        monkeypatch.setattr(Worker, "_on_marker", recording_on_marker)
        sim = w2_p3()
        coord = CheckpointCoordinator(sim)
        sched = scheduler()
        sim.start()
        sim.run(until=1.0)
        cid = coord.start_checkpoint(1.0)
        sched.request(sim, {"J1", "J4"}, 1.0)
        sim.run(until=10.0)
        # The two scopes' markers go through the alignment table together.
        first_reconfig = min(t for t, ckpt in popped if not ckpt)
        assert first_reconfig < max(t for t, ckpt in popped if ckpt)
        assert set(sim.snapshots[cid]) == set(sim.workers)
        assert sched.result(sim, 1.0).completed
        assert not any(ch.blocked for ch in sim.channels)
        assert not any(w._aligning for w in sim.workers.values())


class TestMultiVersionTagging:
    def test_tuples_tagged_after_bump(self):
        spec = slow_chain(n=300)
        sim = Simulator(spec, record="watched", watched_ops={"A", "B"})
        res = run_reconfig_experiment(
            sim, MultiVersionScheduler(), {"A", "B"}, t_request=0.3, t_end=100.0
        )
        assert res.completed
        versions = {v for _, _, _, v in sim.data_log}
        assert versions == {1, 2}

    def test_old_tagged_tuples_use_old_config(self):
        """Tuples in flight at bump time keep version 1 end to end."""
        spec = slow_chain(n=300)
        sim = Simulator(spec, record="watched", watched_ops={"A", "B"})
        run_reconfig_experiment(
            sim, MultiVersionScheduler(), {"A", "B"}, t_request=0.3, t_end=100.0
        )
        # Per transaction: the set of versions used across A and B is a
        # singleton (that is the point of multi-version scheduling).
        by_txn: dict[int, set[int]] = {}
        for _, _, txn, v in sim.data_log:
            by_txn.setdefault(txn, set()).add(v)
        assert all(len(vs) == 1 for vs in by_txn.values())
