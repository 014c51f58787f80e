"""In-memory span tracing for the benchmark.

A span records a name, start and end (``time.perf_counter`` seconds), the
span that enclosed it, the measured round and the experiment it belongs
to. Spans stay in memory and are written out once, when the run ends.

``NullTracer`` is what untraced runs use: its ``span`` does no timing and
records nothing, so the end-to-end metrics are taken without tracing.
``Tracer.instrument`` wraps calls that happen *inside* the program
(``parallel.expand`` as called by ``Simulator.__init__``, ``plan_general``
as called by ``FriesScheduler.request``) for the duration of a traced run
and restores them afterwards; ``Tracer.count_events`` wraps one
``Simulator`` instance's ``schedule`` method to count engine events.
"""
from __future__ import annotations

import itertools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Tracing off: every hook is a no-op."""

    enabled = False

    def span(self, name: str):
        return nullcontext()

    def set_context(self, *, round_index: int | None, experiment: str | None) -> None:
        pass

    def count_events(self, sim) -> None:
        pass

    @contextmanager
    def instrument(self):
        yield


class Tracer(NullTracer):
    """Tracing on: spans and counters, kept per measured round."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[int | None, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._round: int | None = None
        self._experiment: str | None = None

    def set_context(self, *, round_index: int | None, experiment: str | None) -> None:
        """Tag the spans and counts that follow. ``round_index`` None marks
        work outside the measured rounds (warm-up, extra set-ups)."""
        self._round = round_index
        self._experiment = experiment

    @contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        record = {
            "id": sid,
            "name": name,
            "parent": parent,
            "round": self._round,
            "experiment": self._experiment,
        }
        self._stack.append(sid)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[self._round][name] += n

    def count_events(self, sim) -> None:
        """Count every event the simulator schedules (per-event wrapper on
        this instance only; the class is untouched)."""
        inner = sim.schedule
        counter = self.counts[self._round]

        def schedule(t, fn, *args):
            counter["engine.events"] += 1
            inner(t, fn, *args)

        sim.schedule = schedule

    @contextmanager
    def instrument(self):
        """Wrap the in-program call sites for the duration of the block."""
        import repro.engine.schedulers as schedulers
        import repro.engine.simulator as simulator

        orig_expand, orig_plan = simulator.expand, schedulers.plan_general

        def expand(*args, **kwargs):
            with self.span("core.expand"):
                pdf = orig_expand(*args, **kwargs)
            self.count("core.worker_edges", len(pdf.dag.edges))
            return pdf

        def plan_general(*args, **kwargs):
            with self.span("core.plan"):
                return orig_plan(*args, **kwargs)

        simulator.expand, schedulers.plan_general = expand, plan_general
        try:
            yield
        finally:
            simulator.expand, schedulers.plan_general = orig_expand, orig_plan

    # -- reading the trace ---------------------------------------------
    def self_times(self, round_index: int) -> dict[str, float]:
        """Per span name, the summed self time (duration minus the part
        covered by child spans) within one measured round."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s["round"] == round_index:
                out[s["name"]] += s["end"] - s["start"] - child_time[s["id"]]
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s in sorted(self.spans, key=lambda s: s["id"]):
                f.write(json.dumps(s) + "\n")
