"""The committed tables in ``benchmarks/out`` must still be what the code
produces: Table 7 in full, the planner columns (MCS, longest path) of
every Table 4, 5 and 6 row, and the W2 {J1, J4} row of Table 4 (its
Fries and Epoch delays) at the benchmark's settings. The files are only
read, never written."""
import pathlib

from repro.engine.schedulers import EpochScheduler, FriesScheduler
from repro.experiments import (
    PAPER_TABLE4,
    PAPER_TABLE5,
    PAPER_TABLE6,
    format_table,
    mcs_desc,
    plan_of,
    run_delay,
    table7_rows,
)
from repro.workflows import defs

OUT = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "out"


def committed_row(file: str, **match: str) -> dict[str, str]:
    """One row of a committed ``format_table`` file, as printed."""
    lines = (OUT / file).read_text().splitlines()
    header = [c.strip() for c in lines[1].split("|")]
    for line in lines[3:]:
        row = dict(zip(header, (c.strip() for c in line.split("|"))))
        if all(row[k] == v for k, v in match.items()):
            return row
    raise LookupError(f"no row {match} in {file}")


def printed(value) -> str:
    """A single cell as ``format_table`` prints it."""
    return format_table([{"v": value}], "").splitlines()[-1].strip()


def test_table7_identical():
    committed = (OUT / "table7.txt").read_text()
    assert format_table(table7_rows(), committed.splitlines()[0]) == committed


def committed_rows(file: str) -> int:
    """The number of rows in a committed ``format_table`` file."""
    return len((OUT / file).read_text().splitlines()) - 3


def test_table4_planner_columns_identical():
    # The workflows of benchmarks/bench_table4.py (rates do not affect plans).
    builders = {
        "W2": lambda: defs.w2(parallelism=4, rate=8000.0),
        "W3": lambda: defs.w3(parallelism=4, rate=6000.0),
    }
    assert committed_rows("table4.txt") == len(PAPER_TABLE4)
    for wf, ops, *_ in PAPER_TABLE4:
        row = committed_row("table4.txt", workflow=wf, reconfig_ops=", ".join(ops))
        plan = plan_of(builders[wf](), set(ops))
        assert mcs_desc(plan) == row["mcs"], (wf, ops)
        assert printed(plan.longest_path_length()) == row["longest_path"], (wf, ops)


def test_table5_planner_columns_identical():
    spec = defs.w4(parallelism=4, rate=40.0, fanout=12)
    assert committed_rows("table5.txt") == len(PAPER_TABLE5)
    for ops, *_ in PAPER_TABLE5:
        row = committed_row("table5.txt", reconfig_ops=", ".join(ops))
        plan = plan_of(spec, set(ops))
        assert mcs_desc(plan) == row["mcs"], ops
        assert printed(plan.longest_path_length()) == row["longest_path"], ops


def test_table6_planner_columns_identical():
    spec = defs.w5(parallelism=4, rate=300.0)
    assert committed_rows("table6.txt") == len(PAPER_TABLE6)
    for ops, *_ in PAPER_TABLE6:
        row = committed_row("table6.txt", reconfig_ops=", ".join(ops))
        assert mcs_desc(plan_of(spec, set(ops), prune=True)) == row["mcs_pruned"], ops
        assert mcs_desc(plan_of(spec, set(ops), prune=False)) == row["mcs_unpruned"], ops


def test_table4_w2_j1_j4_identical():
    # The settings of benchmarks/bench_table4.py.
    ops = {"J1", "J4"}

    def build():
        return defs.w2(parallelism=4, rate=8000.0)

    row = committed_row("table4.txt", workflow="W2", reconfig_ops="J1, J4")
    plan = plan_of(build(), ops)
    assert mcs_desc(plan) == row["mcs"]
    assert printed(plan.longest_path_length()) == row["longest_path"]
    for scheduler, column in ((FriesScheduler(), "fries_ms"), (EpochScheduler(), "epoch_ms")):
        delay = run_delay(build, scheduler, ops, warmup=12.0, t_max=300.0)
        assert printed(delay) == row[column], column
