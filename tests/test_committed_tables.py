"""The committed tables in ``benchmarks/out`` must still be what the code
produces: Table 7 in full, and the W2 {J1, J4} row of Table 4 (its
Fries and Epoch delays) at the benchmark's settings. The files are only
read, never written."""
import pathlib

from repro.engine.schedulers import EpochScheduler, FriesScheduler
from repro.experiments import format_table, mcs_desc, plan_of, run_delay, table7_rows
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
