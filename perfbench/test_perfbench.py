"""Self-tests of the benchmark:  python3 -m pytest perfbench -q

They cover the span arithmetic, the failure accounting of the checks, and
the determinism of the generators.  The checks are exercised on small
instances run through the real CLI, so these tests also need ``src/``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import gen
import run
import spans

TINY = gen.Shape(6, (4, 2), 12, 3, "covers:tiny")


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(gen.SHAPES, "tiny", TINY)
    return gen.Instance("tiny", 3)


def cli(tmp_path: Path, *args: str) -> Path:
    out = tmp_path / "out.txt"
    with open(out, "wb") as fh:
        subprocess.run(
            [sys.executable, "-m", "vcgames", *args],
            stdout=fh,
            env=dict(os.environ, PYTHONPATH=str(run.ROOT / "src")),
            check=True,
        )
    return out


def corrupt(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def ok(child_code: int = 0) -> run.Child:
    return run.Child(child_code, 1.0)


# -- spans -------------------------------------------------------------------


SYNTHETIC = [
    ["a", -1, 0.0, 10.0, None],
    ["b", 0, 1.0, 4.0, None],
    ["c", 1, 2.0, 3.0, None],
    ["d", 0, 5.0, 6.0, {"rows": 7}],
    ["d", 0, 9.0, 12.0, {"rows": 3}],  # overruns its parent: clipped at 10
    ["e", -1, 20.0, 21.5, None],
]


def test_self_time_subtracts_children_once():
    assert spans.self_times(SYNTHETIC) == [10 - 3 - 1 - 1, 3 - 1, 1, 1, 3, 1.5]


def test_self_time_merges_overlapping_children():
    overlapping = [["p", -1, 0.0, 10.0, None], ["x", 0, 1.0, 5.0, None], ["y", 0, 3.0, 6.0, None]]
    assert spans.self_times(overlapping)[0] == 10 - 5


def test_layer_metrics_from_synthetic_spans():
    trace = [
        ["cli.import", -1, 0.0, 0.5, None],
        ["vcgame.best_response", -1, 1.0, 5.0, None],
        ["exactlp.maximize", 1, 1.5, 2.5, {"rows": 7, "cells": 70, "rhs_bits": 4}],
        ["exactlp.maximize", 1, 3.0, 3.5, {"rows": 31, "cells": 1200, "rhs_bits": 9}],
        ["market.demand", 1, 4.0, 4.25, {"subsets": 4096}],
    ]
    m = spans.layer_metrics(trace, {"pmvc.outcome": 3}, wall_s=6.0, bytes_out=100)
    assert m["cli.self_s"] == 6.0 - 0.5 - 4.0
    assert m["vcgame.best_response_self_s"] == 4.0 - 1.0 - 0.5 - 0.25
    assert m["exactlp.calls"] == 2 and m["exactlp.solve_s"] == 1.5
    assert (m["exactlp.rows_total"], m["exactlp.rows_max"]) == (38, 31)
    assert (m["exactlp.cells"], m["exactlp.rhs_bits_max"]) == (1270, 9)
    assert (m["market.demand_calls"], m["market.subsets_scanned"]) == (1, 4096)
    assert m["pmvc.outcome_calls"] == 3 and m["serialize.bytes_out"] == 100
    assert set(m) | {"trace.overhead_ratio"} == set(spans.LAYER_UNITS)


# -- generators ----------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(gen.SHAPES))
def test_generators_are_deterministic(workload):
    first = gen.Instance(workload, 11, 2).to_json()
    assert gen.Instance(workload, 11, 2).to_json() == first
    assert gen.Instance(workload, 12, 2).to_json() != first
    assert gen.Instance(workload, 11, 3).to_json() != first
    inst = gen.Instance(workload, 11, 2)
    assert [m.bit_count() for m in inst.vendors] == list(gen.SHAPES[workload].vendor_sizes)


def test_generated_values_are_monotone_submodular(tiny):
    v = tiny.values
    for s in range(1 << tiny.n):
        for a in range(tiny.n):
            if s >> a & 1:
                continue
            assert v[s | 1 << a] >= v[s]
            for b in range(tiny.n):
                if b != a and not s >> b & 1:
                    assert v[s | 1 << a] - v[s] >= v[s | 1 << a | 1 << b] - v[s | 1 << b]


def test_cents_and_rationals_render_like_the_program():
    from fractions import Fraction

    assert [gen.cents_text(c) for c in (0, 5, 120, 1230, -1205)] == ["0", "0.05", "1.2", "12.3", "-12.05"]
    assert [checks.format_q(Fraction(*q)) for q in ((3, 2), (137, 60), (-1, 8), (4, 1))] == [
        "1.5", "137/60", "-0.125", "4",
    ]


# -- checks and failure accounting ---------------------------------------------


def test_corrupted_poa_output_is_a_failed_operation(tmp_path):
    out = cli(tmp_path, "poa", "--gen", "harmonic:2,2")
    check = lambda inst, path: checks.check_poa(path, 2, 2)  # noqa: E731
    assert run.failure(ok(), out, check) is None
    corrupt(out, "{a1}|{b2}  welfare 2", "{a1}|{b2}  welfare 3")
    assert run.failure(ok(), out, check) == "equilibrium list differs from the closed-form list"


def test_corrupted_table_output_is_a_failed_operation(tmp_path, tiny):
    path = tmp_path / "tiny.json"
    path.write_text(tiny.to_json())
    out = cli(tmp_path, "table", str(path), "--format", "csv")
    check = run.WORKLOADS["table-demand"].check
    assert run.failure(ok(), out, check, tiny) is None
    lines = out.read_text().splitlines()
    profile, pay0, pay1 = lines[-1].rsplit(",", 2)
    out.write_text("\n".join(lines[:-1] + [f"{profile},{pay0},{pay1}1"]) + "\n")
    assert run.failure(ok(), out, check, tiny).startswith("row ")


def test_corrupted_bestresp_output_is_a_failed_operation(tmp_path, tiny):
    path = tmp_path / "tiny.json"
    path.write_text(tiny.to_json())
    out = cli(tmp_path, "bestresp", str(path), "--vendor", "0", "--method", "exact", "--format", "json")
    check = run.WORKLOADS["bestresp-large"].check
    assert run.failure(ok(), out, check, tiny) is None
    corrupt(out, '"realized_revenue": "', '"realized_revenue": "1')
    assert run.failure(ok(), out, check, tiny).startswith("realized ")
    out.write_text("{not json")
    assert run.failure(ok(), out, check, tiny).startswith("unreadable output")


def test_corrupted_brd_trace_is_a_failed_operation(tmp_path, tiny):
    path = tmp_path / "tiny.json"
    path.write_text(tiny.to_json())
    out = cli(tmp_path, "brd", str(path), "--mode", "continuous", "--format", "json")
    check = run.WORKLOADS["brd-continuous"].check
    assert run.failure(ok(), out, check, tiny) is None
    lines = out.read_text().splitlines()
    assert len(lines) > 2, "the tiny instance should make at least one move"
    corrupt(out, '"payoffs": ["', '"payoffs": ["9')
    assert "payoffs" in run.failure(ok(), out, check, tiny)


def test_nonzero_exit_is_a_failed_operation(tmp_path):
    out = tmp_path / "out.txt"
    out.write_text("")
    assert run.failure(ok(2), out, lambda inst, path: None) == "exit code 2"


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "gen.py", "checks.py", "spans.py", "child.py"):
        (bench / name).write_text((run.ROOT / "perfbench" / name).read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table-demand", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
