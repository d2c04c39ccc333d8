"""CLI output pinned by digest: for each command, the sha256 of stdout and of
stderr and the exit code of ``cli.main``, run in process.

The recorded commands and their runner live in ``cli_digests.py``, which
imports no pytest.  A change that alters output on purpose re-records them
with ``PYTHONPATH=src python tests/test_cli_digests.py`` and says why.
"""

import json
import sys
from pathlib import Path

import pytest
from cli_digests import CE, COMMANDS, DATA, DIGESTS, HARMONIC_EXACT, RANDOM_EXACT, key, record, run, sha

from vcgames import exactlp

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import gen as bench_gen
finally:
    sys.path.remove(PERFBENCH)


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(DIGESTS.read_text())


def test_every_command_has_a_recorded_digest(recorded):
    assert sorted(recorded) == sorted(map(key, COMMANDS))


@pytest.mark.parametrize("argv", COMMANDS, ids=key)
def test_cli_output_matches_recorded_digest(recorded, argv):
    assert run(argv) == recorded[key(argv)]


def _lps_solved(monkeypatch, argv) -> list:
    """Each LP the exact tier solves for ``argv``: (rows, rhs, value)."""
    solved = []
    real = exactlp.maximize

    def counted(c, rows, rhs):
        value, x = real(c, rows, rhs)
        solved.append((rows, rhs, value))
        return value, x

    monkeypatch.setattr(exactlp, "maximize", counted)
    run(argv)
    return solved


def test_exact_tier_skips_lps_its_singleton_rows_rule_out(monkeypatch):
    assert len(_lps_solved(monkeypatch, HARMONIC_EXACT)) <= 5


def test_exact_tier_still_solves_a_target_its_singleton_rows_overbound(monkeypatch):
    # the vendor owns c, d and e, so {c,d,e} is the one target of 3 columns;
    # its singleton rows sum past its value, so only the simplex decides it
    (cde,) = [lp for lp in _lps_solved(monkeypatch, RANDOM_EXACT) if len(lp[0][0]) == 3]
    rows, rhs, value = cde
    assert sum(b for row, b in zip(rows, rhs) if sum(row) == 1) > value


# 300 moves of the benchmark's continuous dynamics on its seed-0 instance:
# eps shaves give prices of up to 163 digits, far past the short rationals
# of the ``random:*,7,3`` runs above; the key is not a command, since the
# file's path differs from run to run
BRD_LONG = "brd brd-continuous@0 --mode continuous --format json --max-steps 300"
BRD_LONG_DIGEST = {
    "stdout": "cbb991f114cc9a71f332fa14c37d6735bbf8a822996a564c3c8a08a1b815ab3c",
    "stderr": sha(""),
    "code": 0,
}
# the same run at its default length, as the benchmark runs it: vendors 0
# and 2 undercut each other up to the 1,000-move cap
BRD_FULL = "brd brd-continuous@0 --mode continuous --format json"
BRD_FULL_DIGEST = {
    "stdout": "e0d04b5b8167091b4a4f05f12033da0000edc9cb2d5dbf49941a437c3ba9a064",
    "stderr": sha(""),
    "code": 0,
}

# the benchmark's seed-0 payoff table: 13 items, 8,192 profiles, each a full
# demand run; with --eps 1/7 the pricing's scale is 7 times the table's
TABLE_DEMAND = {
    "table table-demand@0 --format csv": (
        "c4b0fede045ede2cfb08d522133d3d05fdbcb22770ed49bd13bb808c46e8f521"
    ),
    "table table-demand@0 --format json": (
        "a08f5a2e7911b61c724e86c81b421b8d3954e4df397e9f7f0444c86332e951a6"
    ),
    "table table-demand@0 --format csv --eps 1/7": (
        "bef16720c0a42fa41bd133e9e622ecd05d8f45a55396f292c32e3ac0b4e19716"
    ),
    "table table-demand@0 --format text": (
        "45b951617a3f4b55f3b257e65bde9b797f5ed3c1d533871be0924838f4c29577"
    ),
}


def _run_bench(tmp_dir: Path, key: str) -> dict:
    """Run ``key`` with its second word, ``WORKLOAD@SEED``, replaced by the
    path of that benchmark instance, written to ``tmp_dir``."""
    argv = key.split()
    workload, seed = argv[1].split("@")
    path = tmp_dir / f"{workload}.json"
    path.write_text(bench_gen.Instance(workload, int(seed)).to_json(), encoding="utf-8")
    argv[1] = str(path)
    return run(argv)


def test_long_continuous_dynamics_match_recorded_digest(tmp_path):
    assert _run_bench(tmp_path, BRD_LONG) == BRD_LONG_DIGEST


def test_benchmark_continuous_dynamics_match_recorded_digest(tmp_path):
    assert _run_bench(tmp_path, BRD_FULL) == BRD_FULL_DIGEST


@pytest.mark.parametrize("key", TABLE_DEMAND)
def test_benchmark_payoff_table_matches_recorded_digest(tmp_path, key):
    assert _run_bench(tmp_path, key) == {"stdout": TABLE_DEMAND[key], "stderr": sha(""), "code": 0}


# the table as text, and a table that pricing refuses part-way through the
# profiles: in every format it exits 2 and writes nothing to stdout (the
# file's path is not printed, so the key names it relative to tests/)
REFUSED = {
    "stdout": sha(""),
    "stderr": "6613f977d39ee085026e2aed866dce82dba01a3e0b10766d3108fb7cb1adf8de",
    "code": 2,
}
TABLES = {
    "table --gen counterexample --format text": {
        "stdout": "3871f7186bcf8a06f447e9b374bf8474ba302375a81d5a2647b7d8f4688e725d",
        "stderr": sha(""),
        "code": 0,
    },
    **{f"table data/nonmonotone.json --format {fmt}": REFUSED for fmt in ("csv", "json", "text")},
}


@pytest.mark.parametrize("key", TABLES)
def test_table_output_matches_recorded_digest(key):
    argv = key.split()
    if argv[1].startswith("data/"):
        argv[1] = str(DATA / argv[1].removeprefix("data/"))
    assert run(argv) == TABLES[key]


# ``table --golden`` against a copy of the golden CSV, and against one with
# a payoff changed; run from the copy's directory, as the match line names
# the file as it was given
GOLDEN = {
    "match": {
        "stdout": "140efbbe25c4a7cbc4c8a08c55efc1cd4f62a5bee5e80e2d30a0be2fd6e59937",
        "stderr": sha(""),
        "code": 0,
    },
    "mismatch": {
        "stdout": sha(""),
        "stderr": "3a68560297b35e4252aa65a4b8f5deacdda96e2d112467c7945f051ccda25840",
        "code": 1,
    },
}


@pytest.mark.parametrize("case", GOLDEN)
def test_table_golden_matches_recorded_digest(tmp_path, monkeypatch, case):
    golden = (DATA / "counterexample_table.csv").read_text(encoding="utf-8")
    if case == "mismatch":
        golden = golden.replace("3.203", "3.204", 1)
    (tmp_path / "golden.csv").write_text(golden, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run(("table", *CE, "--golden", "golden.csv")) == GOLDEN[case]


if __name__ == "__main__":
    record()
