"""The benchmark's hooks still name real functions of the package.

``perfbench/`` wraps functions of ``vcgames`` by module and attribute name
and stops its set-up probes at a named function of ``vcgames.cli``.  A
rename in the package would otherwise surface only in a traced benchmark
run; here it fails the test suite.  So does a change to the arguments or
the result of a call whose attributes a traced run reads, and a span a
workload expects that its traced run no longer fires.  The benchmark files
are only imported and run.
"""

import importlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from vcgames import counterexample_instance, pmvc_prices

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
sys.path.insert(0, PERFBENCH)  # run.py imports its siblings by bare name
try:
    import run as bench_run
    import spans as bench_spans
finally:
    sys.path.remove(PERFBENCH)

TARGETS = [
    (name, module, attr)
    for name, targets in bench_spans.SPANNED.items()
    for module, attr in targets
] + [(name, module, attr) for name, (module, attr) in bench_spans.COUNTED.items()]


@pytest.mark.parametrize("name, module, attr", TARGETS)
def test_traced_target_resolves(name, module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):  # "Valuation.certify" names a method
        owner = getattr(owner, part, None)
    assert callable(owner), f"span {name}: {module}.{attr} is gone"


@pytest.mark.parametrize("workload", sorted(bench_run.WORKLOADS))
def test_setup_probe_target_resolves(workload):
    cli = importlib.import_module("vcgames.cli")
    first_call = bench_run.WORKLOADS[workload].first_call
    assert callable(getattr(cli, first_call, None)), f"vcgames.cli.{first_call} is gone"


@pytest.mark.parametrize("workload", sorted(bench_run.WORKLOADS))
def test_traced_workload_fires_its_spans(workload, tmp_path):
    # a traced benchmark run stops when a span the workload expects records
    # no call; a call that moves to an untraced path fails here instead
    wl = bench_run.WORKLOADS[workload]
    path = tmp_path / "instance.json"
    if workload in bench_run.gen.SHAPES:
        path.write_text(bench_run.gen.Instance(workload, 0).to_json(), encoding="utf-8")
    spans = tmp_path / "spans.json"
    child = subprocess.run(
        [sys.executable, str(Path(PERFBENCH) / "child.py"), "trace", str(spans), "--",
         *wl.args(str(path))],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    assert child.returncode == 0, child.stderr
    fired = {span[0] for span in json.loads(spans.read_text(encoding="utf-8"))["spans"]}
    assert [name for name in wl.expect if name not in fired] == []


def test_demand_runs_of_the_price_game_are_counted():
    # the tracer rebinds ``demand`` where a module imported it by name; the
    # continuous game's demand runs are counted only if vcgame did
    market = importlib.import_module("vcgames.market")
    vcgame = importlib.import_module("vcgames.vcgame")
    assert vcgame.demand is market.demand


def test_payoff_table_prices_each_profile_through_the_counted_calls(monkeypatch):
    # a traced table run counts pmvc_outcome calls and spans market.demand,
    # both rebound in pmvc; the table must reach each once per profile
    market = importlib.import_module("vcgames.market")
    pmvc = importlib.import_module("vcgames.pmvc")
    assert pmvc.demand is market.demand
    calls = {"pmvc_outcome": 0, "demand": 0}
    for name in calls:
        original = getattr(pmvc, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(pmvc, name, counted)
    table = list(pmvc.payoff_table(G))
    assert calls == {"pmvc_outcome": len(table), "demand": len(table)}
    assert len(table) == 1 << G.universe.n


G = counterexample_instance()
START = G.parse_profile("{a}|{c}")
# span name -> (arguments of one small real call, the attrs expected from it)
ATTRS_CASES = {
    "market.demand": ((G.valuation, pmvc_prices(G, START)), {"subsets": 1 << G.universe.n}),
    "pmvc.pure_ne": ((G,), {"profiles": 1 << G.universe.n, "equilibria": 0}),
    "vcgame.dynamics": ((G, START, "continuous", 3), {"moves": 3}),
    "exactlp.maximize": (
        ([1, 1], [[1, 0], [1, 1]], [Fraction(1, 3), Fraction(1, 2)]),
        {"rows": 2, "cells": 2 * (2 + 2 + 1), "rhs_bits": 2},
    ),
}


def test_every_attrs_hook_has_a_case():
    assert set(ATTRS_CASES) == set(bench_spans.ATTRS)


@pytest.mark.parametrize("name", sorted(bench_spans.ATTRS))
def test_attrs_hook_reads_a_real_call(name):
    # a traced run computes these from the arguments and the result of each
    # call; an argument or result the hook can no longer read fails here
    args, expected = ATTRS_CASES[name]
    ((module, attr),) = bench_spans.SPANNED[name]
    target = getattr(importlib.import_module(module), attr)
    assert bench_spans.ATTRS[name](args, {}, target(*args)) == expected
