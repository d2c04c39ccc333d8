"""Fuzzed entry points: any instance file and any argument list end in exit
code 0, 1 or 2, never in a traceback, and exit 2 always says why."""

import contextlib
import copy
import io
import json
import tempfile
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vcgames.cli import main

NAMES = ["a", "b", "c", "d"]
BAD_NAMES = ["", " a", "a,b", "x=1", "{", "z", None, 1, True]
# few distinct values keep the grid tier's price grid small
NUMBERS = ["0", "1", "2", "3", "1/2", "-1"]
BAD_NUMBERS = ["", "x", "1e3", "1/0", "0.5", 1, 1.5, None, [], {}]
JUNK = [None, 5, "a", [], {}, [[]], ["a"], [5], {"a": 1}]

number = st.sampled_from(NUMBERS)


@st.composite
def well_formed(draw):
    """An instance of at most 4 items in one of the three schemas; whether it
    is monotone and submodular is left to chance."""
    items = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4, unique=True))
    kind = draw(st.sampled_from(["table", "additive_groups", "category_max"]))
    obj = {"type": kind, "items": items}
    if kind == "table":
        subsets = [c for r in range(1, len(items) + 1) for c in combinations(items, r)]
        if draw(st.booleans()):
            # budget-additive, so monotone and submodular: min(cap, sum of weights)
            weight = {n: draw(st.integers(0, 3)) for n in items}
            cap = draw(st.integers(1, 6))
            obj["entries"] = {",".join(c): str(min(cap, sum(weight[n] for n in c))) for c in subsets}
        else:
            obj["entries"] = {",".join(c): draw(number) for c in subsets}
    elif kind == "additive_groups":
        obj["groups"] = [items]
        if draw(st.booleans()):
            obj["curve"] = {"kind": "harmonic"}
        else:
            obj["curve"] = {"kind": "explicit", "values": ["0"] + draw(st.lists(number, max_size=5))}
    else:
        obj["categories"] = [items]
        obj["item_values"] = {n: draw(number) for n in items}
    cut = draw(st.integers(0, len(items)))
    obj["vendors"] = draw(st.sampled_from([[items[:cut], items[cut:]], [[n] for n in items], [items]]))
    return obj


def _paths(obj, at=()):
    """Every place inside a JSON value, as a key path."""
    yield at
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, child in children:
        yield from _paths(child, at + (key,))


@st.composite
def instances(draw):
    """A well-formed instance, or one with up to three fields replaced by junk,
    a bad name, a bad number, or nothing at all."""
    obj = draw(well_formed())
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        at = draw(st.sampled_from(list(_paths(obj))[1:]))
        parent = obj
        for key in at[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[at[-1]]
        else:
            parent[at[-1]] = copy.deepcopy(draw(st.sampled_from(JUNK + BAD_NAMES + BAD_NUMBERS)))
    return obj


GENS = [
    "counterexample",
    "harmonic:2,2",
    "pos:2,2,1/100",
    "random:1,4,2",
    "random:2,4,3,additive-concave",
    "cdsp_random:1,4,2",
    "harmonic:0,2",
    "harmonic:x",
    "random:1,40,2",
    "counterexample:1",
    "bogus",
]
VALUES = {
    "--format": ["text", "json", "csv", "xml"],
    "--method": ["candidate", "exact", "grid", "simplex"],
    "--vendor": ["0", "1", "2", "-1", "x"],
    "--prices": ["a=1,b=1", "a=0", "a=1/2,c=2", "a=2,b=0,c=1,d=3", "a", "z=1", "a=-1", "a=x", ""],
    "--eps": ["1/100", "1/2", "0", "-1", "x", "1e3"],
    "--cap": ["0", "4", "1000", "-1", "x"],
    "--start": ["{a}|{b}", "{}|{}", "{a}", "x", "{a,b}|{}", "{a}|{}|{b}"],
    "--mode": ["discrete", "continuous", "other"],
    "--max-steps": ["0", "3", "-1", "x"],
    "--seed": ["1", "x"],
    "--golden": ["/nonexistent/golden.csv"],
    "--verify": [None],
}
# the options each command takes
OPTIONS = {
    "check": [],
    "table": ["--format", "--cap", "--eps", "--golden"],
    "ne": ["--format", "--cap", "--eps"],
    "poa": ["--format", "--cap"],
    "brd": ["--format", "--start", "--mode", "--max-steps"],
    "cdsp": ["--format", "--verify"],
    "gen": ["--seed"],
    "bestresp": ["--format", "--prices", "--method"],
    "verify": ["--format", "--prices", "--method"],
}


@st.composite
def argv_lists(draw, instance_path):
    """A command, its input, and options: mostly ones the command takes,
    sometimes any option at all."""
    command = draw(st.sampled_from(sorted(OPTIONS) + ["bogus"]))
    argv = [command]
    if command == "gen":
        argv.append(draw(st.sampled_from(GENS)))
    else:
        source = draw(st.sampled_from(["file", "gen", "file", "gen", "both", "none"]))
        if source in ("file", "both"):
            argv.append(instance_path)
        if source in ("gen", "both"):
            argv += ["--gen", draw(st.sampled_from(GENS))]
    if command == "bestresp" and draw(st.sampled_from([True, True, True, False])):
        argv += ["--vendor", draw(st.sampled_from(VALUES["--vendor"]))]
    pool = OPTIONS.get(command, [])
    if not pool or not draw(st.sampled_from([True, True, True, False])):
        pool = sorted(VALUES)
    for option in draw(st.lists(st.sampled_from(pool), max_size=3, unique=True)):
        value = draw(st.sampled_from(VALUES[option]))
        argv += [option] if value is None else [option, value]
    return argv


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as path:
        yield Path(path)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse refuses bad arguments this way
            code = e.code
    return code, err.getvalue()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_instances_and_arguments_never_crash(workdir, data):
    path = workdir / "instance.json"
    path.write_text(json.dumps(data.draw(instances(), label="instance")))
    argv = data.draw(argv_lists(str(path)), label="argv")
    code, err = run_cli(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.strip()
