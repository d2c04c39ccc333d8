"""End-to-end command checks, run in process through main()."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vcgames.cli import main
from vcgames.serialize import SchemaError, instance_from_obj, load_instance

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"
GOLDEN = str(DATA / "counterexample_table.csv")
TWO_TV = str(DATA / "two_tv.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- check -----------------------------------------------------------------


def test_check_passes_on_certified(capsys):
    code, out, _ = run(capsys, "check", "--gen", "counterexample")
    assert code == 0
    assert "monotone: PASS" in out
    assert "submodular: PASS" in out


def test_check_flags_supermodular(capsys):
    code, out, _ = run(capsys, "check", str(DATA / "supermodular.json"))
    assert code == 1
    assert "monotone: PASS" in out
    assert "submodular: FAIL" in out


def test_check_flags_nonmonotone(capsys):
    code, out, _ = run(capsys, "check", str(DATA / "nonmonotone.json"))
    assert code == 1
    assert "monotone: FAIL" in out


# -- table -----------------------------------------------------------------


def test_table_csv_matches_handbuilt_golden(capsys):
    code, out, _ = run(
        capsys, "table", "--gen", "counterexample", "--format", "csv"
    )
    assert code == 0
    assert out == Path(GOLDEN).read_text()


def test_table_golden_match(capsys):
    code, out, _ = run(capsys, "table", "--gen", "counterexample", "--golden", GOLDEN)
    assert code == 0
    assert "golden match" in out


def test_table_golden_mismatch(capsys, tmp_path):
    bad = tmp_path / "golden.csv"
    bad.write_text(Path(GOLDEN).read_text().replace("2.601", "2.6"))
    code, _, err = run(
        capsys, "table", "--gen", "counterexample", "--golden", str(bad)
    )
    assert code == 1
    assert "golden mismatch" in err


def test_table_text_format(capsys):
    code, out, _ = run(capsys, "table", "--gen", "counterexample")
    assert code == 0
    assert "{a}|{c}\t2.601  2.201" in out


def test_table_cap_exceeded(capsys):
    code, _, err = run(capsys, "table", "--gen", "counterexample", "--cap", "10")
    assert code == 2
    assert "error:" in err


# -- ne and poa ------------------------------------------------------------


def test_ne_none_found(capsys):
    code, out, _ = run(capsys, "ne", "--gen", "counterexample")
    assert code == 0
    assert "0 pure Nash equilibria" in out


def test_ne_uncertified_file(capsys):
    code, out, _ = run(capsys, "ne", str(DATA / "supermodular.json"))
    assert code == 0
    assert out.split("\n") == ["2 pure Nash equilibria", "  {x}", "  {y}", ""]


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ("ne", "--format", "json"),
            ["{", '  "count": 2,', '  "equilibria": [', '    "{x}",', '    "{y}"', "  ]", "}", ""],
        ),
        (
            ("poa",),
            [
                "2 pure Nash equilibria",
                "  {x}  welfare 1",
                "  {y}  welfare 1",
                "optimal welfare = 3",
                "PoA = 3, bound H_2+1 = 2.5, VIOLATED",
                "PoS = 3",
                "",
            ],
        ),
        (
            ("poa", "--format", "json"),
            [
                "{",
                '  "equilibria": [',
                "    {",
                '      "profile": "{x}",',
                '      "welfare": "1"',
                "    },",
                "    {",
                '      "profile": "{y}",',
                '      "welfare": "1"',
                "    }",
                "  ],",
                '  "optimal_welfare": "3",',
                '  "poa": "3",',
                '  "pos": "3",',
                '  "welfare_ratio_bound": "2.5",',
                '  "bound_satisfied": false',
                "}",
                "",
            ],
        ),
    ],
    ids=["ne-json", "poa-text", "poa-json"],
)
def test_offer_game_answers_on_an_uncertified_file(capsys, argv, expected):
    # the offer-game commands take the demand route on an uncertified
    # valuation, so they answer; only the price-game commands refuse it
    command, *rest = argv
    code, out, err = run(capsys, command, str(DATA / "supermodular.json"), *rest)
    assert (code, err) == (0, "")
    assert out.split("\n") == expected


UNCERTIFIED = "error: vendor-game analysis requires a certified instance\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("bestresp", "--vendor", "0"),
        ("verify",),
        ("brd",),
        ("brd", "--mode", "continuous"),
    ],
    ids=["bestresp", "verify", "brd", "brd-continuous"],
)
def test_price_game_refuses_an_uncertified_file(capsys, argv):
    command, *rest = argv
    code, out, err = run(capsys, command, str(DATA / "supermodular.json"), *rest)
    assert (code, out, err) == (2, "", UNCERTIFIED)


@pytest.mark.parametrize("rest", [(), ("--verify",)], ids=["prices", "verify"])
def test_cdsp_refuses_an_uncertified_category_max_file(capsys, tmp_path, rest):
    # a negative item value fails both checks; written here, not under
    # tests/data, where every file is replayed as a certified instance
    path = tmp_path / "negative_value.json"
    path.write_text(json.dumps({
        "type": "category_max",
        "items": ["x", "y", "z"],
        "categories": [["x", "y"], ["z"]],
        "item_values": {"x": "3", "y": "-1", "z": "2"},
        "vendors": [["x"], ["y", "z"]],
    }))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1 and "monotone: FAIL" in out and "submodular: FAIL" in out
    code, out, err = run(capsys, "cdsp", str(path), *rest)
    assert (code, out, err) == (2, "", UNCERTIFIED)


def test_ne_json(capsys):
    code, out, _ = run(capsys, "ne", "--gen", "harmonic:2,2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 9
    assert "{a1}|{b1}" in data["equilibria"]


def test_poa_text(capsys):
    code, out, _ = run(capsys, "poa", "--gen", "harmonic:2,3")
    assert code == 0
    assert "49 pure Nash equilibria" in out
    assert "PoA = 11/6, bound H_3+1 = 17/6, satisfied" in out
    assert "PoS = 1" in out


def test_poa_json_no_ne(capsys):
    code, out, _ = run(capsys, "poa", "--gen", "counterexample", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["poa"] is None
    assert data["optimal_welfare"] == "7.6045"


@pytest.mark.parametrize("command", ["ne", "poa", "table"])
def test_nonmonotone_valuation_refused_by_name(capsys, command):
    # marginal pricing of {x,y} would price y at v({x,y}) - v({x}) = -1
    code, out, err = run(capsys, command, str(DATA / "nonmonotone.json"))
    assert code == 2
    assert out == ""
    assert err == "error: valuation is not monotone: item y has marginal -1 at {x}\n"


# -- dynamics --------------------------------------------------------------


def test_brd_discrete_cycle(capsys):
    code, out, _ = run(
        capsys, "brd", "--gen", "counterexample", "--start", "{a}|{c}"
    )
    assert code == 0
    assert out.strip() == "cycle after 4 moves (period 4)"


def test_brd_continuous_cycle(capsys):
    code, out, _ = run(
        capsys,
        "brd", "--gen", "counterexample", "--start", "{a}|{c}",
        "--mode", "continuous", "--max-steps", "60",
    )
    assert code == 0
    assert out.strip() == "cycle after 8 moves (period 6)"


def test_brd_default_start_converges(capsys):
    code, out, _ = run(capsys, "brd", "--gen", "harmonic:2,2")
    assert code == 0
    assert out.strip() == "converged after 0 moves"


def test_brd_json_trace(capsys):
    code, out, _ = run(
        capsys,
        "brd", "--gen", "counterexample", "--start", "{a}|{c}",
        "--format", "json",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert json.loads(lines[0])["mode"] == "discrete"
    assert json.loads(lines[-1]) == {"status": "cycle", "period": 4, "moves": 4}


class RecordedWrites(io.StringIO):
    """A stdout stand-in that keeps each ``write`` it is handed
    (``writelines`` writes its pieces one by one)."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def test_brd_json_trace_is_written_line_by_line(monkeypatch):
    out = RecordedWrites()
    monkeypatch.setattr(sys, "stdout", out)
    argv = ["brd", "--gen", "counterexample", "--mode", "continuous", "--format", "json"]
    assert main([*argv, "--max-steps", "60"]) == 0
    lines = out.getvalue().split("\n")
    assert lines[-1] == "" and json.loads(lines[-2])["moves"] == len(lines) - 3
    longest = max(map(len, lines)) + 1
    assert len(out.writes) >= len(lines) - 1
    assert all(len(w) <= longest and w.count("\n") <= 1 for w in out.writes)


def test_brd_negative_max_steps(capsys):
    code, out, err = run(
        capsys, "brd", "--gen", "counterexample", "--max-steps", "-5"
    )
    assert code == 2
    assert out == ""
    assert "max_steps" in err


def test_brd_bad_start(capsys):
    code, out, err = run(
        capsys, "brd", "--gen", "counterexample", "--start", "{a}|{q}"
    )
    assert (code, out, err) == (2, "", "error: bad --start: unknown item: 'q'\n")


# -- cdsp ------------------------------------------------------------------


def test_cdsp_prices(capsys):
    code, out, _ = run(capsys, "cdsp", TWO_TV)
    assert code == 0
    assert "x = 2" in out
    assert "y = 0" in out


def test_cdsp_verify(capsys):
    code, out, _ = run(capsys, "cdsp", TWO_TV, "--verify")
    assert code == 0
    assert "equilibrium certified; welfare optimal" in out


def test_cdsp_verify_json(capsys):
    code, out, _ = run(capsys, "cdsp", TWO_TV, "--verify", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verification"]["status"] == "ne-certified"
    assert data["welfare"] == "10"
    assert data["optimal_welfare"] == "10"


def test_cdsp_needs_category_instance(capsys):
    code, out, err = run(capsys, "cdsp", "--gen", "counterexample")
    assert (code, out) == (2, "")
    assert err == "error: closed-form equilibrium needs a category-max valuation\n"


# -- gen -------------------------------------------------------------------


def test_gen_counterexample(capsys):
    code, out, _ = run(capsys, "gen", "counterexample")
    assert code == 0
    data = json.loads(out)
    assert data["vendors"] == [["a", "b"], ["c", "d"]]
    assert data["entries"]["a,b,c,d"] == "7.6045"


def test_gen_deterministic(capsys):
    code1, out1, _ = run(capsys, "gen", "random:5,6,2")
    code2, out2, _ = run(capsys, "gen", "random:5,6,2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_gen_seed_override(capsys):
    _, base, _ = run(capsys, "gen", "random:5,6,2")
    _, overridden, _ = run(capsys, "gen", "random:5,6,2", "--seed", "6")
    _, reseeded, _ = run(capsys, "gen", "random:6,6,2")
    assert overridden != base
    assert overridden == reseeded


def test_gen_pos_and_cdsp_specs(capsys):
    code, out, _ = run(capsys, "gen", "pos:2,3,1/100")
    assert code == 0
    assert json.loads(out)["type"] == "additive_groups"
    code, out, _ = run(capsys, "gen", "cdsp_random:1,6,3")
    assert code == 0
    assert json.loads(out)["type"] == "category_max"


def test_gen_bad_specs(capsys):
    for spec in ("harmonic:9", "pos:2,3", "warfare:1", "harmonic:x,y"):
        code, _, err = run(capsys, "gen", spec)
        assert code == 2
        assert "error:" in err


# -- bestresp and verify ---------------------------------------------------


def test_bestresp_exact(capsys):
    code, out, _ = run(
        capsys,
        "bestresp", "--gen", "counterexample",
        "--vendor", "1", "--prices", "a=2.601",
    )
    assert code == 0
    assert "revenue = 2.703" in out
    assert "c = 1.4015" in out
    assert "d = 1.3015" in out


def test_bestresp_methods_differ(capsys):
    _, exact, _ = run(
        capsys, "bestresp", "--gen", "counterexample",
        "--vendor", "1", "--prices", "a=2.601", "--method", "exact",
    )
    _, cand, _ = run(
        capsys, "bestresp", "--gen", "counterexample",
        "--vendor", "1", "--prices", "a=2.601", "--method", "candidate",
    )
    _, grid, _ = run(
        capsys, "bestresp", "--gen", "counterexample",
        "--vendor", "1", "--prices", "a=2.601", "--method", "grid",
    )
    assert "revenue = 2.703" in exact
    assert "revenue = 2.301" in cand
    assert "revenue = 2.703" in grid


def test_bestresp_json(capsys):
    code, out, _ = run(
        capsys,
        "bestresp", "--gen", "counterexample",
        "--vendor", "1", "--prices", "a=2.601", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["revenue"] == "2.703"
    assert data["target"] == "{c,d}"


def test_bestresp_bad_vendor(capsys):
    code, _, err = run(
        capsys, "bestresp", "--gen", "counterexample", "--vendor", "7"
    )
    assert code == 2
    assert "no vendor" in err


def test_bestresp_price_for_unknown_item(capsys):
    code, out, err = run(
        capsys, "bestresp", "--gen", "counterexample", "--vendor", "0", "--prices", "q=1"
    )
    assert (code, out) == (2, "")
    assert err == "error: price for unknown item 'q'\n"


@pytest.mark.parametrize(
    "method, scan",
    [
        ("exact", "target-set-exact enumerates 2^n targets"),
        ("grid", "grid search builds the full marginal grid"),
    ],
)
def test_bestresp_refuses_past_twelve_items(capsys, method, scan):
    code, out, err = run(
        capsys, "bestresp", "--gen", "harmonic:1,13", "--vendor", "0", "--method", method
    )
    assert (code, out) == (2, "")
    assert err == f"error: {scan}; capped at 12 items\n"


def test_bestresp_candidate_refuses_past_its_scan_cap(capsys, monkeypatch):
    # one vendor with 20 items has 2^20 offers, 3^20 subsets to scan in all:
    # refused before the first demand call; 3^10 for harmonic:2,10 answers
    import vcgames.vcgame as vcgame

    calls = []
    real_demand = vcgame.demand
    monkeypatch.setattr(
        vcgame, "demand", lambda v, p, **kw: calls.append(p) or real_demand(v, p, **kw)
    )
    argv = ("bestresp", "--vendor", "0", "--method", "candidate")
    code, out, err = run(capsys, *argv, "--gen", "harmonic:1,20")
    assert (code, out, calls) == (2, "", [])
    assert err == f"error: candidate-set would scan 3^20 * 2^0 subsets (cap {3 ** 13})\n"
    code, out, _ = run(capsys, *argv, "--gen", "harmonic:2,10")
    assert code == 0
    assert "revenue = 1\n" in out


def test_verify_refuted(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--gen", "counterexample", "--prices", "a=2.601,c=2.201",
    )
    assert code == 1
    assert "refuted" in out
    assert "deviation: vendor 1 can earn 2.703 > 2.201" in out


def test_verify_certified(capsys):
    code, out, _ = run(
        capsys, "verify", "--gen", "harmonic:1,1", "--prices", "a1=1"
    )
    assert code == 0
    assert "ne-certified" in out


@pytest.mark.parametrize("method", ["candidate", "grid"])
def test_verify_incomplete_method_without_deviation_exits_1(capsys, method):
    argv = ["verify", "--gen", "random:1,5,2", "--prices", "a=23.3,b=1,c=5.4,d=3.3,e=23.3"]
    code, out, _ = run(capsys, *argv, "--method", method)
    assert code == 1
    assert out.startswith("not-refuted (")
    code, out, _ = run(capsys, *argv, "--method", method, "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["status"] == "not-refuted"
    assert "deviation" not in data
    code, out, _ = run(capsys, *argv, "--method", "exact")
    assert code == 1
    assert out.startswith("refuted (target-set-exact)")


def test_verify_bad_price_text(capsys):
    code, _, err = run(
        capsys, "verify", "--gen", "counterexample", "--prices", "a:1"
    )
    assert code == 2
    assert "expected item=value" in err


# -- input handling --------------------------------------------------------


def test_both_file_and_gen_rejected(capsys):
    code, _, err = run(capsys, "check", TWO_TV, "--gen", "counterexample")
    assert code == 2
    assert "not both" in err


def test_no_input_rejected(capsys):
    code, _, err = run(capsys, "check")
    assert code == 2
    assert "no input" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/game.json")
    assert code == 2
    assert "error:" in err


def test_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"type": "table",\n  "items": [}\n')
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "line 2" in err


def test_table_without_items_or_vendors(capsys, tmp_path):
    # the items are the entry names, sorted, and one vendor owns them all
    path = tmp_path / "table.json"
    path.write_text('{"type": "table", "entries": {"b": "1", "a": "2", "a,b": "3"}}')
    assert load_instance(str(path)).universe.names == ("a", "b")
    code, out, err = run(capsys, "ne", str(path))
    assert (code, out, err) == (0, "1 pure Nash equilibria\n  {a,b}\n", "")


# -- refused options and inputs --------------------------------------------


def exit_code(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as e:  # argparse refuses unknown options and choices
        code = e.code
    capsys.readouterr()
    return code


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--gen", "counterexample", "--format", "json"],
        ["gen", "harmonic:2,2", "--format", "text"],
        ["brd", "--gen", "counterexample", "--format", "csv"],
        ["gen", "counterexample", "--seed", "3"],
        ["poa", "--gen", "harmonic:2,2", "--seed", "3"],
        ["ne", TWO_TV, "--seed", "1"],
    ],
    ids=["check-format", "gen-format", "brd-csv", "gen-seed", "poa-seed", "file-seed"],
)
def test_option_that_would_be_ignored_is_refused(capsys, argv):
    assert exit_code(capsys, argv) == 2


def test_seed_still_overrides_cdsp_random(capsys):
    _, overridden, _ = run(capsys, "gen", "cdsp_random:1,6,3", "--seed", "2")
    _, reseeded, _ = run(capsys, "gen", "cdsp_random:2,6,3")
    assert overridden == reseeded


@pytest.mark.parametrize(
    "edit",
    [
        lambda obj: obj["item_values"].update(x="1e3"),
        lambda obj: obj.update(
            items=["x", "y=1"],
            categories=[["x", "y=1"]],
            item_values={"x": "10", "y=1": "8"},
            vendors=[["x"], ["y=1"]],
        ),
    ],
    ids=["exponent", "name-with-equals"],
)
def test_unaddressable_input_file_refused(capsys, tmp_path, edit):
    obj = json.loads(Path(TWO_TV).read_text())
    edit(obj)
    path = tmp_path / "game.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "ne", str(path))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "key, value",
    [("vendors", ["x", "y"]), ("vendors", 5), ("categories", ["xy"]), ("categories", [5])],
)
def test_name_list_that_is_not_a_list_refused(capsys, tmp_path, key, value):
    obj = json.loads(Path(TWO_TV).read_text())
    del obj["items"]  # the universe then comes from the vendor lists
    obj[key] = value
    path = tmp_path / "game.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "ne", str(path))
    assert code == 2
    assert "must be" in err and "list" in err


@pytest.mark.parametrize(
    "obj",
    [
        {
            "type": "table",
            "items": [None, True],
            "entries": {"None": "1", "True": "1", "None,True": "2"},
            "vendors": [["None"], ["True"]],
        },
        {"type": "table", "entries": {"1": "1", "2": "1", "1,2": "2"}, "vendors": [[1], [2]]},
    ],
    ids=["items", "vendor-lists"],
)
def test_non_string_item_names_are_not_coerced(capsys, tmp_path, obj):
    # str() of each name would load these as items "None"/"True" or "1"/"2"
    with pytest.raises(SchemaError, match="must be strings"):
        instance_from_obj(obj)
    path = tmp_path / "game.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "ne", str(path))
    assert code == 2
    assert out == "" and "must be strings" in err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("vendors", [["x", "x"], ["y"]], "names an item twice"),
        ("categories", [["x", "y", "y"]], "names an item twice"),
        ("item_values", {"x": "10", "y": "8", "z": "1"}, "unknown item 'z'"),
        ("items", [None, True], "item names in 'items' must be strings"),
        ("vendors", [["x"], [True]], "item names in 'vendors' must be strings"),
        ("categories", [["x", 1]], "item names in 'categories' must be strings"),
    ],
    ids=[
        "vendor-repeats-name",
        "category-repeats-name",
        "value-for-unknown-item",
        "item-name-not-a-string",
        "vendor-name-not-a-string",
        "category-name-not-a-string",
    ],
)
def test_input_the_model_would_ignore_is_refused(capsys, tmp_path, key, value, message):
    obj = json.loads(Path(TWO_TV).read_text())
    obj[key] = value
    with pytest.raises(SchemaError, match=message):
        instance_from_obj(obj)
    path = tmp_path / "game.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "ne", str(path))
    assert code == 2
    assert out == "" and message in err


@pytest.mark.parametrize(
    "obj, err_line",
    [
        (
            {**json.loads(Path(TWO_TV).read_text()), "vendors": [["x"], ["q"]]},
            "error: instance: vendors entry ['q']: unknown item: 'q'",
        ),
        (
            {**json.loads(Path(TWO_TV).read_text()), "categories": [["x", "q"]]},
            "error: category_max: categories entry ['x', 'q']: unknown item: 'q'",
        ),
        (
            {
                "type": "additive_groups",
                "curve": {"kind": "harmonic"},
                "groups": [["a"], ["b", "q"]],
                "vendors": [["a"], ["b"]],
            },
            "error: additive_groups: groups entry ['b', 'q']: unknown item: 'q'",
        ),
        (
            {**json.loads((DATA / "supermodular.json").read_text()),
             "entries": {"x": "1", "y": "1", "x,y": "3", "x,q": "2"}},
            "error: table entry 'x,q': unknown item: 'q'",
        ),
    ],
    ids=["vendors", "categories", "groups", "table-entry"],
)
def test_unknown_item_in_a_file_is_named_in_plain_text(capsys, tmp_path, obj, err_line):
    # the message of the KeyError, not its repr inside quotes
    path = tmp_path / "game.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "ne", str(path))
    assert (code, out, err) == (2, "", err_line + "\n")


@pytest.mark.parametrize("spec", ["random:1,2", "random:1,2,3,4,5"])
def test_random_generator_states_its_argument_count(capsys, spec):
    # a fourth argument, the generator kind, is accepted
    code, out, err = run(capsys, "gen", spec)
    assert (code, out, err) == (2, "", "error: generator 'random' takes 3..4 arguments\n")


@pytest.mark.parametrize(
    "obj, argv",
    [
        # read as {y}, "y,y" gave the one entry the table lacked, and PASS
        (
            {"type": "table", "items": ["x", "y"],
             "entries": {"x": "1", "y,y": "1", "x,y": "2"}},
            ["check"],
        ),
        (
            {"type": "table", "items": ["x", "y"],
             "entries": {"x": "1", "y": "1", "x,y": "2"}, "vendors": [["x", "x"], ["y"]]},
            ["check"],
        ),
        (json.loads(Path(TWO_TV).read_text()), ["brd", "--start", "{x,x}|{y}"]),
    ],
    ids=["table-key", "vendor-list", "brd-start"],
)
def test_a_set_naming_an_item_twice_is_refused(capsys, tmp_path, obj, argv):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 2
    assert out == "" and "names an item twice: " in err


def test_repeated_json_key_refused(capsys, tmp_path):
    # read last-value-wins, the table would be v(x) = 5 > v(x,y) = 2
    path = tmp_path / "game.json"
    path.write_text(
        '{"type": "table", "items": ["x", "y"],'
        ' "entries": {"x": "1", "y": "1", "x,y": "2", "x": "5"}}'
    )
    with pytest.raises(SchemaError, match="key 'x' repeated"):
        load_instance(str(path))
    code, out, err = run(capsys, "check", str(path))
    assert code == 2
    assert out == "" and "key 'x' repeated" in err


@pytest.mark.parametrize(
    "argv",
    [["verify"], ["bestresp", "--vendor", "0"]],
    ids=["verify", "bestresp"],
)
def test_repeated_price_item_refused(capsys, argv):
    code, out, err = run(capsys, *argv, "--gen", "counterexample", "--prices", "a=1,b=1, a=2")
    assert code == 2
    assert out == "" and "'a' given twice" in err


# -- a closed stdout ---------------------------------------------------------


@pytest.mark.parametrize("command", ["ne", "poa"])
def test_closed_stdout_exits_141_quietly(command):
    # the reader takes one line and leaves (as `| head -1` does); the rest of
    # the 29,791 listed equilibria has nowhere to go, and the closed pipe
    # shows while the listing is being written
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "vcgames", command, "--gen", "harmonic:3,5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"29791 pure Nash equilibria\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""
