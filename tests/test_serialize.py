"""JSON/CSV encodings: round-trips and schema rejection."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcgames import (
    AdditiveGroupsValuation,
    CategoryMaxValuation,
    GameInstance,
    PriceVector,
    StrategyProfile,
    TableValuation,
    Universe,
    all_profiles,
    br_dynamics,
    counterexample_instance,
    equilibrium_report,
    harmonic_instance,
    payoff_table,
    pmvc_pure_ne,
    pos_instance,
    random_instance,
)
from vcgames.rationals import format_rational
from vcgames.serialize import (
    SchemaError,
    dump_instance,
    equilibria_to_json,
    equilibria_to_obj,
    equilibria_to_text,
    instance_from_obj,
    payoff_table_csv,
    payoff_table_json,
    payoff_table_obj,
    prices_from_obj,
    prices_to_obj,
    report_to_json,
    report_to_obj,
    report_to_text,
    trace_to_jsonl,
    valuation_from_obj,
    valuation_to_obj,
)

F = Fraction
G = counterexample_instance()
U = G.universe


def same_valuation(a, b):
    assert a.universe.names == b.universe.names
    return all(
        a.value_mask(m) == b.value_mask(m) for m in range(1 << a.universe.n)
    )


# -- valuation round-trips -------------------------------------------------


def test_table_round_trip():
    obj = valuation_to_obj(G.valuation)
    assert obj["type"] == "table"
    assert obj["items"] == ["a", "b", "c", "d"]
    assert obj["entries"]["a,c"] == "5.404"
    assert "" not in obj["entries"]
    back = valuation_from_obj(obj)
    assert same_valuation(G.valuation, back)


def test_additive_groups_round_trip():
    v = harmonic_instance(2, 3).valuation
    obj = valuation_to_obj(v)
    assert obj["type"] == "additive_groups"
    assert obj["curve"]["kind"] == "explicit"
    back = valuation_from_obj(obj)
    assert isinstance(back, AdditiveGroupsValuation)
    assert same_valuation(v, back)


def test_category_max_round_trip():
    u = Universe(("x", "y", "z"))
    v = CategoryMaxValuation(u, (0b011, 0b100), (F(5), F("2.5"), F(1, 3)))
    obj = valuation_to_obj(v)
    assert obj["item_values"] == {"x": "5", "y": "2.5", "z": "1/3"}
    back = valuation_from_obj(obj)
    assert isinstance(back, CategoryMaxValuation)
    assert same_valuation(v, back)


def test_harmonic_curve_keyword():
    obj = {
        "type": "additive_groups",
        "items": ["x", "y", "z"],
        "groups": [["x", "y", "z"]],
        "curve": {"kind": "harmonic"},
    }
    v = valuation_from_obj(obj)
    assert v.value_of(("x", "y", "z")) == F(11, 6)


def test_instance_round_trip():
    text = dump_instance(G)
    back = instance_from_obj(json.loads(text))
    assert back.vendor_masks == G.vendor_masks
    assert same_valuation(G.valuation, back.valuation)
    assert back.certified


def test_instance_without_vendors_gets_single_owner():
    obj = valuation_to_obj(G.valuation)
    g = instance_from_obj(obj)
    assert g.vendor_masks == (U.full_mask,)


def test_uncertified_loads_by_default():
    obj = {
        "type": "table",
        "items": ["x", "y"],
        "entries": {"x": "1", "y": "1", "x,y": "3"},
        "vendors": [["x", "y"]],
    }
    g = instance_from_obj(obj)
    assert not g.certified


# -- schema rejection ------------------------------------------------------


def test_rejects_missing_subset():
    obj = {"type": "table", "items": ["x", "y"], "entries": {"x": "1"}}
    with pytest.raises(SchemaError, match="missing"):
        valuation_from_obj(obj)


def test_rejects_duplicate_subset():
    obj = {
        "type": "table",
        "items": ["x", "y"],
        "entries": {"x": "1", "y": "1", "y,x": "1", "x,y": "2"},
    }
    with pytest.raises(SchemaError, match="duplicate"):
        valuation_from_obj(obj)


def test_rejects_the_empty_set_named_twice():
    # the empty set may be left out, but named twice it is refused like any
    # other subset
    obj = {
        "type": "table",
        "items": ["x"],
        "entries": {"": "0", "{}": "0", "x": "1"},
    }
    with pytest.raises(SchemaError, match="duplicate"):
        valuation_from_obj(obj)
    del obj["entries"]["{}"]
    assert valuation_from_obj(obj).value_of(["x"]) == 1


def test_rejects_nonzero_empty_set():
    obj = {
        "type": "table",
        "items": ["x"],
        "entries": {"": "2", "x": "3"},
    }
    with pytest.raises(SchemaError, match="empty set"):
        valuation_from_obj(obj)


def test_rejects_unknown_item_in_entry():
    obj = {"type": "table", "items": ["x"], "entries": {"x": "1", "q": "2"}}
    with pytest.raises(SchemaError):
        valuation_from_obj(obj)


def test_rejects_float_numbers():
    obj = {"type": "table", "items": ["x"], "entries": {"x": 1.5}}
    with pytest.raises(SchemaError, match="strings"):
        valuation_from_obj(obj)


def test_rejects_bad_number_text():
    obj = {"type": "table", "items": ["x"], "entries": {"x": "1//2"}}
    with pytest.raises(SchemaError):
        valuation_from_obj(obj)


def test_rejects_unknown_type_and_curve():
    with pytest.raises(SchemaError, match="unknown valuation type"):
        valuation_from_obj({"type": "polynomial", "items": ["x"]})
    with pytest.raises(SchemaError, match="curve kind"):
        valuation_from_obj(
            {
                "type": "additive_groups",
                "items": ["x"],
                "groups": [["x"]],
                "curve": {"kind": "spline"},
            }
        )


def test_rejects_vendor_with_unknown_item():
    obj = valuation_to_obj(G.valuation)
    obj["vendors"] = [["a", "b"], ["c", "q"]]
    with pytest.raises(SchemaError, match="unknown item"):
        instance_from_obj(obj)


def test_rejects_overlapping_vendors():
    obj = valuation_to_obj(G.valuation)
    obj["vendors"] = [["a", "b", "c"], ["c", "d"]]
    with pytest.raises(SchemaError, match="disjoint"):
        instance_from_obj(obj)


# -- prices ----------------------------------------------------------------


def test_prices_round_trip():
    p = PriceVector(U, (F("2.601"), F("8.6045"), F(1, 3), F(0)))
    obj = prices_to_obj(p)
    assert obj == {"a": "2.601", "b": "8.6045", "c": "1/3", "d": "0"}
    back = prices_from_obj(U, obj, default=F(0))
    assert back.prices == p.prices


def test_prices_default_fills_missing():
    p = prices_from_obj(U, {"a": "2"}, default=F(9))
    assert p.prices == (F(2), F(9), F(9), F(9))


def test_prices_unknown_item():
    with pytest.raises(SchemaError, match="unknown item"):
        prices_from_obj(U, {"q": "1"}, default=F(0))


# -- tables, reports, traces -----------------------------------------------


def test_payoff_table_csv_shape():
    text = payoff_table_csv(G, payoff_table(G))
    lines = text.strip().split("\n")
    assert lines[0] == "profile,vendor_0,vendor_1"
    assert len(lines) == 17
    assert lines[1] == "{}|{},0,0"
    assert "{a}|{c},2.601,2.201" in lines
    assert '"{a,b}|{c,d}",2.1,2.1' in lines


def test_payoff_table_obj_shape():
    obj = payoff_table_obj(G, payoff_table(G))
    assert obj["vendors"] == 2
    assert len(obj["rows"]) == 16
    by_profile = {row["profile"]: row["payoffs"] for row in obj["rows"]}
    assert by_profile["{b}|{c,d}"] == ["2.5", "2.701"]


def test_report_text_no_equilibrium():
    text = "".join(report_to_text(G, equilibrium_report(G)))
    assert "0 pure Nash equilibria" in text
    assert "optimal welfare = 7.6045" in text
    assert "PoA undefined (no pure NE)" in text


def test_report_text_with_equilibria():
    g = pos_instance(2, 2, F(1, 100))
    text = "".join(report_to_text(g, equilibrium_report(g)))
    assert "4 pure Nash equilibria" in text
    assert "  {a1}|{b1}  welfare 2" in text
    assert "optimal welfare = 2.98" in text
    assert "PoA = 1.49, bound H_2+1 = 2.5, satisfied" in text
    assert "PoS = 1.49" in text


def test_listings_past_the_bound_on_kept_lists():
    # one 17-item part worth nothing: all 2^17 profiles are equilibria, in
    # 512 blocks of 256 whose contexts never repeat, so the lists kept for
    # reuse (of values and of texts) pass their bound and are cleared
    u = Universe(tuple(f"x{i}" for i in range(17)))
    v = AdditiveGroupsValuation(u, [u.full_mask], [0] * 18)
    low = (1 << 9) - 1
    g = GameInstance(v, [low, u.full_mask ^ low])
    nes = pmvc_pure_ne(g)
    assert len(nes.blocks) == 512
    profiles = list(nes)
    assert profiles == list(all_profiles(g))
    head = ["131072 pure Nash equilibria"]
    lines = ["  " + s.format(u) for s in profiles]
    assert "".join(equilibria_to_text(g, nes)) == "\n".join(head + lines)
    welfare = [format_rational(v.value_mask(s.union_mask)) for s in profiles]
    tail = ["optimal welfare = 0", "PoA = 1, bound H_9+1 = 9649/2520, satisfied", "PoS = 1"]
    assert "".join(report_to_text(g, equilibrium_report(g))) == "\n".join(
        head + [f"{line}  welfare {w}" for line, w in zip(lines, welfare)] + tail
    )


def renamed(g, names):
    """``g`` over items called ``names``, its parts kept."""
    u = Universe(tuple(names))
    v = g.valuation
    if isinstance(v, AdditiveGroupsValuation):
        w = AdditiveGroupsValuation(u, v.group_masks, v.curve)
    else:
        w = TableValuation(u, [v.value_mask(m) for m in range(1 << u.n)])
    return GameInstance(w, g.vendor_masks)


def assert_json_listings_match(g, undercut):
    table = payoff_table_obj(g, payoff_table(g, undercut=undercut))
    assert "".join(payoff_table_json(g, payoff_table(g, undercut=undercut))) == json.dumps(
        table, indent=2
    )
    nes = pmvc_pure_ne(g, undercut=undercut)
    assert "".join(equilibria_to_json(g, nes)) == json.dumps(equilibria_to_obj(g, nes), indent=2)
    report = equilibrium_report(g)
    assert "".join(report_to_json(g, report)) == json.dumps(report_to_obj(g, report), indent=2)


NAME = st.text(alphabet='a"\\é/', min_size=1, max_size=3)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 5_000),
    st.integers(1, 6),
    st.integers(1, 3),
    st.sampled_from(["coverage", "additive-concave"]),
    st.data(),
    st.sampled_from([None, F(1, 7)]),
)
def test_json_listings_join_to_the_dumped_objects(seed, n_items, k, gen, data, undercut):
    # escaped names ('"', '\\', a non-ASCII letter) and both pricings
    g = random_instance(seed, n_items, min(k, n_items), generator=gen)
    names = data.draw(st.lists(NAME, min_size=n_items, max_size=n_items, unique=True))
    assert_json_listings_match(renamed(g, names), undercut)


def test_json_listings_with_no_equilibrium():
    # the counterexample has no pure NE: both listings are empty lists
    g = renamed(G, ['"a', "b\\", "\u00e7", "d"])
    assert len(pmvc_pure_ne(g)) == 0
    assert_json_listings_match(g, None)


def test_json_listings_in_many_pieces():
    # one 13-item part worth nothing: all 8,192 profiles are equilibria,
    # so the listing is its head, two pieces of 4,096 and its close
    u = Universe(tuple(f"x{i}" for i in range(13)))
    v = AdditiveGroupsValuation(u, [u.full_mask], [0] * 14)
    g = GameInstance(v, [(1 << 6) - 1, u.full_mask ^ ((1 << 6) - 1)])
    nes = pmvc_pure_ne(g)
    assert len(nes) == 8192 and len(list(equilibria_to_json(g, nes))) == 4
    assert_json_listings_match(g, None)


def test_report_obj_shape():
    g = harmonic_instance(2, 2)
    obj = report_to_obj(g, equilibrium_report(g))
    assert len(obj["equilibria"]) == 9
    assert obj["poa"] == "1.5"
    assert obj["pos"] == "1"
    assert obj["bound_satisfied"] is True
    assert obj["optimal_welfare"] == "3"


def test_trace_jsonl_shape():
    from vcgames import br_dynamics
    from vcgames.serialize import trace_to_jsonl

    trace = br_dynamics(G, G.parse_profile("{a}|{c}"), "discrete")
    lines = "".join(trace_to_jsonl(G, trace)).split("\n")
    header = json.loads(lines[0])
    assert header == {"mode": "discrete", "start": "{a}|{c}"}
    first = json.loads(lines[1])
    assert first["step"] == 0
    assert first["profile"] == "{a}|{c,d}"
    assert first["prices"] is None
    trailer = json.loads(lines[-1])
    assert trailer == {"status": "cycle", "period": 4, "moves": 4}


def test_trace_jsonl_continuous_formats_every_rational():
    from vcgames import br_dynamics, pmvc_prices
    from vcgames.rationals import format_rational
    from vcgames.serialize import trace_to_jsonl

    trace = br_dynamics(G, pmvc_prices(G, G.parse_profile("{a}|{c}")), "continuous", 6)
    lines = [json.loads(line) for line in "".join(trace_to_jsonl(G, trace)).split("\n")]
    assert lines[0]["start"] == prices_to_obj(trace.start)
    assert len(lines) == len(trace.steps) + 2
    for line, step in zip(lines[1:], trace.steps):
        assert line["prices"] == prices_to_obj(step.prices)
        assert line["payoffs"] == [format_rational(q) for q in step.payoffs]


def reference_jsonl(g, trace) -> str:
    """The trace as one string, each line dumped and every rational
    formatted afresh: the text the pieces must join to."""
    def priced(p):
        return {name: format_rational(q) for name, q in zip(g.universe.names, p.prices)}

    start = trace.start
    lines = [json.dumps({
        "mode": trace.mode,
        "start": start.format(g.universe) if isinstance(start, StrategyProfile) else priced(start),
    })]
    for i, step in enumerate(trace.steps):
        lines.append(json.dumps({
            "step": i,
            "vendor": step.vendor,
            "profile": None if step.profile is None else step.profile.format(g.universe),
            "prices": None if step.prices is None else priced(step.prices),
            "payoffs": [format_rational(q) for q in step.payoffs],
        }))
    lines.append(json.dumps(
        {"status": trace.status, "period": trace.period, "moves": len(trace.steps)}
    ))
    return "\n".join(lines)


def assert_trace_pieces_match(g, trace):
    # a piece per line: the head, then each step and the trailer led by
    # their newline
    pieces = list(trace_to_jsonl(g, trace))
    assert "".join(pieces) == reference_jsonl(g, trace)
    assert len(pieces) == len(trace.steps) + 2
    assert "\n" not in pieces[0]
    assert all(p.startswith("\n") and p.count("\n") == 1 for p in pieces[1:])


@pytest.mark.parametrize(
    "g, mode, max_steps, status",
    [
        (G, "discrete", 1000, "cycle"),
        (G, "continuous", 5, "cap"),
        (random_instance(8, 7, 3), "continuous", 1000, "cycle"),
        (pos_instance(2, 3, F(1, 100)), "continuous", 1000, "converged"),
        (harmonic_instance(2, 3), "discrete", 1000, "converged"),
        (G, "continuous", 0, "cap"),
        (G, "discrete", 0, "cap"),
    ],
    ids=["discrete-cycle", "continuous-cap", "continuous-cycle", "continuous-converged",
         "discrete-converged", "continuous-no-move", "discrete-no-move"],
)
def test_trace_pieces_join_to_the_dumped_lines(g, mode, max_steps, status):
    trace = br_dynamics(g, StrategyProfile(tuple(g.vendor_masks)), mode, max_steps)
    assert trace.status == status
    assert len(trace.steps) == max_steps or status != "cap"
    assert_trace_pieces_match(g, trace)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 5_000),
    st.integers(1, 6),
    st.integers(1, 3),
    st.sampled_from(["discrete", "continuous"]),
    st.integers(0, 12),
    st.data(),
)
def test_trace_pieces_join_on_random_games(seed, n_items, k, mode, max_steps, data):
    # escaped names, both modes, and runs cut anywhere from no move on
    g = random_instance(seed, n_items, min(k, n_items))
    names = data.draw(st.lists(NAME, min_size=n_items, max_size=n_items, unique=True))
    g = renamed(g, names)
    assert_trace_pieces_match(g, br_dynamics(g, StrategyProfile(tuple(g.vendor_masks)), mode, max_steps))


def test_verification_obj_shape():
    from vcgames import pmvc_prices, vc_verify_ne
    from vcgames.serialize import verification_to_obj

    res = vc_verify_ne(G, pmvc_prices(G, G.parse_profile("{a}|{c}")))
    obj = verification_to_obj(G, res)
    assert obj["status"] == "refuted"
    assert obj["method"] == "target-set-exact"
    assert obj["deviation"]["vendor"] == 1
    assert obj["deviation"]["new_revenue"] == "2.703"
    assert len(obj["vendors"]) == 2


def test_best_response_obj_shape():
    from vcgames import sentinel_price, vc_best_response
    from vcgames.serialize import best_response_to_obj

    sent = sentinel_price(G.valuation)
    p = PriceVector(U, (F("2.601"), sent, sent, sent))
    obj = best_response_to_obj(G, vc_best_response(G, 1, p))
    assert obj["method"] == "target-set-exact"
    assert obj["revenue"] == "2.703"
    assert obj["prices"] == {"c": "1.4015", "d": "1.3015"}
    assert obj["target"] == "{c,d}"


# -- property: instances survive the wire ----------------------------------


@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 5_000),
    st.integers(1, 5),
    st.sampled_from(["coverage", "additive-concave"]),
)
def test_random_instance_round_trip(seed, n_items, gen):
    g = random_instance(seed, n_items, max(1, n_items // 2), generator=gen)
    back = instance_from_obj(json.loads(dump_instance(g)))
    assert back.vendor_masks == g.vendor_masks
    assert same_valuation(g.valuation, back.valuation)
