"""Discrete offer game: marginal pricing, payoffs, best replies, pure NE."""

import inspect
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcgames import (
    AdditiveGroupsValuation,
    CategoryMaxValuation,
    EnumerationCapExceeded,
    GameInstance,
    StrategyProfile,
    TableValuation,
    Universe,
    all_profiles,
    counterexample_instance,
    demand,
    equilibrium_report,
    expand_to_table,
    harmonic_instance,
    payoff_table,
    pmvc_best_response,
    pmvc_outcome,
    pmvc_payoffs,
    pmvc_prices,
    pmvc_pure_ne,
    pos_instance,
    random_cdsp_instance,
    random_instance,
)
from vcgames import pmvc
from vcgames.instances import _random_partition
from vcgames.items import bits_of, submasks_of
from vcgames.pmvc import _payoff_rule
from vcgames.serialize import equilibria_to_text, report_to_obj, report_to_text

G = counterexample_instance()
U = G.universe


def profile(left, right):
    return StrategyProfile((U.mask_of(left), U.mask_of(right)))


def payoffs(left, right):
    return pmvc_payoffs(G, profile(left, right))


# Every payoff pair of the 4x4 discrete game on the running instance, worked
# out by hand from the subset values.  Payoffs are (vendor owning {a,b},
# vendor owning {c,d}).
PAYOFF_ORACLE = {
    ((), ()): ("0", "0"),
    ((), ("c",)): ("0", "2.803"),
    ((), ("d",)): ("0", "2.703"),
    ((), ("c", "d")): ("0", "2.703"),
    (("a",), ()): ("3.203", "0"),
    (("a",), ("c",)): ("2.601", "2.201"),
    (("a",), ("d",)): ("2.601", "2.101"),
    (("a",), ("c", "d")): ("2.4", "2.301"),
    (("b",), ()): ("2.503", "0"),
    (("b",), ("c",)): ("2.501", "2.801"),
    (("b",), ("d",)): ("2.501", "2.701"),
    (("b",), ("c", "d")): ("2.5", "2.701"),
    (("a", "b"), ()): ("3.103", "0"),
    (("a", "b"), ("c",)): ("2.501", "2.2"),
    (("a", "b"), ("d",)): ("2.501", "2.1"),
    (("a", "b"), ("c", "d")): ("2.1", "2.1"),
}


# -- profiles and parsing --------------------------------------------------


def test_profile_basics():
    s = profile(("a",), ("c", "d"))
    assert s.union_mask == U.mask_of(("a", "c", "d"))
    assert s.format(U) == "{a}|{c,d}"
    assert G.parse_profile("{a}|{c,d}") == s
    assert G.parse_profile("{}|{}") == profile((), ())


def test_parse_profile_errors():
    with pytest.raises(ValueError):
        G.parse_profile("{a}")
    with pytest.raises(ValueError):
        G.parse_profile("{c}|{a}")  # items swapped across owners


def test_check_profile_rejects_unowned_items():
    with pytest.raises(ValueError):
        G.check_profile(StrategyProfile((U.mask_of(("a", "c")), 0)))
    with pytest.raises(ValueError):
        G.check_profile(StrategyProfile((0,)))


def test_instance_validation():
    v = TableValuation(Universe(("x", "y")), [0, 1, 1, 2])
    with pytest.raises(ValueError):
        GameInstance(v, ())
    with pytest.raises(ValueError):
        GameInstance(v, (0b01, 0b11))
    with pytest.raises(ValueError):
        GameInstance(v, (0b01,))
    with pytest.raises(ValueError):
        GameInstance(TableValuation(Universe(("x", "y")), [0, 1, 1, 3]), (0b11,))
    diag = GameInstance(
        TableValuation(Universe(("x", "y")), [0, 1, 1, 3]), (0b11,),
        allow_uncertified=True,
    )
    assert not diag.certified


# -- mechanism prices ------------------------------------------------------


def test_prices_full_offer():
    p = pmvc_prices(G, profile(("a", "b"), ("c", "d")))
    assert [str(q.numerator / q.denominator) for q in p.prices] == [
        "1.0", "1.1", "1.1", "1.0",
    ]
    assert p.prices == (Fraction(1), Fraction("1.1"), Fraction("1.1"), Fraction(1))


def test_prices_partial_offer_uses_sentinel():
    p = pmvc_prices(G, profile(("a",), ("c",)))
    sent = Fraction("8.6045")
    assert p.prices[U.index("a")] == Fraction("2.601")
    assert p.prices[U.index("b")] == sent
    assert p.prices[U.index("c")] == Fraction("2.201")
    assert p.prices[U.index("d")] == sent


def test_prices_empty_offer_all_sentinel():
    p = pmvc_prices(G, profile((), ()))
    assert set(p.prices) == {Fraction("8.6045")}


def test_undercut_prices_shave_and_clamp():
    eps = Fraction(1, 1000)
    p = pmvc_prices(G, profile(("a", "b"), ("c", "d")), undercut=eps)
    assert p.prices[U.index("a")] == Fraction("0.999")
    assert p.prices[U.index("b")] == Fraction("1.099")
    # a marginal below eps clamps to zero instead of going negative
    v = TableValuation(Universe(("x", "y")), [0, 1, 1, 1])
    g2 = GameInstance(v, (0b11,))
    p2 = pmvc_prices(g2, StrategyProfile((0b11,)), undercut=Fraction(2))
    assert p2.prices == (Fraction(0), Fraction(0))


def test_undercut_must_be_positive():
    with pytest.raises(ValueError):
        pmvc_prices(G, profile((), ()), undercut=Fraction(0))
    with pytest.raises(ValueError):
        pmvc_prices(G, profile((), ()), undercut=Fraction(-1, 2))


# -- outcomes and payoffs --------------------------------------------------


def test_outcome_full_offer():
    out = pmvc_outcome(G, profile(("a", "b"), ("c", "d")))
    assert out.sold == U.full_mask
    assert out.vendor_payoffs == (Fraction("2.1"), Fraction("2.1"))
    assert out.welfare == Fraction("7.6045")
    assert out.buyer_utility == Fraction("7.6045") - Fraction("4.2")


def test_outcome_monopoly_row():
    out = pmvc_outcome(G, profile(("a",), ()))
    assert out.sold == U.mask_of(("a",))
    assert out.vendor_payoffs == (Fraction("3.203"), Fraction(0))


def test_outcome_mixed_offer():
    out = pmvc_outcome(G, profile(("b",), ("c", "d")))
    assert out.sold == U.mask_of(("b", "c", "d"))
    assert out.vendor_payoffs == (Fraction("2.5"), Fraction("2.701"))


def test_payoff_table_matches_oracle():
    outcomes = list(payoff_table(G))
    assert len(outcomes) == 16
    seen = {}
    for out in outcomes:
        key = (U.names_of(out.profile.offers[0]), U.names_of(out.profile.offers[1]))
        seen[key] = tuple(str(q) for q in out.vendor_payoffs)
    expected = {
        k: tuple(str(Fraction(x)) for x in pair) for k, pair in PAYOFF_ORACLE.items()
    }
    assert seen == expected


def test_closed_form_matches_demand_route():
    for s in all_profiles(G):
        assert pmvc_payoffs(G, s) == pmvc_outcome(G, s).vendor_payoffs


def test_closed_form_refuses_uncertified():
    v = TableValuation(Universe(("x", "y")), [0, 1, 1, 3])
    g = GameInstance(v, (0b11,), allow_uncertified=True)
    with pytest.raises(ValueError):
        pmvc_payoffs(g, StrategyProfile((0b11,)))


def test_full_sale_on_running_instance():
    for s in all_profiles(G):
        assert pmvc_outcome(G, s).sold == s.union_mask


def test_undercut_outcome_is_strict():
    eps = Fraction(1, 1000)
    out = pmvc_outcome(G, profile(("a", "b"), ("c", "d")), undercut=eps)
    assert out.sold == U.full_mask
    assert out.demand.optima_count == 1
    assert out.vendor_payoffs == (Fraction("2.098"), Fraction("2.098"))


@pytest.mark.parametrize("eps", [None, Fraction(1, 7)])
@pytest.mark.parametrize(
    "g", [G, harmonic_instance(2, 3), random_instance(3, 6, 3)], ids=["ce", "harmonic", "random"]
)
def test_outcome_demand_matches_demand_at_the_profile_prices(g, eps):
    # pmvc_outcome hands the pricing's integers to the buyer's scan; with
    # eps = 1/7 their scale is not the value table's
    for s in all_profiles(g):
        out = pmvc_outcome(g, s, eps)
        alone = demand(g.valuation, pmvc_prices(g, s, eps))
        assert out.demand == alone
        assert out.demand.optima_count == alone.optima_count
        assert out.demand.prices == out.prices


# -- profile enumeration ---------------------------------------------------


def test_all_profiles_order():
    first = [s.format(U) for s in list(all_profiles(G))[:5]]
    assert first == ["{}|{}", "{}|{c}", "{}|{d}", "{}|{c,d}", "{a}|{}"]
    assert len(list(all_profiles(G))) == 16


def test_payoff_table_cap():
    with pytest.raises(EnumerationCapExceeded):
        payoff_table(G, cap=10)


def test_payoff_table_prices_a_profile_as_it_is_read(monkeypatch):
    calls = []
    real = pmvc.pmvc_outcome

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(pmvc, "pmvc_outcome", counted)
    table = payoff_table(G)
    assert calls == []
    first = next(table)
    assert len(calls) == 1 and first.profile == StrategyProfile((0, 0))


# -- best replies ----------------------------------------------------------


def test_best_response_examples():
    cd = profile((), ("c", "d"))
    assert pmvc_best_response(G, 0, cd) == [U.mask_of(("b",))]
    a_only = profile(("a",), ())
    assert pmvc_best_response(G, 1, a_only) == [U.mask_of(("c", "d"))]
    assert pmvc_payoffs(G, profile(("b",), ("c", "d")))[0] == Fraction("2.5")
    assert pmvc_payoffs(G, profile(("a",), ("c", "d")))[1] == Fraction("2.301")


def test_best_response_empty_vendor():
    v = TableValuation(Universe(("x", "y")), [0, 1, 1, 2])
    g = GameInstance(v, (0b11, 0))
    assert pmvc_best_response(g, 1, StrategyProfile((0b11, 0))) == [0]


def test_best_response_rejects_bad_others():
    with pytest.raises(ValueError):
        pmvc_best_response(G, 0, StrategyProfile((0, U.mask_of(("a",)))))


def test_best_response_rejects_bad_vendor_and_length():
    with pytest.raises(ValueError, match="no vendor"):
        pmvc_best_response(G, 5, (0, 0))
    with pytest.raises(ValueError, match="length"):
        pmvc_best_response(G, 0, (0,))


@pytest.mark.parametrize("eps", [Fraction(0), Fraction(-1)], ids=str)
def test_nonpositive_undercut_refused_on_certified_game(eps):
    with pytest.raises(ValueError, match="undercut"):
        pmvc_pure_ne(G, undercut=eps)
    with pytest.raises(ValueError, match="undercut"):
        pmvc_best_response(G, 0, profile((), ()), undercut=eps)


def test_best_response_diagnostic_route_agrees():
    # the uncertified path reruns demand per candidate; on a certified table
    # both routes must coincide
    v = TableValuation(U, [G.valuation.value_mask(m) for m in range(16)])
    certified = GameInstance(v, G.vendor_masks)
    diagnostic = GameInstance(v, G.vendor_masks, allow_uncertified=True)
    diagnostic.monotone_certified = False  # force the demand route
    for s in all_profiles(certified):
        for i in range(2):
            assert pmvc_best_response(certified, i, s) == pmvc_best_response(
                diagnostic, i, s
            )


# -- pure equilibria -------------------------------------------------------


def test_running_instance_has_no_pure_ne():
    assert pmvc_pure_ne(G) == []


def test_single_item_monopoly_ne():
    v = TableValuation(Universe(("x",)), [0, 2])
    g = GameInstance(v, (0b1,))
    assert pmvc_pure_ne(g) == [StrategyProfile((0b1,))]


def test_pure_ne_cap():
    with pytest.raises(EnumerationCapExceeded):
        pmvc_pure_ne(G, cap=3)


def naive_pure_ne(g):
    """Reference check: literal unilateral-deviation loops over outcomes."""
    found = []
    for s in all_profiles(g):
        base = pmvc_outcome(g, s).vendor_payoffs
        ok = True
        for i in range(g.n_vendors):
            items = g.vendor_items(i)
            offers = list(s.offers)
            for lm in range(1 << len(items)):
                alt = 0
                for j, it in enumerate(items):
                    if lm >> j & 1:
                        alt |= 1 << it
                offers[i] = alt
                if pmvc_outcome(g, StrategyProfile(tuple(offers))).vendor_payoffs[i] > base[i]:
                    ok = False
                    break
            offers[i] = s.offers[i]
            if not ok:
                break
        if ok:
            found.append(s)
    return found


def test_pure_ne_matches_naive_on_running_instance():
    assert pmvc_pure_ne(G) == naive_pure_ne(G)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["coverage", "additive-concave"]))
def test_pure_ne_matches_naive_on_random_instances(seed, gen):
    g = random_instance(seed, n_items=4, n_vendors=2, generator=gen)
    assert pmvc_pure_ne(g) == naive_pure_ne(g)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 30))
def test_full_sale_property(seed, profile_seed):
    import random

    g = random_instance(seed, n_items=5, n_vendors=2, generator="coverage")
    rng = random.Random(profile_seed)
    s = StrategyProfile(tuple(_random_offer(rng, m) for m in g.vendor_masks))
    out = pmvc_outcome(g, s)
    assert out.sold == s.union_mask
    assert out.vendor_payoffs == pmvc_payoffs(g, s)


def _random_offer(rng, owned):
    mask = 0
    for b in range(owned.bit_length()):
        if owned >> b & 1 and rng.random() < 0.6:
            mask |= 1 << b
    return mask


def _pos_with_idle_vendor(first):
    """``pos_instance(2, 2, 1/100)`` with one more vendor, placed first or
    last, that owns nothing: its only offer is the empty set."""
    g = pos_instance(2, 2, Fraction(1, 100))
    masks = (0, *g.vendor_masks) if first else (*g.vendor_masks, 0)
    return GameInstance(g.valuation, masks)


REFERENCE_GAMES = {
    "counterexample": lambda: G,
    "harmonic-2-2": lambda: harmonic_instance(2, 2),
    "random-3-8-3": lambda: random_instance(3, 8, 3),
    "random-5-7-2": lambda: random_instance(5, 7, 2),
    "cdsp-4-6-3": lambda: random_cdsp_instance(4, 6, 3),
    "pos-3-3": lambda: pos_instance(3, 3, Fraction(1, 100)),
    # three groups; the group {c,d,e,h} holds items of all three vendors
    "additive-concave-8-8-3": lambda: random_instance(8, 8, 3, "additive-concave"),
    # the profile order's edge cases: no vendor before the last one, and an
    # empty offer table first or last
    "harmonic-1-4": lambda: harmonic_instance(1, 4),
    "pos-2-2-first-idle": lambda: _pos_with_idle_vendor(first=True),
    "pos-2-2-last-idle": lambda: _pos_with_idle_vendor(first=False),
}


def _demand_route(g):
    """The same game with certification switched off, so every payoff comes
    from demand runs rather than the closed form."""
    forced = GameInstance(g.valuation, g.vendor_masks, allow_uncertified=True)
    forced.monotone_certified = False
    return forced


@pytest.mark.parametrize("route", ["closed-form", "demand"])
@pytest.mark.parametrize(
    "eps", [None, Fraction(1, 1000), Fraction(1, 2), Fraction(3)], ids=str
)
@pytest.mark.parametrize("name", sorted(REFERENCE_GAMES))
def test_pure_ne_and_best_response_match_brute_force(name, eps, route):
    g = REFERENCE_GAMES[name]()
    if route == "demand":
        g = _demand_route(g)
    pay = {
        s.union_mask: pmvc_outcome(g, s, eps).vendor_payoffs for s in all_profiles(g)
    }
    # a demand-route best reply reruns demand for each offer; keep that cheap
    check_replies = route == "closed-form" or g.universe.n <= 6
    expected_ne = []
    for s in all_profiles(g):
        stable = True
        for i in range(g.n_vendors):
            rest = s.union_mask & ~g.vendor_masks[i]
            alts = {o: pay[rest | o][i] for o in submasks_of(g.vendor_masks[i])}
            best = max(alts.values())
            if check_replies:
                assert pmvc_best_response(g, i, s, undercut=eps) == sorted(
                    o for o, p in alts.items() if p == best
                )
            stable = stable and pay[s.union_mask][i] == best
        if stable:
            expected_ne.append(s)
    assert pmvc_pure_ne(g, undercut=eps) == expected_ne


@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from(["coverage", "additive-concave"]),
    st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
)
def test_closed_form_matches_demand_route_on_random_instances(seed, gen, shape):
    g = random_instance(seed, *shape, generator=gen)
    assert g.certified
    for s in all_profiles(g):
        assert pmvc_payoffs(g, s) == pmvc_outcome(g, s).vendor_payoffs


# -- one additive part at a time -------------------------------------------


def _one_part_twin(g):
    """The same game over a plain table, which declares no parts."""
    return GameInstance(expand_to_table(g.valuation), g.vendor_masks)


SHAPES = st.integers(1, 9).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, min(3, n))))
PART_UNDERCUTS = st.sampled_from([None, Fraction(1, 7), Fraction(1, 1000)])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), SHAPES, PART_UNDERCUTS)
def test_per_part_pass_matches_one_part_on_additive_groups(seed, shape, eps):
    g = random_instance(seed, *shape, "additive-concave")
    assert g.valuation.components() == g.valuation.group_masks
    assert pmvc_pure_ne(g, undercut=eps) == pmvc_pure_ne(_one_part_twin(g), undercut=eps)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), SHAPES, st.integers(1, 9), PART_UNDERCUTS)
def test_per_part_pass_matches_one_part_on_categories(seed, shape, categories, eps):
    n, k = shape
    g = random_cdsp_instance(seed, n, min(categories, n), k)
    assert g.valuation.components() == g.valuation.category_masks
    assert pmvc_pure_ne(g, undercut=eps) == pmvc_pure_ne(_one_part_twin(g), undercut=eps)


class PartedTable(TableValuation):
    """An explicit table that declares the parts it adds up over."""

    def __init__(self, universe, values, parts):
        super().__init__(universe, values)
        self.parts = parts

    def components(self):
        return self.parts


@pytest.mark.parametrize("eps", [None, Fraction(1, 1000)], ids=str)
def test_a_part_without_equilibria_leaves_none(eps):
    # the counterexample's items a..d beside the block of harmonic_instance(2, 2);
    # the second vendor owns c, d and the block's first two items
    block = harmonic_instance(2, 2)
    u = Universe(U.names + block.universe.names)
    values = [
        G.valuation.value_mask(m & 0b1111) + block.valuation.value_mask(m >> 4)
        for m in range(1 << 8)
    ]
    g = GameInstance(PartedTable(u, values, (0b1111, 0b1111_0000)), (0b11, 0b11_1100, 0b1100_0000))
    assert pmvc_pure_ne(G, undercut=eps) == []
    assert len(pmvc_pure_ne(block, undercut=eps)) > 0
    assert pmvc_pure_ne(g, undercut=eps) == [] == pmvc_pure_ne(_one_part_twin(g), undercut=eps)


def test_payoff_rules_read_the_valuations_own_tables(monkeypatch):
    g = harmonic_instance(3, 5)
    eps = Fraction(1, 7)
    rule = g.pricing(eps)
    values = g.valuation.part_tables()
    assert rule.values is values  # no scaled copy
    assert rule.f == rule.scale // values.scale > 1  # the tables' denominator lacks 7
    assert pmvc_pure_ne(g, undercut=eps)
    assert g.pricing(eps) is rule
    assert g.valuation._dense is None  # the NE pass read the part tables only
    # a best reply scans a vendor's offers part by part, over the part
    # tables themselves, so no dense table is built on a separable game
    tables = []

    def spy(game, undercut, table):
        tables.append(table)
        return _payoff_rule(game, undercut, table)

    monkeypatch.setattr(pmvc, "_payoff_rule", spy)
    assert pmvc_best_response(g, 0, StrategyProfile((0,) * 3), eps)
    assert len(tables) == len(values.tables) == 3
    assert all(map(operator.is_, tables, values.tables))
    assert g.valuation._dense is None
    assert inspect.getclosurevars(_payoff_rule(g, eps, values.tables[0])).nonlocals["f"] == rule.f
    # prices and welfare take f as a value leaves its table
    s = StrategyProfile(g.vendor_masks)
    union, v = s.union_mask, g.valuation.value_mask
    assert pmvc_prices(g, s, eps).prices == tuple(
        max(v(union) - v(union ^ (1 << item)) - eps, Fraction(0)) for item in range(g.universe.n)
    )
    assert pmvc_outcome(g, s, eps).welfare == v(union)
    assert g.valuation.dense_scaled()[1] == values.scale


@pytest.mark.parametrize("eps", [None, Fraction(1, 1000)], ids=str)
def test_a_vendors_rests_span_several_payoff_calls(monkeypatch, eps):
    # one 17-item harmonic group over vendors of 1 and 16 items: vendor 0
    # reviews 2^16 rests of 2 payoffs each, vendor 1 two rests of 2^16
    v = harmonic_instance(1, 17).valuation
    g = GameInstance(v, (0b1, v.universe.full_mask ^ 0b1))
    calls = []

    def spy(game, undercut, table):
        pays = _payoff_rule(game, undercut, table)

        def counted(rests, vendor, mine):
            calls.append(vendor)
            return pays(rests, vendor, mine)

        return counted

    monkeypatch.setattr(pmvc, "_payoff_rule", spy)
    assert list(pmvc_pure_ne(g, undercut=eps)) == [StrategyProfile(g.vendor_masks)]
    assert calls == [0, 0, 1, 1]


def test_a_block_longer_than_a_run_is_read_whole():
    # one vendor owning 17 interchangeable items: its one block of 2^17
    # payoffs is longer than a run, and at an undercut its best offers are
    # the single items
    g = harmonic_instance(1, 17)
    nes = pmvc_pure_ne(g, undercut=Fraction(1, 1000))
    assert list(nes) == [StrategyProfile((1 << item,)) for item in range(17)]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from(["coverage", "additive-concave"]),
    st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    st.sampled_from([None, Fraction(1, 7)]),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_payoffs_over_many_rests_are_the_single_rest_blocks_end_to_end(
    seed, gen, shape, eps, demand_route, rng
):
    g = random_instance(seed, *shape, generator=gen)
    if demand_route:
        g = _demand_route(g)
    for _, _, pays, mines, unions in pmvc._part_games(g, eps):
        full = len(unions) - 1
        for i, mine in enumerate(mines):
            if mine:
                # any number of rests, in any order
                rests = list(submasks_of(full & ~mine))
                rests = rng.sample(rests, rng.randint(1, len(rests)))
                assert pays(rests, i, mine) == [p for r in rests for p in pays([r], i, mine)]


def test_separable_game_never_builds_the_whole_table():
    g = harmonic_instance(3, 6)
    nes = pmvc_pure_ne(g)
    report = equilibrium_report(g)
    assert len(report.equilibria) == len(nes) == 63**3
    "".join(equilibria_to_text(g, nes))
    "".join(report_to_text(g, report))
    report_to_obj(g, report)
    s = StrategyProfile(g.vendor_masks)
    pmvc_prices(g, s)
    pmvc_payoffs(g, s)
    assert g.valuation._dense is None


def test_one_part_pricing_reads_the_dense_table_itself():
    g = random_instance(4, 6, 2)  # coverage: one part
    assert len(g.valuation.components()) == 1
    rule = g.pricing()
    table, scale = g.valuation.dense_scaled()
    assert rule.scale == scale
    assert rule.f == 1
    assert rule.values is g.valuation.part_tables()
    assert rule.values.tables[0] is table


def _coverage_values(rng, size):
    """A coverage table over ``size`` items: each covers a random set of
    three weighted elements, and a set is worth the weight it covers."""
    weights = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(3)]
    covers = [rng.randint(0, 7) for _ in range(size)]
    values = []
    for mask in range(1 << size):
        covered = 0
        for j in bits_of(mask):
            covered |= covers[j]
        values.append(sum((w for e, w in enumerate(weights) if covered >> e & 1), Fraction(0)))
    return values


def _spread(universe, parts, tables):
    """The sum of per-part tables, table k over the local masks of
    ``parts[k]``, as a ``PartedTable``."""
    items = [list(bits_of(part)) for part in parts]
    values = [
        sum(t[sum(1 << j for j, i in enumerate(own) if mask >> i & 1)]
            for t, own in zip(tables, items))
        for mask in range(1 << universe.n)
    ]
    return PartedTable(universe, values, parts)


@st.composite
def shuffled_separable(draw, most=6, low=0):
    """A separable valuation of each kind on up to ``most`` items, its
    parts drawn over shuffled items as ``random_instance`` draws them, and
    vendor sets.  Certified unless ``low``, the least curve increment or
    item value drawn, is negative."""
    n = draw(st.integers(2, most), label="items")
    rng = random.Random(draw(st.integers(0, 10_000), label="seed"))
    parts = _random_partition(rng, n, draw(st.integers(1, n), label="parts"))
    u = Universe(tuple("abcdefghijk"[:n]))
    kind = draw(st.sampled_from(["table", "additive-groups", "category-max"]))
    if kind == "table":
        v = _spread(u, parts, [_coverage_values(rng, p.bit_count()) for p in parts])
    elif kind == "additive-groups":
        incs = sorted((Fraction(rng.randint(low, 12), rng.randint(1, 5)) for _ in range(n)),
                      reverse=True)
        v = AdditiveGroupsValuation(u, parts, [sum(incs[:t], Fraction(0)) for t in range(n + 1)])
    else:
        values = [Fraction(rng.randint(low, 9), rng.randint(1, 6)) for _ in range(n)]
        v = CategoryMaxValuation(u, parts, values)
    return v, _random_partition(rng, n, draw(st.integers(1, n), label="vendors"))


@settings(max_examples=60, deadline=None)
@given(shuffled_separable(most=11, low=-3))  # past 8 items, a mask's local masks read two bytes
def test_part_tables_sum_to_the_dense_table(drawn):
    v, _ = drawn
    values = v.part_tables()
    assert values.parts == v.components()
    table, scale = v.dense_scaled()
    assert values.scale == scale
    for mask in range(1 << v.universe.n):
        parted = [t[values.local(k, mask)] for k, t in enumerate(values.tables)]
        assert sum(parted) == values.value(mask) == table[mask]
        assert Fraction(table[mask], scale) == v.value_mask(mask)
        assert [Fraction(x, scale) for x in parted] == [
            v.value_mask(mask & part) for part in values.parts
        ]


@settings(max_examples=40, deadline=None)
@given(shuffled_separable())
def test_separable_game_plays_as_its_one_part_twin(drawn):
    g = GameInstance(*drawn)
    twin = _one_part_twin(g)
    eps = Fraction(1, 7)
    for s in all_profiles(g):
        assert pmvc_prices(g, s, eps) == pmvc_prices(twin, s, eps)
        assert pmvc_payoffs(g, s) == pmvc_payoffs(twin, s)
        assert pmvc_outcome(g, s, eps) == pmvc_outcome(twin, s, eps)
    assert pmvc_pure_ne(g, undercut=eps) == pmvc_pure_ne(twin, undercut=eps)
    assert g.valuation.part_tables().parts == g.valuation.components()


def _check_block_values(g):
    values = g.valuation.part_tables()
    nes = pmvc_pure_ne(g)
    for seq in (nes, nes[1:]):
        unions = []
        for prefix, offers, base, rest in seq.value_blocks():
            assert base == values.value(prefix & ~seq.tail)
            assert [base + w for w in rest] == [values.value(prefix + o) for o in offers]
            unions += [prefix + o for o in offers]
        assert unions == list(seq._walk())


@settings(max_examples=40, deadline=None)
@given(shuffled_separable(), st.booleans())
def test_block_values_add_up_to_each_union_value(drawn, idle_last):
    # an idle last vendor leaves no item in ``tail``: every base is read
    # from the sums over the head parts
    v, vendors = drawn
    _check_block_values(GameInstance(v, (*vendors, 0) if idle_last else vendors))


@pytest.mark.parametrize("vendors", [(0b011, 0b100), (0b011, 0b100, 0)], ids=["busy", "idle"])
def test_block_values_of_an_uncertified_game(vendors):
    # |S|^2 is monotone but not submodular: one part, the whole universe
    v = TableValuation(Universe(("a", "b", "c")), [m.bit_count() ** 2 for m in range(8)])
    g = GameInstance(v, vendors, allow_uncertified=True)
    assert not g.certified and pmvc_pure_ne(g)
    _check_block_values(g)
