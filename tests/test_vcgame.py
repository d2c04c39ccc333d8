"""Continuous price game: best replies, verification, projection, dynamics."""

import math
import re
from fractions import Fraction

import pytest
from conftest import big_denominator_fractions, brute_floors, coverage_values
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vcgames import (
    GameInstance,
    PriceVector,
    StrategyProfile,
    TableValuation,
    Universe,
    br_dynamics,
    counterexample_instance,
    demand,
    harmonic_instance,
    map_to_pmvc,
    pmvc_prices,
    random_instance,
    sentinel_price,
    vc_best_response,
    vc_verify_ne,
    vendor_revenue,
)
from vcgames import exactlp
from vcgames.items import bits_of, submasks_of
from vcgames.rationals import integers
from vcgames.serialize import verification_to_obj

G = counterexample_instance()
U = G.universe
SENT = sentinel_price(G.valuation)


def pv(**kwargs):
    prices = [SENT] * U.n
    for name, q in kwargs.items():
        prices[U.index(name)] = Fraction(q)
    return PriceVector(U, tuple(prices))


def named(prices):
    return {U.names[i]: q for i, q in prices.items()}


# -- revenue accounting ----------------------------------------------------


def test_vendor_revenue_by_sold_items():
    p = pv(a="2.601", c="2.201")
    assert vendor_revenue(G, p, 0) == Fraction("2.601")
    assert vendor_revenue(G, p, 1) == Fraction("2.201")


def test_vendor_revenue_nothing_sold():
    p = pv()
    assert vendor_revenue(G, p, 0) == 0
    assert vendor_revenue(G, p, 1) == 0


def test_vendor_revenue_at_mechanism_prices():
    p = pmvc_prices(G, G.parse_profile("{b}|{c,d}"))
    assert vendor_revenue(G, p, 0) == Fraction("2.5")
    assert vendor_revenue(G, p, 1) == Fraction("2.701")


def test_vendor_revenue_refuses_unknown_vendor():
    p = pv(a="2.601", c="2.201")
    for vendor in (-1, 5):  # -1 used to read vendor 1, 5 to raise IndexError
        with pytest.raises(ValueError, match=f"no vendor {vendor}"):
            vendor_revenue(G, p, vendor)


# -- best responses, three tiers -------------------------------------------


def test_best_response_tiers_disagree_here():
    # against a=2.601 (b withheld), the complete tier finds off-marginal
    # prices worth 2.703; the offer-style heuristic stops at 2.301
    p = pv(a="2.601")
    exact = vc_best_response(G, 1, p, "target-set-exact")
    assert exact.revenue == Fraction("2.703")
    assert exact.realized_revenue == Fraction("2.703")
    assert named(exact.prices) == {"c": Fraction("1.4015"), "d": Fraction("1.3015")}
    assert exact.target_mask == U.mask_of(("c", "d"))

    cand = vc_best_response(G, 1, p, "candidate-set")
    assert cand.revenue == Fraction("2.301")
    assert named(cand.prices) == {"c": Fraction("1.2005"), "d": Fraction("1.1005")}

    grid = vc_best_response(G, 1, p, "grid")
    assert grid.revenue == Fraction("2.703")
    assert grid.realized_revenue == Fraction("2.703")


def test_best_response_single_vendor_takes_full_surplus():
    v = TableValuation(Universe(("x",)), [0, 5])
    g = GameInstance(v, (0b1,))
    br = vc_best_response(g, 0, PriceVector(v.universe, (Fraction(0),)))
    assert br.revenue == 5
    assert br.realized_revenue == 5
    assert br.prices == {0: Fraction(5)}


def test_best_response_empty_vendor():
    v = TableValuation(Universe(("x",)), [0, 5])
    g = GameInstance(v, (0b1, 0))
    br = vc_best_response(g, 1, PriceVector(v.universe, (Fraction(2),)))
    assert br.revenue == 0
    assert br.prices == {}


def test_best_response_argument_errors():
    p = pv()
    with pytest.raises(ValueError):
        vc_best_response(G, 5, p)
    with pytest.raises(ValueError):
        vc_best_response(G, 0, p, "newton")


# prices over three of the counterexample's four items
SHORT = PriceVector(Universe(U.names[:3]), (SENT,) * 3)


@pytest.mark.parametrize("method", ["candidate-set", "target-set-exact", "grid"])
def test_best_response_refuses_prices_over_another_universe(method):
    with pytest.raises(ValueError, match="price vector universe mismatch"):
        vc_best_response(G, 0, SHORT, method)


@pytest.mark.parametrize("method", ["candidate-set", "target-set-exact", "grid"])
def test_verify_refuses_prices_over_another_universe(method):
    with pytest.raises(ValueError, match="price vector universe mismatch"):
        vc_verify_ne(G, SHORT, method)


@pytest.mark.parametrize("mode", ["discrete", "continuous"])
def test_dynamics_refuses_prices_over_another_universe(mode):
    with pytest.raises(ValueError, match="price vector universe mismatch"):
        br_dynamics(G, SHORT, mode)


def test_vendor_game_refuses_uncertified():
    v = TableValuation(Universe(("x", "y")), [0, 1, 1, 3])
    g = GameInstance(v, (0b11,), allow_uncertified=True)
    p = PriceVector(v.universe, (Fraction(1), Fraction(1)))
    with pytest.raises(ValueError):
        vc_best_response(g, 0, p)
    with pytest.raises(ValueError):
        vendor_revenue(g, p, 0)
    with pytest.raises(ValueError):
        map_to_pmvc(g, p)


# -- equilibrium verification ----------------------------------------------


def test_verify_certifies_monopoly_surplus_price():
    v = TableValuation(Universe(("x",)), [0, 5])
    g = GameInstance(v, (0b1,))
    res = vc_verify_ne(g, PriceVector(v.universe, (Fraction(5),)))
    assert res.certified
    assert res.status == "ne-certified"
    assert res.certificate is None
    assert res.checks[0].current_revenue == 5
    assert res.checks[0].best_revenue == 5


def test_verify_refutes_underpricing():
    v = TableValuation(Universe(("x",)), [0, 5])
    g = GameInstance(v, (0b1,))
    res = vc_verify_ne(g, PriceVector(v.universe, (Fraction(3),)))
    assert not res.certified
    assert res.status == "refuted"
    cert = res.certificate
    assert cert.vendor == 0
    assert cert.old_revenue == 3
    assert cert.new_revenue == 5


@pytest.mark.parametrize("method", ["candidate-set", "grid"])
def test_incomplete_tier_without_deviation_does_not_certify(method):
    # the exact tier refutes these prices; the incomplete tiers miss the gain
    g = random_instance(1, 5, 2)
    p = PriceVector(g.universe, tuple(map(Fraction, ("23.3", "1", "5.4", "3.3", "23.3"))))
    assert vc_verify_ne(g, p).status == "refuted"
    res = vc_verify_ne(g, p, method)
    assert res.certificate is None
    assert not res.certified
    assert res.status == "not-refuted"
    assert "deviation" not in verification_to_obj(g, res)


def test_incomplete_tier_refutes_without_certifying():
    res = vc_verify_ne(G, pmvc_prices(G, G.parse_profile("{a}|{c}")), "candidate-set")
    assert res.status == "refuted"
    assert res.certificate.new_revenue > res.certificate.old_revenue


def test_verify_refutes_mechanism_prices_of_nonequilibrium():
    p = pmvc_prices(G, G.parse_profile("{a}|{c}"))
    res = vc_verify_ne(G, p)
    assert not res.certified
    cert = res.certificate
    assert cert.vendor == 1
    assert cert.old_revenue == Fraction("2.201")
    assert cert.new_revenue == Fraction("2.703")


def test_certificate_replays_through_demand():
    p = pmvc_prices(G, G.parse_profile("{a}|{c}"))
    cert = vc_verify_ne(G, p).certificate
    full = p.replace(cert.prices)
    d = demand(G.valuation, full)
    realized = full.total(d.chosen & G.vendor_masks[cert.vendor])
    assert realized == cert.new_revenue
    assert realized > cert.old_revenue


def test_verify_sells_nothing_more_once_refuted(monkeypatch):
    # vendor 0 refutes these prices; vendor 1 is then only bounded by its tier,
    # so the prices are sold twice: once as given, once for the certificate
    import vcgames.vcgame as vcgame

    sales = []
    real_sale = vcgame._sale
    monkeypatch.setattr(vcgame, "_sale", lambda g, p: sales.append(p) or real_sale(g, p))
    res = vc_verify_ne(G, pv(a=1, b=1, c=1, d=1))
    assert res.certificate.vendor == 0
    assert len(res.checks) == 2
    assert len(sales) == 2


# -- projection onto the discrete game -------------------------------------


def test_map_to_pmvc_example():
    profile, deltas = map_to_pmvc(G, pv(a="2.0", c="2.0"))
    assert profile == G.parse_profile("{a}|{c}")
    assert deltas == (Fraction("0.601"), Fraction("0.201"))


def test_map_to_pmvc_idempotent_on_mechanism_prices():
    s = G.parse_profile("{b}|{c,d}")
    profile, deltas = map_to_pmvc(G, pmvc_prices(G, s))
    assert profile == s
    assert deltas == (Fraction(0), Fraction(0))


def test_map_to_pmvc_all_withheld():
    profile, deltas = map_to_pmvc(G, pv())
    assert profile == StrategyProfile((0, 0))
    assert deltas == (Fraction(0), Fraction(0))


# -- dynamics --------------------------------------------------------------


def test_discrete_dynamics_cycles_on_running_instance():
    trace = br_dynamics(G, G.parse_profile("{a}|{c}"), "discrete")
    assert trace.mode == "discrete"
    assert trace.status == "cycle"
    assert trace.period == 4
    assert [s.profile.format(U) for s in trace.steps] == [
        "{a}|{c,d}",
        "{b}|{c,d}",
        "{b}|{c}",
        "{a}|{c}",
    ]


def test_discrete_dynamics_accepts_price_start():
    # prices are first projected onto offers, then the walk proceeds
    trace = br_dynamics(G, pv(a="2.0", c="2.0"), "discrete")
    assert trace.status == "cycle"
    assert trace.period == 4


def test_discrete_dynamics_converges_on_single_item():
    v = TableValuation(Universe(("x",)), [0, 5])
    g = GameInstance(v, (0b1,))
    trace = br_dynamics(g, StrategyProfile((0,)), "discrete")
    assert trace.status == "converged"
    assert trace.steps[-1].profile == StrategyProfile((0b1,))


def test_discrete_dynamics_cap():
    trace = br_dynamics(G, G.parse_profile("{a}|{c}"), "discrete", max_steps=2)
    assert trace.status == "cap"
    assert len(trace.steps) == 2
    assert trace.period is None


def test_continuous_dynamics_cycles_on_running_instance():
    trace = br_dynamics(G, G.parse_profile("{a}|{c}"), "continuous", max_steps=60)
    assert trace.mode == "continuous"
    assert trace.status == "cycle"
    assert trace.period == 6
    assert len(trace.steps) == 8
    # every logged move strictly raised the mover's realized revenue
    state = pmvc_prices(G, G.parse_profile("{a}|{c}"))
    for step in trace.steps:
        before = vendor_revenue(G, state, step.vendor)
        after = vendor_revenue(G, step.prices, step.vendor)
        assert after > before
        state = step.prices


def test_continuous_dynamics_converges_to_surplus_extraction():
    v = TableValuation(Universe(("x",)), [0, 5])
    g = GameInstance(v, (0b1,))
    trace = br_dynamics(g, PriceVector(v.universe, (Fraction(3),)), "continuous")
    assert trace.status == "converged"
    assert trace.steps[-1].prices.prices == (Fraction(5),)


def test_dynamics_argument_errors():
    with pytest.raises(ValueError):
        br_dynamics(G, G.parse_profile("{a}|{c}"), "annealed")
    with pytest.raises(ValueError):
        br_dynamics(G, G.parse_profile("{a}|{c}"), "discrete", max_steps=-5)


# -- tier dominance and realizability properties ---------------------------


@st.composite
def instance_and_prices(draw):
    seed = draw(st.integers(0, 5_000))
    gen = draw(st.sampled_from(["coverage", "additive-concave"]))
    g = random_instance(seed, n_items=4, n_vendors=2, generator=gen)
    sent = sentinel_price(g.valuation)
    prices = []
    for i in range(4):
        if draw(st.booleans()):
            prices.append(sent)
        else:
            prices.append(
                draw(st.fractions(Fraction(0), Fraction(8), max_denominator=8))
            )
    return g, PriceVector(g.universe, tuple(prices)), draw(st.integers(0, 1))


@settings(max_examples=40, deadline=None)
@given(instance_and_prices())
def test_exact_tier_dominates(case):
    g, p, vendor = case
    exact = vc_best_response(g, vendor, p, "target-set-exact")
    cand = vc_best_response(g, vendor, p, "candidate-set")
    grid = vc_best_response(g, vendor, p, "grid")
    assert exact.revenue >= cand.revenue
    assert exact.revenue >= grid.revenue
    # non-exact tiers report demand-realized revenue, never an unmet claim
    assert cand.revenue == cand.realized_revenue
    assert grid.revenue == grid.realized_revenue


@settings(max_examples=40, deadline=None)
@given(instance_and_prices())
def test_exact_supremum_is_realizable(case):
    # shaving each positively priced target item by eps must realize at least
    # revenue - eps * (number shaved); this certifies the supremum claim
    g, p, vendor = case
    br = vc_best_response(g, vendor, p, "target-set-exact")
    owned = g.vendor_masks[vendor]
    positives = [
        i for i, q in br.prices.items() if q > 0 and (1 << i) & br.target_mask & owned
    ]
    eps = Fraction(1, 10 ** 7)
    shaved = {i: br.prices[i] - eps for i in positives}
    full = p.replace({**br.prices, **shaved})
    d = demand(g.valuation, full)
    realized = full.total(d.chosen & owned)
    assert realized >= br.revenue - eps * len(positives)
    assert br.realized_revenue <= br.revenue


@settings(max_examples=40, deadline=None)
@given(instance_and_prices())
def test_projection_is_safe(case):
    # certified instances: the marginal-priced projection keeps the bought
    # set and never lowers a vendor's take
    g, p, _ = case
    profile, deltas = map_to_pmvc(g, p)
    sold = demand(g.valuation, p).chosen
    assert profile.union_mask == sold
    assert all(delta >= 0 for delta in deltas)


def test_harmonic_discrete_dynamics_converge():
    g = harmonic_instance(2, 2)
    start = StrategyProfile((0,) * g.n_vendors)
    trace = br_dynamics(g, start, "discrete")
    assert trace.status == "converged"


# -- the exact tier at prices whose denominators the table lacks -----------


def fraction_reach(g, vendor, p):
    """reach and its maximizing competitor set per own part, over plain
    Fractions and every competitor set; ties go to the first maximizer in
    submasks_of order, the largest competitor set."""
    v = g.valuation
    others = g.universe.full_mask & ~g.vendor_masks[vendor]
    reach, best_out = [], []
    for bg in g.offer_tables[vendor]:
        best = None
        for sp in submasks_of(others):
            u = v.value_mask(bg | sp) - p.total(sp)
            if best is None or u > best:
                best, arg = u, sp
        reach.append(best)
        best_out.append(arg)
    return reach, best_out


def feasible_target_lps(reach):
    """``(lm, var_bits, rows, rhs)`` of every target, in the tier's
    ``(-reach, lm)`` order: one row per nonempty W subseteq lm.  v is
    monotone, so no sub-target reaches further than its target: every
    target is feasible, which the tier relies on."""
    for lm in sorted(range(1, len(reach)), key=lambda lm: (-reach[lm], lm)):
        assert all(reach[sub] <= reach[lm] for sub in submasks_of(lm))
        var_bits = list(bits_of(lm))
        walls = [wl for wl in submasks_of(lm) if wl]
        rows = [[wl >> b & 1 for b in var_bits] for wl in walls]
        yield lm, var_bits, rows, [reach[lm] - reach[lm ^ wl] for wl in walls]


def exact_reference(g, vendor, p):
    """The exact tier over plain Fractions: every competitor set, no scale.

    Returns ``(revenue, prices of the target items, target_mask)``.  No
    sorted cut and no singleton skip, so each target's LP is solved
    and the first best one, in the tier's order, wins.
    """
    own = g.offer_tables[vendor]
    reach, best_out = fraction_reach(g, vendor, p)
    best = (Fraction(0), {}, own[0] | best_out[0])
    for lm, var_bits, rows, rhs in feasible_target_lps(reach):
        value, x = exactlp.maximize([1] * len(var_bits), rows, rhs)
        if value > best[0]:
            items = g.vendor_items(vendor)
            best = (value, {items[b]: q for b, q in zip(var_bits, x)}, own[lm] | best_out[lm])
    return best


def check_exact_against_reference(g, vendor, p):
    lv = g.valuation.dense_scaled()[1]
    assert integers(p.prices, lv)[1] > lv  # off the table's scale
    br = vc_best_response(g, vendor, p, "target-set-exact")
    revenue, prices, target = exact_reference(g, vendor, p)
    assert br.revenue == revenue
    assert br.target_mask == target
    sent = sentinel_price(g.valuation)
    assert br.prices == {i: prices.get(i, sent) for i in g.vendor_items(vendor)}


def test_exact_reach_tie_takes_largest_competitor_set():
    # b adds its price exactly, so the competitor sets with and without it
    # tie in every reach entry; the largest, {b,c}, is the one reported
    v = TableValuation(Universe(("a", "b", "c")), [0, 1, 1, 2, 1, 2, 2, 3])
    g = GameInstance(v, (0b001, 0b110))
    p = PriceVector(v.universe, (Fraction(1, 2**100 * 3**90), Fraction(1), Fraction(1, 2)))
    check_exact_against_reference(g, 0, p)
    br = vc_best_response(g, 0, p)
    assert (br.revenue, br.prices) == (1, {0: Fraction(1)})
    assert br.target_mask == 0b111


@st.composite
def instance_and_big_prices(draw):
    seed = draw(st.integers(0, 5_000))
    gen = draw(st.sampled_from(["coverage", "additive-concave"]))
    g = random_instance(seed, n_items=5, n_vendors=2, generator=gen)
    vendor = draw(st.integers(0, 1))
    sent = sentinel_price(g.valuation)
    prices = []
    for i in range(5):
        # a price at one of the item's marginals ties the sets with and
        # without it, which is what the reach tie rule decides
        bit = 1 << i
        mask = draw(st.integers(0, g.universe.full_mask)) & ~bit
        marginal = g.valuation.marginal_mask(i, mask)
        prices.append(
            draw(st.sampled_from([sent, marginal]) | big_denominator_fractions(8))
        )
    # the vendor's own prices are ignored by the tier but still set the scale
    prices[g.vendor_items(vendor)[0]] = draw(big_denominator_fractions(8))
    return g, vendor, PriceVector(g.universe, tuple(prices))


@settings(max_examples=60, deadline=None)
@given(instance_and_big_prices())
def test_exact_tier_matches_fraction_reference(case):
    check_exact_against_reference(*case)


# -- the singleton bound that lets the exact tier skip an LP ---------------


@st.composite
def small_instance_and_prices(draw):
    n = draw(st.integers(1, 7))
    g = random_instance(
        draw(st.integers(0, 5_000)),
        n_items=n,
        n_vendors=draw(st.integers(1, min(n, 3))),
        generator=draw(st.sampled_from(["coverage", "additive-concave"])),
    )
    vendor = draw(st.integers(0, g.n_vendors - 1))
    v = g.valuation
    top = math.ceil(v.value_mask(g.universe.full_mask))
    # prices at a share of an item's own value break some target's singleton
    # vector in about 15% of seeded coverage games, uniform prices in about
    # 5% of all games; _cde_case below always breaks it
    prices = tuple(
        draw(
            st.just(sentinel_price(v))
            | st.fractions(0, top, max_denominator=12)
            | st.integers(0, 12).map(lambda k, i=i: v.value_mask(1 << i) * Fraction(k, 12))
        )
        for i in range(n)
    )
    return g, vendor, PriceVector(g.universe, prices)


def _cde_case():
    """Vendor 0 of random:0,6,3 against a=32, b=18, f=19: target {c,d,e}
    has LP value 53/5 below its singleton sum 72/5."""
    g = random_instance(0, 6, 3)
    sent = sentinel_price(g.valuation)
    prices = (Fraction(32), Fraction(18), sent, sent, sent, Fraction(19))
    return g, 0, PriceVector(g.universe, prices)


@settings(max_examples=80, deadline=None)
@given(small_instance_and_prices())
@example(_cde_case())
def test_singleton_rows_bound_every_target_lp(case):
    g, vendor, p = case
    reach, _ = fraction_reach(g, vendor, p)
    for lm, var_bits, rows, rhs in feasible_target_lps(reach):
        singles = [reach[lm] - reach[lm ^ (1 << b)] for b in var_bits]
        value, x = exactlp.maximize([1] * len(var_bits), rows, rhs)
        assert value <= sum(singles)
        meets_rows = all(
            sum(a * q for a, q in zip(row, singles)) <= b for row, b in zip(rows, rhs)
        )
        # every feasible x is at most the singleton vector in each entry, so
        # reaching its sum means being it
        assert (value == sum(singles)) == meets_rows
        if meets_rows:
            assert x == singles


@settings(max_examples=80, deadline=None)
@given(small_instance_and_prices())
@example(_cde_case())
def test_exact_tier_matches_reference_without_the_skip(case):
    g, vendor, p = case
    br = vc_best_response(g, vendor, p, "target-set-exact")
    revenue, prices, target = exact_reference(g, vendor, p)
    sent = sentinel_price(g.valuation)
    full = {i: prices.get(i, sent) for i in g.vendor_items(vendor)}
    assert (br.revenue, br.prices, br.target_mask) == (revenue, full, target)
    assert br.realized_revenue == vendor_revenue(g, p.replace(full), vendor)


# -- rival items priced at their floors -----------------------------------


@st.composite
def floor_priced_games(draw):
    """A coverage game on 3 or 4 items, two vendors, each rival item priced
    one unit below its floor, at it or one unit above, or a quarter off it;
    at or below its floor the buyer's scan holds it."""
    n = draw(st.integers(3, 4))
    weights = draw(st.lists(st.integers(0, 4), min_size=5, max_size=5))
    covers = draw(st.lists(st.integers(0, 31), min_size=n, max_size=n))
    v = TableValuation(Universe(tuple("abcd"[:n])), coverage_values(weights, covers))
    cut = draw(st.integers(1, n - 1))
    g = GameInstance(v, ((1 << cut) - 1, (1 << n) - (1 << cut)))
    vendor = draw(st.integers(0, 1))
    offsets = st.sampled_from([Fraction(-1), Fraction(-1, 4), 0, Fraction(1, 4), Fraction(1)])
    prices = tuple(max(Fraction(0), floor + draw(offsets)) for floor in brute_floors(v))
    return g, vendor, PriceVector(g.universe, prices)


@settings(max_examples=150, deadline=None)
@given(floor_priced_games())
def test_exact_tier_at_the_floors_matches_reference(case):
    # the reference lists every competitor set, held items or not
    g, vendor, p = case
    br = vc_best_response(g, vendor, p, "target-set-exact")
    revenue, prices, target = exact_reference(g, vendor, p)
    sent = sentinel_price(g.valuation)
    full = {i: prices.get(i, sent) for i in g.vendor_items(vendor)}
    assert (br.revenue, br.prices, br.target_mask) == (revenue, full, target)


# -- rival items priced at the live top's marginals ------------------------


@st.composite
def top_priced_games(draw):
    """A coverage game on 3 or 4 items, two vendors; the rival items off a
    drawn set withheld at the sentinel, and every other item priced a unit
    below, at or a unit above its marginal at the top, the items not
    withheld.  The top holds all of the vendor's items, which its targets
    add to every competitor set; at or below that marginal the buyer's scan
    holds a rival item."""
    n = draw(st.integers(3, 4))
    weights = draw(st.lists(st.integers(0, 4), min_size=5, max_size=5))
    covers = draw(st.lists(st.integers(0, 31), min_size=n, max_size=n))
    v = TableValuation(Universe(tuple("abcd"[:n])), coverage_values(weights, covers))
    cut = draw(st.integers(1, n - 1))
    g = GameInstance(v, ((1 << cut) - 1, (1 << n) - (1 << cut)))
    vendor = draw(st.integers(0, 1))
    top = g.vendor_masks[vendor] | draw(st.integers(0, (1 << n) - 1))
    offsets = st.sampled_from([Fraction(-1), Fraction(0), Fraction(1)])
    sent = sentinel_price(v)
    prices = tuple(
        max(Fraction(0), v.marginal_mask(i, top ^ 1 << i) + draw(offsets))
        if top >> i & 1 else sent
        for i in range(n)
    )
    return g, vendor, PriceVector(g.universe, prices)


def _own_items_lower_the_top_case():
    """Vendor 0 owns a; b and c are worth 2 each, a covers half of each.  At
    the top {a,b,c}, b adds 1, but among the rivals alone it adds 2: priced
    at 2 it must not be held, or the reach of {a} misses {a,c}."""
    v = TableValuation(Universe(("a", "b", "c")), [0, 2, 2, 3, 2, 3, 4, 4])
    g = GameInstance(v, (0b001, 0b110))
    return g, 0, PriceVector(g.universe, (1, 2, 1))


@settings(max_examples=200, deadline=None)
@given(top_priced_games())
@example(_own_items_lower_the_top_case())
def test_exact_tier_at_the_live_top_matches_reference(case):
    # the reference lists every competitor set, held items or not
    g, vendor, p = case
    br = vc_best_response(g, vendor, p, "target-set-exact")
    revenue, prices, target = exact_reference(g, vendor, p)
    sent = sentinel_price(g.valuation)
    full = {i: prices.get(i, sent) for i in g.vendor_items(vendor)}
    assert (br.revenue, br.prices, br.target_mask) == (revenue, full, target)
    assert br.realized_revenue == vendor_revenue(g, p.replace(full), vendor)


def test_candidate_cap_counts_held_rival_items(monkeypatch):
    # harmonic:2,8: a rival item's floor is H_8 - H_7 = 1/8; at 0 or at 1/8
    # it is held, at 1/4 it is free, and the cap counts both: 3^8 * 2^8 is
    # past 3^13, 3^8 * 2^7 (one rival withheld) is not
    import vcgames.vcgame as vcgame

    g = harmonic_instance(2, 8)
    sent = sentinel_price(g.valuation)
    rivals = [Fraction(0)] * 4 + [Fraction(1, 8)] * 2 + [Fraction(1, 4)] * 2
    p = PriceVector(g.universe, tuple([sent] * 8 + rivals))
    cap = re.escape(f"candidate-set would scan 3^8 * 2^8 subsets (cap {3 ** 13})")
    with pytest.raises(ValueError, match=f"^{cap}$"):
        vc_best_response(g, 0, p, "candidate-set")

    class Scanned(Exception):
        pass

    def refuse(v, p):
        raise Scanned

    monkeypatch.setattr(vcgame, "demand", refuse)
    with pytest.raises(Scanned):
        vc_best_response(g, 0, p.replace({8: sent}), "candidate-set")
