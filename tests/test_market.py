"""Buyer demand: utilities, the maximal tie rule, and the union fallback."""

from fractions import Fraction

import pytest
from conftest import big_denominator_fractions, brute_floors, coverage_values
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vcgames import (
    PriceVector,
    TableValuation,
    Universe,
    buyer_utility,
    counterexample_instance,
    demand,
    demand_all,
    expand_to_table,
    sentinel_price,
)
from vcgames.items import bits_of
from vcgames.market import _bundles
from vcgames.rationals import integers
from vcgames.valuation import AdditiveGroupsValuation

G = counterexample_instance()
U = G.universe
V = G.valuation
SENT = sentinel_price(V)


def priced(**kwargs):
    """Prices by item name; anything unnamed is withheld at the sentinel."""
    prices = [SENT] * U.n
    for name, q in kwargs.items():
        prices[U.index(name)] = Fraction(q)
    return PriceVector(U, tuple(prices))


# -- price vectors ---------------------------------------------------------


def test_price_vector_validation():
    with pytest.raises(ValueError):
        PriceVector(U, (Fraction(1),) * 3)
    with pytest.raises(ValueError):
        PriceVector(U, (Fraction(-1), Fraction(0), Fraction(0), Fraction(0)))


def test_price_vector_converts_what_is_not_a_fraction():
    third = Fraction(1, 3)
    p = PriceVector(U, (1, "2.5", third, 0))
    assert p.prices == (1, Fraction(5, 2), third, 0)
    assert all(type(q) is Fraction for q in p.prices)
    assert p.prices[2] is third  # a Fraction is kept, not rebuilt
    assert p.replace({0: "0.5"}).prices[0] == Fraction(1, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        PriceVector(U, (0, 0, -1, 0))
    with pytest.raises(ValueError, match="nonnegative"):
        p.replace({1: "-0.1"})


def test_price_vector_hash_follows_equality():
    # hashed on the reduced terms, so every spelling of a price hashes alike
    big = Fraction(3**500, 2**900)
    spellings = [
        PriceVector(U, (one, big, 0, "2.5"))
        for one in (1, "1", "2/2", Fraction(1), Fraction(2, 2))
    ]
    unreduced = Fraction(2 * 3**500, 2**901)
    spellings.append(PriceVector(Universe(U.names), (1, unreduced, 0, Fraction(5, 2))))
    first = spellings[0]
    for p in spellings:
        assert p == first and hash(p) == hash(first)
    keyed = {(p, 0): j for j, p in enumerate(spellings)}
    assert keyed == {(first, 0): len(spellings) - 1}
    assert all(keyed[(p, 0)] == len(spellings) - 1 for p in spellings)
    other = PriceVector(Universe(("w", "x", "y", "z")), first.prices)
    assert other != first and (other, 0) not in keyed
    assert first.replace({1: big + Fraction(1, 2**900)}) != first


def test_price_vector_total_and_replace():
    p = priced(a="2.601", c="2.201")
    assert p.total(U.mask_of(("a", "c"))) == Fraction("4.802")
    q = p.replace({U.index("a"): Fraction(2)})
    assert q.prices[U.index("a")] == 2
    assert p.prices[U.index("a")] == Fraction("2.601")


def test_price_vector_format():
    p = priced(a="2.601", c="2.201")
    assert p.format() == "a=2.601, b=8.6045, c=2.201, d=8.6045"


# -- pointwise utilities ---------------------------------------------------


def test_sentinel_price():
    assert SENT == Fraction("8.6045")


def test_buyer_utility_example():
    p = priced(a="2.601", c="2.201")
    assert buyer_utility(V, p, U.mask_of(("a", "c"))) == Fraction("0.602")
    assert buyer_utility(V, p, U.mask_of(("a",))) == Fraction("0.602")
    assert buyer_utility(V, p, 0) == 0


# -- the demand oracle -----------------------------------------------------


def test_demand_union_of_ties():
    # {a}, {c}, {a,c} all reach utility 0.602; their union is one of them
    p = priced(a="2.601", c="2.201")
    res = demand(V, p)
    assert res.chosen == U.mask_of(("a", "c"))
    assert res.utility == Fraction("0.602")
    assert res.optima_count == 3
    assert res.union_is_optimal


def test_demand_free_items_take_everything():
    p = PriceVector(U, (Fraction(0),) * 4)
    res = demand(V, p)
    assert res.chosen == U.full_mask
    assert res.utility == Fraction("7.6045")


def test_demand_all_withheld_buys_nothing():
    p = PriceVector(U, (SENT,) * 4)
    res = demand(V, p)
    assert res.chosen == 0
    assert res.utility == 0
    assert res.optima_count == 1
    assert res.union_is_optimal


def test_demand_union_fallback_pins_largest_maximizer():
    # five tied optima whose union {a,c,d} is strictly worse; the documented
    # fallback picks the largest-bitmask maximizer, {c,d}
    p = priced(a="2.601", c="1.4015", d="1.3015")
    res = demand(V, p)
    assert not res.union_is_optimal
    assert res.optima_count == 5
    assert res.chosen == U.mask_of(("c", "d"))
    assert res.utility == Fraction("1.4015")


def test_demand_universe_mismatch():
    other = Universe(("x", "y"))
    p = PriceVector(other, (Fraction(0), Fraction(0)))
    with pytest.raises(ValueError):
        demand(V, p)


def test_demand_all_universe_mismatch():
    p = PriceVector(Universe(U.names[:3]), (Fraction(0),) * 3)
    with pytest.raises(ValueError, match="price vector universe mismatch"):
        demand_all(V, p)


def test_demand_all_example():
    p = priced(a="2.601", c="2.201")
    masks = demand_all(V, p)
    assert masks == [U.mask_of(("a",)), U.mask_of(("c",)), U.mask_of(("a", "c"))]


def test_demand_all_caps_item_count():
    big = Universe(tuple(f"i{k}" for k in range(17)))
    v = AdditiveGroupsValuation(big, (big.full_mask,), [Fraction(t) for t in range(18)])
    p = PriceVector(big, (Fraction(0),) * 17)
    with pytest.raises(ValueError):
        demand_all(v, p)


# -- cross-check against an independent oracle -----------------------------


def naive_demand(v, p):
    """Reference tie rule over plain Fractions, no shared scaling code."""
    best = None
    optima = []
    for mask in range(1 << v.universe.n):
        cost = sum((p.prices[i] for i in bits_of(mask)), Fraction(0))
        u = v.value_mask(mask) - cost
        if best is None or u > best:
            best, optima = u, [mask]
        elif u == best:
            optima.append(mask)
    union = 0
    for m in optima:
        union |= m
    union_ok = union in optima
    chosen = union if union_ok else max(optima)
    return chosen, best, len(optima), union_ok


U3 = Universe(("a", "b", "c"))

# negative values make the tables non-monotone (so uncertified), and prices
# reach past the largest spread, max - min = 9, so items can be dead
vals8 = st.lists(
    st.fractions(Fraction(-3), Fraction(6), max_denominator=4), min_size=7, max_size=7
)
prices3 = st.lists(
    st.fractions(Fraction(0), Fraction(10), max_denominator=4), min_size=3, max_size=3
)
F = Fraction


@settings(max_examples=200, deadline=None)
@given(vals8, prices3)
# a priced exactly at the spread 2: live, and in all eight tied maximizers
@example([F(2), F(0), F(2), F(0), F(2), F(0), F(2)], [F(2), F(0), F(0)])
# a priced a quarter above the spread: dead, so only the four sets without it tie
@example([F(2), F(0), F(2), F(0), F(2), F(0), F(2)], [F(9, 4), F(0), F(0)])
# a and b substitute: {a} and {b} tie, their union is worse; c is dead
@example([F(1), F(1), F(1), F(0), F(1), F(1), F(1)], [F(1, 2), F(1, 2), F(7)])
# a and b complement (uncertified): each is priced above its singleton value
# but below the spread, and the buyer takes both
@example([F(0), F(0), F(4), F(0), F(0), F(0), F(4)], [F(1), F(1), F(0)])
def test_demand_matches_naive_oracle(vals, prices):
    v = TableValuation(U3, [Fraction(0)] + vals)
    p = PriceVector(U3, tuple(prices))
    res = demand(v, p)
    chosen, best, count, union_ok = naive_demand(v, p)
    assert res.chosen == chosen
    assert res.utility == best
    assert res.optima_count == count
    assert res.union_is_optimal == union_ok
    assert demand_all(v, p) == sorted(
        m for m in range(8) if v.value_mask(m) - p.total(m) == best
    )


@settings(max_examples=80, deadline=None)
@given(vals8, prices3)
def test_demand_chosen_is_maximal(vals, prices):
    # nothing outside the chosen set can be added for free without a tie win
    v = TableValuation(U3, [Fraction(0)] + vals)
    p = PriceVector(U3, tuple(prices))
    res = demand(v, p)
    for m in demand_all(v, p):
        assert not (m > res.chosen and m & res.chosen == res.chosen and m != res.chosen)


# -- prices at the items' floors, their smallest marginals ---------------

# a weighted coverage of four ground elements (certified), or any integer
# table (mostly uncertified, with negative floors)
tables3 = st.builds(
    lambda weights, covers: TableValuation(U3, coverage_values(weights, covers)),
    st.lists(st.integers(0, 4), min_size=4, max_size=4),
    st.lists(st.integers(0, 15), min_size=3, max_size=3),
) | st.lists(st.integers(-3, 6), min_size=7, max_size=7).map(
    lambda vals: TableValuation(U3, [0] + vals)
)
# one unit below an item's floor, at it, or one unit above; a quarter off
# it puts the price off the table's integer scale
FLOOR_OFFSETS = st.sampled_from([F(-1), F(-1, 4), F(0), F(1, 4), F(1)])


@st.composite
def floor_priced_tables3(draw):
    v = draw(tables3)
    prices = tuple(max(F(0), floor + draw(FLOOR_OFFSETS)) for floor in brute_floors(v))
    return v, PriceVector(U3, prices)


@settings(max_examples=300, deadline=None)
@given(floor_priced_tables3())
# additive a=1, b=2, c=1: a at its floor ties in and out, b below its floor
# is in every maximizer, and c above its floor in none
@example((TableValuation(U3, [0, 1, 2, 3, 1, 2, 3, 4]), PriceVector(U3, (1, 1, 2))))
# every item held at its floor and every set a maximizer: 8 ties
@example((TableValuation(U3, [0, 1, 1, 2, 1, 2, 2, 3]), PriceVector(U3, (1, 1, 1))))
# a and b substitute (floor 0 each) and c adds 1: all held, six sets tie
@example((TableValuation(U3, [0, 2, 2, 2, 1, 3, 3, 3]), PriceVector(U3, (0, 0, 1))))
def test_demand_at_the_floors_matches_naive_oracle(case):
    v, p = case
    res = demand(v, p)
    chosen, best, count, union_ok = naive_demand(v, p)
    assert (res.chosen, res.utility, res.optima_count, res.union_is_optimal) == (
        chosen,
        best,
        count,
        union_ok,
    )
    assert demand_all(v, p) == sorted(
        m for m in range(8) if v.value_mask(m) - p.total(m) == best
    )


# -- prices at the live top's marginals, the certified hold threshold -----

TOP_OFFSETS = st.sampled_from([F(-1), F(0), F(1)])


@st.composite
def top_priced_tables(draw):
    """A weighted coverage table on 3 or 4 items (certified), with the items
    off a drawn top withheld at the sentinel and each item of the top priced
    a unit below, at or a unit above its marginal there, ``v(top) - v(top -
    i)``; at or below it the buyer's scan holds the item."""
    n = draw(st.integers(3, 4))
    weights = draw(st.lists(st.integers(0, 4), min_size=5, max_size=5))
    covers = draw(st.lists(st.integers(0, 31), min_size=n, max_size=n))
    v = TableValuation(Universe(tuple("abcd"[:n])), coverage_values(weights, covers))
    top = draw(st.integers(0, (1 << n) - 1))
    sent = sentinel_price(v)
    prices = tuple(
        max(F(0), v.marginal_mask(i, top ^ 1 << i) + draw(TOP_OFFSETS)) if top >> i & 1 else sent
        for i in range(n)
    )
    return v, PriceVector(v.universe, prices)


@settings(max_examples=300, deadline=None)
@given(top_priced_tables())
# additive a=1, b=2, c=1 at their marginals: every item tied, 8 maximizers
@example((TableValuation(U3, [0, 1, 2, 3, 1, 2, 3, 4]), PriceVector(U3, (1, 2, 1))))
# a and b substitute (top marginal 0 each, floor 0) and c adds 1: six tie
@example((TableValuation(U3, [0, 2, 2, 2, 1, 3, 3, 3]), PriceVector(U3, (0, 0, 1))))
# c, withheld, makes a worthless: a at its top marginal 1 ties, above its
# floor 0; b, a unit below its top marginal, is in both maximizers
@example((TableValuation(U3, [0, 2, 2, 3, 2, 2, 3, 3]), PriceVector(U3, (1, 0, 4))))
def test_demand_at_the_live_top_matches_naive_oracle(case):
    v, p = case
    assert v.certify() == (True, True)
    res = demand(v, p)
    chosen, best, count, union_ok = naive_demand(v, p)
    assert (res.chosen, res.utility, res.optima_count, res.union_is_optimal) == (
        chosen,
        best,
        count,
        union_ok,
    )
    maximizers = demand_all(v, p)
    assert maximizers == sorted(
        m for m in range(1 << v.universe.n) if v.value_mask(m) - p.total(m) == best
    )
    assert res.optima_count == len(maximizers)


def test_uncertified_demand_is_not_held_at_the_top_marginals():
    # a and b complement: each is worth 1 alone and 3 together, so each has
    # marginal 2 at the top {a,b} but 1 at the empty set; priced at 2 each,
    # the buyer takes nothing.  Holding them at the top's marginal would list
    # {a,b} alone (utility -1) and miss the empty set
    u = Universe(("a", "b"))
    v = TableValuation(u, [0, 1, 1, 3])
    p = PriceVector(u, (2, 2))
    assert v.certify() == (True, False)
    assert v.value_mask(0b11) - v.value_mask(0b10) == 2 == p.prices[0]
    res = demand(v, p)
    assert (res.chosen, res.utility, res.optima_count, res.union_is_optimal) == (0, 0, 1, True)
    assert naive_demand(v, p) == (0, 0, 1, True)
    assert demand_all(v, p) == [0]


def test_uncertified_scan_holds_no_item():
    # the same complements at their smallest marginal, 1 each: the buyer
    # takes {a,b} (utility 1, the other subsets 0).  Without a certificate
    # no item is held, so the scan lists all four subsets and no tied item
    u = Universe(("a", "b"))
    v = TableValuation(u, [0, 1, 1, 3])
    p = PriceVector(u, (1, 1))
    assert v.certify() == (True, False)
    _, _, _, masks, costs, tied = _bundles(v, p, u.full_mask)
    assert (masks, costs, tied) == ([0, 1, 2, 3], [0, 1, 1, 2], [])
    res = demand(v, p)
    assert (res.chosen, res.utility, res.optima_count, res.union_is_optimal) == (3, 1, 1, True)
    assert naive_demand(v, p) == (3, 1, 1, True)


def test_demand_takes_the_caller_s_integer_prices():
    p = priced(a="2.601", c="2.201")
    ints, scale = integers(p.prices, V.dense_scaled()[1])
    res = demand(V, p, scaled=([7 * q for q in ints], 7 * scale))
    assert (res, res.optima_count) == (demand(V, p), 3)
    with pytest.raises(ValueError, match="not a multiple of the value table's"):
        demand(V, p, scaled=(ints, scale + 1))


def test_demand_result_equality_ignores_the_valuation_and_prices_it_keeps():
    # a withheld item's price moves nothing the buyer does
    p, q = priced(a="2.601", c="2.201"), priced(a="2.601", c="2.201").replace({1: SENT + 1})
    res, other = demand(V, p), demand(V, q)
    assert (res.prices, other.prices) == (p, q) and p != q
    assert res.valuation is V
    assert res == other and hash(res) == hash(other)
    assert res == demand(expand_to_table(V), p)
    assert repr(res) == "DemandResult(chosen=5, utility=Fraction(301, 500), union_is_optimal=True)"
    assert res.optima_count == other.optima_count == len(demand_all(V, p)) == 3


# -- prices whose denominators the table lacks ----------------------------

# quarters mixed with prices over denominators no table has: f = L / lv > 1
mixed_prices3 = st.lists(
    st.fractions(F(0), F(10), max_denominator=4) | big_denominator_fractions(10),
    min_size=3,
    max_size=3,
).filter(lambda ps: any(q.denominator.bit_length() > 200 for q in ps))
TINY = F(1, 2**100 * 3**90)


@settings(max_examples=200, deadline=None)
@given(vals8, mixed_prices3)
# b and c tie in and out of every maximizer at price 0; a sells just below 2
@example([F(2), F(0), F(2), F(0), F(2), F(0), F(2)], [2 - TINY, F(0), F(0)])
# {a} and {b} tie at a huge-denominator price, their union is worse
@example([F(1), F(1), F(1), F(0), F(1), F(1), F(1)], [TINY, TINY, F(7)])
def test_demand_off_the_table_scale_matches_naive_oracle(vals, prices):
    v = TableValuation(U3, [Fraction(0)] + vals)
    p = PriceVector(U3, tuple(prices))
    lv = v.dense_scaled()[1]
    assert integers(p.prices, lv)[1] > lv  # off the table's scale
    res = demand(v, p)
    chosen, best, count, union_ok = naive_demand(v, p)
    assert (res.chosen, res.utility, res.optima_count, res.union_is_optimal) == (
        chosen,
        best,
        count,
        union_ok,
    )
    assert demand_all(v, p) == sorted(
        m for m in range(8) if v.value_mask(m) - p.total(m) == best
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.fractions(F(0), F(10), max_denominator=12) | big_denominator_fractions(10),
        min_size=4,
        max_size=4,
    ),
    st.integers(0, 15),
)
def test_price_vector_total_is_the_fraction_sum(prices, mask):
    p = PriceVector(U, tuple(prices))
    total = p.total(mask)
    assert type(total) is Fraction
    assert total == sum((prices[i] for i in bits_of(mask)), Fraction(0))


@pytest.mark.parametrize("item", [-1, 4, 7])
def test_replace_refuses_an_item_outside_the_universe(item):
    p = PriceVector(U, (1, 2, 3, 4))
    with pytest.raises(ValueError, match=f"no item {item}"):
        p.replace({item: 5})
