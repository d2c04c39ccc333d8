"""Built-in instance families: the demo games, category markets, generators."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vcgames import (
    CategoryMaxValuation,
    GameInstance,
    PriceVector,
    StrategyProfile,
    Universe,
    cdsp_equilibrium,
    counterexample_instance,
    demand,
    harmonic_instance,
    pmvc_best_response,
    pmvc_payoffs,
    pmvc_pure_ne,
    pos_instance,
    random_cdsp_instance,
    random_instance,
    vc_verify_ne,
    vendor_revenue,
    welfare,
)
from vcgames.items import bits_of

F = Fraction


# -- the running example ---------------------------------------------------


def test_counterexample_shape():
    g = counterexample_instance()
    assert g.universe.names == ("a", "b", "c", "d")
    assert g.vendor_masks == (0b0011, 0b1100)
    assert g.certified


def test_counterexample_values():
    v = counterexample_instance().valuation
    expected = {
        "": "0", "a": "3.203", "b": "2.503", "c": "2.803", "d": "2.703",
        "a,b": "4.4045", "a,c": "5.404", "a,d": "5.304", "b,c": "5.304",
        "b,d": "5.204", "c,d": "4.1045", "a,b,c": "6.6045", "a,b,d": "6.5045",
        "a,c,d": "6.5045", "b,c,d": "6.6045", "a,b,c,d": "7.6045",
    }
    for key, text in expected.items():
        names = tuple(key.split(",")) if key else ()
        assert v.value_of(names) == F(text)


# -- harmonic blocks -------------------------------------------------------


def test_harmonic_instance_shape():
    g = harmonic_instance(2, 3)
    assert g.universe.names == ("a1", "a2", "a3", "b1", "b2", "b3")
    assert g.vendor_masks == (0b000111, 0b111000)
    assert g.valuation.value_mask(g.universe.full_mask) == F(11, 3)
    assert g.valuation.value_of(("a1",)) == 1
    assert g.valuation.value_of(("a1", "a2")) == F(3, 2)
    assert g.valuation.value_of(("a1", "b2")) == 2


def test_harmonic_instance_equilibria_are_nonempty_offers():
    g = harmonic_instance(2, 2)
    nes = pmvc_pure_ne(g)
    assert len(nes) == 9
    assert all(all(offer for offer in s.offers) for s in nes)
    for s in nes:
        assert pmvc_payoffs(g, s) == (1, 1)


def test_block_construction_limits():
    with pytest.raises(ValueError):
        harmonic_instance(0, 3)
    with pytest.raises(ValueError):
        harmonic_instance(2, 0)
    with pytest.raises(ValueError):
        harmonic_instance(5, 5)  # exceeds the item cap


# -- graded perturbation ---------------------------------------------------


def test_pos_instance_curve():
    g = pos_instance(2, 3, F(1, 100))
    v = g.valuation
    assert v.value_of(("a1",)) == 1  # singletons unshaved
    assert v.value_of(("a1", "a2")) == F(3, 2) - F(1, 200)
    assert v.value_of(("a1", "a2", "a3")) == F(11, 6) - F(1, 100)


def test_pos_instance_only_singleton_equilibria():
    g = pos_instance(2, 3, F(1, 100))
    nes = pmvc_pure_ne(g)
    assert len(nes) == 9
    assert all(offer.bit_count() == 1 for s in nes for offer in s.offers)


def test_pos_instance_eps_range():
    with pytest.raises(ValueError):
        pos_instance(2, 3, F(0))
    with pytest.raises(ValueError):
        pos_instance(2, 3, F(1, 6))  # 1/(2m) exactly
    with pytest.raises(ValueError):
        pos_instance(2, 3, F(-1, 100))


def test_pos_instance_single_item_blocks():
    # nothing to shave with one item per vendor; reduces to the plain curve
    g = pos_instance(2, 1, F(1, 4))
    assert g.valuation.value_mask(g.universe.full_mask) == 2
    assert pmvc_pure_ne(g) == [StrategyProfile((0b01, 0b10))]


# -- category-divided markets ----------------------------------------------


def cdsp_market(names, categories, values, vendors) -> GameInstance:
    """A hand-built category-divided market."""
    return GameInstance(CategoryMaxValuation(Universe(names), categories, values), vendors)


def test_cdsp_two_seller_category():
    g = cdsp_market(("x", "y"), (0b11,), (F(10), F(8)), (0b01, 0b10))
    p = cdsp_equilibrium(g)
    assert p.prices == (F(2), F(0))
    assert demand(g.valuation, p).chosen == 0b11
    assert vendor_revenue(g, p, 0) == 2
    assert vendor_revenue(g, p, 1) == 0
    assert welfare(g, p) == 10
    assert vc_verify_ne(g, p).certified


def test_cdsp_monopoly_takes_full_value():
    g = cdsp_market(("x", "y"), (0b11,), (F(10), F(8)), (0b11,))
    p = cdsp_equilibrium(g)
    sent = F(10) + 1
    assert p.prices == (F(10), sent)
    assert vendor_revenue(g, p, 0) == 10
    assert welfare(g, p) == 10
    assert vc_verify_ne(g, p).certified


def test_cdsp_two_categories():
    g = cdsp_market(
        ("p", "q", "r", "s"), (0b0011, 0b1100), (F(10), F(8), F(6), F(7)), (0b0101, 0b1010)
    )
    p = cdsp_equilibrium(g)
    assert p.prices == (F(2), F(0), F(0), F(1))
    assert demand(g.valuation, p).chosen == g.universe.full_mask
    assert vendor_revenue(g, p, 0) == 2
    assert vendor_revenue(g, p, 1) == 1
    assert welfare(g, p) == 17
    assert vc_verify_ne(g, p).certified


def test_cdsp_value_tie_breaks_to_lowest_vendor():
    # vendor 0 owns y, vendor 1 owns x, equal values: vendor 0 wins, all free
    g = cdsp_market(("x", "y"), (0b11,), (F(5), F(5)), (0b10, 0b01))
    p = cdsp_equilibrium(g)
    assert p.prices == (F(0), F(0))
    assert welfare(g, p) == 5
    assert vc_verify_ne(g, p).certified


def test_cdsp_equilibrium_needs_category_valuation():
    with pytest.raises(ValueError):
        cdsp_equilibrium(counterexample_instance())


def test_cdsp_equilibrium_refuses_an_uncertified_game():
    # a negative item value is the one way a category-max valuation fails
    # certification; a game refuses it unless built with allow_uncertified
    u = Universe(("x", "y", "z"))
    v = CategoryMaxValuation(u, (0b011, 0b100), (F(3), F(-1), F(2)))
    g = GameInstance(v, (0b001, 0b110), allow_uncertified=True)
    with pytest.raises(ValueError, match="requires a certified instance"):
        cdsp_equilibrium(g)


def test_cdsp_market_validation():
    xy = ("x", "y")
    with pytest.raises(ValueError, match="failed certification"):
        cdsp_market(xy, (0b11,), (F(-1), F(2)), (0b01, 0b10))
    with pytest.raises(ValueError):
        cdsp_market(xy, (0b11, 0b10), (F(1), F(2)), (0b01, 0b10))
    with pytest.raises(ValueError):
        cdsp_market(xy, (0b01,), (F(1), F(2)), (0b01, 0b10))
    with pytest.raises(ValueError):
        cdsp_market(xy, (0b11,), (F(1),), (0b01, 0b10))
    with pytest.raises(ValueError):
        cdsp_market(xy, (0b11, 0), (F(1), F(2)), (0b01, 0b10))
    with pytest.raises(ValueError):
        cdsp_market(xy, (0b11,), (F(1), F(2)), (0b01, 0b11))


def owner_scan_cdsp_equilibrium(g: GameInstance) -> PriceVector:
    """The closed form as it was first written, kept as the reference: it
    finds each item's owner by a scan over the vendors, twice per item of a
    category, where ``cdsp_equilibrium`` reads each vendor's part of it."""
    v = g.valuation

    def owner_of(item):
        return next(i for i, m in enumerate(g.vendor_masks) if m >> item & 1)

    prices = [g.sentinel] * g.universe.n
    for cat in v.category_masks:
        best_item = {}
        for item in bits_of(cat):
            vendor = owner_of(item)
            cur = best_item.get(vendor)
            if cur is None or v.item_values[item] > v.item_values[cur]:
                best_item[vendor] = item
        winner = min(best_item, key=lambda i: (-v.item_values[best_item[i]], i))
        runner_up = F(0)
        for item in bits_of(cat):
            if owner_of(item) != winner and v.item_values[item] > runner_up:
                runner_up = v.item_values[item]
        for vendor, item in best_item.items():
            prices[item] = v.item_values[item] - runner_up if vendor == winner else F(0)
    return PriceVector(g.universe, tuple(prices))


def test_cdsp_closed_form_matches_the_owner_scan():
    # values from a pool of four, so the best values of a category often tie
    # across vendors; up to five vendors over at most seven items, so some
    # vendor often owns nothing in a category, or nothing at all
    import random

    rng = random.Random(0)
    cross_vendor_ties = idle_vendors = 0
    for _ in range(400):
        n = rng.randint(1, 7)
        labels = [rng.randrange(n) for _ in range(n)]
        owners = [rng.randrange(rng.randint(1, 5)) for _ in range(n)]
        k = max(owners) + 1 + rng.randint(0, 1)
        categories = [sum(1 << a for a in range(n) if labels[a] == c) for c in set(labels)]
        vendors = [sum(1 << a for a in range(n) if owners[a] == i) for i in range(k)]
        values = [rng.choice((F(0), F(1), F(5, 2), F(3))) for _ in range(n)]
        g = cdsp_market(tuple("abcdefg"[:n]), categories, values, vendors)
        assert cdsp_equilibrium(g).prices == owner_scan_cdsp_equilibrium(g).prices
        for cat in categories:
            top = max(values[a] for a in bits_of(cat))
            holders = {owners[a] for a in bits_of(cat) if values[a] == top}
            cross_vendor_ties += len(holders) > 1
            idle_vendors += any(not cat & owned for owned in vendors)
    assert cross_vendor_ties > 50 and idle_vendors > 50


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 5_000), st.integers(2, 6), st.integers(1, 3))
def test_cdsp_closed_form_verifies_everywhere(seed, n_items, n_cats):
    n_cats = min(n_cats, n_items)
    g = random_cdsp_instance(seed, n_items, n_cats)
    p = cdsp_equilibrium(g)
    assert welfare(g, p) == g.valuation.value_mask(g.universe.full_mask)
    assert vc_verify_ne(g, p).certified


def _category_of(v, item):
    for c in v.category_masks:
        if c >> item & 1:
            return c
    raise AssertionError


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 5_000), st.integers(2, 6), st.integers(0, 200))
def test_cdsp_minimal_best_reply_avoids_own_category_clashes(seed, n_items, salt):
    # two items of one category in the same offer cannibalize each other, so
    # the smallest best reply keeps at most one
    import random

    g = random_cdsp_instance(seed, n_items, max(1, n_items // 2))
    rng = random.Random(salt)
    offers = []
    for owned in g.vendor_masks:
        mask = 0
        for b in bits_of(owned):
            if rng.random() < 0.5:
                mask |= 1 << b
        offers.append(mask)
    for vendor in range(g.n_vendors):
        reply = pmvc_best_response(g, vendor, StrategyProfile(tuple(offers)))[0]
        for cat in g.valuation.category_masks:
            assert (reply & cat).bit_count() <= 1


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 5_000), st.integers(2, 6), st.integers(0, 200))
@example(107, 5, 0)
def test_cdsp_upgrading_an_offer_never_hurts(seed, n_items, salt):
    # swapping a vendor's only offered item of a category for its best item
    # of that category is weakly profitable; with two offered items of one
    # category the swap can lose (seed 107: {c,d} earns 17-8, {a,d} 22-17)
    import random

    g = random_cdsp_instance(seed, n_items, max(1, n_items // 2))
    v = g.valuation
    rng = random.Random(salt)
    offers = []
    for owned in g.vendor_masks:
        mask = 0
        for b in bits_of(owned):
            if rng.random() < 0.5:
                mask |= 1 << b
        offers.append(mask)
    s = StrategyProfile(tuple(offers))
    base = pmvc_payoffs(g, s)
    for vendor in range(g.n_vendors):
        for item in bits_of(s.offers[vendor]):
            cat = _category_of(v, item)
            mine = g.vendor_masks[vendor] & cat
            best = max(bits_of(mine), key=lambda i: (v.item_values[i], i))
            if best == item or s.offers[vendor] & cat != 1 << item:
                continue
            swapped = s.offers[vendor] & ~(1 << item) | (1 << best)
            trial = StrategyProfile(
                s.offers[:vendor] + (swapped,) + s.offers[vendor + 1:]
            )
            assert pmvc_payoffs(g, trial)[vendor] >= base[vendor]


# -- random generators -----------------------------------------------------


def test_random_instance_deterministic():
    a = random_instance(7, 5, 2)
    b = random_instance(7, 5, 2)
    assert a.vendor_masks == b.vendor_masks
    assert [a.valuation.value_mask(m) for m in range(32)] == [
        b.valuation.value_mask(m) for m in range(32)
    ]


def test_random_instance_seeds_differ():
    a = random_instance(1, 5, 2)
    b = random_instance(2, 5, 2)
    assert a.vendor_masks != b.vendor_masks or any(
        a.valuation.value_mask(m) != b.valuation.value_mask(m) for m in range(32)
    )


def test_random_instance_validation():
    with pytest.raises(ValueError):
        random_instance(0, 0, 1)
    with pytest.raises(ValueError):
        random_instance(0, 13, 2)
    with pytest.raises(ValueError):
        random_instance(0, 4, 5)
    with pytest.raises(ValueError):
        random_instance(0, 4, 2, generator="gaussian")


@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(1, 6),
    st.sampled_from(["coverage", "additive-concave"]),
)
def test_random_instances_are_certified(seed, n_items, gen):
    g = random_instance(seed, n_items, max(1, n_items // 2), generator=gen)
    assert g.certified
    assert sum(m.bit_count() for m in g.vendor_masks) == n_items


def test_random_cdsp_instance_deterministic():
    a = random_cdsp_instance(3, 6, 2)
    b = random_cdsp_instance(3, 6, 2)
    assert isinstance(a.valuation, CategoryMaxValuation)
    assert a.valuation.category_masks == b.valuation.category_masks
    assert a.valuation.item_values == b.valuation.item_values
    assert a.vendor_masks == b.vendor_masks


def test_random_cdsp_instance_validation():
    with pytest.raises(ValueError):
        random_cdsp_instance(0, 13, 2)
    with pytest.raises(ValueError):
        random_cdsp_instance(0, 4, 5)
    with pytest.raises(ValueError):
        random_cdsp_instance(0, 4, 2, n_vendors=9)
