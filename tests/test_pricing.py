"""The offer game's integer pricing against a Fraction oracle.

``pmvc_prices``, ``pmvc_outcome`` and ``payoff_table`` price in integers over
one scale (``GameInstance.pricing``).  The oracle here prices every offered
item at its ``value_mask`` marginal (less the undercut, clamped at 0), every
withheld item at ``v(A*) + 1``, and runs the buyer as a full 2^n scan with
the union-else-largest-bitmask tie rule, all in Fractions.
"""

import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcgames import (
    GameInstance,
    StrategyProfile,
    TableValuation,
    Universe,
    payoff_table,
    pmvc_best_response,
    pmvc_outcome,
    pmvc_prices,
    pmvc_pure_ne,
    random_instance,
)
from vcgames.items import submasks_of
from vcgames.serialize import load_instance

DATA = Path(__file__).parent / "data"


def oracle_prices(g, union, undercut):
    v = g.valuation
    sentinel = v.value_mask(g.universe.full_mask) + 1
    prices = []
    for item in range(g.universe.n):
        bit = 1 << item
        if union & bit:
            m = v.value_mask(union) - v.value_mask(union ^ bit)
            if undercut is not None:
                m = max(m - undercut, Fraction(0))
            assert m >= 0
            prices.append(m)
        else:
            prices.append(sentinel)
    return prices


def oracle_outcome(g, offers, undercut):
    """``(prices, chosen, utility, optima, union_ok, payoffs, welfare)``."""
    v = g.valuation
    n = g.universe.n
    union = 0
    for offer in offers:
        union |= offer
    prices = oracle_prices(g, union, undercut)
    utils = [
        v.value_mask(m) - sum((prices[i] for i in range(n) if m >> i & 1), Fraction(0))
        for m in range(1 << n)
    ]
    best = max(utils)
    maximizers = [m for m, u in enumerate(utils) if u == best]
    joint = 0
    for m in maximizers:
        joint |= m
    union_ok = utils[joint] == best
    chosen = joint if union_ok else maximizers[-1]
    payoffs = tuple(
        sum((prices[i] for i in range(n) if (chosen & offer) >> i & 1), Fraction(0))
        for offer in offers
    )
    return prices, chosen, best, len(maximizers), union_ok, payoffs, v.value_mask(chosen)


def oracle_profiles(g):
    """Every profile, vendor offers ascending by mask, later vendors fastest."""
    return itertools.product(*(sorted(submasks_of(m)) for m in g.vendor_masks))


def assert_matches_oracle(g, undercut):
    table = list(payoff_table(g, undercut=undercut))
    profiles = list(oracle_profiles(g))
    assert [o.profile.offers for o in table] == profiles
    for offers, o in zip(profiles, table):
        s = StrategyProfile(offers)
        prices, chosen, utility, optima, union_ok, payoffs, welfare = oracle_outcome(
            g, offers, undercut
        )
        assert list(pmvc_prices(g, s, undercut).prices) == prices
        for out in (o, pmvc_outcome(g, s, undercut)):
            assert out.profile == s
            assert list(out.prices.prices) == prices
            assert out.sold == out.demand.chosen == chosen
            assert out.buyer_utility == out.demand.utility == utility
            assert out.demand.optima_count == optima
            assert out.demand.union_is_optimal is union_ok
            assert out.vendor_payoffs == payoffs
            assert out.welfare == welfare
            assert all(type(q) is Fraction for q in (*out.prices.prices, *payoffs, welfare))
    return table


UNDERCUTS = st.one_of(
    st.none(),
    st.sampled_from([Fraction(1, 20), Fraction(1, 2), Fraction(3)]),
    st.tuples(st.integers(1, 50), st.sampled_from([7, 1000, 7919])).map(lambda t: Fraction(*t)),
)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(1, 6),
    st.data(),
    st.sampled_from(["coverage", "additive-concave"]),
    UNDERCUTS,
)
def test_prices_outcomes_and_table_match_the_oracle(seed, n, data, generator, undercut):
    k = data.draw(st.integers(1, n), label="vendors")
    assert_matches_oracle(random_instance(seed, n, k, generator), undercut)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_undercut_the_table_lacks_scales_the_table(seed):
    g = random_instance(seed, 5, 2)
    eps = Fraction(1, 7 * 11 * 13)
    rule = g.pricing(eps)
    dense_scale = g.valuation.dense_scaled()[1]
    assert rule.scale % dense_scale == 0 and rule.scale > dense_scale
    assert_matches_oracle(g, eps)
    assert g.pricing(eps) is rule  # one rule per game and undercut


def test_equal_prices_share_one_fraction():
    g = random_instance(3, 5, 2)
    s = StrategyProfile(g.vendor_masks)
    first = pmvc_prices(g, s).prices
    again = pmvc_prices(g, s).prices
    assert all(p is q for p, q in zip(first, again))


# v({a,b,c}) = 4 and v({b,c}) = v({a,c}) = 3: offering everything prices a and
# b at 1 and c at 3, so the empty set, {a} and {b} all give the buyer 0 while
# {a,b} gives -1.  Their union is no maximizer; the buyer takes {b}.
KNIFE_EDGE = GameInstance(
    TableValuation(Universe(("a", "b", "c")), [0, 1, 1, 1, 0, 3, 3, 4]),
    (0b011, 0b100),
    allow_uncertified=True,
)


@pytest.mark.parametrize("undercut", [None, Fraction(1, 7)])
def test_uncertified_knife_edge_matches_the_oracle(undercut):
    g = KNIFE_EDGE
    assert not g.certified
    table = assert_matches_oracle(g, undercut)
    full = table[-1]
    assert full.profile.offers == g.vendor_masks
    if undercut is None:
        assert not full.demand.union_is_optimal
        assert full.sold == g.universe.mask_of(("b",))
    # the uncertified payoff rule runs the same outcomes
    pays = {o.profile.offers: o.vendor_payoffs for o in table}
    stable = []
    for offers in oracle_profiles(g):
        best_for = []
        for i in range(g.n_vendors):
            options = {
                alt: pays[offers[:i] + (alt,) + offers[i + 1:]][i]
                for alt in sorted(submasks_of(g.vendor_masks[i]))
            }
            top = max(options.values())
            replies = [alt for alt, p in options.items() if p == top]
            assert pmvc_best_response(g, i, offers, undercut) == replies
            best_for.append(offers[i] in replies)
        if all(best_for):
            stable.append(StrategyProfile(offers))
    assert pmvc_pure_ne(g, undercut=undercut) == stable


NONMONOTONE = "valuation is not monotone: item y has marginal -1 at {x}"


def test_nonmonotone_refused_by_prices_and_table():
    g = load_instance(DATA / "nonmonotone.json")
    with pytest.raises(ValueError) as prices_error:
        pmvc_prices(g, StrategyProfile(g.vendor_masks))
    with pytest.raises(ValueError) as table_error:
        list(payoff_table(g))
    assert str(prices_error.value) == str(table_error.value) == NONMONOTONE
