"""Invariants the model implies, checked on seeded random games.

Relabeling vendors or items and rescaling the buyer's valuation change
nothing but the labels and the units; every best-response tier's realized
revenue is what the buyer pays at its prices.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcgames import (
    GameInstance,
    PriceVector,
    TableValuation,
    Universe,
    equilibrium_report,
    payoff_table,
    pmvc_pure_ne,
    random_instance,
    vc_best_response,
    vendor_revenue,
)
from vcgames.items import bits_of
from vcgames.vcgame import METHODS

GENERATORS = st.sampled_from(["coverage", "additive-concave"])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 5_000), st.integers(2, 6), st.integers(1, 3), GENERATORS)
def test_reversing_vendor_order_reverses_equilibria(seed, n, k, generator):
    g = random_instance(seed, n, min(k, n), generator)
    flipped = GameInstance(g.valuation, g.vendor_masks[::-1])
    assert {s.offers[::-1] for s in pmvc_pure_ne(g)} == {s.offers for s in pmvc_pure_ne(flipped)}
    before, after = equilibrium_report(g), equilibrium_report(flipped)
    assert (before.poa, before.pos) == (after.poa, after.pos)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 5_000), st.integers(1, 7), st.integers(1, 3), GENERATORS, st.data())
def test_relabeling_items_permutes_equilibria(seed, n, k, generator, data):
    # random games are certified, so the buyer's largest-bitmask fallback,
    # which is not permutation-equivariant, never decides an outcome here
    g = random_instance(seed, n, min(k, n), generator)
    perm = data.draw(st.permutations(range(n)))  # item i becomes item perm[i]

    def move(mask):
        return sum(1 << perm[i] for i in bits_of(mask))

    names = [""] * n
    values = [Fraction(0)] * (1 << n)
    for i, name in enumerate(g.universe.names):
        names[perm[i]] = name
    for mask in range(1 << n):
        values[move(mask)] = g.valuation.value_mask(mask)
    relabeled = GameInstance(
        TableValuation(Universe(tuple(names)), values), [move(m) for m in g.vendor_masks]
    )
    # enumeration order follows item order, so compare sets of profiles
    moved = {tuple(map(move, s.offers)) for s in pmvc_pure_ne(g)}
    assert moved == {s.offers for s in pmvc_pure_ne(relabeled)}
    before, after = equilibrium_report(g), equilibrium_report(relabeled)
    assert (before.poa, before.pos) == (after.poa, after.pos)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 5_000),
    st.integers(2, 5),
    st.integers(1, 3),
    GENERATORS,
    st.fractions(min_value=Fraction(1, 50), max_value=50),
)
def test_scaling_the_valuation_scales_payoffs(seed, n, k, generator, factor):
    g = random_instance(seed, n, min(k, n), generator)
    v = g.valuation
    scaled = GameInstance(
        TableValuation(g.universe, [factor * v.value_mask(m) for m in range(1 << n)]),
        g.vendor_masks,
    )
    for base, big in zip(payoff_table(g), payoff_table(scaled)):  # demand route
        assert big.profile == base.profile
        assert big.vendor_payoffs == tuple(factor * q for q in base.vendor_payoffs)
    assert pmvc_pure_ne(scaled) == pmvc_pure_ne(g)
    before, after = equilibrium_report(g), equilibrium_report(scaled)
    assert (before.poa, before.pos) == (after.poa, after.pos)


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 5_000),
    n=st.integers(2, 4),
    k=st.integers(2, 3),
    data=st.data(),
)
def test_realized_revenue_is_what_the_buyer_pays(method, seed, n, k, data):
    g = random_instance(seed, n, min(k, n))
    prices = data.draw(
        st.lists(st.fractions(min_value=0, max_value=40, max_denominator=4), min_size=n, max_size=n)
    )
    p = PriceVector(g.universe, tuple(prices))
    for vendor in range(g.n_vendors):
        br = vc_best_response(g, vendor, p, method)
        assert br.realized_revenue == vendor_revenue(g, p.replace(br.prices), vendor)
        if method == "target-set-exact":
            assert br.realized_revenue <= br.revenue  # the supremum
        else:
            assert br.realized_revenue == br.revenue
