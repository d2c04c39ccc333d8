"""Welfare ratios and the two structural bound checkers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcgames import (
    GameInstance,
    PriceVector,
    StrategyProfile,
    TableValuation,
    Universe,
    check_hybrid_profile_bound,
    check_vendor_contribution_bound,
    counterexample_instance,
    equilibrium_report,
    harmonic_instance,
    harmonic_number,
    pmvc_pure_ne,
    pos_instance,
    random_instance,
    sentinel_price,
    welfare,
)

G = counterexample_instance()
U = G.universe
F = Fraction


# -- harmonic numbers ------------------------------------------------------


def test_harmonic_numbers():
    assert harmonic_number(1) == 1
    assert harmonic_number(2) == F(3, 2)
    assert harmonic_number(3) == F(11, 6)
    assert harmonic_number(4) == F(25, 12)
    assert harmonic_number(7) == F(363, 140)


def test_harmonic_number_rejects_nonpositive():
    with pytest.raises(ValueError):
        harmonic_number(0)
    with pytest.raises(ValueError):
        harmonic_number(-2)


# -- welfare ---------------------------------------------------------------


def test_welfare_examples():
    free = PriceVector(U, (F(0),) * 4)
    assert welfare(G, free) == F("7.6045")
    sent = sentinel_price(G.valuation)
    assert welfare(G, PriceVector(U, (sent,) * 4)) == 0
    partial = PriceVector(U, (F("2.601"), sent, F("2.201"), sent))
    assert welfare(G, partial) == F("5.404")


# -- equilibrium reports ---------------------------------------------------


def test_report_no_equilibrium():
    rep = equilibrium_report(G)
    assert not rep.has_equilibrium
    assert rep.equilibria == ()
    assert rep.poa is None
    assert rep.pos is None
    assert rep.optimal_welfare == F("7.6045")
    assert rep.welfare_ratio_bound == F(5, 2)
    assert rep.bound_satisfied


def test_report_harmonic_instance():
    rep = equilibrium_report(harmonic_instance(2, 3))
    assert len(rep.equilibria) == 49
    assert rep.optimal_welfare == F(11, 3)
    assert rep.poa == F(11, 6)
    assert rep.pos == 1
    assert rep.welfare_ratio_bound == F(17, 6)
    assert rep.bound_satisfied
    # worst equilibria are the singleton pairs, welfare 2
    assert min(w for _, w in rep.equilibria) == 2
    assert max(w for _, w in rep.equilibria) == F(11, 3)


def test_report_graded_instance():
    rep = equilibrium_report(pos_instance(2, 3, F(1, 100)))
    assert len(rep.equilibria) == 9
    assert all(w == 2 for _, w in rep.equilibria)
    assert rep.optimal_welfare == F(547, 150)
    assert rep.poa == F(547, 300)
    assert rep.pos == F(547, 300)
    assert rep.bound_satisfied


def test_report_zero_valuation_degenerates_to_one():
    v = TableValuation(Universe(("x",)), [0, 0])
    rep = equilibrium_report(GameInstance(v, (0b1,)))
    assert rep.has_equilibrium
    assert rep.optimal_welfare == 0
    assert rep.poa == 1
    assert rep.pos == 1


def test_report_refuses_a_zero_welfare_equilibrium_below_a_positive_optimum():
    # supermodular, so uncertified: offering nothing is an equilibrium, and
    # no welfare ratio divides by its zero welfare
    v = TableValuation(Universe(("x", "y")), [0, 0, 0, 1])
    g = GameInstance(v, (0b01, 0b10), allow_uncertified=True)
    with pytest.raises(ValueError, match="no welfare ratio"):
        equilibrium_report(g)


# -- bound checks ----------------------------------------------------------


def test_bound_check_slack_and_holds():
    le = check_hybrid_profile_bound(G, G.parse_profile("{a}|{c}"))
    assert le.relation == ">="
    assert le.lhs == F("13.109")
    assert le.rhs == F("13.0085")
    assert le.slack == F("0.1005")
    assert le.holds


def test_hybrid_bound_tight_at_full_profile():
    check = check_hybrid_profile_bound(G, G.parse_profile("{a,b}|{c,d}"))
    assert check.lhs == check.rhs == F("15.209")
    assert check.slack == 0


def test_hybrid_bound_tight_on_harmonic_singletons():
    g = harmonic_instance(2, 3)
    s = StrategyProfile((1 << 0, 1 << 3))  # one item from each block
    check = check_hybrid_profile_bound(g, s)
    assert check.lhs == check.rhs == F(17, 3)


def test_contribution_bound_rejects_nonequilibrium():
    with pytest.raises(ValueError):
        check_vendor_contribution_bound(G, G.parse_profile("{a}|{c}"))


def test_contribution_bound_tight_on_harmonic_singletons():
    g = harmonic_instance(2, 3)
    s = StrategyProfile((1 << 0, 1 << 3))
    checks = check_vendor_contribution_bound(g, s)
    assert len(checks) == 2
    for check in checks:
        assert check.relation == "<="
        assert check.lhs == check.rhs == F(17, 6)
        assert check.holds


def test_contribution_bound_single_item_monopoly():
    v = TableValuation(Universe(("x",)), [0, 2])
    g = GameInstance(v, (0b1,))
    (check,) = check_vendor_contribution_bound(g, StrategyProfile((0b1,)))
    assert check.lhs == check.rhs == 2


def test_contribution_bound_itemless_vendor():
    v = TableValuation(Universe(("x",)), [0, 2])
    g = GameInstance(v, (0b1, 0))
    checks = check_vendor_contribution_bound(g, StrategyProfile((0b1, 0)))
    assert checks[1].lhs == checks[1].rhs == 2
    assert checks[1].holds


# -- the bounds hold on random certified instances --------------------------


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 5_000),
    st.sampled_from(["coverage", "additive-concave"]),
    st.integers(0, 62),
)
def test_hybrid_bound_holds_everywhere(seed, gen, profile_bits):
    g = random_instance(seed, n_items=4, n_vendors=2, generator=gen)
    offers = tuple(
        _pick_bits(m, profile_bits >> (3 * i)) for i, m in enumerate(g.vendor_masks)
    )
    check = check_hybrid_profile_bound(g, StrategyProfile(offers))
    assert check.holds


def _pick_bits(owned, selector):
    offer = 0
    j = 0
    for b in range(owned.bit_length()):
        if owned >> b & 1:
            if selector >> j & 1:
                offer |= 1 << b
            j += 1
    return offer


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 5_000), st.sampled_from(["coverage", "additive-concave"]))
def test_contribution_bound_holds_at_equilibria(seed, gen):
    g = random_instance(seed, n_items=4, n_vendors=2, generator=gen)
    for s in pmvc_pure_ne(g)[:5]:
        assert all(c.holds for c in check_vendor_contribution_bound(g, s))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 5_000), st.sampled_from(["coverage", "additive-concave"]))
def test_poa_bound_on_random_instances(seed, gen):
    g = random_instance(seed, n_items=5, n_vendors=2, generator=gen)
    rep = equilibrium_report(g)
    assert rep.bound_satisfied
    if rep.has_equilibrium:
        assert 1 <= rep.pos <= rep.poa <= rep.welfare_ratio_bound
