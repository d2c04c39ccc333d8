"""Valuation classes: values, marginals, certification, dense form."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcgames import (
    AdditiveGroupsValuation,
    CategoryMaxValuation,
    TableValuation,
    Universe,
    check_monotone,
    check_submodular,
    counterexample_instance,
    expand_to_table,
)
from vcgames.items import bits_of, halves
from vcgames.valuation import ValidationReport, Valuation

U2 = Universe(("a", "b"))
U3 = Universe(("a", "b", "c"))


def frac(s):
    return Fraction(s)


# -- table valuations ------------------------------------------------------


def test_table_values_and_marginals():
    v = TableValuation(U2, [0, 3, 2, 4])
    assert v.value_of(()) == 0
    assert v.value_of(("a",)) == 3
    assert v.value_of(("b",)) == 2
    assert v.value_of(("a", "b")) == 4
    assert v.marginal_mask(0, 0) == 3
    assert v.marginal_mask(0, 2) == 2
    assert v.marginal_mask(1, 1) == 1


def test_marginal_rejects_member_item():
    v = TableValuation(U2, [0, 3, 2, 4])
    with pytest.raises(ValueError):
        v.marginal_mask(0, 1)


def test_table_needs_full_length_and_zero_empty():
    with pytest.raises(ValueError):
        TableValuation(U2, [0, 1, 2])
    with pytest.raises(ValueError):
        TableValuation(U2, [1, 1, 2, 3])


def test_table_certify_runs_exhaustive():
    good = TableValuation(U2, [0, 3, 2, 4])
    assert good.structural_certificate() is None
    assert good.certify() == (True, True)


def test_monotone_witness_is_first_violation():
    # v({a,b}) < v({a}); scan order pins the witness to (mask=1, item=1)
    v = TableValuation(U2, [0, 2, 1, 1])
    report = check_monotone(v)
    assert not report
    assert report.witness == (1, 1)
    assert "v({a,b})" in report.detail


def test_submodular_witness_is_first_violation():
    # strictly supermodular pair: m_a({b}) = 2 > m_a(empty) = 1
    v = TableValuation(U2, [0, 1, 1, 3])
    report = check_submodular(v)
    assert not report
    assert report.witness == (0, 2, 0)
    assert check_monotone(v).ok


def test_decimal_strings_stay_exact():
    v = TableValuation(U2, ["0", "2.503", "2.803", "4.1045"])
    assert v.value_of(("a",)) == Fraction(2503, 1000)
    assert v.value_of(("a", "b")) == Fraction(41045, 10000)


# -- additive-groups valuations --------------------------------------------


def test_additive_groups_values():
    # groups {a,b} and {c}, curve 0, 1, 3/2
    v = AdditiveGroupsValuation(U3, (0b011, 0b100), [0, 1, Fraction(3, 2)])
    assert v.value_of(("a",)) == 1
    assert v.value_of(("a", "b")) == Fraction(3, 2)
    assert v.value_of(("a", "c")) == 2
    assert v.value_of(("a", "b", "c")) == Fraction(5, 2)
    assert v.structural_certificate() == (True, True)


def test_additive_groups_validation():
    with pytest.raises(ValueError):
        AdditiveGroupsValuation(U3, (0b011, 0b110), [0, 1, 2])  # overlap
    with pytest.raises(ValueError):
        AdditiveGroupsValuation(U3, (0b011,), [0, 1, 2])  # c uncovered
    with pytest.raises(ValueError):
        AdditiveGroupsValuation(U3, (0b011, 0b100, 0), [0, 1, 2])  # empty group
    with pytest.raises(ValueError):
        AdditiveGroupsValuation(U3, (0b011, 0b100), [1, 2, 3])  # curve(0) != 0
    with pytest.raises(ValueError):
        AdditiveGroupsValuation(U3, (0b011, 0b100), [0, 1])  # curve too short
    with pytest.raises(ValueError, match="curve shorter"):
        AdditiveGroupsValuation(U3, (0b011, 0b100), [])  # no curve(0) at all


def test_additive_groups_structural_matches_scan():
    # decreasing then recovering curve: not monotone, and the increment jump
    # from -1/2 back up to +1/4 also kills concavity
    u = Universe(("a", "b", "c"))
    v = AdditiveGroupsValuation(u, (0b111,), [0, 1, Fraction(1, 2), Fraction(3, 4)])
    cert = v.structural_certificate()
    assert cert == (False, False)
    assert cert == (check_monotone(v).ok, check_submodular(v).ok)


# -- category-max valuations -----------------------------------------------


def test_category_max_values():
    v = CategoryMaxValuation(U3, (0b011, 0b100), [5, 3, 2])
    assert v.value_of(("b",)) == 3
    assert v.value_of(("a", "b")) == 5
    assert v.value_of(("b", "c")) == 5
    assert v.value_of(("a", "b", "c")) == 7
    assert v.structural_certificate() == (True, True)


def test_category_max_validation():
    with pytest.raises(ValueError):
        CategoryMaxValuation(U3, (0b011, 0b110), [1, 1, 1])
    with pytest.raises(ValueError):
        CategoryMaxValuation(U3, (0b011,), [1, 1, 1])
    with pytest.raises(ValueError):
        CategoryMaxValuation(U3, (0b011, 0b100), [1, 1])


def test_category_max_negative_value_defers_to_scan():
    # a lone negative item is additive, so submodularity survives even though
    # monotonicity does not; the structural route must not claim otherwise
    v = CategoryMaxValuation(U2, (0b01, 0b10), [-1, 2])
    assert v.structural_certificate() is None
    assert v.certify() == (False, True)


# -- dense integer form ----------------------------------------------------


def test_dense_scaled_exact():
    v = TableValuation(U2, ["0", "2.5", "1.25", "3.125"])
    table, scale = v.dense_scaled()
    assert len(table) == 4
    for mask in range(4):
        assert Fraction(table[mask], scale) == v.value_mask(mask)


def test_dense_scaled_cached():
    v = TableValuation(U2, [0, 1, 2, 3])
    assert v.dense_scaled() is v.dense_scaled()


# -- property tests --------------------------------------------------------

small_fracs = st.fractions(
    min_value=Fraction(0), max_value=Fraction(8), max_denominator=6
)


@st.composite
def random_tables(draw):
    vals = [Fraction(0)] + [draw(small_fracs) for _ in range(7)]
    return TableValuation(U3, vals)


@settings(max_examples=60, deadline=None)
@given(random_tables())
def test_expand_to_table_preserves_values(v):
    t = expand_to_table(v)
    assert all(t.value_mask(m) == v.value_mask(m) for m in range(8))


@settings(max_examples=60, deadline=None)
@given(random_tables())
def test_dense_matches_fractions(v):
    table, scale = v.dense_scaled()
    assert all(Fraction(table[m], scale) == v.value_mask(m) for m in range(8))


@st.composite
def random_curves(draw):
    incs = [draw(st.fractions(Fraction(-2), Fraction(3), max_denominator=4))
            for _ in range(3)]
    curve = [Fraction(0)]
    for d in incs:
        curve.append(curve[-1] + d)
    return curve


@settings(max_examples=60, deadline=None)
@given(random_curves(), st.sampled_from([(0b0111, 0b1000), (0b0011, 0b1100)]))
def test_additive_structural_agrees_with_scan(curve, groups):
    u = Universe(("a", "b", "c", "d"))
    v = AdditiveGroupsValuation(u, groups, curve)
    assert v.structural_certificate() == (
        check_monotone(v).ok,
        check_submodular(v).ok,
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.fractions(Fraction(-3), Fraction(6), max_denominator=4),
        min_size=3,
        max_size=3,
    ),
    st.sampled_from([(0b011, 0b100), (0b001, 0b110), (0b111,)]),
)
def test_category_max_certify_agrees_with_scan(vals, cats):
    v = CategoryMaxValuation(U3, cats, vals)
    assert v.certify() == (check_monotone(v).ok, check_submodular(v).ok)


@settings(max_examples=60, deadline=None)
@given(random_curves(), st.lists(st.integers(0, 2), min_size=6, max_size=6))
def test_additive_dense_matches_fractions(curve, labels):
    # interleaved groups, so the table's doubling sees each group's lower
    # items scattered among the other groups'
    u = Universe(tuple("abcdef"))
    groups = [sum(1 << i for i, g in enumerate(labels) if g == label) for label in set(labels)]
    v = AdditiveGroupsValuation(u, groups, curve + [curve[-1]] * 3)
    table, scale = v.dense_scaled()
    assert all(Fraction(table[m], scale) == v.value_mask(m) for m in range(64))


@pytest.mark.parametrize(
    "v, rationals",
    [
        (TableValuation(U2, ["0", "1/3", "1/4", "7/12"]), ["1/3", "1/4", "7/12"]),
        (TableValuation(U2, ["0", "2", "3", "5"]), ["2", "3", "5"]),
        # the curve runs past the largest group, and its last entry sets L
        (
            AdditiveGroupsValuation(U3, (0b011, 0b100), ["0", "1", "3/2", "11/6", "25/12"]),
            ["1", "3/2", "11/6", "25/12"],
        ),
        (CategoryMaxValuation(U3, (0b011, 0b100), ["1/5", "2/3", "1"]), ["1/5", "2/3", "1"]),
    ],
    ids=["table", "table-integral", "additive-groups", "category-max"],
)
def test_dense_scale_is_the_lcm_of_the_kinds_own_rationals(v, rationals):
    table, scale = v.dense_scaled()
    assert scale == lcm(*(Fraction(q).denominator for q in rationals))
    assert all(Fraction(table[m], scale) == v.value_mask(m) for m in range(len(table)))


def _ordered_pair_submodular_scan(v):
    """The scan over every ordered pair (a, b), as a reference."""
    n = v.universe.n
    table, _ = v.dense_scaled()
    names = v.universe
    for mask in range(1 << n):
        for a in range(n):
            if mask >> a & 1:
                continue
            base = table[mask | 1 << a] - table[mask]
            for b in range(n):
                if b == a or mask >> b & 1:
                    continue
                if table[mask | 1 << a | 1 << b] - table[mask | 1 << b] > base:
                    return (mask, mask | 1 << b, a), (
                        f"marginal of {names.names[a]} rises from "
                        f"{names.format_set(mask)} to {names.format_set(mask | 1 << b)}"
                    )
    return None, ""


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.integers(0, 6), min_size=(1 << n) - 1, max_size=(1 << n) - 1)
))
def test_submodular_scan_matches_the_ordered_pair_scan(values):
    n = (len(values) + 1).bit_length() - 1
    v = TableValuation(Universe(tuple("abcd"[:n])), [0] + values)
    report = check_submodular(v)
    witness, detail = _ordered_pair_submodular_scan(v)
    assert report.ok == (witness is None)
    assert (report.witness, report.detail) == (witness, detail)


# -- the scalar scans, as the reference for the sliced checks ----------------


def reference_check_monotone(v: Valuation) -> ValidationReport:
    """Exhaustive scan: v(S + a) >= v(S) for every S and a outside S.

    Scans subsets ascending by mask and items ascending, so the reported
    witness is deterministic.
    """
    n = v.universe.n
    table, _ = v.dense_scaled()
    for mask in range(1 << n):
        for a in range(n):
            bit = 1 << a
            if mask & bit:
                continue
            if table[mask | bit] < table[mask]:
                names = v.universe
                return ValidationReport(
                    False,
                    (mask, a),
                    f"v({names.format_set(mask | bit)}) < v({names.format_set(mask)})",
                )
    return ValidationReport(True)


def reference_check_submodular(v: Valuation) -> ValidationReport:
    """Exhaustive scan of the local condition m_a(S) >= m_a(S + b).

    The local condition over all S, a, b is equivalent to submodularity on
    every pair of sets, so a PASS here is a full certificate.  The condition
    is symmetric in a and b, so only a < b is scanned, which finds the same
    first violation as the scan of every ordered pair.
    """
    n = v.universe.n
    table, _ = v.dense_scaled()
    for mask in range(1 << n):
        for a in range(n):
            abit = 1 << a
            if mask & abit:
                continue
            base = table[mask | abit] - table[mask]
            for b in range(a + 1, n):
                bbit = 1 << b
                if mask & bbit:
                    continue
                if table[mask | abit | bbit] - table[mask | bbit] > base:
                    names = v.universe
                    return ValidationReport(
                        False,
                        (mask, mask | bbit, a),
                        f"marginal of {names.names[a]} rises from "
                        f"{names.format_set(mask)} to {names.format_set(mask | bbit)}",
                    )
    return ValidationReport(True)


def assert_checks_match_the_scans(v):
    monotone, submodular = v.exhaustive_checks()
    assert monotone == check_monotone(v) == reference_check_monotone(v)
    assert submodular == check_submodular(v) == reference_check_submodular(v)
    return monotone, submodular


@st.composite
def tables_up_to_seven_items(draw):
    """A coverage function (monotone and submodular), less an optional
    per-item cost (submodular, maybe not monotone), plus an optional
    q|S|^2 (monotone, maybe not submodular), with an optional bump at one
    set (often breaking either), or now and then any table."""
    n = draw(st.integers(1, 7))
    u = Universe(tuple("abcdefg"[:n]))
    if draw(st.integers(0, 5)) == 0:
        return TableValuation(u, [0] + draw(st.lists(st.integers(-3, 6), min_size=(1 << n) - 1,
                                                     max_size=(1 << n) - 1)))
    weights = draw(st.lists(st.integers(0, 5), min_size=6, max_size=6))
    covers = draw(st.lists(st.integers(0, 63), min_size=n, max_size=n))
    costs = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)) if draw(st.booleans()) else [0] * n
    q = draw(st.integers(0, 2))
    values = []
    for mask in range(1 << n):
        covered = 0
        for i in bits_of(mask):
            covered |= covers[i]
        values.append(sum(w for j, w in enumerate(weights) if covered >> j & 1)
                      - sum(costs[i] for i in bits_of(mask)) + q * mask.bit_count() ** 2)
    if draw(st.booleans()):
        values[draw(st.integers(1, (1 << n) - 1))] += draw(st.sampled_from([-2, -1, 1, 2]))
    return TableValuation(u, values)


@settings(max_examples=300, deadline=None)
@given(tables_up_to_seven_items())
def test_checks_match_the_scalar_scans(v):
    assert_checks_match_the_scans(v)


def _bump_on(n: int, items: tuple[int, ...]) -> TableValuation:
    """An additive table plus 1 on every set holding all of ``items``: the
    marginal of one of them rises once the others are held."""
    whole = sum(1 << i for i in items)
    return TableValuation(
        Universe(tuple("abcdefg"[:n])),
        [3 * m.bit_count() + (m & whole == whole) for m in range(1 << n)],
    )


@pytest.mark.parametrize(
    "items, witness, detail, strided",
    [
        # S = {a}: b's marginal rises when c joins; bit 2 is split by strides
        ((0, 1, 2), (0b1, 0b101, 1), "marginal of b rises from {a} to {a,c}", True),
        # S = {e}: f's marginal rises when g joins; bit 6 is split in runs
        ((4, 5, 6), (0b10000, 0b1010000, 5), "marginal of f rises from {e} to {e,g}", False),
    ],
    ids=["low-bit", "high-bit"],
)
def test_submodular_witness_at_a_low_and_a_high_bit(items, witness, detail, strided):
    v = _bump_on(7, items)
    assert (halves(7, items[-1])[0][0].step is not None) == strided
    monotone, submodular = assert_checks_match_the_scans(v)
    assert monotone.ok
    assert (submodular.ok, submodular.witness, submodular.detail) == (False, witness, detail)


@pytest.mark.parametrize("item", range(7))
def test_monotone_witness_at_every_bit(item):
    # v drops by 1 when either of item and the next item round joins the
    # other, and the smaller of the two sets is the witness
    n, other = 7, (item + 1) % 7
    v = TableValuation(
        Universe(tuple("abcdefg")),
        [3 * m.bit_count() - 4 * (m >> item & m >> other & 1) for m in range(1 << n)],
    )
    monotone, _ = assert_checks_match_the_scans(v)
    assert monotone.witness == (1 << min(item, other), max(item, other))


COUNTEREXAMPLE_TABLE = counterexample_instance().valuation
KINDS = {
    "table": COUNTEREXAMPLE_TABLE,
    "additive-groups": AdditiveGroupsValuation(U3, (0b011, 0b100), [0, 1, Fraction(3, 2)]),
    "category-max": CategoryMaxValuation(U3, (0b011, 0b100), [1, 2, 3]),
}


@pytest.mark.parametrize("v", KINDS.values(), ids=KINDS)
@pytest.mark.parametrize(
    "query",
    [lambda v: v.value_mask(-1), lambda v: v.marginal_mask(0, -2), lambda v: v.value_mask(99)],
    ids=["value(-1)", "marginal(0,-2)", "value(99)"],
)
def test_masks_outside_the_universe_are_refused(v, query):
    with pytest.raises(ValueError, match="outside universe"):
        query(v)
