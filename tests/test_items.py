import pytest
from hypothesis import given, strategies as st

from vcgames.items import MAX_ITEMS, Universe, bits_of, halves, submasks_of, subset_sums


def test_universe_basics():
    u = Universe(("a", "b", "c"))
    assert u.n == 3
    assert u.full_mask == 0b111
    assert u.index("b") == 1
    assert u.mask_of(("a", "c")) == 0b101
    assert u.names_of(0b101) == ("a", "c")


def test_universe_rejects_duplicates_and_bad_names():
    with pytest.raises(ValueError):
        Universe(("a", "a"))
    with pytest.raises(ValueError):
        Universe(("a,b",))
    with pytest.raises(ValueError):
        Universe(("a|b",))
    with pytest.raises(ValueError):
        Universe(("{x}",))
    with pytest.raises(ValueError):
        Universe(())
    with pytest.raises(ValueError):
        Universe(tuple(f"i{k}" for k in range(MAX_ITEMS + 1)))


@pytest.mark.parametrize("name", ["a=x", " a", "a ", "a\t"])
def test_universe_rejects_unaddressable_names(name):
    # "=" splits --prices pairs and surrounding whitespace is stripped by the
    # set and price parsers, so such an item could never be named
    with pytest.raises(ValueError):
        Universe((name, "b"))


def test_partition():
    u = Universe(("a", "b", "c"))
    assert u.partition([0b011, 0b100], "parts") == (0b011, 0b100)
    with pytest.raises(ValueError, match="disjoint"):
        u.partition([0b011, 0b110], "parts")
    with pytest.raises(ValueError, match="cover"):
        u.partition([0b011], "parts")
    with pytest.raises(ValueError, match="nonempty"):
        u.partition([0b011, 0, 0b100], "parts")
    assert u.partition([0b011, 0, 0b100], "parts", allow_empty=True) == (0b011, 0, 0b100)
    with pytest.raises(ValueError, match="outside"):
        u.partition([0b011, 0b1100], "parts")
    with pytest.raises(ValueError, match="outside"):
        u.partition([-1], "parts")


def test_unknown_item_raises():
    u = Universe(("a", "b"))
    with pytest.raises(KeyError, match="unknown item: 'z'"):
        u.index("z")
    with pytest.raises(KeyError, match="unknown item: 'z'"):
        u.mask_of(("a", "z"))


@pytest.mark.parametrize(
    "read",
    [
        lambda u: u.mask_of(("b", "a", "b")),
        lambda u: u.parse_set("{b,a,b}"),
        lambda u: u.parse_set("b, a ,b"),
    ],
    ids=["mask_of", "parse_set", "parse_set-spaced"],
)
def test_a_set_naming_an_item_twice_is_refused(read):
    # read as {a,b} it would answer a question that was not asked
    u = Universe(("a", "b", "c"))
    with pytest.raises(ValueError, match="names an item twice: 'b'"):
        read(u)


def test_format_and_parse_set():
    u = Universe(("a", "b", "c"))
    assert u.format_set(0) == "{}"
    assert u.format_set(0b101) == "{a,c}"
    assert u.parse_set("{a,c}") == 0b101
    assert u.parse_set("a,c") == 0b101
    assert u.parse_set("{}") == 0
    assert u.parse_set("") == 0


def test_parse_set_round_trip():
    u = Universe(("x", "y", "z", "w"))
    for mask in range(16):
        assert u.parse_set(u.format_set(mask)) == mask


def test_bits_of():
    assert list(bits_of(0)) == []
    assert list(bits_of(0b1011)) == [0, 1, 3]


def test_submasks_of_complete():
    subs = list(submasks_of(0b101))
    assert sorted(subs) == [0b000, 0b001, 0b100, 0b101]
    assert list(submasks_of(0)) == [0]


@given(st.integers(0, (1 << 12) - 1))
def test_submasks_are_exactly_subsets(mask):
    subs = set(submasks_of(mask))
    assert len(subs) == 1 << mask.bit_count()
    assert all(s & mask == s for s in subs)


@given(st.integers(0, (1 << 16) - 1))
def test_bits_of_rebuilds_mask(mask):
    assert sum(1 << b for b in bits_of(mask)) == mask


@given(st.lists(st.integers(-5, 5), max_size=6), st.integers(-9, 9))
def test_subset_sums_add_the_start_to_each_subset(weights, start):
    sums = subset_sums(weights, start)
    assert sums == [
        start + sum(weights[i] for i in bits_of(mask)) for mask in range(1 << len(weights))
    ]


@pytest.mark.parametrize("n", range(1, 9))
def test_halves_pair_each_mask_without_the_item_with_it_plus_the_item(n):
    masks = list(range(1 << n))
    for item in range(n):
        bit = 1 << item
        pairs = [
            pair
            for lo, hi in halves(n, item)
            for pair in zip(masks[lo], masks[hi], strict=True)
        ]
        assert sorted(lo for lo, _ in pairs) == [m for m in masks if not m & bit]
        assert all(hi == lo | bit for lo, hi in pairs)
        # strides for a low bit, contiguous runs for a high one: few slices
        assert len(halves(n, item)) ** 2 <= 1 << (n - 1)
