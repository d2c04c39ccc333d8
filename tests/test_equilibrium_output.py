"""Equilibria held as unions: the lazy profile sequence, the report built on
it, and the rendering from unions, each against a route that builds every
profile and welfare the long way."""

import contextlib
import io
import json
from fractions import Fraction
from itertools import groupby
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcgames import (
    GameInstance,
    ProfileSequence,
    StrategyProfile,
    all_profiles,
    counterexample_instance,
    equilibrium_report,
    harmonic_instance,
    harmonic_number,
    pmvc_best_response,
    pmvc_pure_ne,
    pos_instance,
    random_cdsp_instance,
    random_instance,
)
from vcgames.cli import main
from vcgames.items import Universe
from vcgames.valuation import TableValuation
from vcgames.rationals import format_rational
from vcgames.serialize import equilibria_to_text, load_instance, report_to_obj, report_to_text

DATA = Path(__file__).parent / "data"
FILES = sorted(str(p) for p in DATA.glob("*.json"))
UNDERCUTS = [None, Fraction(1, 1000)]


def cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


# -- the reference route ---------------------------------------------------


def reference_ne(g, undercut=None):
    """Every profile, in ``all_profiles`` order, from which no vendor's best
    reply departs."""
    return [
        s
        for s in all_profiles(g)
        if all(s.offers[i] in pmvc_best_response(g, i, s, undercut) for i in range(g.n_vendors))
    ]


def reference_ne_outputs(g, nes):
    """``ne`` as text and as JSON, each profile formatted on its own."""
    texts = [s.format(g.universe) for s in nes]
    text = "\n".join([f"{len(nes)} pure Nash equilibria"] + [f"  {t}" for t in texts])
    return text + "\n", json.dumps({"count": len(nes), "equilibria": texts}, indent=2) + "\n"


def reference_report(g, nes):
    """``poa`` as text and as a JSON object, each welfare valued on its own."""
    fmt = format_rational
    welfares = [Fraction(g.valuation.value_mask(s.union_mask)) for s in nes]
    opt = g.valuation.value_mask(g.universe.full_mask)
    bound = harmonic_number(g.max_vendor_size) + 1
    lines = [f"{len(nes)} pure Nash equilibria"]
    lines += [f"  {s.format(g.universe)}  welfare {fmt(w)}" for s, w in zip(nes, welfares)]
    lines.append(f"optimal welfare = {fmt(opt)}")
    poa = pos = None
    if not nes:
        lines += ["PoA undefined (no pure NE)", "PoS undefined (no pure NE)"]
    else:
        poa, pos = (opt / min(welfares), opt / max(welfares)) if opt else (Fraction(1),) * 2
        verdict = "satisfied" if poa <= bound else "VIOLATED"
        lines.append(f"PoA = {fmt(poa)}, bound H_{g.max_vendor_size}+1 = {fmt(bound)}, {verdict}")
        lines.append(f"PoS = {fmt(pos)}")
    obj = {
        "equilibria": [
            {"profile": s.format(g.universe), "welfare": fmt(w)} for s, w in zip(nes, welfares)
        ],
        "optimal_welfare": fmt(opt),
        "poa": None if poa is None else fmt(poa),
        "pos": None if pos is None else fmt(pos),
        "welfare_ratio_bound": fmt(bound),
        "bound_satisfied": poa is None or poa <= bound,
    }
    return "\n".join(lines), obj


def assert_outputs_match(g, source):
    """``source`` is the CLI's input: a file path, or ``--gen SPEC``."""
    for eps in UNDERCUTS:
        flags = [] if eps is None else ["--eps", str(eps)]
        text, js = reference_ne_outputs(g, reference_ne(g, eps))
        assert cli("ne", *source, *flags) == (0, text)
        assert cli("ne", *source, *flags, "--format", "json") == (0, js)
    nes = reference_ne(g)
    text, obj = reference_report(g, nes)
    rep = equilibrium_report(g)
    assert "".join(report_to_text(g, rep)) == text
    assert report_to_obj(g, rep) == obj
    assert cli("poa", *source) == (0, text + "\n")
    assert cli("poa", *source, "--format", "json") == (0, json.dumps(obj, indent=2) + "\n")


# -- rendering against the reference ---------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(1, 7),
    st.integers(1, 3),
    st.sampled_from(["coverage", "additive-concave"]),
)
def test_outputs_match_reference_on_random_games(seed, n, k, generator):
    k = min(k, n)
    g = random_instance(seed, n, k, generator)
    assert_outputs_match(g, ["--gen", f"random:{seed},{n},{k},{generator}"])


def test_outputs_match_reference_without_equilibria():
    g = counterexample_instance()
    assert reference_ne(g) == []
    assert_outputs_match(g, ["--gen", "counterexample"])


# games solved one additive part at a time, by their --gen spec; the listing
# must still follow all_profiles order across the parts
SEPARABLE = {
    "harmonic:3,3": lambda: harmonic_instance(3, 3),
    "pos:2,4,1/100": lambda: pos_instance(2, 4, Fraction(1, 100)),
    "cdsp_random:4,7,3,3": lambda: random_cdsp_instance(4, 7, 3, 3),
}


@pytest.mark.parametrize("spec", sorted(SEPARABLE))
def test_outputs_match_reference_on_separable_games(spec):
    assert_outputs_match(SEPARABLE[spec](), ["--gen", spec])


@pytest.mark.parametrize("path", FILES, ids=lambda p: Path(p).name)
def test_outputs_match_reference_on_data_files(path):
    g = load_instance(path)
    if not g.monotone_certified:
        # exact marginal pricing is refused on every route; an undercut
        # prices a negative marginal at 0 and still has equilibria
        with pytest.raises(ValueError, match="not monotone"):
            reference_ne(g)
        for argv in (["ne", path], ["poa", path]):
            assert cli(*argv) == (2, "")
        eps = UNDERCUTS[1]
        text, _ = reference_ne_outputs(g, reference_ne(g, eps))
        assert cli("ne", path, "--eps", str(eps)) == (0, text)
        return
    assert_outputs_match(g, [path])


@pytest.mark.parametrize("command", ["ne", "poa"])
def test_text_listing_comes_in_chunks(command):
    # 127^2 = 16,129 equilibria: more lines than one chunk of 4,096
    g = harmonic_instance(2, 7)
    if command == "ne":
        pieces = equilibria_to_text(g, pmvc_pure_ne(g))
    else:
        pieces = report_to_text(g, equilibrium_report(g))
    head = next(pieces)
    assert head == "16129 pure Nash equilibria"
    rest = list(pieces)
    listed = [piece.count("\n  ") for piece in rest]  # equilibrium lines per piece
    assert sum(n > 0 for n in listed) > 1
    assert max(listed) <= 4096
    assert sum(listed) == 16129
    assert cli(command, "--gen", "harmonic:2,7") == (0, head + "".join(rest) + "\n")


def test_a_block_longer_than_a_piece_is_split():
    # one vendor, 13 items: 8,191 equilibria in one block
    g = harmonic_instance(1, 13)
    nes = pmvc_pure_ne(g)
    assert nes.blocks == [(0, list(range(1, 1 << 13)))]
    for command, pieces in (
        ("ne", equilibria_to_text(g, nes)),
        ("poa", report_to_text(g, equilibrium_report(g))),
    ):
        pieces = list(pieces)
        listed = [piece.count("\n  ") for piece in pieces[1:]]
        assert sum(n > 0 for n in listed) > 1
        assert max(listed) <= 4096
        assert sum(listed) == 8191
        assert cli(command, "--gen", "harmonic:1,13") == (0, "".join(pieces) + "\n")


# -- the block walk on composite games --------------------------------------


class PartsTable(TableValuation):
    """An explicit table that adds up over the given parts."""

    def __init__(self, universe, values, parts):
        super().__init__(universe, values)
        self.parts = parts

    def components(self):
        return self.parts


def monotone_table(rng_values, n):
    """A monotone table from raw values: each set is raised to the largest
    value of a set one item smaller."""
    values = [Fraction(0)] + [Fraction(x) for x in rng_values[: (1 << n) - 1]]
    for mask in range(1, 1 << n):
        values[mask] = max([values[mask]] + [values[mask ^ (1 << i)] for i in range(n) if mask >> i & 1])
    return values


def spread_parts(part_tables, order):
    """The sum of per-part tables, part p on the items ``order`` gives it,
    as a ``PartsTable``."""
    n = len(order)
    items, parts, start = [], [], 0
    for values in part_tables:
        size = (len(values) - 1).bit_length()
        items.append(order[start:start + size])
        parts.append(sum(1 << i for i in items[-1]))
        start += size
    totals = []
    for mask in range(1 << n):
        total = Fraction(0)
        for values, own in zip(part_tables, items):
            total += values[sum(1 << j for j, i in enumerate(own) if mask >> i & 1)]
        totals.append(total)
    return PartsTable(Universe(tuple("abcdefgh"[:n])), totals, tuple(parts))


def values_of(v):
    """Every subset's value, by mask."""
    return [v.value_mask(m) for m in range(1 << v.universe.n)]


COUNTEREXAMPLE_TABLE = values_of(counterexample_instance().valuation)


@st.composite
def composite_games(draw):
    """A game with its vendor sets drawn across its parts, or one vendor per
    part, possibly with an itemless vendor first or last."""
    kind = draw(st.sampled_from(["parts", "additive-concave", "cdsp", "uncertified"]))
    seed = draw(st.integers(0, 10_000))
    pinned = {}  # item -> vendor
    if kind == "parts":
        # coverage tables of 1..3 items, or the counterexample, whose items
        # keep their two vendors {a, b} | {c, d}: a part with no pure NE
        tables, n = [], 0
        while n < draw(st.integers(2, 5)):
            if draw(st.integers(0, 4)) == 0:
                tables.append(COUNTEREXAMPLE_TABLE)
                n += 4
            else:
                m = draw(st.integers(1, 3))
                tables.append(values_of(random_instance(draw(st.integers(0, 999)), m, 1).valuation))
                n += m
        order = draw(st.permutations(range(n)))
        v = spread_parts(tables, order)
        start = 0
        for values in tables:
            if values is COUNTEREXAMPLE_TABLE:
                pinned.update(zip(order[start:start + 4], (0, 0, 1, 1)))
            start += (len(values) - 1).bit_length()
    elif kind == "additive-concave":
        n = draw(st.integers(2, 7))
        v = random_instance(seed, n, 1, kind).valuation
    elif kind == "cdsp":
        n = draw(st.integers(2, 7))
        v = random_cdsp_instance(seed, n, draw(st.integers(1, n))).valuation
    else:
        n = draw(st.integers(1, 5))
        raw = draw(st.lists(st.integers(0, 3), min_size=(1 << n) - 1, max_size=(1 << n) - 1))
        v = TableValuation(Universe(tuple("abcdefgh"[:n])), monotone_table(raw, n))
    k = draw(st.integers(2 if pinned else 1, 3))
    if draw(st.booleans()):
        owner = draw(st.lists(st.integers(0, k - 1), min_size=v.universe.n, max_size=v.universe.n))
    else:
        parts = v.components()
        by_part = draw(st.lists(st.integers(0, k - 1), min_size=len(parts), max_size=len(parts)))
        owner = [next(o for part, o in zip(parts, by_part) if part >> i & 1) for i in range(v.universe.n)]
    for item, vendor in pinned.items():
        owner[item] = vendor
    masks = [sum(1 << i for i, o in enumerate(owner) if o == j) for j in range(k)]
    empty = draw(st.sampled_from([None, "first", "last"]))
    if empty == "first":
        masks.insert(0, 0)
    elif empty == "last":
        masks.append(0)
    return GameInstance(v, masks, allow_uncertified=kind == "uncertified")


@settings(max_examples=60, deadline=None)
@given(composite_games(), st.sampled_from([None, Fraction(1, 7)]))
def test_block_walk_matches_brute_force(g, undercut):
    expected = reference_ne(g, undercut)
    nes = pmvc_pure_ne(g, undercut=undercut)
    assert list(nes) == expected
    assert len(nes) == len(expected)
    text, _ = reference_ne_outputs(g, expected)
    assert "".join(equilibria_to_text(g, nes)) + "\n" == text
    if undercut is not None:
        return
    welfares = [g.valuation.value_mask(s.union_mask) for s in expected]
    opt = g.valuation.value_mask(g.universe.full_mask)
    if expected and opt and min(welfares) <= 0:
        # only an uncertified table gets here
        assert not g.certified
        with pytest.raises(ValueError, match="no welfare ratio"):
            equilibrium_report(g)
        return
    rep = equilibrium_report(g)
    if expected:
        assert (rep.poa, rep.pos) == ((opt / min(welfares), opt / max(welfares)) if opt else (1, 1))
    assert "".join(report_to_text(g, rep)) == reference_report(g, expected)[0]


# -- the lazy sequence -----------------------------------------------------


@pytest.mark.parametrize(
    "g",
    [
        harmonic_instance(2, 3),
        random_instance(3, 6, 3),
        random_instance(8, 7, 2, "additive-concave"),
    ],
    ids=["harmonic-2-3", "random-3-6-3", "random-8-7-2"],
)
def test_profile_sequence_contract(g):
    expected = reference_ne(g)
    nes = pmvc_pure_ne(g)
    assert isinstance(nes, ProfileSequence)
    assert len(nes) == len(expected) > 2
    assert list(nes) == expected
    assert list(nes._walk()) == [s.union_mask for s in expected]
    for j in (0, 1, len(expected) - 1, -1, -2, -len(expected)):
        assert nes[j] == expected[j]
    for index in (len(expected), -len(expected) - 1):
        with pytest.raises(IndexError):
            nes[index]
    for cut in (slice(None, 5), slice(2, None, 3), slice(None, None, -1), slice(-3, -1)):
        assert isinstance(nes[cut], ProfileSequence)
        assert nes[cut] == expected[cut]
    assert nes == expected and expected == nes
    assert nes == tuple(expected) and tuple(expected) == nes
    assert nes == pmvc_pure_ne(g)
    assert hash(nes) == hash(tuple(expected))
    assert nes != expected[:-1]
    assert nes != expected[::-1]
    assert nes != set(expected)
    assert expected[1] in nes
    assert expected[0] not in nes[1:]


def test_cap_sized_listing_is_counted_and_reported_from_blocks():
    # 31^4 = 923,521 equilibria at the 20-item cap
    g = harmonic_instance(4, 5)
    nes = pmvc_pure_ne(g)
    assert len(nes) == 923_521
    assert len(nes.blocks) == 31**2
    rep = equilibrium_report(g)
    assert (rep.poa, rep.pos) == (harmonic_number(5), 1)
    assert "unions" not in vars(nes) and "unions" not in vars(rep.profiles)
    assert "_starts" not in vars(rep.profiles)  # the report never indexes
    assert nes[-1] == StrategyProfile(g.vendor_masks)
    assert nes[:2] == [nes[0], nes[1]]
    assert list(nes[::300_000]) == [nes[j] for j in range(0, 923_521, 300_000)]
    assert "unions" not in vars(nes)


# games whose equilibria span several blocks
BLOCKED = pytest.mark.parametrize(
    "g",
    [
        harmonic_instance(2, 3),
        random_instance(3, 6, 3),
        random_instance(4, 8, 3, "additive-concave"),
        pos_instance(3, 3, Fraction(1, 100)),
    ],
    ids=["harmonic-2-3", "random-3-6-3", "random-4-8-3", "pos-3-3"],
)


@BLOCKED
def test_an_index_reads_one_block(g):
    nes = pmvc_pure_ne(g)
    listed = list(nes)
    assert len(nes.blocks) > 1
    for j in range(-len(listed), len(listed)):
        assert nes[j] == listed[j]
    assert "unions" not in vars(nes)


@BLOCKED
def test_a_slice_reads_its_blocks(g):
    nes = pmvc_pure_ne(g)
    listed = list(nes)
    n = len(listed)
    cuts = [
        slice(None, 2), slice(1, None), slice(None, None, 3), slice(-3, None),
        slice(-4, -1), slice(None, None, -1), slice(n - 1, 0, -2), slice(None, None, n),
        slice(2, 2), slice(n, None), slice(-1, 0), slice(5, 1, 2), slice(-n - 5, n + 5),
    ]
    for cut in cuts:
        part = nes[cut]
        assert isinstance(part, ProfileSequence)
        assert list(part) == listed[cut]
    assert "unions" not in vars(nes)


@BLOCKED
def test_a_game_with_a_small_head_keeps_one_block_per_prefix(g):
    # the head owns at most 10 items: the last vendor alone makes the run
    nes = pmvc_pure_ne(g)
    last = g.vendor_masks[-1]
    assert nes.heads == g.n_vendors - 1
    unions = list(nes._walk())
    assert nes.blocks == [
        (prefix, [u - prefix for u in run]) for prefix, run in groupby(unions, lambda u: u & ~last)
    ]


@pytest.mark.parametrize(
    "g, heads, blocks",
    [
        (harmonic_instance(4, 5), 2, 31**2),
        (harmonic_instance(10, 2), 5, 3**5),
        (harmonic_instance(20, 1), 10, 1),
        (harmonic_instance(6, 3), 3, 7**3),
        (harmonic_instance(1, 13), 0, 1),
        (harmonic_instance(2, 7), 1, 127),
        (random_instance(0, 12, 12), 10, 522),
    ],
    ids=["harmonic-4-5", "harmonic-10-2", "harmonic-20-1", "harmonic-6-3", "harmonic-1-13",
         "harmonic-2-7", "random-0-12-12"],
)
def test_the_run_takes_the_last_vendors_while_the_head_owns_more_than_10_items(g, heads, blocks):
    nes = pmvc_pure_ne(g)
    assert (nes.heads, len(nes.blocks)) == (heads, blocks)
    run = sum(g.vendor_masks[heads:])
    assert all(not prefix & run and not o & ~run for prefix, offers in nes.blocks for o in offers)


def _check_spanning_runs(g, expected, nes):
    """``nes`` lists ``expected`` by index, slice and walk, and its blocks'
    values add up to each union's value."""
    assert nes.heads < g.n_vendors - 1  # the run spans several vendors
    assert list(nes) == expected
    n = len(expected)
    for j in [*range(0, n, max(1, n // 200)), -1, -n]:
        assert nes[j] == expected[j]
    cuts = (slice(None, 3), slice(1, None, 7), slice(None, None, -5), slice(-9, -2), slice(n, None))
    for cut in cuts:
        assert list(nes[cut]) == expected[cut]
    values = g.valuation.part_tables()
    unions = []
    for prefix, offers, base, rest in nes.value_blocks():
        assert [base + w for w in rest] == [values.value(prefix + o) for o in offers]
        unions += [prefix + o for o in offers]
    assert unions == [s.union_mask for s in expected]


@settings(max_examples=6, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from(["coverage", "additive-concave", "cdsp"]),
    st.integers(1, 12),
    st.sampled_from([None, Fraction(1, 7)]),
)
def test_runs_over_several_vendors_list_every_equilibrium(seed, kind, r, undercut):
    # twelve one-item vendors: the last two make the run
    if kind == "cdsp":
        g = random_cdsp_instance(seed, 12, r, 12)
    else:
        g = random_instance(seed, 12, 12, kind)
    nes = pmvc_pure_ne(g, undercut=undercut)
    _check_spanning_runs(g, reference_ne(g, undercut), nes)
    text, _ = reference_ne_outputs(g, list(nes))
    assert "".join(equilibria_to_text(g, nes)) + "\n" == text
    if undercut is None and nes:
        text, _ = reference_report(g, list(nes))
        assert "".join(report_to_text(g, equilibrium_report(g))) == text


def test_runs_over_three_harmonic_vendors():
    # every profile with each offer nonempty is an equilibrium (harmonic_instance)
    g = harmonic_instance(6, 3)
    expected = [s for s in all_profiles(g) if all(s.offers)]
    _check_spanning_runs(g, expected, pmvc_pure_ne(g))


@pytest.mark.parametrize(
    "g, spec",
    [
        (random_instance(3, 12, 12), "random:3,12,12"),
        (random_cdsp_instance(2, 12, 5, 12), "cdsp_random:2,12,5,12"),
    ],
    ids=["random-3-12-12", "cdsp-2-12-5-12"],
)
def test_outputs_match_reference_with_runs_over_several_vendors(g, spec):
    assert pmvc_pure_ne(g).heads == 10
    assert_outputs_match(g, ["--gen", spec])


def test_profile_sequence_empty():
    nes = pmvc_pure_ne(counterexample_instance())
    assert nes == [] and nes == () and not nes
    assert list(nes) == [] and nes[:3] == []
    for index in (0, -1):
        with pytest.raises(IndexError):
            nes[index]
    assert nes != [StrategyProfile((0, 0))]


def test_report_pairs_built_once():
    g = harmonic_instance(2, 3)
    rep = equilibrium_report(g)
    pairs = rep.equilibria
    assert rep.equilibria is pairs
    assert hash(rep) == hash(equilibrium_report(g))
    assert [s for s, _ in pairs] == list(rep.profiles)
    assert [w for _, w in pairs] == [g.valuation.value_mask(s.union_mask) for s in rep.profiles]
