"""The price-moderated vendor-competition (PMVC) game.

Vendors own disjoint item sets A_1..A_k and each picks an offer S_i subseteq A_i.
A mechanism prices every offered item at its marginal contribution to the
joint offer S* = union S_i, namely ``m_a(S* - a) = v(S*) - v(S* - a)``, and
every withheld item at the sentinel ``v(A*) + 1``.  The buyer then purchases
via the demand oracle.

Under a certified monotone-submodular valuation the buyer's maximal choice is
exactly S* (dropping any offered item leaves utility unchanged, adding any
withheld one strictly hurts), so vendor i's payoff collapses to
``sum_{a in S_i} m_a(S* - a)``.  That closed form is what the fast
equilibrium enumeration uses; ``pmvc_outcome`` always goes through the demand
oracle so the invariant stays observable.

When v adds up over the disjoint parts of ``Valuation.components()``,
``v(S) = sum_P v(S & P)``, every marginal, and so every (undercut) price, is
one inside its part, and a vendor's payoff is the sum of its per-part
payoffs.  A profile is then a pure equilibrium exactly when each part's
sub-profile is one of that part's game, so ``pmvc_pure_ne`` solves the parts
one at a time, each over its own value table (``Valuation.part_tables``),
and takes their product; ``pmvc_best_response`` takes a vendor's best
offers the same way.  An uncertified game is one part: the buyer's
largest-bitmask fallback does not split by part.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import accumulate, chain, groupby, islice, product, repeat, starmap
from typing import Iterable, Iterator, Sequence

from .items import Universe, bits_of, halves, submasks_of, subset_sums
from .market import DemandResult, PriceVector, demand, sentinel_price
from .rationals import exact, format_rational, integers
from .valuation import Valuation

__all__ = [
    "GameInstance",
    "StrategyProfile",
    "ProfileSequence",
    "Outcome",
    "EnumerationCapExceeded",
    "DEFAULT_PROFILE_CAP",
    "pmvc_prices",
    "pmvc_outcome",
    "pmvc_payoffs",
    "all_profiles",
    "payoff_table",
    "pmvc_best_response",
    "pmvc_pure_ne",
]

DEFAULT_PROFILE_CAP = 1 << 20
# a listing's block runs over the joint offers of the last vendors while
# they own at most this many items and the vendors before them more
_RUN_ITEMS = 10


class EnumerationCapExceeded(RuntimeError):
    """Raised when a profile enumeration would exceed the configured cap."""


@dataclass(frozen=True, slots=True)
class StrategyProfile:
    """One offer mask per vendor; offers[i] subseteq A_i."""

    offers: tuple[int, ...]

    @property
    def union_mask(self) -> int:
        mask = 0
        for s in self.offers:
            mask |= s
        return mask

    def format(self, universe: Universe) -> str:
        return "|".join(universe.format_set(s) for s in self.offers)


class GameInstance:
    """A valuation plus a disjoint vendor partition of its universe.

    Instances are certified monotone and submodular on construction, and
    refused if they fail.  ``allow_uncertified=True`` keeps a game that
    fails, with its verdicts: every file load passes it
    (``serialize.instance_from_obj``), so the checkers can report on a
    failing valuation and the offer game answers on it by the demand
    route.  Most of the vendor-game layer refuses uncertified instances
    (``require_certified``) because its shortcuts lean on submodularity.
    """

    def __init__(self, valuation: Valuation, vendor_masks: Sequence[int], *,
                 allow_uncertified: bool = False):
        universe = valuation.universe
        if not vendor_masks:
            raise ValueError("need at least one vendor")
        # a vendor may own nothing; it then only ever offers the empty set
        self.vendor_masks = universe.partition(vendor_masks, "vendor item sets", allow_empty=True)
        self.valuation = valuation
        self.universe = universe
        self._pricings: dict[Fraction | None, MarginalPricing] = {}
        self._offers: dict[int, tuple[int, ...]] = {}
        monotone, submodular = valuation.certify()
        self.monotone_certified = monotone
        self.submodular_certified = submodular
        if not allow_uncertified and not (monotone and submodular):
            raise ValueError(
                "valuation failed certification "
                f"(monotone={monotone}, submodular={submodular}); "
                "pass allow_uncertified=True for diagnostic use"
            )

    @property
    def certified(self) -> bool:
        return self.monotone_certified and self.submodular_certified

    def require_certified(self) -> None:
        """Refuse an uncertified game: the price game's shortcuts and the
        closed forms lean on monotone submodularity."""
        if not self.certified:
            raise ValueError("vendor-game analysis requires a certified instance")

    @property
    def n_vendors(self) -> int:
        return len(self.vendor_masks)

    @property
    def max_vendor_size(self) -> int:
        return max((m.bit_count() for m in self.vendor_masks), default=0)

    def vendor_items(self, i: int) -> tuple[int, ...]:
        return tuple(bits_of(self.vendor_masks[i]))

    @cached_property
    def sentinel(self) -> Fraction:
        """The withheld-item price ``sentinel_price``, built once per game."""
        return sentinel_price(self.valuation)

    @cached_property
    def offer_tables(self) -> tuple[tuple[int, ...], ...]:
        """Per vendor, every offer it can make: ``offers_in`` its own set."""
        return tuple(self.offers_in(owned) for owned in self.vendor_masks)

    def offers_in(self, mask: int) -> tuple[int, ...]:
        """Every offer inside ``mask``, indexed by local mask (bit j picks its
        j-th lowest item).  Ascending by local mask is ascending by global
        mask too.  Built once per mask."""
        offers = self._offers.get(mask)
        if offers is None:
            offers = self._offers[mask] = tuple(subset_sums([1 << item for item in bits_of(mask)]))
        return offers

    def pricing(self, undercut: Fraction | None = None) -> "MarginalPricing":
        """The mechanism's pricing rule at ``undercut``, built once per game
        and undercut."""
        if undercut is not None:
            undercut = exact(undercut)
        rule = self._pricings.get(undercut)
        if rule is None:
            rule = self._pricings[undercut] = MarginalPricing(self, undercut)
        return rule

    def profile_of(self, union: int) -> StrategyProfile:
        """The profile whose offers make up ``union``: vendor i offers
        ``union & A_i``, since vendor sets are disjoint."""
        return StrategyProfile(tuple(union & owned for owned in self.vendor_masks))

    def check_vendor(self, i: int) -> None:
        if not 0 <= i < self.n_vendors:
            raise ValueError(f"no vendor {i}")

    def check_profile(self, s: StrategyProfile) -> None:
        if len(s.offers) != self.n_vendors:
            raise ValueError("profile length != vendor count")
        for offer, owned in zip(s.offers, self.vendor_masks):
            if offer & ~owned:
                raise ValueError("vendor offering items it does not own")

    def parse_profile(self, text: str) -> StrategyProfile:
        parts = text.split("|")
        if len(parts) != self.n_vendors:
            raise ValueError(f"expected {self.n_vendors} vendor parts in {text!r}")
        s = StrategyProfile(tuple(self.universe.parse_set(p) for p in parts))
        self.check_profile(s)
        return s


class ProfileSequence(Sequence[StrategyProfile]):
    """A read-only sequence of profiles of one game, held in blocks.

    ``blocks`` lists ``(prefix, offers)`` pairs in order: ``prefix`` is the
    union of the offers of the first ``heads`` vendors (the head), and the
    block holds the profiles whose unions are ``prefix + o``, for each
    joint offer o of the other vendors (the run) in ``offers``, in their
    product order.  The item mask ``tail`` is a union of additive parts of
    the valuation, so ``v(u) = v(u & ~tail) + v(u & tail)``, and two
    blocks whose prefixes agree on ``tail`` list the same offers.
    ``parts`` are lists of unions over disjoint items, and the profiles'
    unions are exactly the sums taking one union from each list.
    ``bases[h]`` is v(h) over the part tables' scale for each sum h of the
    lists outside ``tail``, and None for the other subsets of ``~tail``.

    A profile (``GameInstance.profile_of``) is built only when it is read;
    an index, and each index of a slice, finds its block by bisection,
    without listing the unions.  A slice is again a ``ProfileSequence``,
    with the last vendor alone in its run.  Compares equal to a list,
    tuple or ``ProfileSequence`` holding the same profiles in the same
    order.
    """

    def __init__(self, game: GameInstance, blocks: list[tuple[int, list[int]]],
                 parts: list[list[int]], tail: int, bases: list[int | None], heads: int):
        self.game = game
        self.blocks = blocks
        self.heads = heads
        self.parts = parts
        self.tail = tail
        self.bases = bases
        self._len = sum(len(offers) for _, offers in blocks)

    @classmethod
    def of_unions(cls, game: GameInstance, unions: list[int]) -> "ProfileSequence":
        """The profiles of ``unions``, in their order: one part, the last
        vendor alone in the run, and one block per run of a prefix (a slice
        of ``all_profiles`` order runs each prefix once)."""
        last = game.vendor_masks[-1]
        blocks = [
            (prefix, [u - prefix for u in run])
            for prefix, run in groupby(unions, lambda u: u & ~last)
        ]
        return cls(game, blocks, [unions], game.universe.full_mask, [0], game.n_vendors - 1)

    def _walk(self) -> Iterator[int]:
        return chain.from_iterable(
            map(prefix.__add__, offers) for prefix, offers in self.blocks
        )

    @cached_property
    def _starts(self) -> list[int]:
        """The index of each block's first profile, then the length."""
        return list(accumulate((len(offers) for _, offers in self.blocks), initial=0))

    def value_blocks(self) -> Iterator[tuple[int, list[int], int, list[int]]]:
        """Each block with the values of its unions split in two,
        ``(prefix, offers, base, rest)`` with ``v(prefix + o) == base +
        rest[j]`` for the j-th offer o, over the scale of the valuation's
        part tables (``Valuation.part_tables``), which add up over its parts.

        Since ``tail`` is a union of parts, ``base`` is ``v(prefix &
        ~tail)``, read from ``bases``, and ``rest`` lists ``v(c + o)`` for
        the context c = prefix & tail, read once per context: blocks with
        one context list the same offers.  The lists kept for reuse hold at
        most about 65,536 values.
        """
        value = self.game.valuation.part_tables().value
        tail, bases = self.tail, self.bases
        kept: dict[int, list[int]] = {}
        held = 0
        for prefix, offers in self.blocks:
            context = prefix & tail
            rest = kept.get(context)
            if rest is None:
                if held > 1 << 16:
                    kept.clear()
                    held = 0
                held += len(offers)
                rest = kept[context] = [value(context + o) for o in offers]
            yield prefix, offers, bases[prefix & ~tail], rest

    def __len__(self) -> int:
        return self._len

    def _union(self, j: int) -> int:
        """The union of the j-th profile's offers, 0 <= j < len, read from
        its block."""
        b = bisect_right(self._starts, j) - 1
        prefix, offers = self.blocks[b]
        return prefix + offers[j - self._starts[b]]

    def __getitem__(self, index):
        # range resolves a negative index or slice counting from the end
        picked = range(self._len)[index]
        if isinstance(index, slice):
            return ProfileSequence.of_unions(self.game, list(map(self._union, picked)))
        return self.game.profile_of(self._union(picked))

    def __iter__(self) -> Iterator[StrategyProfile]:
        return map(self.game.profile_of, self._walk())

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, tuple, ProfileSequence)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))  # equal to that tuple, so hashed like it

    def __repr__(self) -> str:
        return f"ProfileSequence({list(self)!r})"


@dataclass(frozen=True, slots=True)
class Outcome:
    """Mechanism prices, the buyer's purchase, and everyone's payoff."""

    profile: StrategyProfile
    prices: PriceVector
    sold: int
    vendor_payoffs: tuple[Fraction, ...]
    buyer_utility: Fraction
    welfare: Fraction
    demand: DemandResult


class _Fractions(dict):
    """Integers over ``scale`` to their Fractions, each built on its first
    lookup (``__missing__``), so a lookup of a known integer runs in C."""

    def __init__(self, scale: int):
        self.scale = scale

    def __missing__(self, x: int) -> Fraction:
        q = self[x] = Fraction(x, self.scale)
        return q


class MarginalPricing:
    """The mechanism's prices of one game at one undercut, as integers over
    one scale.

    ``values`` is the valuation's cached part tables themselves
    (``Valuation.part_tables``), one table per additive part over their own
    scale lv, ``values.value(U) / lv`` being v(U).  Prices and payoffs are
    integers over ``scale``, the lcm of lv and the denominators of the
    undercut and the sentinel: ``eps / scale`` is the undercut (0 when there
    is none), ``sentinel / scale`` the withheld price v(A*) + 1, and a value
    read from a table is multiplied by ``f = scale // lv`` as it leaves it.
    An item's marginal is one inside its part, so prices and welfare read
    only the part tables.  ``fraction`` turns an integer over the scale into
    a Fraction once (``_Fractions``), so equal prices and payoffs share one
    object.
    """

    def __init__(self, g: GameInstance, undercut: Fraction | None):
        if undercut is not None and undercut <= 0:
            raise ValueError("undercut epsilon must be positive")
        self.universe = g.universe
        self.values = values = g.valuation.part_tables()
        (self.eps, self.sentinel), self.scale = integers(
            [undercut or Fraction(0), g.sentinel], values.scale
        )
        self.f = self.scale // values.scale
        self.fraction = _Fractions(self.scale).__getitem__

    def prices(self, union: int) -> list[int]:
        """Each item's price over the scale when ``union`` is offered: an
        offered item's marginal v(U) - v(U - item), read from its part's
        table and times f, less the undercut and clamped at 0, and the
        sentinel for a withheld item.  Without an undercut a negative
        marginal is refused."""
        eps, f = self.eps, self.f
        packed = self.values.pack(union)
        out = [self.sentinel] * self.universe.n
        for table, offset, low, items in self.values.fields:
            local = packed >> offset & low
            v_local = table[local]
            for j in bits_of(local):
                m = f * (v_local - table[local ^ (1 << j)])
                if eps:  # positive exactly when there is an undercut
                    m = max(m - eps, 0)
                elif m < 0:
                    u, item = self.universe, items[j]
                    raise ValueError(
                        f"valuation is not monotone: item {u.names[item]} has marginal "
                        f"{format_rational(self.fraction(m))} "
                        f"at {u.format_set(union ^ (1 << item))}"
                    )
                out[items[j]] = m
        return out

    def price_vector(self, prices: list[int]) -> PriceVector:
        return PriceVector(self.universe, tuple(map(self.fraction, prices)))


def pmvc_prices(g: GameInstance, s: StrategyProfile, undercut: Fraction | None = None) -> PriceVector:
    """Marginal-contribution prices for the offers, sentinel for the rest.

    ``undercut`` is an optional strictly positive rational epsilon; offered
    items are then priced ``max(m_a(S* - a) - eps, 0)``, modeling a vendor
    shaving prices to make the buyer strictly prefer taking everything.
    Default is exact marginal pricing, which needs a monotone valuation: a
    negative marginal, which would be a negative price, is refused.
    """
    g.check_profile(s)
    rule = g.pricing(undercut)
    return rule.price_vector(rule.prices(s.union_mask))


def pmvc_outcome(g: GameInstance, s: StrategyProfile, undercut: Fraction | None = None) -> Outcome:
    """Price the profile, run the buyer, split revenue by ownership.
    The buyer's scan takes the pricing's integers as they are, and payoffs
    and welfare are summed as integers over the pricing's scale.  Every
    offered item is priced at most its marginal in the offer, so the scan
    holds them all and lists one bundle."""
    g.check_profile(s)
    rule = g.pricing(undercut)
    prices = rule.prices(s.union_mask)
    p = rule.price_vector(prices)
    d = demand(g.valuation, p, scaled=(prices, rule.scale))
    chosen = d.chosen
    payoffs = tuple(
        rule.fraction(sum(prices[i] for i in bits_of(chosen & offer))) for offer in s.offers
    )
    welfare = rule.fraction(rule.f * rule.values.value(chosen))
    return Outcome(s, p, chosen, payoffs, d.utility, welfare, d)


def _payoff_rule(g: GameInstance, undercut: Fraction | None, table: list[int]):
    """The offer game's payoffs as ``pays(rests, i, mine)``: vendor i's
    payoff for each of its offers inside ``mine``, the others' offers
    making up each of ``rests``, as one flat list, rest-major and in
    ``g.offers_in(mine)`` order within each rest.  Payoffs compare exactly
    within one block of 2^|mine| entries.

    Certified instances use the integer closed form over the scale of
    ``g.pricing(undercut)``, each offered item selling at its (undercut)
    marginal: ``table`` is v over the valuation's own scale on one part's
    local masks (``Valuation.part_tables``), read once per union, times the
    rule's f.  Bit j of a flat index is bit j of the offer, so
    ``items.halves`` pairs every union with item j with the same union
    without it, in every block at once.  A certified game is monotone, so
    only an undercut needs the clamp at 0, item by item; without one the
    payoff is |S|·v(U) − Σ_j v(U − j): one pass for |S|·v(U), then one
    subtraction per pair.
    Others run ``pmvc_outcome`` once per union, on the profile
    ``g.profile_of(union)``, and need global masks and ``mine`` to be all
    of A_i.
    """
    offers_in = g.offers_in
    if not g.certified:
        outcomes: dict[int, tuple[Fraction, ...]] = {}

        def pays(rests: Iterable[int], vendor: int, mine: int) -> list[Fraction]:
            out = []
            for rest in rests:
                for offer in offers_in(mine):
                    union = rest | offer
                    if union not in outcomes:
                        outcome = pmvc_outcome(g, g.profile_of(union), undercut)
                        outcomes[union] = outcome.vendor_payoffs
                    out.append(outcomes[union][vendor])
            return out

        return pays
    rule = g.pricing(undercut)
    eps, f = rule.eps, rule.f

    def pays(rests: Iterable[int], vendor: int, mine: int) -> list[int]:
        offers = offers_in(mine)
        values = [f * table[rest | offer] for rest in rests for offer in offers]
        n = (len(values) - 1).bit_length()
        width = mine.bit_count()
        if eps:  # positive exactly when there is an undercut
            totals = [0] * len(values)
            for j in range(width):
                for lo, hi in halves(n, j):
                    gains = map(operator.sub, values[hi], values[lo])
                    gains = [m - eps if m > eps else 0 for m in gains]
                    totals[hi] = map(operator.add, totals[hi], gains)
            return totals
        sizes = _offer_sizes(width) if width <= 16 else subset_sums(repeat(1, width))
        if len(values) > len(sizes):
            sizes = sizes * (len(values) >> width)
        totals = list(map(operator.mul, sizes, values))
        for j in range(width):
            for lo, hi in halves(n, j):
                totals[hi] = map(operator.sub, totals[hi], values[lo])
        return totals

    return pays


@cache
def _offer_sizes(width: int) -> tuple[int, ...]:
    """The item count of each local mask of ``width`` bits, built once per
    width; the payoff rule keeps only those of up to 2^16 entries."""
    return tuple(subset_sums(repeat(1, width)))


def pmvc_payoffs(g: GameInstance, s: StrategyProfile) -> tuple[Fraction, ...]:
    """Closed-form payoffs sum_{a in S_i} m_a(S* - a), read from the prices
    of ``g.pricing()`` without running the buyer.

    Equals the demand-based payoffs of ``pmvc_outcome`` whenever the
    valuation is certified (full-sale invariant); refuses otherwise.
    """
    g.require_certified()
    g.check_profile(s)
    rule = g.pricing()
    prices = rule.prices(s.union_mask)
    return tuple(rule.fraction(sum(prices[i] for i in bits_of(offer))) for offer in s.offers)


def _prefixes(g: GameInstance, heads: int) -> list[int]:
    """The union of the offers of the first ``heads`` vendors, for each
    profile prefix in ``all_profiles`` order, built by doubling.  Offers are
    disjoint, so a sum is a union."""
    prefixes = [0]
    for table in g.offer_tables[:heads]:
        prefixes = [a + b for a in prefixes for b in table]
    return prefixes


def _head_count(g: GameInstance) -> int:
    """How many vendors lead a listing's prefixes: all but the last, less
    each vendor before the run moved into it while the head owns more than
    ``_RUN_ITEMS`` items and the run would own at most that many.  So the
    first vendor stays in the head, and a head of at most ``_RUN_ITEMS``
    items is all but the last vendor."""
    sizes = [owned.bit_count() for owned in g.vendor_masks]
    heads = len(sizes) - 1
    head, run = sum(sizes[:heads]), sizes[heads]
    while head > _RUN_ITEMS and run + sizes[heads - 1] <= _RUN_ITEMS:
        heads -= 1
        head -= sizes[heads]
        run += sizes[heads]
    return heads


def all_profiles(g: GameInstance) -> Iterator[StrategyProfile]:
    """Deterministic profile order: per-vendor subsets by ascending local
    index, later vendors cycling fastest (row-major product).  Each union
    is a prefix plus one of the last vendor's offers, taken as it is read,
    so the 2^n order is walked, never held."""
    unions = starmap(operator.add, product(_prefixes(g, g.n_vendors - 1), g.offer_tables[-1]))
    return map(g.profile_of, unions)


def _profile_count(g: GameInstance, cap: int) -> None:
    """Refuse more than ``cap`` profiles; there are 2^n, since vendor sets
    partition the universe."""
    count = 1 << g.universe.n
    if count > cap:
        raise EnumerationCapExceeded(f"{count} profiles exceed cap {cap}")


def payoff_table(
    g: GameInstance,
    cap: int = DEFAULT_PROFILE_CAP,
    undercut: Fraction | None = None,
) -> Iterator[Outcome]:
    """The normal form of the discrete game as an iterator of outcomes in
    ``all_profiles`` order, one demand run, of one listed bundle, per
    profile, each run as it is read: the 2^n outcomes are never held.
    The profile cap is checked when it is called, and ``pmvc_outcome`` is
    the one bound in this module then."""
    _profile_count(g, cap)
    return map(pmvc_outcome, repeat(g), all_profiles(g), repeat(undercut))


def pmvc_best_response(
    g: GameInstance,
    vendor: int,
    others: StrategyProfile | Sequence[int],
    undercut: Fraction | None = None,
) -> list[int]:
    """All payoff-maximizing offers for one vendor, others' offers fixed.

    Complete enumeration of the vendor's candidate offers, a part at a time
    (``_part_games``): its payoff adds up over the parts, so its best
    offers are the sums of one best offer inside each part it owns items
    in.  Returns every maximizer, ascending by mask.  A vendor owning no
    items has [0].
    """
    g.check_vendor(vendor)
    offers = others.offers if isinstance(others, StrategyProfile) else others
    rest = StrategyProfile(tuple(0 if j == vendor else o for j, o in enumerate(offers)))
    g.check_profile(rest)
    per_part = []
    for _, local, pays, mines, unions in _part_games(g, undercut):
        mine = mines[vendor]
        if mine:
            block = pays([local(rest.union_mask)], vendor, mine)
            best = max(block)
            per_part.append([unions[o] for o, p in zip(g.offers_in(mine), block) if p == best])
    return sorted(map(sum, product(*per_part)))


def pmvc_pure_ne(
    g: GameInstance,
    cap: int = DEFAULT_PROFILE_CAP,
    undercut: Fraction | None = None,
) -> ProfileSequence:
    """Every pure Nash equilibrium of the discrete game, as a lazy
    ``ProfileSequence`` in the deterministic ``all_profiles`` order.

    Since vendor sets are disjoint, profiles correspond one-to-one with
    subsets M of the universe via S_i = M & A_i.  Where v adds up over the
    parts of ``Valuation.components()``, every price and every vendor's
    payoff split by part, so a profile is an equilibrium exactly when each
    part's sub-profile is one of that part's game.  Each part is solved on
    its own, over its local masks and its table in ``Valuation.part_tables``
    (an uncertified game is one part: the buyer's largest-bitmask fallback
    does not split), and the equilibria are the product of the parts'.  In
    a part, one pass per vendor owning items there groups the part's
    subsets by the others' offers, evaluates each payoff once, and drops
    those where the vendor falls short of its best reply.

    The product is listed a block at a time.  A block's prefix is the
    joint offer of the head vendors (``_head_count``) and its run lists
    joint offers of the run vendors after them, so a game of many small
    vendors lists about 2^10 prefixes, not one per joint offer of all but
    the last vendor.  The parts meeting the run vendors' items R make up
    ``tail``: each union t of their product puts the run's offer ``t & R``
    in the run of ``t & ~R``, each run sorted in the product order of its
    vendors.  The unions of the other parts' product get their values
    once, as the sequence's ``bases`` (``_head_values``).  A prefix p is
    kept when ``p & ~tail`` has a base, and its block is the run of ``p &
    tail``.  A profile is built only when the sequence is read.
    """
    _profile_count(g, cap)
    parts = []
    per_part = []
    for part, _, pays, mines, unions in _part_games(g, undercut):
        parts.append(part)
        per_part.append(_part_equilibria(g, pays, mines, unions))
        if not per_part[-1]:
            return ProfileSequence.of_unions(g, [])
    heads = _head_count(g)
    run_masks = g.vendor_masks[heads:]
    run_items = sum(run_masks)
    tail = sum(part for part in parts if part & run_items)
    lead = [s for part, s in zip(parts, per_part) if not part & run_items]
    tails = [s for part, s in zip(parts, per_part) if part & run_items]
    bases = _head_values(g.universe.full_mask & ~tail, lead, g.valuation.part_tables().value)
    runs: dict[int, list[int]] = {}
    for union in map(sum, product(*tails)):
        runs.setdefault(union & ~run_items, []).append(union & run_items)
    # one vendor's global masks ascend as its local ones do
    order = None if len(run_masks) == 1 else (lambda u: [u & owned for owned in run_masks])
    for run in runs.values():
        run.sort(key=order)
    blocks = []
    for prefix in _prefixes(g, heads):
        run = runs.get(prefix & tail)
        if run and bases[prefix & ~tail] is not None:
            blocks.append((prefix, run))
    return ProfileSequence(g, blocks, per_part, tail, bases, heads)


def _part_games(g: GameInstance, undercut: Fraction | None) -> list[tuple]:
    """The offer game split by the parts of ``Valuation.part_tables``, as
    ``(part, local, pays, mines, unions)`` per part: its items, the map of
    a global mask to the part's local mask, its ``_payoff_rule`` over its
    own table, each vendor's local mask there, and the global mask of each
    local mask.  An uncertified game is one part over global masks: the
    buyer's largest-bitmask fallback does not split by part."""
    if not g.certified:
        full = g.universe.full_mask
        pays = _payoff_rule(g, undercut, None)
        return [(full, lambda mask: mask, pays, g.vendor_masks, range(full + 1))]
    values = g.valuation.part_tables()
    return [
        (part, partial(values.local, k), _payoff_rule(g, undercut, table),
         [values.local(k, owned) for owned in g.vendor_masks], g.offers_in(part))
        for k, (part, table) in enumerate(zip(values.parts, values.tables))
    ]


def _part_equilibria(g: GameInstance, pays, mines: Sequence[int],
                     unions: Sequence[int]) -> list[int]:
    """The stable unions of one part's own game, descending, solved over
    the part's local masks: ``mines[i]`` is vendor i's local mask there and
    ``unions[l]`` the global mask of local mask l.  A vendor's rests are
    read in runs, one ``pays`` call each, of at most 2^16 payoffs, or one
    block where a block is larger."""
    full = len(unions) - 1
    stable = bytearray(b"\x01") * (full + 1)
    for i, mine in enumerate(mines):
        if not mine:
            continue
        offers = g.offers_in(mine)
        size = len(offers)
        rests = submasks_of(full & ~mine)
        while run := list(islice(rests, max(1, (1 << 16) // size))):
            flat = pays(run, i, mine)
            for rest, at in zip(run, range(0, len(flat), size)):
                block = flat[at:at + size]
                best = max(block)
                for offer, p in zip(offers, block):
                    if p != best:
                        stable[rest | offer] = 0
    return [unions[u] for u in range(full, -1, -1) if stable[u]]


def _head_values(mask: int, per_part: list[list[int]], value) -> list[int | None]:
    """Among the subsets of ``mask``, ``value`` (v over some scale, adding
    up over the valuation's parts) of every union that takes one union from
    each of ``per_part`` (only the empty set for no parts), and None
    elsewhere: the sum of its unions' values, streamed from the product
    beside the unions.  Parts are disjoint, so a sum of unions is their
    union.  Equal values share one int."""
    heads: list[int | None] = [None] * (mask + 1)
    shared: dict[int, int] = {}
    *rest, last = sorted(per_part, key=len) or [[0]]
    values = [list(map(value, unions)) for unions in rest]
    last_values = list(map(value, last))
    for base, w in zip(map(sum, product(*rest)), map(sum, product(*values))):
        for u, x in zip(last, last_values):
            x += w
            heads[base + u] = shared.setdefault(x, x)
    return heads

