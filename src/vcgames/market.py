"""The buyer side: quasi-linear utility and the demand oracle.

The buyer sees a price per item and buys a utility-maximizing subset,
``u(S) = v(S) - p(S)``.  Ties are resolved toward buying more: ``demand``
returns the union of all maximizers whenever that union is itself a
maximizer.  The union can fail to be optimal even for submodular valuations
(demand families of submodular valuations are not closed under union in
general -- that needs gross substitutes), so there is a documented fallback:
the largest maximizer in the canonical subset order.  Since the bitmask order
refines strict inclusion, that fallback is always a maximal maximizer.

The oracle is exact but scans only the subsets of *live* items, those priced
at most the spread ``max(v) - min(v)`` of the value table.  Adding an item
raises a bundle's value by at most the spread, so an item priced above it
lowers the utility of every bundle that holds it and is in no maximizer;
leaving such items out drops only sets that are never optimal.

Nor, when ``certify`` proves v submodular, does it branch on *held* items,
those priced at most their marginal t_a = ``v(top) - v(top - a)`` at the
live *top*, the live items scanned plus every item outside the scan (which
the exact best response's targets add).  Every bundle S without a that the
scan forms lies in ``top - a``, where submodularity puts every marginal at
least t_a, so ``u(S + a) - u(S) = m_a(S) - p_a >= 0``: with every maximizer
S, S plus the held items is one too.  The best utility, the largest
maximizer and the union of the maximizers are then all reached on bundles
that hold every held item.  So the scan lists the subsets X of the other
live items, the *free* ones, each joined with every held item.  A held item
priced below t_a is in every maximizer, since adding it raises utility; so
the maximizers are the listed bundles at the best utility less some of
their *tied* items, those priced exactly at t_a.  At the offer game's
marginal prices every offered item is tied and one bundle is listed.  Only
the tie count (``DemandResult.optima_count``, counted on request) and
``demand_all`` look at the tied items, and on the value table's own
integers: a tied item's price is t_a, so a maximizer less that item keeps
the best utility iff the item adds exactly t_a to v there, and no price
enters the test.  Without submodularity a marginal below the top can be
smaller than t_a, and holding an item there could lose a maximizer; so on a
table ``certify`` does not prove submodular no item is held, and the scan
lists every subset of the live items.

Items a vendor withholds are modeled with the sentinel price ``v(A*) + 1``,
an exact rational that no rational buyer ever pays.  On a normalized
monotone table the spread is ``v(A*)``, so withheld items are never live and
a profile whose offers make up U lists at most 2^|U| subsets, not 2^n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import or_

from .items import Universe, bits_of, subset_sums
from .rationals import exact, format_rational, integers
from .valuation import Valuation

__all__ = [
    "PriceVector",
    "DemandResult",
    "sentinel_price",
    "buyer_utility",
    "demand",
    "demand_all",
]

DEMAND_ALL_MAX_ITEMS = 16


@dataclass(frozen=True, slots=True)
class PriceVector:
    """One nonnegative exact price per item of a universe."""

    universe: Universe
    prices: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.prices) != self.universe.n:
            raise ValueError("need one price per item")
        prices = self.prices
        # a tuple of Fractions, as the offer game's pricing passes, is kept
        if type(prices) is not tuple or not {Fraction}.issuperset(map(type, prices)):
            prices = tuple(p if type(p) is Fraction else exact(p) for p in prices)
            object.__setattr__(self, "prices", prices)
        if any(p.numerator < 0 for p in prices):  # a Fraction's denominator is positive
            raise ValueError("prices must be nonnegative")

    def __hash__(self) -> int:
        # on the terms, as ``serialize._rational_texts`` keys them: a
        # Fraction is reduced, so equal vectors have equal terms, and a
        # Fraction's own hash runs a modular pow on its denominator
        return hash((self.universe, *((p.numerator, p.denominator) for p in self.prices)))

    def check_universe(self, universe: Universe) -> None:
        """Refuse prices over any universe but ``universe``."""
        if self.universe is not universe and self.universe != universe:
            raise ValueError("price vector universe mismatch")

    def total(self, mask: int) -> Fraction:
        self.universe._check_mask(mask)
        ints, scale = integers([self.prices[i] for i in bits_of(mask)])
        return Fraction(sum(ints), scale)

    def replace(self, updates: dict[int, Fraction]) -> "PriceVector":
        prices = list(self.prices)
        for i, q in updates.items():
            if not 0 <= i < len(prices):
                raise ValueError(f"no item {i} among {len(prices)}")
            prices[i] = q
        return PriceVector(self.universe, tuple(prices))

    def format(self) -> str:
        pairs = (
            f"{name}={format_rational(p)}"
            for name, p in zip(self.universe.names, self.prices)
        )
        return ", ".join(pairs)


@dataclass(frozen=True, slots=True)
class DemandResult:
    """What the buyer picks: the chosen set, its utility, and tie
    diagnostics.  ``optima_count``, the number of maximizers, is counted on
    request from the valuation and prices the result keeps, which take no
    part in equality."""

    chosen: int
    utility: Fraction
    union_is_optimal: bool
    valuation: Valuation = field(compare=False, repr=False)
    prices: PriceVector = field(compare=False, repr=False)

    @property
    def optima_count(self) -> int:
        return len(_maximizers(self.valuation, self.prices))


def sentinel_price(v: Valuation) -> Fraction:
    """The 'not for sale' price: v(A*) + 1, strictly above any marginal value."""
    return v.value_mask(v.universe.full_mask) + 1


def buyer_utility(v: Valuation, p: PriceVector, mask: int) -> Fraction:
    return v.value_mask(mask) - p.total(mask)


def _bundles(v: Valuation, p: PriceVector, within: int, scaled=None):
    """The buyer's scan over the items of ``within`` that can sell.

    Returns ``(table, f, scale, masks, costs, tied)``: the dense table and p
    over one scale (``scaled``, p's integers ``(ints, scale)`` with the scale
    a multiple of the table's, when the caller has them; else ``integers``
    over all of p); every subset of the free items of ``within`` joined with
    all of its held items, ascending by mask, with its price sum over the
    scale; and ``(1 << i, marginal)`` for each tied item i, its marginal at
    the live top on the table's own scale.  ``f * table[m] - c`` is a
    bundle's utility over the scale.  Item i is live iff its price is at
    most the table's spread; when ``certify`` proves v submodular it is held
    iff its price is at most its marginal at the live top and tied iff
    exactly at it, and otherwise no item is held.  Live items that are not
    held are free.  The maximizers are the listed bundles at the best
    utility less some of their tied items (see the module docstring).
    """
    table, lv = v.dense_scaled()
    price_int, scale = scaled if scaled is not None else integers(p.prices, lv)
    f, rest = divmod(scale, lv)
    if rest:
        raise ValueError("price scale is not a multiple of the value table's")
    spread = f * v.dense_spread()
    live = [i for i, q in enumerate(price_int) if q <= spread and within >> i & 1]
    held = held_cost = 0
    tied, free = [], live  # every live item is free unless v is certified
    if v.certify()[1]:
        # the callers' bundles all lie in top: the live items of within,
        # and every item outside it, which the exact tier's targets add
        top = reduce(or_, [1 << i for i in live], v.universe.full_mask ^ within)
        at_top = table[top]
        free = []
        for i in live:
            q, marginal = price_int[i], at_top - table[top ^ 1 << i]
            if q <= f * marginal:
                held |= 1 << i
                held_cost += q
                if q == f * marginal:
                    tied.append((1 << i, marginal))
            else:
                free.append(i)
    masks = subset_sums([1 << i for i in free], held)
    costs = subset_sums([price_int[i] for i in free], held_cost)
    return table, f, scale, masks, costs, tied


def _utilities(v: Valuation, p: PriceVector, scaled=None):
    """``(table, scale, masks, utils, tied)``: the listed bundles of the
    scan over the whole universe and their utilities over the scale."""
    p.check_universe(v.universe)
    table, f, scale, masks, costs, tied = _bundles(v, p, v.universe.full_mask, scaled)
    return table, scale, masks, [f * table[m] - c for m, c in zip(masks, costs)], tied


def _maximizers(v: Valuation, p: PriceVector) -> list[int]:
    """Every maximizer, from the hits, the listed bundles at the best
    utility: each hit less every set W of its tied items that keeps the
    best.  Putting a held item back never lowers utility, so the sets W
    that keep it are closed under subsets, and they grow one tied item at a
    time from those found so far.  A maximizer m less a tied item keeps the
    best iff the item adds exactly its price to v, its marginal at the top:
    ``table[m] - table[m ^ bit] == marginal``, on the table's own small
    integers rather than over the price scale."""
    table, _, masks, utils, tied = _utilities(v, p)
    best = max(utils)
    hits = [m for m, u in zip(masks, utils) if u == best]
    for bit, marginal in tied:
        hits += [m ^ bit for m in hits if table[m] - table[m ^ bit] == marginal]
    return hits


def demand(v: Valuation, p: PriceVector, *, scaled=None) -> DemandResult:
    """The buyer's purchase under maximal tie-breaking.

    Exact over all 2^n subsets, while enumerating only the 2^|free| listed
    bundles of ``_bundles``: every maximizer lies inside one that reaches the
    best utility (a hit), so the chosen set, its utility and
    ``union_is_optimal`` are those of the full scan.  ``union_is_optimal``
    records whether the union of maximizers was itself a maximizer; when it
    is not, the chosen set is the maximizer with the largest bitmask (a
    maximal one, since the bitmask order extends strict inclusion).  At the
    offer game's prices every offered item is tied, so one bundle is listed.
    ``scaled``, p's prices as integers ``(ints, scale)`` over a multiple of
    the value table's scale, spares a caller that has them their lcm pass.
    """
    _, scale, masks, utils, _ = _utilities(v, p, scaled)
    best = max(utils)
    hits = [j for j, u in enumerate(utils) if u == best]
    # every maximizer lies inside a hit, so the union of the maximizers is
    # that of the hits; masks ascend, so the last hit is the largest
    union = reduce(or_, hits)
    union_ok = utils[union] == best
    chosen = union if union_ok else hits[-1]
    return DemandResult(masks[chosen], Fraction(best, scale), union_ok, v, p)


def demand_all(v: Valuation, p: PriceVector) -> list[int]:
    """All utility-maximizing subsets, ascending by mask.  Capped at 16 items."""
    if v.universe.n > DEMAND_ALL_MAX_ITEMS:
        raise ValueError(
            f"demand_all enumerates maximizers explicitly; capped at {DEMAND_ALL_MAX_ITEMS} items"
        )
    return sorted(_maximizers(v, p))
