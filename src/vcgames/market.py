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

Items a vendor withholds are modeled with the sentinel price ``v(A*) + 1``,
an exact rational that no rational buyer ever pays.  On a normalized
monotone table the spread is ``v(A*)``, so withheld items are never live and
a profile whose offers make up U costs 2^|U| subsets, not 2^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .items import Universe, bits_of, subset_sums
from .rationals import format_rational, integers
from .valuation import Valuation, common_scale

__all__ = [
    "PriceVector",
    "DemandResult",
    "sentinel_price",
    "buyer_utility",
    "demand",
    "demand_all",
]

DEMAND_ALL_MAX_ITEMS = 16


@dataclass(frozen=True)
class PriceVector:
    """One nonnegative exact price per item of a universe."""

    universe: Universe
    prices: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.prices) != self.universe.n:
            raise ValueError("need one price per item")
        prices = tuple(p if type(p) is Fraction else Fraction(p) for p in self.prices)
        object.__setattr__(self, "prices", prices)
        if any(p.numerator < 0 for p in prices):  # a Fraction's denominator is positive
            raise ValueError("prices must be nonnegative")

    def total(self, mask: int) -> Fraction:
        self.universe._check_mask(mask)
        ints, scale = integers([self.prices[i] for i in bits_of(mask)])
        return Fraction(sum(ints), scale)

    def replace(self, updates: dict[int, Fraction]) -> "PriceVector":
        prices = list(self.prices)
        for i, q in updates.items():
            prices[i] = q
        return PriceVector(self.universe, tuple(prices))

    def format(self) -> str:
        pairs = (
            f"{name}={format_rational(p)}"
            for name, p in zip(self.universe.names, self.prices)
        )
        return ", ".join(pairs)


@dataclass(frozen=True)
class DemandResult:
    """What the buyer picks: the chosen set, its utility, and tie diagnostics."""

    chosen: int
    utility: Fraction
    optima_count: int
    union_is_optimal: bool


def sentinel_price(v: Valuation) -> Fraction:
    """The 'not for sale' price: v(A*) + 1, strictly above any marginal value."""
    return v.value_mask(v.universe.full_mask) + 1


def buyer_utility(v: Valuation, p: PriceVector, mask: int) -> Fraction:
    return v.value_mask(mask) - p.total(mask)


def _live_mask(v: Valuation, f: int, price_int) -> int:
    """The items that can sell at ``price_int``, integers over f times the
    dense table's scale (as from ``common_scale``).

    Item i is live iff its price is at most the table's spread.  A dead item
    costs more than it can add to any bundle, so it is in no maximizer.
    """
    spread = f * v.dense_spread()
    live = 0
    for i, q in enumerate(price_int):
        if q <= spread:
            live |= 1 << i
    return live


def _live_utilities(v: Valuation, p: PriceVector) -> tuple[list[int], list[int], int]:
    """Every subset of the live items, ascending by mask, with its utility as
    an exact integer over a common denominator: ``(masks, utils, scale)``."""
    table, f, scale, price_int = common_scale(v, p.prices)
    live = list(bits_of(_live_mask(v, f, price_int)))
    masks = subset_sums([1 << i for i in live])
    costs = subset_sums([price_int[i] for i in live])
    if f == 1:
        return masks, [table[m] - c for m, c in zip(masks, costs)], scale
    return masks, [f * table[m] - c for m, c in zip(masks, costs)], scale


def _scan_utilities(utils: list[int]) -> tuple[int, int, int, bool]:
    """Apply the tie rule to the utilities of all subsets of the live items,
    indexed by local mask (bit j for the j-th live item).

    Returns ``(chosen, best, count, union_ok)`` with ``chosen`` a local mask.
    The chosen set is the union of all maximizers when that union also
    maximizes, else the maximizer with the largest bitmask.  Local masks keep
    the order of the global ones, so that is the largest global maximizer.
    """
    best = utils[0]
    union = 0
    count = 0
    best_mask = 0
    for mask, u in enumerate(utils):
        if u > best:
            best = u
            union = mask
            count = 1
            best_mask = mask
        elif u == best:
            union |= mask
            count += 1
            best_mask = mask
    union_ok = utils[union] == best
    chosen = union if union_ok else best_mask
    return chosen, best, count, union_ok


def demand(v: Valuation, p: PriceVector) -> DemandResult:
    """The buyer's purchase under maximal tie-breaking.

    Exact over all 2^n subsets, while enumerating only the 2^|live| subsets
    of the live items (see the module docstring): every maximizer is among
    them, so the chosen set, its utility and the tie diagnostics are those of
    the full scan.  ``optima_count`` counts all maximizers.
    ``union_is_optimal`` records whether the union of maximizers was itself a
    maximizer; when it is not, the chosen set is the maximizer with the
    largest bitmask (a maximal one, since the bitmask order extends strict
    inclusion).
    """
    if p.universe is not v.universe and p.universe != v.universe:
        raise ValueError("price vector universe mismatch")
    masks, utils, scale = _live_utilities(v, p)
    chosen, _, count, union_ok = _scan_utilities(utils)
    return DemandResult(masks[chosen], Fraction(utils[chosen], scale), count, union_ok)


def demand_all(v: Valuation, p: PriceVector) -> list[int]:
    """All utility-maximizing subsets, ascending by mask.  Capped at 16 items."""
    if v.universe.n > DEMAND_ALL_MAX_ITEMS:
        raise ValueError(
            f"demand_all enumerates maximizers explicitly; capped at {DEMAND_ALL_MAX_ITEMS} items"
        )
    masks, utils, _ = _live_utilities(v, p)
    best = max(utils)
    return [mask for mask, u in zip(masks, utils) if u == best]
