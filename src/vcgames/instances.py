"""Instance constructors: the hand-built demonstration games and seeded
random generators for property testing.

Everything built here comes out certified monotone and submodular (by
structure where possible, by exhaustive check otherwise); the only
non-certified inputs in the project are the explicit failure fixtures under
the test data directory.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .items import bits_of, MAX_ITEMS, Universe
from .market import PriceVector
from .pmvc import GameInstance
from .rationals import exact, parse_rational
from .valuation import (
    AdditiveGroupsValuation,
    CategoryMaxValuation,
    TableValuation,
    _harmonic_curve,
)

__all__ = [
    "counterexample_instance",
    "harmonic_instance",
    "pos_instance",
    "cdsp_equilibrium",
    "random_instance",
    "random_cdsp_instance",
    "RANDOM_GENERATORS",
]

RANDOM_GENERATORS = ("coverage", "additive-concave")
RANDOM_MAX_ITEMS = 12

# Four items split across two vendors; valued so that every offer profile
# leaves someone wanting to move.  The demand oracle, the payoff table, and
# the no-equilibrium result all key off these sixteen numbers.
_COUNTEREXAMPLE_VALUES = {
    "": "0",
    "a": "3.203",
    "b": "2.503",
    "c": "2.803",
    "d": "2.703",
    "a,b": "4.4045",
    "a,c": "5.404",
    "a,d": "5.304",
    "b,c": "5.304",
    "b,d": "5.204",
    "c,d": "4.1045",
    "a,b,c": "6.6045",
    "a,b,d": "6.5045",
    "a,c,d": "6.5045",
    "b,c,d": "6.6045",
    "a,b,c,d": "7.6045",
}


def counterexample_instance() -> GameInstance:
    """Two vendors, four items, no pure equilibrium in the offer game."""
    u = Universe(("a", "b", "c", "d"))
    values = [Fraction(0)] * 16
    for key, text in _COUNTEREXAMPLE_VALUES.items():
        values[u.parse_set(key)] = parse_rational(text)
    v = TableValuation(u, values)
    return GameInstance(v, (u.mask_of(("a", "b")), u.mask_of(("c", "d"))))


def _block_universe(k: int, m: int) -> tuple[Universe, tuple[int, ...]]:
    """k vendors with m items each, named a1..a{m}, b1..b{m}, ..."""
    if k < 1 or m < 1:
        raise ValueError("need at least one vendor and one item per vendor")
    if k * m > MAX_ITEMS:
        raise ValueError(f"{k} vendors x {m} items exceeds the {MAX_ITEMS}-item cap")
    names = tuple(
        f"{chr(ord('a') + i)}{j + 1}" for i in range(k) for j in range(m)
    )
    u = Universe(names)
    masks = tuple(((1 << m) - 1) << (i * m) for i in range(k))
    return u, masks


def harmonic_instance(k: int, m: int) -> GameInstance:
    """k vendors with m items each; value of a bundle is the sum over vendors
    of the |bundle ∩ catalogue|-th harmonic number.

    Items within a vendor are interchangeable, and each vendor's offer earns
    exactly 1 whenever nonempty, so the equilibria are the all-nonempty
    profiles and the worst of them sells one item per vendor.
    """
    u, masks = _block_universe(k, m)
    v = AdditiveGroupsValuation(u, masks, _harmonic_curve(m))
    return GameInstance(v, masks)


def pos_instance(k: int, m: int, eps: Fraction) -> GameInstance:
    """The harmonic construction with multi-item bundle values shaved so that
    only single-item offers are equilibrium behavior.

    The shave grows linearly with bundle size, keeping single items at value
    exactly 1 while making an offer of t >= 2 items earn t*(1/t - shave) < 1.
    A flat shave would leave larger offers still earning exactly 1 and admit
    extra equilibria; the graded one removes them all.
    """
    eps = exact(eps)
    if not 0 < eps < Fraction(1, 2 * m):
        raise ValueError(f"perturbation must lie strictly between 0 and 1/{2 * m}")
    u, masks = _block_universe(k, m)
    harmonic = _harmonic_curve(m)
    if m == 1:
        curve = harmonic
    else:
        curve = tuple(
            h - eps * Fraction(max(t - 1, 0), m - 1) for t, h in enumerate(harmonic)
        )
    v = AdditiveGroupsValuation(u, masks, curve)
    return GameInstance(v, masks)


def cdsp_equilibrium(g: GameInstance) -> PriceVector:
    """The closed-form equilibrium of a category-divided instance.

    Per category: the vendor owning the most valuable item wins (value ties
    broken toward the lowest vendor index, then lowest item index).  The
    winner's best item is priced at its value minus the best competing value
    in the category (zero if no competitor owns any of it); every other
    vendor's best category item is free; all remaining items get the
    deterrent price.  Each vendor's best item is read from its part of the
    category, ``cat & owned``.  Refuses an uncertified game (a negative
    item value), outside the case the closed form holds for.
    """
    v = g.valuation
    if not isinstance(v, CategoryMaxValuation):
        raise ValueError("closed-form equilibrium needs a category-max valuation")
    g.require_certified()
    values = v.item_values
    prices = [g.sentinel] * g.universe.n
    for cat in v.category_masks:
        # each vendor's best item in this category; max keeps the first of
        # equals, so ties go to the lowest item, and below to the lowest vendor
        best = {
            i: max(bits_of(cat & owned), key=values.__getitem__)
            for i, owned in enumerate(g.vendor_masks)
            if cat & owned
        }
        winner = max(best, key=lambda i: values[best[i]])
        runner_up = max((values[best[i]] for i in best if i != winner), default=Fraction(0))
        for item in best.values():
            prices[item] = Fraction(0)
        prices[best[winner]] = values[best[winner]] - runner_up
    return PriceVector(g.universe, tuple(prices))


def _letters(n: int) -> tuple[str, ...]:
    return tuple(chr(ord("a") + i) for i in range(n))


def _random_partition(rng: random.Random, n: int, parts: int) -> tuple[int, ...]:
    """Split items 0..n-1 into the given number of nonempty masks."""
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), parts - 1)) if parts > 1 else []
    masks = []
    prev = 0
    for cut in cuts + [n]:
        mask = 0
        for idx in order[prev:cut]:
            mask |= 1 << idx
        masks.append(mask)
        prev = cut
    return tuple(masks)


def random_instance(
    seed: int, n_items: int, n_vendors: int, generator: str = "coverage"
) -> GameInstance:
    """Deterministic seeded instance, certified at build time.

    ``coverage`` draws a weighted set-cover valuation (each item covers some
    ground elements; a bundle is worth the total weight covered).
    ``additive-concave`` draws disjoint item groups with a shared random
    concave size curve.  Both are monotone submodular by construction; the
    coverage table is still certified exhaustively.
    """
    if not 1 <= n_items <= RANDOM_MAX_ITEMS:
        raise ValueError(f"random instances support 1..{RANDOM_MAX_ITEMS} items")
    if not 1 <= n_vendors <= n_items:
        raise ValueError("need between 1 and n_items vendors")
    if generator not in RANDOM_GENERATORS:
        raise ValueError(f"unknown generator {generator!r}; expected one of {RANDOM_GENERATORS}")
    rng = random.Random(f"{generator}:{seed}:{n_items}:{n_vendors}")
    u = Universe(_letters(n_items))
    vendor_masks = _random_partition(rng, n_items, n_vendors)
    if generator == "coverage":
        # weights are (1..40) / d with d dividing 20, held here as twentieths
        ground = 2 * n_items
        weights = [rng.randint(1, 40) * (20 // rng.choice((1, 2, 4, 5, 10, 20))) for _ in range(ground)]
        covers = []
        for _ in range(n_items):
            size = rng.randint(1, max(2, ground // 2))
            covers.append(sum(1 << e for e in rng.sample(range(ground), size)))
        covered = [0]  # covered[mask]: the ground elements the items of mask cover
        for cover in covers:
            covered += [c | cover for c in covered]
        values = [Fraction(sum(weights[e] for e in bits_of(c)), 20) for c in covered]
        valuation = TableValuation(u, values)
    else:
        groups = _random_partition(rng, n_items, rng.randint(1, n_items))
        deltas = sorted(
            (Fraction(rng.randint(0, 30), rng.choice((1, 2, 3, 5, 10))) for _ in range(n_items)),
            reverse=True,
        )
        curve = [Fraction(0)]
        for d in deltas:
            curve.append(curve[-1] + d)
        valuation = AdditiveGroupsValuation(u, groups, tuple(curve))
    return GameInstance(valuation, vendor_masks)


def random_cdsp_instance(
    seed: int, n_items: int, n_categories: int, n_vendors: int = 2
) -> GameInstance:
    """Deterministic seeded category-divided market."""
    if not 1 <= n_items <= RANDOM_MAX_ITEMS:
        raise ValueError(f"random instances support 1..{RANDOM_MAX_ITEMS} items")
    if not 1 <= n_categories <= n_items:
        raise ValueError("need between 1 and n_items categories")
    if not 1 <= n_vendors <= n_items:
        raise ValueError("need between 1 and n_items vendors")
    rng = random.Random(f"cdsp:{seed}:{n_items}:{n_categories}:{n_vendors}")
    u = Universe(_letters(n_items))
    categories = _random_partition(rng, n_items, n_categories)
    vendors = _random_partition(rng, n_items, n_vendors)
    values = [Fraction(rng.randint(0, 50), rng.choice((1, 2, 4, 5, 10))) for _ in range(n_items)]
    return GameInstance(CategoryMaxValuation(u, categories, values), vendors)
