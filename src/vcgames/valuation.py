"""Buyer valuations over item subsets, with exact monotonicity/submodularity checks.

Three representations are supported:

* ``TableValuation`` -- an explicit value for every one of the 2^n subsets.
* ``AdditiveGroupsValuation`` -- the universe is partitioned into groups and
  ``v(S) = sum_i curve(|S & group_i|)`` for a shared size-to-value curve.
  With a concave curve this is the canonical monotone-submodular family used
  by the efficiency-loss constructions.
* ``CategoryMaxValuation`` -- the universe is partitioned into categories of
  mutually substitutable items; the buyer values a set at the sum over
  categories of the best item it contains.

Structured kinds compute values from their structure (never from an expanded
table); ``expand_to_table`` exists for cross-checking.  All values are
``Fraction``; hot paths use a dense integer table over a common denominator,
which is exact and much faster than repeated Fraction arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .items import Universe, bits_of
from .rationals import exact, integers

__all__ = [
    "Valuation",
    "TableValuation",
    "AdditiveGroupsValuation",
    "CategoryMaxValuation",
    "ValidationReport",
    "common_scale",
    "check_monotone",
    "check_submodular",
    "expand_to_table",
]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of an exhaustive check; ``witness`` pins the first violation found.

    For monotonicity the witness is ``(S_mask, item)`` with
    ``v(S + item) < v(S)``.  For submodularity it is ``(S_mask, T_mask, item)``
    with ``S < T``, item outside ``T``, and the marginal of item at ``T``
    exceeding its marginal at ``S``.
    """

    ok: bool
    witness: tuple | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


class Valuation:
    """Base class: a normalized (v(empty)=0) set function over a universe."""

    def __init__(self, universe: Universe):
        self.universe = universe
        self._dense: tuple[list[int], int] | None = None
        self._spread: int | None = None

    # -- value queries ---------------------------------------------------

    def value_mask(self, mask: int) -> Fraction:
        raise NotImplementedError

    def value_of(self, names) -> Fraction:
        return self.value_mask(self.universe.mask_of(names))

    def marginal_mask(self, item: int, mask: int) -> Fraction:
        """m_item(S) = v(S + item) - v(S); requires item outside S."""
        bit = 1 << item
        if mask & bit:
            raise ValueError(f"item {item} already in set")
        return self.value_mask(mask | bit) - self.value_mask(mask)

    def components(self) -> tuple[int, ...]:
        """Disjoint masks covering the universe over which v adds up:
        ``v(S) = sum_P v(S & P)``.  Every marginal of an item is then one
        inside its part.  The base class knows no such split and returns the
        whole universe as one part; kinds built as sums override it."""
        return (self.universe.full_mask,)

    # -- dense integer form ----------------------------------------------

    def dense_scaled(self) -> tuple[list[int], int]:
        """All 2^n values as integers over a common denominator.

        Returns ``(table, L)`` with ``table[mask] * Fraction(1, L) == v(mask)``
        and L the lcm of the kind's own rationals, from its ``_fill_dense``.
        Exact; cached per instance.
        """
        if self._dense is None:
            self._dense = self._fill_dense()
        return self._dense

    def dense_spread(self) -> int:
        """``max(table) - min(table)`` of the dense table, over the table's
        own scale.  No item adds more than this to any bundle.  Computed
        once, beside the cached table."""
        if self._spread is None:
            table, _ = self.dense_scaled()
            self._spread = max(table) - min(table)
        return self._spread

    # -- certification ---------------------------------------------------

    def structural_certificate(self) -> tuple[bool, bool] | None:
        """(monotone, submodular) by structure alone, or None when the kind
        has no structure to argue from (explicit tables)."""
        return None

    def certify(self) -> tuple[bool, bool]:
        """Monotone/submodular verdicts: structural when available, else the
        exhaustive scan.  Agreement of the two routes is property-tested."""
        cert = self.structural_certificate()
        if cert is None:
            cert = (check_monotone(self).ok, check_submodular(self).ok)
        return cert


class TableValuation(Valuation):
    """Explicit dense table; ``values[mask]`` for every subset mask."""

    def __init__(self, universe: Universe, values):
        super().__init__(universe)
        vals = tuple(map(exact, values))
        if len(vals) != 1 << universe.n:
            raise ValueError(
                f"need {1 << universe.n} entries for {universe.n} items, got {len(vals)}"
            )
        if vals[0] != 0:
            raise ValueError("v(empty set) must be 0")
        self.values = vals

    def value_mask(self, mask: int) -> Fraction:
        self.universe._check_mask(mask)
        return self.values[mask]

    def _fill_dense(self) -> tuple[list[int], int]:
        return integers(self.values)


def _harmonic_curve(m: int) -> tuple[Fraction, ...]:
    """The harmonic numbers H_0 = 0, H_1, ..., H_m, exactly."""
    out = [Fraction(0)]
    for t in range(1, m + 1):
        out.append(out[-1] + Fraction(1, t))
    return tuple(out)


class AdditiveGroupsValuation(Valuation):
    """Sum over disjoint groups of a shared concave-curve of the group hit count."""

    def __init__(self, universe: Universe, group_masks, curve):
        super().__init__(universe)
        self.group_masks = universe.partition(group_masks, "groups")
        self.curve = tuple(map(exact, curve))
        self.max_group_size = max(g.bit_count() for g in self.group_masks)
        if len(self.curve) < self.max_group_size + 1:
            raise ValueError("curve shorter than the largest group")
        if self.curve[0] != 0:
            raise ValueError("curve(0) must be 0")

    def value_mask(self, mask: int) -> Fraction:
        self.universe._check_mask(mask)
        total = Fraction(0)
        for g in self.group_masks:
            total += self.curve[(mask & g).bit_count()]
        return total

    def components(self) -> tuple[int, ...]:
        return self.group_masks

    def _fill_dense(self) -> tuple[list[int], int]:
        # by doubling over items: adding item j to a mask m of lower items
        # raises its group's hit count from |m & lower| by one
        curve_int, scale = integers(self.curve)
        inc = [b - a for a, b in zip(curve_int, curve_int[1:])]
        table = [0]
        for item in range(self.universe.n):
            bit = 1 << item
            lower = next(g for g in self.group_masks if g & bit) & (bit - 1)
            table += [x + inc[(m & lower).bit_count()] for m, x in enumerate(table)]
        return table, scale

    def structural_certificate(self) -> tuple[bool, bool]:
        # v is a sum of curve(|S & group|) over disjoint groups, so it is
        # monotone iff the curve increments (up to the largest group size) are
        # nonnegative, and submodular iff they are nonincreasing.
        increments = [
            self.curve[t] - self.curve[t - 1] for t in range(1, self.max_group_size + 1)
        ]
        monotone = all(d >= 0 for d in increments)
        concave = all(d1 >= d2 for d1, d2 in zip(increments, increments[1:]))
        return monotone, concave


class CategoryMaxValuation(Valuation):
    """Per category, only the best contained item counts; categories add up."""

    def __init__(self, universe: Universe, category_masks, item_values):
        super().__init__(universe)
        self.category_masks = universe.partition(category_masks, "categories")
        vals = tuple(map(exact, item_values))
        if len(vals) != universe.n:
            raise ValueError("need one value per item")
        self.item_values = vals

    def value_mask(self, mask: int) -> Fraction:
        self.universe._check_mask(mask)
        total = Fraction(0)
        for c in self.category_masks:
            hit = mask & c
            if hit:
                total += max(self.item_values[i] for i in bits_of(hit))
        return total

    def components(self) -> tuple[int, ...]:
        return self.category_masks

    def _fill_dense(self) -> tuple[list[int], int]:
        vals_int, scale = integers(self.item_values)
        out = []
        cats = self.category_masks
        for m in range(1 << self.universe.n):
            total = 0
            for c in cats:
                hit = m & c
                if hit:
                    total += max(vals_int[i] for i in bits_of(hit))
            out.append(total)
        return out, scale

    def structural_certificate(self) -> tuple[bool, bool] | None:
        # A nonnegative best-of per category is monotone and submodular.  With
        # a negative item value monotonicity fails but submodularity may or may
        # not (a lone negative item is merely additive), so defer to the scan.
        if all(v >= 0 for v in self.item_values):
            return True, True
        return None


# -- module-level operations ----------------------------------------------


def common_scale(v: Valuation, extras) -> tuple[list[int], int, int, list[int]]:
    """The dense table of v and the rationals ``extras`` over one denominator.

    Returns ``(table, f, L, ints)`` with ``table[mask] * f / L == v(mask)``
    and ``ints[j] / L == extras[j]``; L is the least common denominator.
    ``table`` is the cached table itself, over its own denominator L // f;
    it is not copied here.
    """
    table, lv = v.dense_scaled()
    ints, scale = integers(extras, lv)
    return table, scale // lv, scale, ints


def check_monotone(v: Valuation) -> ValidationReport:
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


def check_submodular(v: Valuation) -> ValidationReport:
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


def expand_to_table(v: Valuation) -> TableValuation:
    """Materialize any valuation as an explicit table (cross-check helper)."""
    n = v.universe.n
    return TableValuation(v.universe, [v.value_mask(m) for m in range(1 << n)])
