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
``Fraction``; hot paths use integer tables over a common denominator, which
is exact and much faster than repeated Fraction arithmetic.  Work that reads
the subsets of each additive part only (the offer game's prices, its
equilibria and their welfare) reads ``Valuation.part_tables``, one table per
part; the dense 2^n table is built for the scans over every subset (demand,
the exhaustive checks, best replies).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import lt, sub

from .items import Universe, bits_of, halves, subset_sums
from .rationals import exact, integers

__all__ = [
    "Valuation",
    "PartTables",
    "TableValuation",
    "AdditiveGroupsValuation",
    "CategoryMaxValuation",
    "ValidationReport",
    "check_monotone",
    "check_submodular",
    "expand_to_table",
]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of an exhaustive check; ``witness`` pins the smallest violation.

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
        self._parts: PartTables | None = None
        self._checks: tuple[ValidationReport, ValidationReport] | None = None
        self._cert: tuple[bool, bool] | None = None

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

    def part_tables(self) -> "PartTables":
        """v as one value table per part of ``components()``, all over the
        scale of ``dense_scaled``.  Part P's table is the dense table of v
        restricted to P's items (``_Part``); with one part it is the dense
        table itself.  Built once per instance."""
        if self._parts is None:
            parts = self.components()
            if len(parts) == 1:
                table, scale = self.dense_scaled()
                tables: tuple[list[int], ...] = (table,)
            else:
                built = [_Part(self, part).dense_scaled() for part in parts]
                tables = tuple(table for table, _ in built)
                scale = built[0][1]
            self._parts = PartTables(parts, tables, scale)
        return self._parts

    def _part_table(self, items: tuple[int, ...]) -> tuple[list[int], int]:
        """v on the subsets of ``items``, one of the parts, by local mask
        (bit j stands for ``items[j]``), over the scale of the dense table:
        here read from it.  Kinds that add up over parts compute it from
        their structure, and build the dense table from it."""
        table, scale = self.dense_scaled()
        return [table[m] for m in subset_sums([1 << i for i in items])], scale

    def _fill_dense(self) -> tuple[list[int], int]:
        """The dense table as the sum of the part tables, for kinds that
        compute ``_part_table``: listed over the packed masks of
        ``PartTables`` as their product, the part at the highest offset
        varying slowest, then read back in mask order.  With one part it is
        that part's table.  Kinds without parts override it."""
        parts = self.components()
        if len(parts) == 1:
            return self._part_table(tuple(bits_of(parts[0])))
        values = self.part_tables()
        table = [0]
        for k in sorted(range(len(values.parts)), key=values.offsets.__getitem__, reverse=True):
            table = [x + y for x in table for y in values.tables[k]]
        return list(map(table.__getitem__, subset_sums(values.bits))), values.scale

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

    def exhaustive_checks(self) -> tuple[ValidationReport, ValidationReport]:
        """The reports of ``check_monotone`` and ``check_submodular``, from
        one pass over the items (``_scan``); cached."""
        if self._checks is None:
            self._checks = _scan(self)
        return self._checks

    def certify(self) -> tuple[bool, bool]:
        """Monotone/submodular verdicts: structural when available, else the
        exhaustive scan.  Agreement of the two routes is property-tested.
        Computed once, on first use."""
        if self._cert is None:
            cert = self.structural_certificate()
            if cert is None:
                monotone, submodular = self.exhaustive_checks()
                cert = (monotone.ok, submodular.ok)
            self._cert = cert
        return self._cert


class TableValuation(Valuation):
    """Explicit value for every subset mask, held only as the dense integer
    table, built from ``values`` on construction."""

    def __init__(self, universe: Universe, values):
        super().__init__(universe)
        vals = list(map(exact, values))
        if len(vals) != 1 << universe.n:
            raise ValueError(
                f"need {1 << universe.n} entries for {universe.n} items, got {len(vals)}"
            )
        if vals[0] != 0:
            raise ValueError("v(empty set) must be 0")
        self._dense = integers(vals)

    def value_mask(self, mask: int) -> Fraction:
        self.universe._check_mask(mask)
        table, scale = self._dense
        return Fraction(table[mask], scale)


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

    def _part_table(self, items: tuple[int, ...]) -> tuple[list[int], int]:
        # a group's value is the curve at the number of its items held
        curve_int, scale = integers(self.curve)
        return [curve_int[m.bit_count()] for m in range(1 << len(items))], scale

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

    def _part_table(self, items: tuple[int, ...]) -> tuple[list[int], int]:
        # by doubling over the category's items: a set holding item j is
        # worth the better of j and the rest of the set, or j alone
        vals_int, scale = integers(self.item_values)
        table = [0]
        for item in items:
            x = vals_int[item]
            table += [x] + [max(y, x) for y in table[1:]]
        return table, scale

    def structural_certificate(self) -> tuple[bool, bool] | None:
        # A nonnegative best-of per category is monotone and submodular.  With
        # a negative item value monotonicity fails but submodularity may or may
        # not (a lone negative item is merely additive), so defer to the scan.
        if all(v >= 0 for v in self.item_values):
            return True, True
        return None


class _Part(Valuation):
    """A valuation restricted to the items of one of its additive parts,
    over the part's local masks: bit j stands for the part's j-th lowest
    item.  Its dense table is the part table, from the whole valuation's
    ``_part_table`` and over its scale."""

    def __init__(self, whole: Valuation, part: int):
        self.items = tuple(bits_of(part))
        super().__init__(Universe(tuple(whole.universe.names[i] for i in self.items)))
        self.whole = whole

    def _fill_dense(self) -> tuple[list[int], int]:
        return self.whole._part_table(self.items)


class PartTables:
    """A valuation's value tables, one per additive part, over one scale.

    ``tables[k][l] / scale`` is v(S & parts[k]) for the local mask l of S
    in part k, whose bit j stands for ``items[k][j]``, the part's j-th
    lowest item; v(S) adds up over the parts, and ``value(S)`` is the sum
    over the scale.

    A global mask S goes to the local ones through ``pack``, which moves
    item i to bit ``bits[i]``: part k's items to a run from bit
    ``offsets[k]``, the parts laid out by their lowest item.  Part k's
    local mask is then ``pack(S) >> offsets[k]`` cut to the part's size.
    pack reads one 256-entry table per byte of S.  ``fields`` lists each
    part's table, offset, largest local mask and items, for loops over the
    parts.
    """

    def __init__(self, parts: tuple[int, ...], tables: tuple[list[int], ...], scale: int):
        self.parts = parts
        self.tables = tables
        self.scale = scale
        self.items = tuple(tuple(bits_of(part)) for part in parts)
        offsets = [0] * len(parts)
        bits = [0] * sum(map(len, self.items))
        at = 0
        for k in sorted(range(len(parts)), key=lambda k: parts[k] & -parts[k]):
            offsets[k] = at
            for item in self.items[k]:
                bits[item] = 1 << at
                at += 1
        self.offsets = tuple(offsets)
        self.bits = tuple(bits)
        self._bytes = [subset_sums(bits[i:i + 8]) for i in range(0, len(bits), 8)]
        self.fields = tuple(
            (table, offset, (1 << len(items)) - 1, items)
            for table, offset, items in zip(tables, offsets, self.items)
        )

    def pack(self, mask: int) -> int:
        out = 0
        for lut in self._bytes:
            out += lut[mask & 255]
            mask >>= 8
        return out

    def local(self, k: int, mask: int) -> int:
        """Part k's local mask of the global ``mask``."""
        return self.pack(mask) >> self.offsets[k] & (1 << len(self.items[k])) - 1

    def value(self, mask: int) -> int:
        """v(mask) over the scale, summed over the parts."""
        packed = self.pack(mask)
        total = 0
        for table, offset, low, _ in self.fields:
            total += table[packed >> offset & low]
        return total


# -- module-level operations ----------------------------------------------


def _scan(v: Valuation) -> tuple[ValidationReport, ValidationReport]:
    """The monotone and submodular reports of v, from one pass over the
    items.

    For each item a it lists the marginals ``m_a[S] = v(S + a) - v(S)``
    over every mask S (0 where S holds a) from slices of the dense table.
    v is monotone iff no m_a is negative, and submodular iff no
    ``m_a[S] < m_a[S + b]`` for b > a and S without b; where S holds a both
    sides are 0.  One item's list is held at a time.
    """
    n = v.universe.n
    table, _ = v.dense_scaled()
    falls = rises = None  # the smallest (S, a) and (S, a, b) so far
    for a in range(n):
        m = [0] * len(table)
        for lo, hi in halves(n, a):
            m[lo] = list(map(sub, table[hi], table[lo]))
        if min(m) < 0:
            found = (next(S for S, d in enumerate(m) if d < 0), a)
            falls = min(falls, found) if falls else found
        for b in range(a + 1, n):
            for lo, hi in halves(n, b):
                below, above = m[lo], m[hi]
                if any(map(lt, below, above)):
                    k = list(map(lt, below, above)).index(True)
                    found = (lo.start + k * (lo.step or 1), a, b)
                    rises = min(rises, found) if rises else found
    u = v.universe
    monotone = submodular = ValidationReport(True)
    if falls:
        S, a = falls
        monotone = ValidationReport(
            False, falls, f"v({u.format_set(S | 1 << a)}) < v({u.format_set(S)})"
        )
    if rises:
        S, a, b = rises
        submodular = ValidationReport(
            False,
            (S, S | 1 << b, a),
            f"marginal of {u.names[a]} rises from {u.format_set(S)} to {u.format_set(S | 1 << b)}",
        )
    return monotone, submodular


def check_monotone(v: Valuation) -> ValidationReport:
    """Exhaustive check that v(S + a) >= v(S) for every S and a outside S.

    The witness ``(S, a)`` is the smallest violation, by mask and then
    item (``Valuation.exhaustive_checks``).
    """
    return v.exhaustive_checks()[0]


def check_submodular(v: Valuation) -> ValidationReport:
    """Exhaustive check of the local condition m_a(S) >= m_a(S + b).

    The local condition over all S, a, b is equivalent to submodularity on
    every pair of sets, so a PASS here is a full certificate.  The condition
    is symmetric in a and b, so only a < b is checked, which finds the same
    smallest violation as a check of every ordered pair.  The witness
    ``(S, S + b, a)`` is the lexicographic minimum of the violations
    ``(S, a, b)`` (``Valuation.exhaustive_checks``).
    """
    return v.exhaustive_checks()[1]


def expand_to_table(v: Valuation) -> TableValuation:
    """Materialize any valuation as an explicit table (cross-check helper)."""
    n = v.universe.n
    return TableValuation(v.universe, [v.value_mask(m) for m in range(1 << n)])
