"""Item universes and bitmask subset utilities.

Items are indexed 0..n-1 and carry unique string names.  A subset of items is
an int bitmask (bit i set <=> item i in the set), which keeps the dense
2^n enumerations cheap.  Universes are capped at 20 items so every operation
that scans all subsets stays tractable.

``halves`` splits a list indexed by the 2^n masks on an item, the one way
every item's marginal over a value table is taken; blocks of 2^k entries
laid end to end split the same way on each bit below k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterator

__all__ = [
    "MAX_ITEMS",
    "Universe",
    "bits_of",
    "halves",
    "submasks_of",
    "subset_sums",
]

MAX_ITEMS = 20


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def submasks_of(mask: int) -> Iterator[int]:
    """Yield every submask of ``mask`` (including 0 and mask itself)."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


@cache
def halves(n: int, item: int) -> tuple[tuple[slice, slice], ...]:
    """Slice pairs ``(lo, hi)`` that split a list indexed by the 2^n masks
    on ``item``: ``lo`` takes masks without it, ascending, and ``hi`` the
    same masks with it.  Strided slices for a low bit, contiguous runs for
    a high one, so there are at most about 2^((n-1)/2) pairs.  Built once
    per ``(n, item)``."""
    half, size = 1 << item, 1 << n
    step = 2 * half
    if half * step <= size:
        return tuple((slice(j, size, step), slice(j + half, size, step)) for j in range(half))
    return tuple((slice(s, s + half), slice(s + half, s + step)) for s in range(0, size, step))


def subset_sums(weights, start: int = 0) -> list[int]:
    """``sums[mask]`` is ``start`` plus the total of ``weights[i]`` over the
    bits i of mask.

    Built by doubling: the sums that include weight j are the sums over the
    lower bits plus ``weights[j]``.  With single-bit weights ``1 << item`` the
    result maps a local mask to the global mask of those items.
    """
    sums = [start]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


@dataclass(frozen=True)
class Universe:
    """An ordered set of named items.

    Names are nonempty, carry no surrounding whitespace, and avoid the
    characters ``,|{}=`` that set, profile and price texts use as separators,
    so every item can be addressed by name.
    """

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("a universe needs at least one item")
        if len(self.names) > MAX_ITEMS:
            raise ValueError(f"at most {MAX_ITEMS} items supported, got {len(self.names)}")
        if len(set(self.names)) != len(self.names):
            raise ValueError("item names must be unique")
        for name in self.names:
            if not name or name != name.strip() or any(ch in name for ch in ",|{}="):
                raise ValueError(f"invalid item name: {name!r}")
        object.__setattr__(self, "_bits", {name: 1 << i for i, name in enumerate(self.names)})

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def index(self, name: str) -> int:
        return self.mask_of((name,)).bit_length() - 1

    def mask_of(self, names) -> int:
        """The mask of the items ``names``; an unknown name is a KeyError,
        and naming an item twice a ValueError."""
        try:
            bits = list(map(self._bits.__getitem__, names))
        except KeyError as e:
            raise KeyError(f"unknown item: {e.args[0]!r}") from None
        mask = sum(bits)
        if mask.bit_count() != len(bits):  # a bit added twice carries
            twice = next(b for k, b in enumerate(bits) if b in bits[:k])
            raise ValueError(f"names an item twice: {self.names[twice.bit_length() - 1]!r}")
        return mask

    def names_of(self, mask: int) -> tuple[str, ...]:
        self._check_mask(mask)
        return tuple(self.names[i] for i in bits_of(mask))

    def format_set(self, mask: int) -> str:
        return "{" + ",".join(self.names_of(mask)) + "}"

    def parse_set(self, text: str) -> int:
        """Parse "{a,c}" or "a,c"; "{}" and "" denote the empty set."""
        text = text.strip()
        if text.startswith("{") and text.endswith("}"):
            text = text[1:-1]
        if not text.strip():
            return 0
        return self.mask_of(map(str.strip, text.split(",")))

    def partition(self, masks, what: str, *, allow_empty: bool = False) -> tuple[int, ...]:
        """``masks`` as a tuple, checked to split the universe: each inside
        it, pairwise disjoint, together covering every item, and nonempty
        unless ``allow_empty``.  ``what`` names the parts in error messages."""
        masks = tuple(int(m) for m in masks)
        union = 0
        for m in masks:
            self._check_mask(m)
            if m & union:
                raise ValueError(f"{what} must be disjoint")
            if not m and not allow_empty:
                raise ValueError(f"{what} must be nonempty")
            union |= m
        if union != self.full_mask:
            raise ValueError(f"{what} must cover all items")
        return masks

    def _check_mask(self, mask: int) -> None:
        if mask < 0 or mask > self.full_mask:
            raise ValueError(f"mask {mask:#x} outside universe of {self.n} items")
