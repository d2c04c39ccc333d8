"""Seeded instance generators for the benchmark, standard library only.

The program ships ``random_instance``, but it stops at 12 items and picks
its own vendor split, and the benchmark should not draw its inputs from the
code it measures.  So the benchmark writes its own weighted coverage
instances: each item covers a fixed number of ground elements, each element
weighs a whole number of cents, and a bundle is worth the total weight it
covers.  Coverage functions are monotone and submodular, so every instance
passes the program's exhaustive certification.

Which elements each item covers (the design) is fixed per workload; the
workload seed draws the weights.  With a fixed design the amount of work a
run does barely depends on the seed, which keeps run-to-run spread small:
a free design made the exact best response take 6.5 to 14 s by seed, while
the fixed one below stays within 10.4 to 10.9 s.  The design of
``brd-continuous`` was picked among a few dozen candidates because its
dynamics take one course on every weight draw tried: vendors 0 and 2 keep
undercutting each other up to the 1,000-move cap while vendor 1 never gains.
Under other designs the dynamics cycle early, converge, or switch between
courses whose costs differ by a quarter, which no run-sized batch averages out.
"""

from __future__ import annotations

import json
import random
from typing import NamedTuple


class Shape(NamedTuple):
    items: int
    vendor_sizes: tuple[int, ...]  # contiguous blocks, vendor 0 first
    ground: int  # ground elements
    per_item: int  # elements covered by each item
    design: str  # seed of the fixed cover incidence


SHAPES = {
    "table-demand": Shape(13, (5, 4, 4), 26, 4, "covers:13:26:4"),
    "bestresp-large": Shape(12, (9, 3), 120, 20, "covers:12:120:20"),
    "brd-continuous": Shape(10, (4, 3, 3), 20, 3, "covers:d13"),
}


def cents_text(cents: int) -> str:
    """Exact decimal text for a whole number of cents, e.g. 1230 -> "12.3"."""
    sign = "-" if cents < 0 else ""
    whole, frac = divmod(abs(cents), 100)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:02d}".rstrip("0")


def coverage_values(weights: list[int], covers: list[int]) -> list[int]:
    """Value in cents of every subset mask: the weight of the elements covered."""
    n = len(covers)
    covered = [0] * (1 << n)
    values = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        c = covered[mask ^ low] | covers[low.bit_length() - 1]
        covered[mask] = c
        values[mask] = sum(w for e, w in enumerate(weights) if c >> e & 1)
    return values


class Instance:
    """One generated instance: values in cents per mask, vendors, JSON text."""

    def __init__(self, workload: str, seed: int, index: int = 0):
        shape = SHAPES[workload]
        weights_rng = random.Random(f"perfbench:{workload}:{seed}:{index}")
        design_rng = random.Random(shape.design)
        weights = [weights_rng.randint(100, 4000) for _ in range(shape.ground)]
        covers = []
        for _ in range(shape.items):
            cover = 0
            for e in design_rng.sample(range(shape.ground), shape.per_item):
                cover |= 1 << e
            covers.append(cover)
        self.workload = workload
        self.seed = seed
        self.index = index
        self.n = shape.items
        self.sizes = shape.vendor_sizes
        self.names = [chr(ord("a") + i) for i in range(shape.items)]
        self.values = coverage_values(weights, covers)
        self.vendors = []
        start = 0
        for size in shape.vendor_sizes:
            self.vendors.append(((1 << size) - 1) << start)
            start += size

    def names_of(self, mask: int) -> list[str]:
        return [self.names[i] for i in range(self.n) if mask >> i & 1]

    def to_json(self) -> str:
        obj = {
            "type": "table",
            "items": self.names,
            "entries": {
                ",".join(self.names_of(m)): cents_text(v)
                for m, v in enumerate(self.values)
                if m
            },
            "vendors": [self.names_of(mask) for mask in self.vendors],
        }
        return json.dumps(obj, separators=(",", ":")) + "\n"
