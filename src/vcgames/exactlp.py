"""A small exact-arithmetic simplex for nonnegative LPs.

Solves  max c.x  s.t.  A x <= b,  x >= 0  with every entry a Fraction and
every b_i >= 0 (so the slack basis is feasible and no phase-1 is needed;
callers establish feasibility up front).  Bland's rule is used throughout,
which guarantees termination and makes the returned vertex deterministic.

The exact best response has one variable per item of the target and one row
per nonempty subset of it: a vendor owning 9 items gives LPs of up to 511
rows, and the 12-item cap allows 4,095.  The tableau is dense over
Fractions, with one slack column per row, so those large LPs are the slowest
path in the package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

__all__ = ["Unbounded", "maximize"]


class Unbounded(ArithmeticError):
    """The LP has rays of unbounded improvement."""


def maximize(
    c: Sequence[Fraction],
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
) -> tuple[Fraction, list[Fraction]]:
    """Return ``(optimal value, optimal x)``; raises Unbounded if no optimum."""
    n = len(c)
    m = len(rows)
    if any(b < 0 for b in rhs):
        raise ValueError("rhs must be nonnegative (slack basis must be feasible)")
    zero = Fraction(0)
    # tableau: m rows of [A | I | b]; objective row keeps reduced costs
    tab = []
    for i in range(m):
        row = [Fraction(x) for x in rows[i]]
        if len(row) != n:
            raise ValueError("row length mismatch")
        row += [Fraction(int(i == j)) for j in range(m)]
        row.append(Fraction(rhs[i]))
        tab.append(row)
    obj = [Fraction(x) for x in c] + [zero] * (m + 1)
    basis = list(range(n, n + m))

    while True:
        # Bland: entering column = lowest index with positive reduced cost
        enter = next((j for j in range(n + m) if obj[j] > 0), None)
        if enter is None:
            break
        leave = None
        best_ratio = None
        for i in range(m):
            coef = tab[i][enter]
            if coef > 0:
                ratio = tab[i][-1] / coef
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave is None:
            raise Unbounded("objective unbounded above")
        pivot = tab[leave][enter]
        tab[leave] = [x / pivot for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [x - f * y for x, y in zip(obj, tab[leave])]
        basis[leave] = enter

    x = [zero] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tab[i][-1]
    value = sum((ci * xi for ci, xi in zip(c, x)), zero)
    return value, x
