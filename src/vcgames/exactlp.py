"""A small exact simplex for nonnegative LPs, pivoting on integers.

Solves  max c.x  s.t.  A x <= b,  x >= 0  with every entry an int or a
Fraction and every b_i >= 0 (so the slack basis is feasible and no phase-1
is needed; callers establish feasibility up front).  Bland's rule is used
throughout, which guarantees termination and makes the returned vertex
deterministic.

The tableau is condensed: it keeps only the n nonbasic columns and the rhs,
m rows of n + 1 entries plus the objective row, and two index lists saying
which variable each row and each column stands for.  A pivot swaps the
entering and the leaving variable and rewrites the pivot column in place; no
slack identity columns are stored.

Every entry is an integer.  An LP whose entries are all ints is its own
tableau.  Otherwise each row [A_i | b_i] is scaled, rhs and all, by the lcm
of its own denominators, and c by the lcm of its own; on an all-int LP
every one of those scales is 1, so both set-ups build the same tableau.  A
row scaled with its rhs keeps its feasible set and every ratio
b_i / t[i][s], and a positive scale of c only rescales every reduced cost;
neither changes the sign of a reduced cost or the order of two ratios, so
Bland's rule makes the same pivots as on the unscaled LP.  No scale touches
x, so x needs no unscaling.

The integer tableau is d times the rational one, where d is the determinant
of the current basis (1 for the slack basis); a pivot on the entry p at
(r, s) sets, for every other row i and column j != s,

    t[i][j] = (t[i][j] * p - t[i][s] * t[r][j]) // d

negates t[i][s], leaves row r alone except for d at column s, and then sets
d = p.  The division is exact: each new entry is d' times an entry of the
rational tableau of the new basis, whose determinant d' is d times the
rational pivot, and by Cramer's rule that product is a minor of the integer
matrix [A | I | b] (Bareiss).  The ratio test compares b_i / t[i][s] by
cross-multiplication, so nothing is ever divided except by d.  The
objective row's rhs ends at -d times c.x on c's scale, so the optimum is
that entry divided once.

The exact best response has one variable per item of the target and one row
per nonempty subset of it: a vendor owning 9 items gives LPs of up to 511
rows, and the 12-item cap allows 4,095.  It passes 0/1 rows and its bounds
as integers over its price scale, which only rescales x, so its LPs take
the all-int set-up, and it divides the optimum once.  It calls this solver
only for a target whose singleton rows x_b <= bound sum to more than the
revenue already found: every feasible x meets them, so that sum bounds the
LP's value, and a target below it could not win.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Sequence

from .rationals import integers

__all__ = ["Unbounded", "maximize"]


class Unbounded(ArithmeticError):
    """The LP has rays of unbounded improvement."""


def maximize(
    c: Sequence[int | Fraction],
    rows: Sequence[Sequence[int | Fraction]],
    rhs: Sequence[int | Fraction],
) -> tuple[Fraction, list[Fraction]]:
    """Return ``(optimal value, optimal x)``; raises Unbounded if no optimum."""
    n = len(c)
    m = len(rows)
    if len(rhs) != m:
        raise ValueError(f"{len(rhs)} rhs entries for {m} rows")
    if any(len(row) != n for row in rows):
        raise ValueError("row length mismatch")
    kinds = set(map(type, chain(c, rhs, *rows)))
    if not kinds <= {int, Fraction}:
        bad = sorted(k.__name__ for k in kinds - {int, Fraction})
        raise ValueError(f"LP entries must be int or Fraction, not {', '.join(bad)}")
    if any(b < 0 for b in rhs):
        raise ValueError("rhs must be nonnegative (slack basis must be feasible)")

    # m constraint rows of [A | b] and the objective row [c | 0], all integer
    if kinds <= {int}:  # the LP is its own tableau
        tab = [[*row, b] for row, b in zip(rows, rhs)]
        obj, c_scale = c, 1
    else:  # each row [A_i | b_i] by the lcm of its own denominators, c by its own
        tab = [integers([*row, b])[0] for row, b in zip(rows, rhs)]
        obj, c_scale = integers(c)
    tab.append([*obj, 0])
    basis = list(range(n, n + m))  # the variable of each row: slacks first
    nonbasic = list(range(n))  # the variable of each column
    d = 1

    while True:
        # Bland: the entering variable is the lowest one with positive cost
        obj = tab[m]
        s = None
        for j in range(n):
            if obj[j] > 0 and (s is None or nonbasic[j] < nonbasic[s]):
                s = j
        if s is None:
            break
        # minimum ratio b_i / t[i][s], ties to the lower basic variable
        r = None
        for i in range(m):
            a = tab[i][s]
            if a > 0:
                if r is None:
                    r, ra, rb = i, a, tab[i][n]
                    continue
                left, right = tab[i][n] * ra, rb * a
                if left < right or (left == right and basis[i] < basis[r]):
                    r, ra, rb = i, a, tab[i][n]
        if r is None:
            raise Unbounded("objective unbounded above")
        prow = tab[r]
        for i, row in enumerate(tab):
            if i == r:
                continue
            f = row[s]
            if f:
                new = [(v * ra - f * u) // d for v, u in zip(row, prow)]
                new[s] = -f
                tab[i] = new
            elif ra != d:
                tab[i] = [v * ra // d for v in row]
        prow[s] = d
        d = ra
        basis[r], nonbasic[s] = nonbasic[s], basis[r]

    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = Fraction(tab[i][n], d)
    # the objective row's rhs is -d times c.x on c's scale
    return Fraction(-tab[m][n], d * c_scale), x
