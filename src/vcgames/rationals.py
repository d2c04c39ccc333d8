"""Exact rational parsing and printing.

All quantities in this package are `fractions.Fraction`.  Interchange formats
(JSON, CSV, CLI output) carry rationals as strings: a plain decimal like
"2.503" when the denominator divides a power of ten, "num/den" otherwise.
Parsing and printing round-trip exactly; floats never enter the pipeline.
Hot paths work on integers over one common denominator, from ``integers``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

__all__ = ["exact", "parse_rational", "format_rational", "integers"]

_DECIMAL = re.compile(r"(-?[0-9]+)(?:\.([0-9]+))?")


def integers(values, scale: int = 1) -> tuple[list[int], int]:
    """``(ints, L)`` with ``ints[j] / L == values[j]``, L the lcm of ``scale``
    and the denominators of the sequence ``values``.  The package's one
    rational-to-integer rule."""
    scale = lcm(scale, *[q.denominator for q in values])
    return [q.numerator * (scale // q.denominator) for q in values], scale


def exact(x) -> Fraction:
    """``x`` as a Fraction: an int or a Fraction as it is, a str through
    ``parse_rational``.  Anything else is refused; a float, say, has already
    been rounded.  The package's one rule for exact inputs."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise ValueError(f"not an exact rational: {x!r}")


def parse_rational(text: str) -> Fraction:
    """Parse a decimal string ("2.503", "-4", "0.25") or a ratio ("11/6").

    Exponent notation is refused: "1e400" would build a 401-digit integer
    out of five characters.  A plain ASCII decimal, the common case, is
    read straight into its numerator and power-of-ten denominator.
    """
    plain = _DECIMAL.fullmatch(text)
    if plain:
        whole, frac = plain.groups(default="")
        return Fraction(int(whole + frac), 10 ** len(frac))
    try:
        if "e" in text.lower():
            raise ValueError("exponent notation")
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc


def format_rational(q: Fraction) -> str:
    """Render exactly: finite decimal when possible, otherwise "num/den"."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    # A reduced fraction has a finite decimal expansion iff its denominator
    # factors as 2^a * 5^b.
    den = q.denominator
    twos = (den & -den).bit_length() - 1
    den >>= twos
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{q.numerator}/{q.denominator}"
    digits = max(twos, fives)
    scaled = q.numerator * 10**digits // q.denominator
    sign = "-" if scaled < 0 else ""
    text = str(abs(scaled)).rjust(digits + 1, "0")
    whole, frac = text[:-digits], text[-digits:]
    frac = frac.rstrip("0")
    return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"
