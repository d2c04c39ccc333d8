"""Shared test plumbing.

The acceptance suite records one line per criterion here; the summary hook
prints the table after the normal pytest output so a run ends with a compact
pass/fail ledger of the shipped guarantees.
"""

from fractions import Fraction

from hypothesis import strategies as st

RESULTS: dict[int, tuple[str, bool, float]] = {}


def big_denominator_fractions(top: int):
    """Rationals in [0, top] over 2^k * 3^j, a denominator of over 200 bits
    that no test table has; the numerator is prime to 6, so the fraction
    keeps it."""
    return st.tuples(st.integers(60, 250), st.integers(90, 130)).flatmap(
        lambda kj: st.integers(0, (top * 2 ** kj[0] * 3 ** kj[1] - 1) // 6).map(
            lambda t: Fraction(6 * t + 1, 2 ** kj[0] * 3 ** kj[1])
        )
    )


def coverage_values(weights, covers) -> list[int]:
    """The value of every subset mask of ``len(covers)`` items: the total
    weight of the ground elements they cover, item i covering the bits of
    ``covers[i]``.  Monotone and submodular."""
    values = []
    for mask in range(1 << len(covers)):
        covered = 0
        for i, cover in enumerate(covers):
            if mask >> i & 1:
                covered |= cover
        values.append(sum(w for j, w in enumerate(weights) if covered >> j & 1))
    return values


def brute_floors(v) -> list[Fraction]:
    """Each item's smallest marginal ``v(S + a) - v(S)`` over every S
    without it, from ``marginal_mask`` alone."""
    n = v.universe.n
    return [
        min(v.marginal_mask(a, s) for s in range(1 << n) if not s >> a & 1) for a in range(n)
    ]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(RESULTS):
        label, ok, seconds = RESULTS[number]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(
            f"criterion {number:2d}: {verdict}  {label}  ({seconds:.2f}s)"
        )
