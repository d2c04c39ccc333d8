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
