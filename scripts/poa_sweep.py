"""Sweep equilibrium welfare ratios across instance families.

Two passes.  The harmonic family realizes the worst-case anarchy ratio
exactly, so its sweep prints H_m on the nose.  The random pass then samples
seeded games and reports the worst ratio observed against the proven
ceiling of H_m + 1.
"""

import argparse
from fractions import Fraction

from vcgames import (
    equilibrium_report,
    format_rational,
    harmonic_instance,
    harmonic_number,
    random_instance,
)


def harmonic_sweep(max_vendors: int, max_block: int) -> None:
    print("harmonic family: anarchy ratio equals H_m for every vendor count")
    print(f"  {'k':>2} {'m':>2} {'equilibria':>10} {'PoA':>8} {'H_m':>8} {'PoS':>4}")
    for k in range(1, max_vendors + 1):
        for m in range(2, max_block + 1):
            if k * m > 18:
                continue
            rep = equilibrium_report(harmonic_instance(k, m))
            print(
                f"  {k:>2} {m:>2} {len(rep.profiles):>10}"
                f" {format_rational(rep.poa):>8}"
                f" {format_rational(harmonic_number(m)):>8}"
                f" {format_rational(rep.pos):>4}"
            )
    print()


def random_sweep(games: int, max_items: int) -> None:
    print("random games: worst observed ratio vs the H_m + 1 ceiling")
    worst = Fraction(0)
    worst_seed = None
    with_eq = 0
    for seed in range(games):
        n = 3 + seed % (max_items - 2)
        k = 1 + seed % 3
        gen = ("coverage", "additive-concave")[seed % 2]
        g = random_instance(seed, n, min(k, n), generator=gen)
        rep = equilibrium_report(g)
        if not rep.has_equilibrium:
            continue
        with_eq += 1
        if rep.poa > worst:
            worst = rep.poa
            worst_seed = (seed, n, min(k, n), gen)
        assert rep.bound_satisfied, seed
    seed, n, k, gen = worst_seed
    ceiling = harmonic_number(n) + 1  # loosest ceiling over the sample
    print(f"  {with_eq}/{games} games had a pure equilibrium")
    vendors = "vendor" if k == 1 else "vendors"
    print(
        f"  worst ratio {format_rational(worst)}"
        f" (seed {seed}, {n} items, {k} {vendors}, {gen})"
    )
    print(f"  every game stayed under its own ceiling; loosest is {format_rational(ceiling)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-vendors", type=int, default=3)
    parser.add_argument("--max-block", type=int, default=6)
    parser.add_argument("--games", type=int, default=100)
    parser.add_argument("--max-items", type=int, default=8)
    args = parser.parse_args()

    harmonic_sweep(args.max_vendors, args.max_block)
    random_sweep(args.games, args.max_items)


if __name__ == "__main__":
    main()
