"""Build a random category-divided market and clear it in closed form.

Each category's best-of valuation rewards only the top item bought, so the
winning vendor prices its champion at the runner-up gap and everything else
goes out free or withheld.  The script prints the market, the closed-form
prices, and an independent certification that nobody can deviate profitably.
"""

import argparse

from vcgames import (
    cdsp_equilibrium,
    demand,
    format_rational,
    random_cdsp_instance,
    vc_verify_ne,
    vendor_revenue,
)
from vcgames.items import bits_of


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--items", type=int, default=8)
    parser.add_argument("--categories", type=int, default=3)
    parser.add_argument("--vendors", type=int, default=3)
    args = parser.parse_args()

    g = random_cdsp_instance(args.seed, args.items, args.categories, args.vendors)
    v, u = g.valuation, g.universe

    print("market:")
    for c, cat in enumerate(v.category_masks):
        members = ", ".join(
            f"{u.names[a]}={format_rational(v.item_values[a])}"
            for a in bits_of(cat)
        )
        print(f"  category {c}: {members}")
    for i, m in enumerate(g.vendor_masks):
        print(f"  vendor {i} owns {u.format_set(m)}")
    print()

    p = cdsp_equilibrium(g)
    print("closed-form equilibrium prices:")
    print(f"  {p.format()}")
    d = demand(g.valuation, p)
    print(f"  buyer takes {u.format_set(d.chosen)}")
    for i in range(g.n_vendors):
        print(f"  vendor {i} revenue {format_rational(vendor_revenue(g, p, i))}")
    welfare = v.value_mask(d.chosen)
    optimum = v.value_mask(u.full_mask)
    print(f"  welfare {format_rational(welfare)} of optimum {format_rational(optimum)}")
    print()

    res = vc_verify_ne(g, p, method="target-set-exact")
    print(f"deviation check: {res.status}")
    for chk in res.checks:
        print(
            f"  vendor {chk.vendor}: earning {format_rational(chk.current_revenue)},"
            f" best possible {format_rational(chk.best_revenue)}"
        )


if __name__ == "__main__":
    main()
