"""End-to-end acceptance checks, one per shipped guarantee.

Every test here runs on exact rationals with exact equality assertions; the
seeded samples are frozen so reruns see the same games and the same prices.
Each test records a line for the summary table printed by conftest, and the
timed ones enforce their wall-clock budget as part of the pass.
"""

import contextlib
import csv
import functools
import io
import pathlib
import random
import time
from fractions import Fraction

from conftest import RESULTS

from vcgames import (
    PriceVector,
    StrategyProfile,
    br_dynamics,
    cdsp_equilibrium,
    check_hybrid_profile_bound,
    check_vendor_contribution_bound,
    counterexample_instance,
    demand,
    equilibrium_report,
    harmonic_instance,
    harmonic_number,
    map_to_pmvc,
    pmvc_outcome,
    pmvc_prices,
    pmvc_pure_ne,
    pos_instance,
    random_cdsp_instance,
    random_instance,
    sentinel_price,
    vc_best_response,
    vc_verify_ne,
)
from vcgames.cli import main
from vcgames.items import bits_of

DATA = pathlib.Path(__file__).parent / "data"

GENERATORS = ("coverage", "additive-concave")


def criterion(number, label, budget=None):
    """Record pass/fail and wall time for the summary table.

    A finite budget is part of the contract: blowing it fails the test even
    when every assertion inside held.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                RESULTS[number] = (label, False, time.perf_counter() - start)
                raise
            elapsed = time.perf_counter() - start
            ok = budget is None or elapsed < budget
            RESULTS[number] = (label, ok, elapsed)
            assert ok, f"criterion {number} ran {elapsed:.2f}s, budget {budget:.0f}s"

        return wrapper

    return decorate


def seeded_instance(seed, n_span, k_span=3):
    n = 3 + seed % n_span
    k = 1 + seed % k_span
    gen = GENERATORS[seed % 2]
    return random_instance(seed, n, min(k, n), generator=gen)


def catalogue_value(g):
    mask = 0
    for m in g.vendor_masks:
        mask |= m
    return g.valuation.value_mask(mask)


def draw_prices(rng, g, zero_rate, cap_rate):
    cap = sentinel_price(g.valuation)
    prices = []
    for _ in range(g.universe.n):
        roll = rng.random()
        if roll < zero_rate:
            prices.append(Fraction(0))
        elif roll < zero_rate + cap_rate:
            prices.append(cap)
        else:
            prices.append(Fraction(rng.randint(0, 400), rng.randint(1, 40)))
    return PriceVector(g.universe, tuple(prices))


@criterion(1, "payoff table reproduction", budget=1.0)
def test_payoff_table_matches_golden():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["table", "--gen", "counterexample", "--format", "csv"])
    assert code == 0
    golden = (DATA / "counterexample_table.csv").read_text()
    assert buf.getvalue() == golden

    rows = {r["profile"]: r for r in csv.DictReader(io.StringIO(golden))}
    assert len(rows) == 16
    assert (rows["{a}|{c}"]["vendor_0"], rows["{a}|{c}"]["vendor_1"]) == ("2.601", "2.201")
    pair = rows["{a,b}|{c,d}"]
    assert (pair["vendor_0"], pair["vendor_1"]) == ("2.1", "2.1")


@criterion(2, "equilibrium non-existence and cycling", budget=1.0)
def test_counterexample_has_no_equilibrium_and_cycles():
    g = counterexample_instance()
    assert pmvc_pure_ne(g) == []
    trace = br_dynamics(g, g.parse_profile("{a}|{c}"), mode="discrete")
    assert trace.status == "cycle"
    assert trace.period == 4


@criterion(3, "harmonic anarchy floor", budget=30.0)
def test_harmonic_family_hits_the_harmonic_ratio():
    assert harmonic_number(3) == Fraction(11, 6)
    for k in (1, 2, 3):
        for m in range(2, 7):
            g = harmonic_instance(k, m)
            rep = equilibrium_report(g)
            assert rep.has_equilibrium
            worst = min(w for _, w in rep.equilibria)
            best = max(w for _, w in rep.equilibria)
            assert rep.optimal_welfare / worst == harmonic_number(m), (k, m)
            assert rep.optimal_welfare / best == 1, (k, m)
            assert rep.poa == harmonic_number(m)
            assert rep.pos == 1


@criterion(4, "anarchy ceiling on random games", budget=300.0)
def test_equilibrium_welfare_never_exceeds_the_ceiling():
    games_with_eq = 0
    for seed in range(200):
        g = seeded_instance(seed, n_span=6)  # 3..8 items
        rep = equilibrium_report(g)
        if not rep.has_equilibrium:
            continue
        games_with_eq += 1
        full = catalogue_value(g)
        bound = harmonic_number(g.max_vendor_size) + 1
        for s, w in rep.equilibria:
            # division-free form of full/w <= bound, valid at w == 0 too
            assert full <= bound * w, (seed, s)
            for chk in check_vendor_contribution_bound(g, s):
                assert chk.holds, (seed, s, chk)
            assert check_hybrid_profile_bound(g, s).holds, (seed, s)
    assert games_with_eq == 200


@criterion(5, "stability gap instance", budget=10.0)
def test_stability_instance_has_singleton_equilibria_only():
    g = pos_instance(2, 3, Fraction(1, 100))
    rep = equilibrium_report(g)
    expected = {
        StrategyProfile((1 << i, 1 << j)) for i in range(3) for j in range(3, 6)
    }
    assert {s for s, _ in rep.equilibria} == expected
    assert rep.pos == Fraction(547, 300)


@criterion(6, "price map preserves the sale", budget=120.0)
def test_mapping_to_mechanism_prices_preserves_sold_set():
    pairs = 0
    for seed in range(50):
        g = seeded_instance(seed, n_span=5)  # 3..7 items
        rng = random.Random(seed * 104729)
        for _ in range(20):
            p = draw_prices(rng, g, zero_rate=0.10, cap_rate=0.15)
            sold_before = demand(g.valuation, p).chosen
            s, deltas = map_to_pmvc(g, p)
            out = pmvc_outcome(g, s)
            assert out.sold == sold_before, (seed, p.format())
            assert all(d >= 0 for d in deltas), (seed, p.format())
            pairs += 1
    assert pairs == 1000


@criterion(7, "equilibrium prices sit at marginals")
def test_certified_equilibrium_prices_are_marginal():
    def assert_marginal_priced(g, p, sold, context):
        for a in bits_of(sold):
            marg = g.valuation.marginal_mask(a, sold & ~(1 << a))
            assert p.prices[a] == marg, (context, a)

    # leg 1: closed-form category-market equilibria, all certified
    for seed in range(25):
        n = 4 + seed % 7
        g = random_cdsp_instance(seed, n, 1 + seed % 4, 2 + seed % 3)
        p = cdsp_equilibrium(g)
        assert vc_verify_ne(g, p, method="target-set-exact").certified, seed
        sold = demand(g.valuation, p).chosen
        assert_marginal_priced(g, p, sold, ("cdsp", seed))

    # leg 2: mechanism prices of discrete equilibria that survive full
    # price-deviation certification
    verified = certified = 0
    for seed in range(40):
        g = seeded_instance(seed, n_span=4)  # 3..6 items
        nes = pmvc_pure_ne(g)
        stride = max(1, len(nes) // 8)
        for s in nes[::stride]:
            p = pmvc_prices(g, s)
            res = vc_verify_ne(g, p, method="target-set-exact")
            verified += 1
            if not res.certified:
                continue
            certified += 1
            out = pmvc_outcome(g, s)
            assert_marginal_priced(g, p, out.sold, ("pmvc", seed, s))
    assert verified == 80
    assert certified == 58


@criterion(8, "best-response tiers agree where promised", budget=10.0)
def test_best_response_oracles_agree_on_the_fixed_point():
    g = counterexample_instance()
    cap = sentinel_price(g.valuation)
    p = PriceVector(
        g.universe, (Fraction("2.601"), Fraction("8.6045"), cap, cap)
    )
    target = Fraction("2.703")

    exact = vc_best_response(g, 1, p, "target-set-exact")
    assert exact.revenue == target
    assert exact.realized_revenue == target

    cand = vc_best_response(g, 1, p, "candidate-set")
    assert cand.revenue <= target

    grid = vc_best_response(g, 1, p, "grid")
    assert grid.revenue <= target
    assert grid.revenue == target


@criterion(9, "category markets clear efficiently", budget=120.0)
def test_category_market_equilibrium_is_certified_and_efficient():
    for seed in range(50):
        n = 4 + seed % 7  # 4..10 items
        g = random_cdsp_instance(seed + 1000, n, 1 + seed % 4, 2 + seed % 3)
        p = cdsp_equilibrium(g)
        res = vc_verify_ne(g, p, method="target-set-exact")
        assert res.certified, (seed, res.status)
        welfare = g.valuation.value_mask(demand(g.valuation, p).chosen)
        assert welfare == catalogue_value(g), seed


@criterion(10, "demand oracle soundness")
def test_demand_agrees_with_brute_force_and_union_closure_holds():
    def brute_force(valuation, p):
        # independent recomputation of the documented tie rule: take the
        # union of maximizers when it maximizes, else the largest bitmask
        best = None
        optima = []
        for mask in range(1 << p.universe.n):
            util = valuation.value_mask(mask) - sum(
                p.prices[i] for i in range(p.universe.n) if mask >> i & 1
            )
            if best is None or util > best:
                best = util
                optima = [mask]
            elif util == best:
                optima.append(mask)
        union = 0
        for mask in optima:
            union |= mask
        union_opt = union in optima
        chosen = union if union_opt else max(optima)
        return chosen, best, len(optima), union_opt

    pairs = 0
    tied = 0
    for seed in range(100, 150):
        g = seeded_instance(seed, n_span=5)
        rng = random.Random(seed * 7919)
        for _ in range(20):
            p = draw_prices(rng, g, zero_rate=0.10, cap_rate=0.10)
            res = demand(g.valuation, p)
            chosen, best, count, union_opt = brute_force(g.valuation, p)
            assert res.chosen == chosen, (seed, p.format())
            assert res.utility == best
            assert res.optima_count == count
            assert res.union_is_optimal == union_opt
            # union closure over this certified-submodular sample
            assert union_opt, (seed, p.format())
            if count > 1:
                tied += 1
            pairs += 1
    assert pairs == 1000
    assert tied > 0  # the closure clause must actually get exercised
