"""The continuous vendor-competition game: arbitrary nonnegative price vectors.

Vendors price their own items; the buyer purchases through the demand oracle.
The interesting computations are vendor best responses, equilibrium
verification, the revenue-preserving projection onto the discrete
marginal-priced game, and best-response dynamics.

Best responses come in three tiers:

* ``candidate-set`` -- cheap heuristic: offer some C subseteq A_i priced at
  marginal contributions relative to C together with what would sell without
  the vendor; revenue is whatever the demand oracle then actually pays.
  Sound for refuting equilibria, never claimed optimal.  Each offer costs one
  demand scan, at most 3^|A_i| * 2^(live rival items) subsets over all
  offers, and a query whose bound passes ``CANDIDATE_MAX_SCAN`` is refused
  before the first scan.
* ``target-set-exact`` -- complete: for a target bought set B the best prices
  solve a linear program (maximize the vendor's share of p(B) subject to the
  buyer weakly preferring B over every other subset), and scanning targets is
  collapsed by a decomposition: the constraint system depends on the target
  only through the vendor's own part B_i and a single scalar, the best
  achievable "outside" utility term, which can be maximized independently.
  Solved with an exact rational simplex, but only for a target whose
  singleton rows x_b <= reach[B_i] - reach[B_i - b] sum to more than the
  best revenue found so far: every feasible x meets those rows, so that sum
  bounds the LP, and a target it rules out could not have won.  The optimum
  is the supremum of achievable revenue; ties in the buyer's choice can keep
  it from being realized exactly, in which case shaving any positive epsilon
  off the positive prices realizes a revenue strictly within epsilon * |B_i|
  of it.
* ``grid`` -- exhaustive search over the finite price grid of all marginal
  values plus 0 and the sentinel; realized revenue, used as a cross-check.

Verification and continuous dynamics share one strict-gain and shave rule,
``_deviation``.  Any tier can refute an equilibrium, but only the exact tier
bounds every deviation and so certifies one; an incomplete tier that finds
no deviation reports ``not-refuted``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import sub

from . import exactlp
from .items import bits_of, halves, submasks_of, subset_sums
from .market import PriceVector, _bundles, demand
from .pmvc import (
    GameInstance,
    StrategyProfile,
    pmvc_best_response,
    pmvc_outcome,
    pmvc_payoffs,
    pmvc_prices,
)
from .rationals import integers

__all__ = [
    "METHODS",
    "BestResponse",
    "DeviationCertificate",
    "VendorCheck",
    "VerificationResult",
    "TraceStep",
    "DynamicsTrace",
    "SoldSetMismatch",
    "vendor_revenue",
    "vc_best_response",
    "vc_verify_ne",
    "map_to_pmvc",
    "br_dynamics",
]

METHODS = ("candidate-set", "target-set-exact", "grid")
EXACT_MAX_ITEMS = 12
DEFAULT_GRID_CAP = 1 << 20
CANDIDATE_MAX_SCAN = 3 ** 13


class SoldSetMismatch(AssertionError):
    """The marginal-priced projection changed the bought set (should be
    impossible for certified instances under the maximal buyer)."""


@dataclass(frozen=True)
class BestResponse:
    """A vendor's best reply against fixed competitor prices.

    ``revenue`` is the method's reported optimum: for ``target-set-exact`` the
    exact supremum, for the other tiers the demand-realized revenue of the
    best candidate found.  ``realized_revenue`` is what the demand oracle pays
    at ``prices`` under the maximal tie rule; it can fall below ``revenue``
    only for the exact tier and only on knife-edge ties.
    """

    vendor: int
    method: str
    prices: dict[int, Fraction]
    revenue: Fraction
    realized_revenue: Fraction
    target_mask: int


@dataclass(frozen=True)
class DeviationCertificate:
    """A concrete profitable deviation; replayable through the demand oracle."""

    vendor: int
    method: str
    prices: dict[int, Fraction]
    old_revenue: Fraction
    new_revenue: Fraction
    undercut: Fraction | None = None


@dataclass(frozen=True)
class VendorCheck:
    vendor: int
    current_revenue: Fraction
    best_revenue: Fraction


@dataclass(frozen=True)
class VerificationResult:
    certified: bool
    method: str
    checks: tuple[VendorCheck, ...]
    certificate: DeviationCertificate | None

    @property
    def status(self) -> str:
        if self.certified:
            return "ne-certified"
        return "not-refuted" if self.certificate is None else "refuted"


@dataclass(frozen=True)
class TraceStep:
    vendor: int
    profile: StrategyProfile | None
    prices: PriceVector | None
    payoffs: tuple[Fraction, ...]


@dataclass(frozen=True)
class DynamicsTrace:
    mode: str
    start: StrategyProfile | PriceVector
    steps: tuple[TraceStep, ...]
    status: str  # converged | cycle | cap
    period: int | None


def _sale(g: GameInstance, p: PriceVector) -> tuple[int, tuple[Fraction, ...]]:
    """What the buyer takes at p, and what each vendor earns from it, all
    over one scale of p, the buyer's scan's too (one lcm pass per sale)."""
    v = g.valuation
    ints, scale = integers(p.prices, v.dense_scaled()[1])
    chosen = demand(v, p, scaled=(ints, scale)).chosen
    return chosen, tuple(
        Fraction(sum(ints[i] for i in bits_of(chosen & owned)), scale)
        for owned in g.vendor_masks
    )


def vendor_revenue(g: GameInstance, p: PriceVector, vendor: int) -> Fraction:
    """What vendor i earns when the buyer purchases at p."""
    g.require_certified()
    g.check_vendor(vendor)
    return _sale(g, p)[1][vendor]


# -- target-set-exact ------------------------------------------------------


def _check_cap(g: GameInstance, scan: str) -> None:
    """Refuse more than EXACT_MAX_ITEMS items; ``scan`` says why."""
    if g.universe.n > EXACT_MAX_ITEMS:
        raise ValueError(f"{scan}; capped at {EXACT_MAX_ITEMS} items")


def _exact_best_response(g: GameInstance, vendor: int, p: PriceVector):
    v = g.valuation
    owned = g.vendor_masks[vendor]
    items = g.vendor_items(vendor)
    ni = len(items)
    _check_cap(g, "target-set-exact enumerates 2^n targets")
    glob = g.offer_tables[vendor]
    # the competitor sets S' that can be in a maximizer, each joined with
    # the held rival items (which keeps the best utility and the largest
    # maximizer, see the market module), in submasks_of order (descending),
    # as global masks and price sums
    table, f, scale, out_masks, out_costs, _ = _bundles(v, p, g.universe.full_mask ^ owned)
    out_masks.reverse()
    out_costs.reverse()

    # reach[T] = max over competitor sets S' of v(T | S') - p(S'): the best
    # utility (before own prices) of a bundle whose own part is T.  The target
    # with own part B_i uses the maximizing S', since a larger reach relaxes
    # every constraint; the constraint row of W subseteq B_i compares it with
    # switching to B_i - W, so its bound is reach[B_i] - reach[B_i - W].
    # Ties go to the first maximizer in submasks_of order, the largest S'.
    reach = [0] * (1 << ni)
    best_out = [0] * (1 << ni)
    for lm in range(1 << ni):
        bg = glob[lm]
        cands = [f * table[bg | sp] - c for sp, c in zip(out_masks, out_costs)]
        best = max(cands)
        reach[lm] = best
        best_out[lm] = out_masks[cands.index(best)]

    # v is monotone, so reach never falls as the target grows: every target is feasible

    # LP bounds, values and vertices stay integers over scale until the end
    best_rev = Fraction(0)
    best_target = 0
    best_x: dict[int, Fraction] = {}  # local bit -> price at the best target
    # selling nothing at all is always available
    order = sorted(range(1, 1 << ni), key=lambda lm: (-reach[lm], lm))
    for lm in order:
        upper = reach[lm] - reach[0]  # the W = B_i constraint row
        if upper <= best_rev:
            break  # sorted descending by this bound; nothing better remains
        var_bits = tuple(bits_of(lm))
        # every feasible x meets the singleton rows x_b <= reach[B_i] -
        # reach[B_i - b], so their sum bounds the LP: at most best_rev, the
        # LP cannot pass the strict test below and need not be solved
        if sum(reach[lm] - reach[lm ^ (1 << b)] for b in var_bits) <= best_rev:
            continue
        rows = []
        rhs = []
        for wl in submasks_of(lm):
            if wl == 0:
                continue
            rows.append([1 if wl & (1 << b) else 0 for b in var_bits])
            rhs.append(reach[lm] - reach[lm ^ wl])
        value, x = exactlp.maximize([1] * len(var_bits), rows, rhs)
        if value > best_rev:
            best_rev = value
            best_target = lm
            best_x = dict(zip(var_bits, x))

    # items off the best target are withheld at the sentinel
    sent = g.sentinel
    prices = {item: best_x[b] / scale if b in best_x else sent for b, item in enumerate(items)}
    return prices, best_rev / scale, glob[best_target] | best_out[best_target]


# -- candidate-set ---------------------------------------------------------


def _candidate_best_response(g: GameInstance, vendor: int, p: PriceVector):
    v = g.valuation
    items = g.vendor_items(vendor)
    # offer C is sold through one demand scan of 2^|C| * 2^live subsets, live
    # the rival items the buyer can take, so the offers scan 3^|A_i| * 2^live;
    # the bundle scan lists fewer, but its last bundle holds every live item
    rivals = g.universe.full_mask ^ g.vendor_masks[vendor]
    live = _bundles(v, p, rivals)[3][-1].bit_count()
    if (3 ** len(items) << live) > CANDIDATE_MAX_SCAN:
        raise ValueError(
            f"candidate-set would scan 3^{len(items)} * 2^{live} subsets "
            f"(cap {CANDIDATE_MAX_SCAN})"
        )
    sent = g.sentinel
    absent = p.replace({item: sent for item in items})
    backdrop = demand(v, absent).chosen  # what sells without this vendor
    best = None
    for offer in g.offer_tables[vendor]:
        # the backdrop holds none of the vendor's items, so its withheld items
        # keep the sentinel and never sell: the revenue is what the offer earns
        marginal = pmvc_prices(g, g.profile_of(offer | backdrop)).prices
        updates = {item: marginal[item] for item in items}
        revenue = _sale(g, p.replace(updates))[1][vendor]
        if best is None or revenue > best[1]:
            best = (updates, revenue, offer)
    return best


# -- grid ------------------------------------------------------------------


def _grid_best_response(g: GameInstance, vendor: int, p: PriceVector):
    n = g.universe.n
    owned = g.vendor_masks[vendor]
    items = g.vendor_items(vendor)
    ni = len(items)
    _check_cap(g, "grid search builds the full marginal grid")
    table, lv = g.valuation.dense_scaled()
    price_int, scale = integers(p.prices, lv)
    table = [x * (scale // lv) for x in table]
    # subset sums of the competitors' prices, own items counting 0
    pmsum = subset_sums([0 if owned >> i & 1 else q for i, q in enumerate(price_int)])
    grid_ints = {0, table[g.universe.full_mask] + scale}  # 0 and v(A*) + 1
    for item in range(n):
        for lo, hi in halves(n, item):
            grid_ints.update(map(sub, table[hi], table[lo]))
    grid = sorted(grid_ints)
    if len(grid) ** ni > DEFAULT_GRID_CAP:
        raise ValueError(
            f"grid search would try {len(grid)}^{ni} combinations (cap {DEFAULT_GRID_CAP})"
        )
    others = g.universe.full_mask & ~owned

    # Prices of competitor items never change across combos, so the choice
    # over the competitor part of the bundle collapses: per own-part o,
    # precompute the best achievable base utility, the union of best rests
    # (for the union tie rule), and the largest best rest (for the fallback).
    base_best = [0] * (1 << n)
    rest_union = [0] * (1 << n)
    rest_max = [0] * (1 << n)
    own_parts = g.offer_tables[vendor]  # ascending, so subset sums fill in order
    pos_of = {1 << item: j for j, item in enumerate(items)}
    for o in own_parts:
        best = None
        union = 0
        top = 0
        for r in submasks_of(others):
            b = table[o | r] - pmsum[o | r]
            if best is None or b > best:  # submasks_of descends: r is the largest
                best, union, top = b, r, r
            elif b == best:
                union |= r
        base_best[o] = best
        rest_union[o] = union
        rest_max[o] = top

    best_rev_int = -1
    best_combo: tuple[int, ...] | None = None
    best_target = 0
    ownsum = [0] * (1 << n)
    for combo in itertools.product(grid, repeat=ni):
        for o in own_parts:
            if o:
                low = o & -o
                ownsum[o] = ownsum[o ^ low] + combo[pos_of[low]]
        best = None
        for o in own_parts:
            score = base_best[o] - ownsum[o]
            if best is None or score > best:
                best = score
        union = 0
        top = -1
        for o in own_parts:
            if base_best[o] - ownsum[o] == best:
                union |= o | rest_union[o]
                cand = o | rest_max[o]
                if cand > top:
                    top = cand
        u_union = table[union] - pmsum[union] - ownsum[union & owned]
        chosen = union if u_union == best else top
        rev = ownsum[chosen & owned]
        if rev > best_rev_int:
            best_rev_int = rev
            best_combo = combo
            best_target = chosen & owned
    # some combo is all zeros, so best_rev_int >= 0 and best_combo is set
    prices = {item: Fraction(q, scale) for item, q in zip(items, best_combo)}
    return prices, Fraction(best_rev_int, scale), best_target


# each tier returns (prices of the vendor's items, revenue, target mask)
_TIERS = dict(zip(METHODS, (_candidate_best_response, _exact_best_response, _grid_best_response)))


def _tier(method: str):
    tier = _TIERS.get(method)
    if tier is None:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return tier


def vc_best_response(
    g: GameInstance,
    vendor: int,
    p: PriceVector,
    method: str = "target-set-exact",
) -> BestResponse:
    """Best reply of one vendor against the competitor prices read from p.

    Entries of p at the vendor's own items are ignored.  See the module
    docstring for the three tiers; only ``target-set-exact`` is complete.
    Every tier's prices are replayed through the demand oracle once, for
    ``realized_revenue``.
    """
    g.require_certified()
    g.check_vendor(vendor)
    p.check_universe(g.universe)
    prices, revenue, target = _tier(method)(g, vendor, p)
    realized = _sale(g, p.replace(prices))[1][vendor]
    return BestResponse(vendor, method, prices, revenue, realized, target)


def _deviation(g: GameInstance, tier, vendor: int, p: PriceVector, current: Fraction):
    """Run ``tier`` for one vendor at p against ``current``, its revenue there.

    Returns the tier's revenue and, if the reply strictly beats ``current`` as
    the buyer breaks ties, ``(prices, paid, eps)``, else None.  Only a reply
    whose revenue beats ``current`` is replayed; if the tie rule denies the
    gain, its positive target prices are shaved by eps (None otherwise), so
    the buyer takes them all and pays within eps * |positives| of the tier's
    revenue, still above ``current``.  ``paid`` is every vendor's revenue.
    """
    prices, revenue, target = tier(g, vendor, p)
    if revenue <= current:
        return revenue, None
    _, paid = _sale(g, p.replace(prices))
    eps = None
    if paid[vendor] <= current:
        positives = [item for item, q in prices.items() if q > 0 and (1 << item) & target]
        eps = min(min(prices[i] for i in positives), (revenue - current) / len(positives)) / 2
        prices = {item: q - eps if item in positives else q for item, q in prices.items()}
        _, paid = _sale(g, p.replace(prices))
    return revenue, (prices, paid, eps)


def vc_verify_ne(
    g: GameInstance, p: PriceVector, method: str = "target-set-exact"
) -> VerificationResult:
    """Check every vendor for a profitable deviation.

    A refutation is sound under any method (the certificate is replayable
    through the demand oracle).  Only ``target-set-exact``, whose optimum
    bounds every deviation's revenue, certifies; under the other methods a
    price vector without a deviation found is ``not-refuted``.
    """
    g.require_certified()
    p.check_universe(g.universe)
    tier = _tier(method)
    _, paid = _sale(g, p)
    checks = []
    certificate = None
    for vendor, current in enumerate(paid):
        if certificate is not None:  # only the tier's revenue is reported now
            checks.append(VendorCheck(vendor, current, tier(g, vendor, p)[1]))
            continue
        revenue, won = _deviation(g, tier, vendor, p, current)
        checks.append(VendorCheck(vendor, current, revenue))
        if won is not None:
            prices, after, eps = won
            certificate = DeviationCertificate(vendor, method, prices, current, after[vendor], eps)
    return VerificationResult(
        certified=certificate is None and method == "target-set-exact",
        method=method,
        checks=tuple(checks),
        certificate=certificate,
    )


def map_to_pmvc(
    g: GameInstance, p: PriceVector
) -> tuple[StrategyProfile, tuple[Fraction, ...]]:
    """Project a price vector onto the discrete game: each vendor offers
    exactly what it was selling.  The bought set is preserved and no vendor
    loses revenue (each sold item's price is at most its marginal value, which
    is what the mechanism then charges).  Returns the profile and the
    per-vendor revenue gains.
    """
    g.require_certified()
    sold, paid = _sale(g, p)
    profile = g.profile_of(sold)
    out = pmvc_outcome(g, profile)
    if out.sold != sold:
        raise SoldSetMismatch(
            f"bought set changed: {g.universe.format_set(sold)} -> "
            f"{g.universe.format_set(out.sold)}"
        )
    deltas = tuple(new - old for new, old in zip(out.vendor_payoffs, paid))
    if any(delta < 0 for delta in deltas):
        raise SoldSetMismatch("projection decreased a vendor's revenue")
    return profile, deltas


# -- best-response dynamics ------------------------------------------------


def br_dynamics(
    g: GameInstance,
    start: StrategyProfile | PriceVector,
    mode: str = "discrete",
    max_steps: int = 1000,
) -> DynamicsTrace:
    """Round-robin strict best-response dynamics.

    Discrete mode walks the offer-set game (deviations only on strict payoff
    gains, ties broken toward the smallest offer mask); continuous mode
    re-prices via the exact best response.  States are hashed exactly, so a
    revisited (state, turn) pair is a provable cycle and ``period`` counts the
    moves in it.
    """
    g.require_certified()
    if max_steps < 0:
        raise ValueError(f"max_steps must be nonnegative, got {max_steps}")
    if isinstance(start, PriceVector):
        start.check_universe(g.universe)
    if mode == "discrete":
        if isinstance(start, PriceVector):
            start, _ = map_to_pmvc(g, start)
        g.check_profile(start)
        move = _discrete_move
        payoffs = None
    elif mode == "continuous":
        if isinstance(start, StrategyProfile):
            start = pmvc_prices(g, start)
        move = _continuous_move
        _, payoffs = _sale(g, start)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    k = g.n_vendors
    state = start
    steps: list[TraceStep] = []
    seen: dict[tuple, int] = {}
    pos = 0
    quiet = 0
    status = "cap"
    period = None
    while len(steps) < max_steps:
        known = len(seen)
        at = seen.setdefault((state, pos), len(steps))  # one hash of the state
        if len(seen) == known:
            status = "cycle"
            period = len(steps) - at
            break
        moved = move(g, state, pos, payoffs)
        if moved is not None:
            state, payoffs = moved
            quiet = 0
            if mode == "discrete":
                steps.append(TraceStep(pos, state, None, payoffs))
            else:
                steps.append(TraceStep(pos, None, state, payoffs))
        else:
            quiet += 1
            if quiet >= k:
                status = "converged"
                break
        pos = (pos + 1) % k
    return DynamicsTrace(mode, start, tuple(steps), status, period)


def _discrete_move(g: GameInstance, state: StrategyProfile, vendor: int, payoffs):
    """The smallest best offer, with everyone's payoffs, unless the current
    offer is already a best one (which needs no payoffs of the state)."""
    replies = pmvc_best_response(g, vendor, state)
    if state.offers[vendor] in replies:
        return None
    offers = state.offers
    trial = StrategyProfile(offers[:vendor] + (replies[0],) + offers[vendor + 1:])
    return trial, pmvc_payoffs(g, trial)


def _continuous_move(g: GameInstance, state: PriceVector, vendor: int, payoffs):
    """The exact best re-pricing, with everyone's revenue, if it strictly
    gains over the vendor's part of ``payoffs``, the revenues at ``state``."""
    _, won = _deviation(g, _exact_best_response, vendor, state, payoffs[vendor])
    if won is None:
        return None
    prices, paid, _ = won
    return state.replace(prices), paid
