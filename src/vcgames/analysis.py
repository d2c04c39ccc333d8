"""Welfare accounting: equilibrium quality ratios and bound checkers.

Social welfare of an outcome is the buyer's valuation of the purchased set.
The price of anarchy (optimal welfare over the worst equilibrium's welfare)
and price of stability (over the best equilibrium's) are computed across the
pure equilibria of the marginal-pricing game; both are exact rationals, or
``None`` when no pure equilibrium exists.

The two bound checkers evaluate inequalities that hold for every certified
monotone-submodular instance; a reported violation means a bug, which is
exactly what the test suite uses them for.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .market import PriceVector, demand
from .pmvc import (
    DEFAULT_PROFILE_CAP,
    GameInstance,
    ProfileSequence,
    StrategyProfile,
    pmvc_best_response,
    pmvc_pure_ne,
)
from .rationals import format_rational
from .valuation import _harmonic_curve

__all__ = [
    "BoundCheck",
    "EquilibriumReport",
    "harmonic_number",
    "welfare",
    "equilibrium_report",
    "check_vendor_contribution_bound",
    "check_hybrid_profile_bound",
]


def harmonic_number(m: int) -> Fraction:
    """Sum of 1/t for t = 1..m, exactly."""
    if m < 1:
        raise ValueError(f"harmonic number needs m >= 1, got {m}")
    return _harmonic_curve(m)[m]


def welfare(g: GameInstance, p: PriceVector) -> Fraction:
    """Valuation of the set the buyer purchases at prices p."""
    return g.valuation.value_mask(demand(g.valuation, p).chosen)


@dataclass(frozen=True)
class BoundCheck:
    """One evaluated inequality: lhs RELATION rhs, with the slack by which it
    holds (negative slack = violated)."""

    label: str
    relation: str  # "<=" or ">="
    lhs: Fraction
    rhs: Fraction

    @property
    def slack(self) -> Fraction:
        return self.rhs - self.lhs if self.relation == "<=" else self.lhs - self.rhs

    @property
    def holds(self) -> bool:
        return self.slack >= 0


@dataclass(frozen=True)
class EquilibriumReport:
    """Pure equilibria of the marginal-pricing game with their welfares, the
    optimal welfare, and the anarchy/stability ratios.

    ``profiles`` is the lazy sequence ``pmvc_pure_ne`` returns, held in
    blocks; ``equilibria`` pairs each profile with its welfare, summed over
    the valuation's part tables a block at a time
    (``ProfileSequence.value_blocks``), built on first access and kept.
    ``welfare_ratio_bound`` is 1 plus the harmonic number of the largest
    vendor's catalogue size; ``bound_satisfied`` records whether every
    equilibrium's welfare ratio stays within it.
    """

    profiles: ProfileSequence
    optimal_welfare: Fraction
    poa: Fraction | None
    pos: Fraction | None
    welfare_ratio_bound: Fraction
    bound_satisfied: bool

    @cached_property
    def equilibria(self) -> tuple[tuple[StrategyProfile, Fraction], ...]:
        values = self.profiles.game.valuation.part_tables()
        welfares = [
            base + w
            for _, _, base, rest in self.profiles.value_blocks()
            for w in rest
        ]
        value = {w: Fraction(w, values.scale) for w in set(welfares)}
        return tuple(zip(self.profiles, map(value.__getitem__, welfares)))

    @property
    def has_equilibrium(self) -> bool:
        return bool(self.profiles)


def equilibrium_report(
    g: GameInstance, cap: int = DEFAULT_PROFILE_CAP
) -> EquilibriumReport:
    """Enumerate pure equilibria and summarize their welfare quality.

    With a monotone valuation the optimal welfare is the value of the whole
    item set.  When the optimum is zero, monotonicity plus submodularity force
    every set's value to zero, so both ratios degenerate to 1.  Welfare is
    aggregated in integers over the scale of the valuation's part tables
    (``Valuation.part_tables``, cached; the NE pass of a certified game
    built them): an equilibrium takes one stable union from each part of
    ``profiles.parts``, and v adds over the parts, so the worst welfare is
    the sum of the parts' least values and the best the sum of their
    greatest.
    """
    nes = pmvc_pure_ne(g, cap=cap)
    values = g.valuation.part_tables()
    value, scale = values.value, values.scale
    opt = Fraction(value(g.universe.full_mask), scale)
    bound = harmonic_number(g.max_vendor_size) + 1
    if not nes:
        return EquilibriumReport(nes, opt, None, None, bound, True)
    worst = sum(min(map(value, part)) for part in nes.parts)
    if opt == 0:
        poa = pos = Fraction(1)
    elif worst <= 0:
        # only an uncertified valuation gets here: no ratio to report
        raise ValueError(
            f"an equilibrium has welfare {format_rational(Fraction(worst, scale))} "
            f"against optimal welfare {format_rational(opt)}: no welfare ratio"
        )
    else:
        poa = opt / Fraction(worst, scale)
        best = sum(max(map(value, part)) for part in nes.parts)
        pos = opt / Fraction(best, scale)
    return EquilibriumReport(
        profiles=nes,
        optimal_welfare=opt,
        poa=poa,
        pos=pos,
        welfare_ratio_bound=bound,
        bound_satisfied=poa <= bound,
    )


def _hybrid_value(g: GameInstance, s: StrategyProfile, vendor: int, offer: int) -> Fraction:
    """v(union with one vendor's offer replaced)."""
    return g.valuation.value_mask(s.union_mask & ~g.vendor_masks[vendor] | offer)


def check_vendor_contribution_bound(
    g: GameInstance, s: StrategyProfile
) -> tuple[BoundCheck, ...]:
    """At a pure equilibrium, bound each vendor's full-catalogue welfare.

    For every vendor: the welfare were it to put its whole catalogue on offer
    is at most the welfare with it absent, plus its current welfare
    contribution scaled by the harmonic number of its catalogue size.  The
    profile must actually be an equilibrium; anything else is rejected.
    """
    g.check_profile(s)
    for vendor in range(g.n_vendors):
        if s.offers[vendor] not in pmvc_best_response(g, vendor, s):
            raise ValueError(
                f"profile {s.format(g.universe)} is not an equilibrium; "
                f"vendor {vendor} can improve"
            )
    checks = []
    for vendor in range(g.n_vendors):
        n_i = g.vendor_masks[vendor].bit_count()
        lhs = _hybrid_value(g, s, vendor, g.vendor_masks[vendor])
        without = _hybrid_value(g, s, vendor, 0)
        current = _hybrid_value(g, s, vendor, s.offers[vendor])
        # an itemless vendor contributes nothing; its scaling term vanishes
        factor = harmonic_number(n_i) if n_i else Fraction(0)
        rhs = without + factor * (current - without)
        checks.append(
            BoundCheck(label=f"vendor {vendor} contribution", relation="<=", lhs=lhs, rhs=rhs)
        )
    return tuple(checks)


def check_hybrid_profile_bound(g: GameInstance, s: StrategyProfile) -> BoundCheck:
    """Sum of single-vendor-full-catalogue welfares against the mix of the
    full welfare and (k-1) copies of the current welfare.

    A submodularity consequence only; holds for every profile, equilibrium or
    not.
    """
    g.check_profile(s)
    k = g.n_vendors
    lhs = sum(
        (_hybrid_value(g, s, vendor, g.vendor_masks[vendor]) for vendor in range(k)),
        Fraction(0),
    )
    rhs = g.valuation.value_mask(g.universe.full_mask) + (k - 1) * g.valuation.value_mask(
        s.union_mask
    )
    return BoundCheck(label="hybrid profile sum", relation=">=", lhs=lhs, rhs=rhs)
