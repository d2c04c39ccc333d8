"""Exact-arithmetic toolkit for vendor pricing games with a single
submodular buyer.

Vendors own disjoint item sets and compete on price; the buyer purchases the
utility-maximizing bundle.  The package covers the continuous price game, its
discrete marginal-pricing surrogate, equilibrium enumeration and
verification, welfare quality ratios, and the instance families that exhibit
the interesting behavior: a four-item game with no pure equilibrium, a
harmonic family with welfare ratio matching the harmonic number of the
catalogue size, and category-divided markets with an efficient closed-form
equilibrium.  Every number is an exact rational.
"""

from .analysis import (
    BoundCheck,
    EquilibriumReport,
    check_hybrid_profile_bound,
    check_vendor_contribution_bound,
    equilibrium_report,
    harmonic_number,
    welfare,
)
from .instances import (
    cdsp_equilibrium,
    counterexample_instance,
    harmonic_instance,
    pos_instance,
    random_cdsp_instance,
    random_instance,
)
from .items import Universe
from .market import (
    DemandResult,
    PriceVector,
    buyer_utility,
    demand,
    demand_all,
    sentinel_price,
)
from .pmvc import (
    DEFAULT_PROFILE_CAP,
    EnumerationCapExceeded,
    GameInstance,
    Outcome,
    ProfileSequence,
    StrategyProfile,
    all_profiles,
    payoff_table,
    pmvc_best_response,
    pmvc_outcome,
    pmvc_payoffs,
    pmvc_prices,
    pmvc_pure_ne,
)
from .rationals import format_rational, parse_rational
from .valuation import (
    AdditiveGroupsValuation,
    CategoryMaxValuation,
    TableValuation,
    ValidationReport,
    Valuation,
    check_monotone,
    check_submodular,
    expand_to_table,
)
from .vcgame import (
    BestResponse,
    DeviationCertificate,
    DynamicsTrace,
    VerificationResult,
    br_dynamics,
    map_to_pmvc,
    vc_best_response,
    vc_verify_ne,
    vendor_revenue,
)

__version__ = "0.1.0"

__all__ = [
    "AdditiveGroupsValuation",
    "BestResponse",
    "BoundCheck",
    "CategoryMaxValuation",
    "DEFAULT_PROFILE_CAP",
    "DemandResult",
    "DeviationCertificate",
    "DynamicsTrace",
    "EnumerationCapExceeded",
    "EquilibriumReport",
    "GameInstance",
    "Outcome",
    "PriceVector",
    "ProfileSequence",
    "StrategyProfile",
    "TableValuation",
    "ValidationReport",
    "Valuation",
    "VerificationResult",
    "Universe",
    "all_profiles",
    "br_dynamics",
    "buyer_utility",
    "cdsp_equilibrium",
    "check_hybrid_profile_bound",
    "check_monotone",
    "check_submodular",
    "check_vendor_contribution_bound",
    "counterexample_instance",
    "demand",
    "demand_all",
    "equilibrium_report",
    "expand_to_table",
    "format_rational",
    "harmonic_instance",
    "harmonic_number",
    "map_to_pmvc",
    "parse_rational",
    "payoff_table",
    "pmvc_best_response",
    "pmvc_outcome",
    "pmvc_payoffs",
    "pmvc_prices",
    "pmvc_pure_ne",
    "pos_instance",
    "random_cdsp_instance",
    "random_instance",
    "sentinel_price",
    "vc_best_response",
    "vc_verify_ne",
    "vendor_revenue",
    "welfare",
]
