"""Dynamic chance-constrained knapsack benchmark library."""

from .chance import (
    CHEBYSHEV,
    CHERNOFF,
    ChanceParams,
    TailBound,
    monte_carlo_violation,
    tail_bound,
)
from .campaign import CampaignConfig, run_campaign
from .dynamics import CapacitySchedule, build_schedule
from .metrics import RunRecord, offline_error, total_offline_error
from .model import (
    BOUNDED_STRONGLY_CORRELATED,
    UNCORRELATED,
    Instance,
    InstanceFormatError,
    generate_instance,
    parse_instance,
    serialize_instance,
)
from .oracle import brute_force_chance_optimum, brute_force_optimum, dp_optimal_profits
from .solvers import Nsga2, OnePlusOneEA, Posdc, run_algorithm
from .stats import kruskal_wallis, pairwise_labels

__version__ = "0.1.0"
