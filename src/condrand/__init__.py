"""Randomization inference under restricted randomization.

Exact and Monte Carlo tools for conditional randomization tests following
Efron's biased coin design or complete randomization: exact count
distributions, direct sampling from conditional reference sets,
sequentially monitored tests with alpha-spending boundaries, and
randomization-based information fractions.
"""

from .bruteforce import (
    exact_conditional_pvalue,
    exact_statistic_distribution,
)
from .covariance import (
    InformationFraction,
    covariance_multilook,
    information_at_look,
    interpolate_scores,
)
from .design import (
    DesignSpec,
    TreatmentSequence,
)
from .distributions import (
    conditional_pmf,
    pmf_table,
    unconditional_pmf,
)
from .errors import (
    CondrandError,
    DegenerateScoresError,
    InfeasibleError,
    InsufficientAcceptancesError,
    NumericalError,
    UnderSampleError,
)
from .montecarlo import (
    PValueEstimate,
    estimate_pvalue_conditional,
    estimate_pvalue_rejection,
    estimate_pvalue_stratified,
    k_percentile,
    mc_sample_size,
    negative_binomial_quantile,
)
from .monitoring import (
    BoundaryResult,
    MonitoringDecision,
    SpendingFunction,
    estimate_boundaries,
    incremental_alpha,
    nonparametric_quantile,
    sequential_decision,
    spend,
)
from .sampling import (
    Look,
    LookSchedule,
    MultilookSampler,
    sample_multilook,
    simulate_unconditional,
)
from .scores import (
    ScoreVector,
    StratifiedData,
    Stratum,
    centered_scores,
    interim_statistic,
    linear_rank_statistic,
    stratified_statistic,
)
from .streams import substream

__version__ = "0.1.0"
