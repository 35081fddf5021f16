"""Multi-panel analog beamforming under stochastic path blockage.

Closed-form SE/outage distributions for panel-allocated multi-beam arrays,
exhaustive allocation optimization, and a dual-mode Monte Carlo oracle.
"""

from .analytic import (
    RsnrMixture,
    average_rsnr,
    average_se_upper_bound,
    outage_probability,
    rsnr_cdf,
    rsnr_mixture,
    score_allocations,
    se_cdf,
    se_mean,
)
from .beamforming import (
    PanelAllocation,
    beam_hpbw_deg,
    beam_pattern,
    build_beamformer,
    equivalent_array_response_approx,
    equivalent_array_response_exact,
    los_concentration,
    uniform_allocation,
    validate_allocation,
)
from .channel import (
    ChannelRealization,
    default_min_separation,
    path_variances,
    sample_channel,
)
from .config import SystemConfig, db_to_linear, linear_to_db, load_scenario
from .errors import CapacityError, ConfigurationError, SamplingError
from .montecarlo import (
    TrialBatchResult,
    empirical_outage,
    ks_distance,
    run_trials,
)
from .optimizer import (
    AllocationReport,
    allocation_array,
    g_los,
    maximize_average_se,
    optimize_outmin,
    optimize_outmin_ase,
    pattern_count,
)

__version__ = "0.1.0"
