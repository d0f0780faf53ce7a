"""Scheduling and power allocation for an uplink satellite-terrestrial
relay: instantaneous-CSI sum-rate schedulers with analytic bounds, and
statistical-CSI outage-minimizing group selection with closed-form outage."""

from .channel import (
    CsiRealization,
    RayleighLink,
    SrParams,
    sample_rayleigh_snr,
    sample_sr_snr,
    sr_snr_below,
)
from .cdi_sched import (
    CoordinateContext,
    GroupSchedule,
    Theorem3Solution,
    aoius,
    exhaustive_groups,
    find_zero_h,
    h_function,
    last_lambda_opt,
    solve_theorem3,
)
from .csi_bounds import (
    BoundsResult,
    feasibility_check,
    sum_rate_bounds,
    upper_bound_snrs,
)
from .csi_sched import (
    SchedulerOutcome,
    SchedulerStats,
    baseline_opportunistic,
    baseline_tdma,
    determine_k,
    exhaustive,
    gius,
    lbus,
)
from .errors import (
    ConfigError,
    ConstraintError,
    EnumerationBudgetError,
    InternalConsistencyError,
    NumericError,
    ParameterError,
)
from .harness import ExperimentConfig, ResultRow, emit, run_experiment, trial_rng
from .outage import (
    GroupCdi,
    McStats,
    OutageReport,
    monte_carlo_outage,
    phase1_outage,
    phase2_outage,
    total_outage,
)
from .rate_core import (
    RateReport,
    Schedule,
    awgn_capacity,
    evaluate_schedule,
    max_supported_users,
    sinr_threshold,
    throughput_power_split,
)

__version__ = "0.1.0"
