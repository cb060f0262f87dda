"""Pulse-level single-qubit gate simulator with benchmarking, calibration,
drift spectroscopy, filter-function decoherence prediction, and an
analytic error budget."""

from .budget import (
    BudgetInput,
    BudgetRow,
    BudgetTable,
    budget_curve,
    budget_table,
    estimate_idle_rates,
)
from .calibration import (
    CalLoopConfig,
    SimulatedQubitTestbed,
    amplitude_cal_loop,
    frequency_cal_loop,
    walsh_coefficient,
    walsh_fit,
    walsh_function,
)
from .cliffords import (
    CliffordGroup,
    PulseSpec,
    build_clifford_table,
    recovery_gate,
)
from .filterfunc import (
    ControlTimeline,
    PhasePSD,
    SSBCurve,
    chi_echo,
    chi_ramsey,
    filter_function,
    predict_irmb,
    predict_t2,
)
from .fitting import DecayFit, bootstrap_ci, mle_fit, survival_model
from .noise import (
    AmplitudeNoiseModel,
    IdleRates,
    MotionalMode,
    NoiseConfig,
    QuantizerConfig,
    rng_stream,
)
from .pulsesim import (
    DriveParams,
    ZeemanModel,
    avg_pulse_error,
    counter_rotating_error,
    simulate_spectator,
)
from .rb import (
    RBDataset,
    RBPlan,
    RBTiming,
    irmb_slope,
    run_rb,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
