"""Two-factor stochastic volatility toolkit: estimation by limited-information
expected maximum likelihood, simulated transition densities with bridge
importance sampling, and forecast evaluation against random-walk and
linear-drift benchmarks."""

from .data_io import ObservedSeries, SampleSplit, load_csv, load_results, save_results, split
from .forecasting import (
    CWResult,
    EvalConfig,
    ForecastReport,
    HorizonGrid,
    Metrics,
    clark_west,
    forecast_targets,
    metrics,
    realized_variance,
    risk_premium_series,
    rolling_evaluation,
)
from .likelihood import (
    FitResult,
    LikelihoodConfig,
    fit,
    sandwich_errors,
    total_loglik,
)
from .model import (
    dampening,
    drift_p,
    excess_drift_f,
    gamma_transform,
    iv_to_v,
    market_price_of_risk,
    swap_coefficients,
    v_to_iv,
)
from .params import Family, Measure, ModelSpec, ParamVector, State
from .rng import RngStream
from .simulate import PathEnsemble, euler_step, simulate_paths

__version__ = "0.1.0"
