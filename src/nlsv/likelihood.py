"""Observed-data log-likelihood with simulated transition densities, the
nested estimation driver and sandwich standard errors.

The observation vector is (log price X_i, implied variance IV_i) at daily
spacing.  With the swap relation IV = A + B*V and the log-variance
transform Y = log(V)/sigma, the log-likelihood in (X, Y) coordinates is

    l(theta) = sum_i [ log p(X_i, Y_i | X_{i-1}, Y_{i-1}) - sigma * Y_i ]
               - N * ( log B + log sigma ),

where the last term collects the constant Jacobian factors of both
changes of variable per observation.  The transition density p has no
closed form; it is estimated by importance sampling: average over S
modified-bridge paths of the product of Euler step densities divided by
the product of proposal densities.

The estimation driver searches only over (sigma, rho, b0_q, b1_q): at
every trial point the drift coefficients under the physical measure have
closed-form optima computed by the bridge-expectation linear systems, so
the outer problem is four-dimensional for both families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

from . import eml
from .model import (
    SWAP_TENOR_YEARS,
    _check_variance,
    gamma_transform,
    iv_to_v,
    swap_coefficients,
    variance_drift_over_v,
)
from .params import DomainViolation, Family, ModelSpec, ParamVector
from .rng import RngStream

#: Top-level stream ids reserved by the estimation pipeline.
STREAM_EML = 1
STREAM_SML = 2
STREAM_INIT = 3

_PENALTY = 1e12


class DensityUnderflow(RuntimeError):
    """All importance weights underflowed for at least one interval."""

    def __init__(self, n_failed: int):
        self.n_failed = n_failed
        super().__init__(f"importance weights underflowed on {n_failed} interval(s)")


@dataclass(frozen=True)
class LikelihoodConfig:
    """Budgets and tolerances of the simulated-likelihood machinery.

    ``aug_steps`` is the number of Euler sub-steps per observation
    interval (config key ``M``) and ``mc_draws`` the importance-sample
    size (config key ``S``); the default pairing keeps S = M^2 = 576.
    ``chunk_size`` overrides the number of intervals the likelihood
    evaluates at once; by default ``eml.chunk_intervals(mc_draws,
    aug_steps)``, so memory is bounded by ``eml.CHUNK_POINTS`` lattice
    points.
    """

    aug_steps: int = 24
    mc_draws: int = 576
    n_bridges: int | None = None  # bridge expectation draws; defaults to mc_draws
    seed: int = 0
    delta_obs: float = 1.0 / 262.0
    swap_tenor: float = SWAP_TENOR_YEARS
    rate: float = 0.05
    dampening_c: float = 1e-6
    max_iter: int = 400
    restarts: int = 3
    xatol: float = 1e-5
    fatol: float = 1e-7
    min_obs: int = 200
    chunk_size: int | None = None

    def __post_init__(self):
        for name in ("aug_steps", "mc_draws", "max_iter"):
            if getattr(self, name) < 1:
                raise DomainViolation(f"{name} must be >= 1")
        for name in ("n_bridges", "chunk_size"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise DomainViolation(f"{name} must be >= 1")
        if self.delta_obs <= 0 or self.swap_tenor <= 0:
            raise DomainViolation("delta_obs and swap_tenor must be > 0")

    @property
    def bridge_draws(self) -> int:
        return self.mc_draws if self.n_bridges is None else self.n_bridges


@dataclass
class SmlDiagnostics:
    """Per-evaluation health report of the importance-sampling average."""

    logdensity: np.ndarray
    rel_se: np.ndarray  # standard error of the density estimate / estimate


@dataclass
class FitResult:
    params: ParamVector
    spec: ModelSpec
    loglik: float
    param_names: tuple[str, ...]
    covariance: np.ndarray
    std_errors: dict[str, float]
    converged: bool
    n_iterations: int
    n_evaluations: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "kind": "fit_result",
            "family": self.spec.family.value,
            "params": {k: getattr(self.params, k) for k in _full_param_names(self.spec) + ("r", "c")},
            "loglik": self.loglik,
            "param_names": list(self.param_names),
            "covariance": [[float(v) for v in row] for row in self.covariance],
            "std_errors": {k: float(v) for k, v in self.std_errors.items()},
            "converged": self.converged,
            "n_iterations": self.n_iterations,
            "n_evaluations": self.n_evaluations,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FitResult":
        spec = ModelSpec(Family(payload["family"]))
        params = ParamVector(**payload["params"])
        return cls(
            params=params,
            spec=spec,
            loglik=float(payload["loglik"]),
            param_names=tuple(payload["param_names"]),
            covariance=np.asarray(payload["covariance"], dtype=float),
            std_errors={k: float(v) for k, v in payload["std_errors"].items()},
            converged=bool(payload["converged"]),
            n_iterations=int(payload["n_iterations"]),
            n_evaluations=int(payload["n_evaluations"]),
            seed=int(payload["seed"]),
        )


def _full_param_names(spec: ModelSpec) -> tuple[str, ...]:
    if spec.family is Family.LN:
        return ("sigma", "rho", "b0_q", "b1_q", "a0", "a1", "b1")
    if spec.family is Family.NL:
        return ("sigma", "rho", "b0_q", "b1_q", "a0", "a1", "b0", "b1", "b2", "b3")
    raise DomainViolation("RW has no estimated parameters")


def _gauss2_logpdf(rx, ry, v, sq, rho: float, scale) -> np.ndarray:
    """Log-density of a centered bivariate normal with covariance
    scale * [[v, rho*sqrt(v)], [rho*sqrt(v), 1]]."""
    one_m_r2 = 1.0 - rho**2
    det = scale**2 * v * one_m_r2
    quad = (rx * rx - 2.0 * rho * sq * rx * ry + v * ry * ry) / (scale * v * one_m_r2)
    return -math.log(2.0 * math.pi) - 0.5 * np.log(det) - 0.5 * quad


def _euler_quad(dx, dy, s, params: ParamVector, spec: ModelSpec, delta: float):
    """Quadratic form r' (delta Sigma Sigma')^{-1} r of an Euler increment
    (dx, dy) departing from a state with s = exp(sigma*y/2), so V = s^2.

    No domain checks: overflow in the state transform propagates as
    non-finite values, which the simulated likelihood reads as a zero
    importance weight.
    """
    sigma, rho = params.sigma, params.rho
    v = s * s
    rx = dx - (params.a0 + params.a1 * v) * delta
    ry = dy - (variance_drift_over_v(v, params, spec) / sigma - 0.5 * sigma) * delta
    return (rx * rx - 2.0 * rho * s * rx * ry + v * ry * ry) / v / (
        delta * (1.0 - rho**2)
    )


def _euler_log_norm(params: ParamVector, delta: float) -> float:
    """Constant term of the Euler step log-density; the departing state
    adds -sigma*y/2 to it."""
    return -math.log(2.0 * math.pi * delta) - 0.5 * math.log(1.0 - params.rho**2)


def euler_density(u_next, u_curr, params: ParamVector, spec: ModelSpec, delta: float) -> np.ndarray:
    """Log-density of one Euler step in (x, y) coordinates.

    The increment has mean (price drift, y drift) * delta and covariance
    delta * Sigma Sigma' evaluated at the departing state; broadcasting
    over leading dimensions is supported.
    """
    if not delta > 0.0:
        raise DomainViolation("delta must be > 0")
    if spec.family is Family.RW:
        raise DomainViolation("RW has no drift model")
    u_next = np.asarray(u_next, dtype=float)
    u_curr = np.asarray(u_curr, dtype=float)
    y0 = u_curr[..., 1]
    s = np.exp(0.5 * params.sigma * y0)
    _check_variance(s * s)
    dx, dy = u_next[..., 0] - u_curr[..., 0], u_next[..., 1] - y0
    quad = _euler_quad(dx, dy, s, params, spec, delta)
    return _euler_log_norm(params, delta) - 0.5 * params.sigma * y0 - 0.5 * quad


def proposal_density_q(
    u_next, u_curr, u_end, params: ParamVector, m: int, aug_steps: int, delta: float
) -> np.ndarray:
    """Log-density of the modified-bridge proposal for lattice step m.

    The proposal pulls toward the interval endpoint: mean
    u_curr + (u_end - u_curr)/(M - m), covariance
    (M-m-1)/(M-m) * Sigma Sigma' * delta.  The final lattice point
    (m = M-1) is deterministic and has no density.
    """
    if not 0 <= m < aug_steps - 1:
        raise DomainViolation(f"m must be in [0, {aug_steps - 1}), got {m}")
    u_next = np.asarray(u_next, dtype=float)
    u_curr = np.asarray(u_curr, dtype=float)
    u_end = np.asarray(u_end, dtype=float)
    remain = aug_steps - m
    fac = (remain - 1) / remain
    y0 = u_curr[..., 1]
    v = np.exp(params.sigma * y0)
    sq = np.exp(0.5 * params.sigma * y0)
    mean = u_curr + (u_end - u_curr) / remain
    rx = u_next[..., 0] - mean[..., 0]
    ry = u_next[..., 1] - mean[..., 1]
    return _gauss2_logpdf(rx, ry, v, sq, params.rho, fac * delta)


def _sml_batch(
    u_from: np.ndarray,
    u_to: np.ndarray,
    params: ParamVector,
    spec: ModelSpec,
    config: LikelihoodConfig,
    eps: np.ndarray | None,
) -> np.ndarray:
    """Log importance weights of the simulated transition density, (..., S).

    ``u_from`` and ``u_to`` have shape (..., 2); ``eps`` must be
    N(0, delta) draws e_m of shape (..., S, M-1, 2) when M > 1.  With
    M = 1 the single weight is the Euler density.

    Each draw follows the modified bridge from ``u_from`` to ``u_to``, so
    the residual of lattice step m about the proposal mean is exactly
    sqrt(fac_m) * Sigma_m e_m, fac_m = (M-m-1)/(M-m).  The proposal's
    quadratic form is therefore e_m'e_m / delta, and its log-determinant
    cancels the Euler one up to log(fac_m), whose sum over m is -log(M).
    The log weight of a draw is then

        -log M + sum_m e_m'e_m / (2 delta) - sum_{m<M} Q_m / 2
        - sigma * Y_{M-1} / 2 + log of the Euler normalizing constant,

    with Q_m the Euler quadratic form of step m and the last step, from
    Y_{M-1} to the endpoint, carrying the only log-determinant left.  A
    step costs one exp, s = exp(sigma*Y_m/2), and no log.
    """
    m_total = config.aug_steps
    delta = config.delta_obs / m_total
    if m_total == 1:
        return euler_density(u_to, u_from, params, spec, delta)[..., None]

    sigma, rho = params.sigma, params.rho
    root = math.sqrt(1.0 - rho**2)
    x, y = u_from[..., 0, None], u_from[..., 1, None]
    x_end, y_end = u_to[..., 0, None], u_to[..., 1, None]
    quad = 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for m in range(m_total - 1):
            remain = m_total - m
            root_fac = math.sqrt((remain - 1) / remain)
            e_x, e_y = eps[..., m, 0], eps[..., m, 1]
            s = np.exp(0.5 * sigma * y)
            dx = (x_end - x) / remain + root_fac * s * (root * e_x + rho * e_y)
            dy = (y_end - y) / remain + root_fac * e_y
            quad = quad + _euler_quad(dx, dy, s, params, spec, delta)
            x, y = x + dx, y + dy
        s = np.exp(0.5 * sigma * y)
        quad = quad + _euler_quad(x_end - x, y_end - y, s, params, spec, delta)
        ee = np.einsum("...mk,...mk->...", eps, eps)
        logw = (
            0.5 * (ee / delta - quad) - 0.5 * sigma * y
            + (_euler_log_norm(params, delta) - math.log(m_total))
        )
    # A draw that escaped the representable state region carries zero weight.
    return np.where(np.isfinite(logw), logw, -np.inf)


def _log_mean_weight(logw: np.ndarray) -> np.ndarray:
    """log of the average importance weight over the last axis.

    Takes the steps of ``scipy.special.logsumexp`` for real input, so the
    value is bitwise its value less log S, without its per-call overhead:
    the row maximum, counted with its ties, is taken out of the sum, and
    rows where that is not finite (every weight zero) fall back to
    log(sum(exp(logw))).
    """
    top = np.max(logw, axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        w = logw - top
        at_top = w == 0.0
        np.exp(w, out=w)
        np.copyto(w, 0.0, where=at_top)
        count = np.count_nonzero(at_top, axis=-1, keepdims=True).astype(float)
        out = (np.log1p(w.sum(axis=-1, keepdims=True) / count) + np.log(count) + top)[..., 0]
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.exp(logw[bad]).sum(axis=-1))
    return out - math.log(logw.shape[-1])


def _rel_se(logw: np.ndarray) -> np.ndarray:
    """Relative standard error of the density-scale average, computed on
    max-shifted weights for stability."""
    s_draws = logw.shape[-1]
    shift = np.max(logw, axis=-1, keepdims=True)
    shifted = np.exp(logw - np.where(np.isfinite(shift), shift, 0.0))
    mean_w = shifted.mean(axis=-1)
    std_w = shifted.std(axis=-1, ddof=1) if s_draws > 1 else np.zeros(mean_w.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(mean_w > 0.0, std_w / (mean_w * math.sqrt(s_draws)), np.inf)


def sml_transition_logdensity(
    u_from,
    u_to,
    params: ParamVector,
    spec: ModelSpec,
    config: LikelihoodConfig,
    rng: RngStream,
    eps: np.ndarray | None = None,
    return_diagnostics: bool = False,
):
    """Simulated log transition density over one observation interval.

    Deterministic given ``rng``.  With aug_steps == 1 this reduces exactly
    to the Euler density.  Raises :class:`DensityUnderflow` when every
    importance weight underflows for some endpoint pair.
    """
    u_from = np.asarray(u_from, dtype=float)
    u_to = np.asarray(u_to, dtype=float)
    if eps is None and config.aug_steps > 1:
        shape = (
            np.broadcast_shapes(u_from.shape, u_to.shape)[:-1]
            + (config.mc_draws, config.aug_steps - 1, 2)
        )
        eps = rng.generator().standard_normal(shape) * math.sqrt(
            config.delta_obs / config.aug_steps
        )
    logw = _sml_batch(u_from, u_to, params, spec, config, eps)
    logdensity = _log_mean_weight(logw)
    n_failed = int(np.count_nonzero(~np.isfinite(logdensity)))
    if n_failed:
        raise DensityUnderflow(n_failed)
    if return_diagnostics:
        return SmlDiagnostics(logdensity=logdensity, rel_se=_rel_se(logw))
    return logdensity if logdensity.ndim else float(logdensity)


def series_to_lattice_coords(series, params: ParamVector, swap_tenor: float):
    """Map an observed (x, iv) series to (x, y) estimation coordinates."""
    v = iv_to_v(series.iv, params, swap_tenor)
    y = gamma_transform(v, params.sigma)
    return np.asarray(series.x, dtype=float), y


def total_loglik(
    series,
    params: ParamVector,
    spec: ModelSpec,
    config: LikelihoodConfig,
    rng: RngStream,
    return_contributions: bool = False,
    diagnostics: dict | None = None,
    eps: np.ndarray | None = None,
):
    """Full-sample log-likelihood in (x, y) coordinates.

    Sums the simulated transition log-densities over all observation
    pairs, subtracts the per-observation change-of-variable term
    sigma * Y_i and the constant N * (log B + log sigma).  Parameter
    points at which the implied-variance inversion leaves the variance
    domain, or at which every importance weight underflows, evaluate to
    -inf; ``diagnostics`` (when given) receives the failure count.

    Per-interval draws come from ``rng.substream(i)``, so the value does
    not depend on how intervals are partitioned across workers.
    Intervals are evaluated ``config.chunk_size`` at a time, by default
    ``eml.chunk_intervals(mc_draws, aug_steps)``, so memory is bounded by
    ``eml.CHUNK_POINTS`` lattice points.
    """
    if diagnostics is not None:
        diagnostics.clear()
        diagnostics["n_failed_intervals"] = 0
    try:
        x, y = series_to_lattice_coords(series, params, config.swap_tenor)
    except DomainViolation:
        if diagnostics is not None:
            diagnostics["n_failed_intervals"] = len(series.iv)
        return (-np.inf, None) if return_contributions else -np.inf

    n = len(x) - 1
    if n < 1:
        raise DomainViolation("series must contain at least 2 observations")
    u = np.stack([x, y], axis=-1)

    delta = config.delta_obs / config.aug_steps
    chunk = config.chunk_size or eml.chunk_intervals(config.mc_draws, config.aug_steps)
    logp = np.empty(n)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        if config.aug_steps == 1:
            eps_blk = None
        elif eps is not None:
            eps_blk = eps[lo:hi]
        else:
            eps_blk = eml.draw_bridge_eps(
                rng, np.arange(lo, hi), config.mc_draws, config.aug_steps, delta
            )
        logp[lo:hi] = _log_mean_weight(
            _sml_batch(u[lo:hi], u[lo + 1 : hi + 1], params, spec, config, eps_blk)
        )

    n_failed = int(np.count_nonzero(~np.isfinite(logp)))
    if n_failed:
        if diagnostics is not None:
            diagnostics["n_failed_intervals"] = n_failed
        return (-np.inf, None) if return_contributions else -np.inf

    _, b_coef = swap_coefficients(params, config.swap_tenor)
    constant = math.log(b_coef) + math.log(params.sigma)
    contributions = logp - params.sigma * y[1:] - constant
    total = float(contributions.sum())
    if return_contributions:
        return total, contributions
    return total


# ----------------------------------------------------------------------
# Parameter transforms for the outer search and the sandwich
# ----------------------------------------------------------------------

_LOG_PARAMS = ("sigma", "b0_q")
_ATANH_PARAMS = ("rho",)


def to_unconstrained(params: ParamVector, names: Sequence[str]) -> np.ndarray:
    out = []
    for name in names:
        value = getattr(params, name)
        if name in _LOG_PARAMS:
            out.append(math.log(value))
        elif name in _ATANH_PARAMS:
            out.append(math.atanh(value))
        else:
            out.append(value)
    return np.array(out)


def from_unconstrained(vec: np.ndarray, names: Sequence[str], template: ParamVector) -> ParamVector:
    updates = {}
    for name, value in zip(names, vec):
        if name in _LOG_PARAMS:
            updates[name] = math.exp(value)
        elif name in _ATANH_PARAMS:
            updates[name] = math.tanh(value)
        else:
            updates[name] = float(value)
    return replace(template, **updates)


def _transform_jacobian(params: ParamVector, names: Sequence[str]) -> np.ndarray:
    """Diagonal of d(natural)/d(unconstrained) at ``params``."""
    diag = []
    for name in names:
        value = getattr(params, name)
        if name in _LOG_PARAMS:
            diag.append(value)
        elif name in _ATANH_PARAMS:
            diag.append(1.0 - value**2)
        else:
            diag.append(1.0)
    return np.array(diag)


def moment_init(series, config: LikelihoodConfig) -> dict[str, float]:
    """Crude moment-matched starting point for the outer search.

    sigma from the realized vol-of-vol of log implied variance (its
    quadratic variation equals sigma^2 per year when IV is proportional
    to V), rho from the correlation of price and log-IV increments; the
    pricing-measure drift starts at a mild positive slope.
    """
    iv = np.asarray(series.iv, dtype=float)
    x = np.asarray(series.x, dtype=float)
    dliv = np.diff(np.log(iv))
    sigma0 = float(np.std(dliv) / math.sqrt(config.delta_obs))
    sigma0 = min(max(sigma0, 0.2), 10.0)
    dx = np.diff(x)
    rho0 = float(np.corrcoef(dx, dliv)[0, 1]) if len(dx) > 2 else 0.0
    rho0 = min(max(rho0, -0.95), 0.95)
    return {"sigma": sigma0, "rho": rho0, "b0_q": 0.5 * float(np.mean(iv)), "b1_q": 1.0}


def _profile_params(
    eta: np.ndarray,
    series,
    spec: ModelSpec,
    config: LikelihoodConfig,
    base: ParamVector,
    rng_eml: RngStream,
    eml_eps: np.ndarray | None = None,
) -> ParamVector | None:
    """Trial parameter vector with closed-form drift coefficients, or None
    when the trial point is infeasible."""
    outer_names = ("sigma", "rho", "b0_q", "b1_q")
    if np.any(np.abs(eta) > 50.0):
        return None
    trial = from_unconstrained(eta, outer_names, base)
    try:
        x, y = series_to_lattice_coords(series, trial, config.swap_tenor)
        vp = eml.solve_variance_drift(
            x, y, trial, spec, config.delta_obs, config.aug_steps,
            config.bridge_draws, rng_eml, eps=eml_eps,
        )
        trial = trial.with_variance_coeffs(spec, vp.values())
        a0, a1 = eml.solve_stock_drift(
            x, y, trial, spec, config.delta_obs, config.aug_steps,
            config.bridge_draws, rng_eml, eps=eml_eps,
        )
        return trial.with_stock_coeffs(a0, a1)
    except (DomainViolation, eml.IllConditionedSystem, FloatingPointError):
        return None


#: Cache raw innovation arrays up to this many bytes inside fit(); larger
#: budgets re-draw per evaluation to bound memory.
_EPS_CACHE_LIMIT = 1_000_000_000


def _cached_eps(rng: RngStream, indices: np.ndarray, n_draws: int, config: LikelihoodConfig):
    """All innovations of the given intervals, or None when there are
    none (M = 1) or they would exceed ``_EPS_CACHE_LIMIT`` bytes; callers
    then draw chunk by chunk."""
    n_bytes = len(indices) * n_draws * (config.aug_steps - 1) * 2 * 8
    if config.aug_steps == 1 or n_bytes > _EPS_CACHE_LIMIT:
        return None
    return eml.draw_bridge_eps(
        rng, indices, n_draws, config.aug_steps, config.delta_obs / config.aug_steps
    )


def _maybe_cache_eps(series, config: LikelihoodConfig, rng_eml: RngStream, rng_sml: RngStream):
    """Pre-draw the parameter-independent innovations when they fit in memory."""
    n = len(series.iv) - 1
    return (
        _cached_eps(rng_eml, np.arange(1, n), config.bridge_draws, config),
        _cached_eps(rng_sml, np.arange(n), config.mc_draws, config),
    )


def fit(
    series,
    spec: ModelSpec,
    config: LikelihoodConfig,
    init: dict[str, float] | None = None,
) -> FitResult:
    """Nested spread of the estimation: derivative-free outer search over
    (sigma, rho, b0_q, b1_q) with closed-form drift coefficients inside.

    The same random draws (keyed by ``config.seed``) are reused at every
    trial point so the simulated likelihood surface is smooth in the
    parameters.  Deterministic: identical (series, spec, config, init)
    give identical results.
    """
    if len(series.iv) < config.min_obs:
        raise DomainViolation(
            f"series has {len(series.iv)} observations, below the minimum {config.min_obs}"
        )
    rng_eml = RngStream(config.seed, STREAM_EML)
    rng_sml = RngStream(config.seed, STREAM_SML)
    base = ParamVector(
        sigma=1.0, rho=0.0, b0_q=0.05, b1_q=0.0, r=config.rate, c=config.dampening_c
    )

    start = moment_init(series, config)
    if init:
        start.update(init)
    outer_names = ("sigma", "rho", "b0_q", "b1_q")
    eta0 = to_unconstrained(
        replace(base, **{k: start[k] for k in outer_names}), outer_names
    )

    eml_eps, sml_eps = _maybe_cache_eps(series, config, rng_eml, rng_sml)
    evaluations = 0

    def objective(eta: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        trial = _profile_params(eta, series, spec, config, base, rng_eml, eml_eps)
        if trial is None:
            return _PENALTY
        ll = total_loglik(series, trial, spec, config, rng_sml, eps=sml_eps)
        if not np.isfinite(ll):
            return _PENALTY
        return -ll

    jitter_gen = RngStream(config.seed, STREAM_INIT).generator()
    best = None
    n_iterations = 0
    converged = False
    for restart in range(max(1, config.restarts)):
        eta_start = eta0 if restart == 0 else eta0 + 0.1 * jitter_gen.standard_normal(4)
        result = minimize(
            objective,
            eta_start,
            method="Nelder-Mead",
            options={
                "maxiter": config.max_iter,
                "xatol": config.xatol,
                "fatol": config.fatol,
            },
        )
        n_iterations += int(result.nit)
        if best is None or result.fun < best.fun:
            best = result
            converged = bool(result.success)

    if best is None or best.fun >= _PENALTY:
        raise DomainViolation("optimizer never found a feasible parameter point")

    theta_star = _profile_params(best.x, series, spec, config, base, rng_eml, eml_eps)
    loglik = total_loglik(series, theta_star, spec, config, rng_sml, eps=sml_eps)
    names, cov, se = sandwich_errors(series, theta_star, spec, config, sml_eps=sml_eps)
    return FitResult(
        params=theta_star,
        spec=spec,
        loglik=float(loglik),
        param_names=names,
        covariance=cov,
        std_errors=dict(zip(names, se)),
        converged=converged,
        n_iterations=n_iterations,
        n_evaluations=evaluations,
        seed=config.seed,
    )


def sandwich_errors(
    series,
    theta_star: ParamVector,
    spec: ModelSpec,
    config: LikelihoodConfig,
    score_step: float = 1e-5,
    hessian_step: float = 1e-3,
    sml_eps: np.ndarray | None = None,
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Huber sandwich covariance H^{-1} OPG H^{-1} / N for the full vector.

    Scores are per-observation central differences with relative step
    ``score_step`` in the unconstrained parameterization; the Hessian uses
    the 4-point cross scheme at the larger ``hessian_step``.  The result
    is mapped back to natural parameter units, and the returned standard
    errors are the square roots of its diagonal.
    """
    names = _full_param_names(spec)
    rng_sml = RngStream(config.seed, STREAM_SML)
    eta0 = to_unconstrained(theta_star, names)
    p = len(names)
    n_obs = len(series.iv) - 1
    if sml_eps is None:
        sml_eps = _cached_eps(rng_sml, np.arange(n_obs), config.mc_draws, config)

    def contributions(eta: np.ndarray) -> np.ndarray:
        params = from_unconstrained(eta, names, theta_star)
        total, contrib = total_loglik(
            series, params, spec, config, rng_sml, return_contributions=True, eps=sml_eps
        )
        if contrib is None:
            raise DomainViolation("likelihood not finite near the optimum")
        return contrib

    steps_s = score_step * np.maximum(1.0, np.abs(eta0))
    scores = np.empty((n_obs, p))
    for j in range(p):
        e = np.zeros(p)
        e[j] = steps_s[j]
        scores[:, j] = (contributions(eta0 + e) - contributions(eta0 - e)) / (2.0 * steps_s[j])
    opg = scores.T @ scores / n_obs

    steps_h = hessian_step * np.maximum(1.0, np.abs(eta0))
    hess = np.empty((p, p))
    l0 = float(contributions(eta0).sum())

    def total_at(offset: np.ndarray) -> float:
        return float(contributions(eta0 + offset).sum())

    for j in range(p):
        ej = np.zeros(p)
        ej[j] = steps_h[j]
        hess[j, j] = (total_at(ej) - 2.0 * l0 + total_at(-ej)) / steps_h[j] ** 2
        for k in range(j + 1, p):
            ek = np.zeros(p)
            ek[k] = steps_h[k]
            cross = (
                total_at(ej + ek) - total_at(ej - ek) - total_at(-ej + ek) + total_at(-ej - ek)
            ) / (4.0 * steps_h[j] * steps_h[k])
            hess[j, k] = cross
            hess[k, j] = cross
    h_avg = hess / n_obs

    try:
        h_inv = np.linalg.inv(h_avg)
    except np.linalg.LinAlgError as exc:
        raise eml.IllConditionedSystem(np.inf, f"Hessian not invertible: {exc}") from exc
    cov_eta = h_inv @ opg @ h_inv / n_obs
    cov_eta = 0.5 * (cov_eta + cov_eta.T)
    jac = _transform_jacobian(theta_star, names)
    cov = cov_eta * np.outer(jac, jac)
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return names, cov, se
