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
from typing import ClassVar, Sequence

import numpy as np
from scipy.optimize import minimize

from . import eml
from .model import (
    DAYS_PER_YEAR,
    SWAP_TENOR_YEARS,
    gamma_transform,
    iv_to_v,
    swap_coefficients,
    variance_drift_over_v,
)
from .params import OUTER, DomainViolation, Family, ModelSpec, ParamVector
from .rng import RngStream
from .simulate import lattice_buffers, modified_bridge_walk

#: Top-level stream ids reserved by the estimation pipeline.
STREAM_EML = 1
STREAM_SML = 2
STREAM_INIT = 3

_PENALTY = 1e12


@dataclass(frozen=True)
class LikelihoodConfig:
    """Budgets and settings of the simulated-likelihood machinery.

    ``aug_steps`` is the number of Euler sub-steps per observation
    interval (config key ``M``) and ``mc_draws`` the number of
    modified-bridge walks per interval (config key ``S``) that the drift
    solves and the likelihood average over; the default pairing keeps
    S = M^2 = 576.  ``seed``, ``max_iter``, ``restarts`` and ``min_obs``
    are the config keys of the same names.  Beyond the innovations ``fit``
    caches, at most ``_EPS_CACHE_LIMIT`` bytes each, memory is bounded by
    the budgets: ``eml.map_chunks`` walks every lattice pass at most
    ``eml.CHUNK_POINTS`` lattice points at a time, and from
    ``eml.POOL_POINTS`` points per worker on ``eml.WORKERS`` threads (one
    per CPU this process may use), with bitwise the same results.

    The class constants are not settings: ``delta_obs`` is a trading day
    and ``swap_tenor`` the implied-variance tenor, in years.  Only the
    benchmark reads ``rate`` and ``dampening_c``, until its next change.
    """

    delta_obs: ClassVar[float] = 1.0 / DAYS_PER_YEAR
    swap_tenor: ClassVar[float] = SWAP_TENOR_YEARS
    rate: ClassVar[float] = 0.05
    dampening_c: ClassVar[float] = 1e-6

    aug_steps: int = 24
    mc_draws: int = 576
    seed: int = 0
    max_iter: int = 400
    restarts: int = 3
    min_obs: int = 200

    def __post_init__(self):
        for name in ("aug_steps", "mc_draws", "max_iter", "restarts"):
            if getattr(self, name) < 1:
                raise DomainViolation(f"{name} must be >= 1")

    @property
    def bridge_draws(self) -> int:
        """``mc_draws``, read only by the benchmark's ``workloads.evaluate``,
        until its next change."""
        return self.mc_draws


@dataclass
class FitResult:
    params: ParamVector
    spec: ModelSpec
    loglik: float
    covariance: np.ndarray
    converged: bool
    n_iterations: int
    n_evaluations: int
    seed: int

    @property
    def param_names(self) -> tuple[str, ...]:
        return self.spec.param_names

    @property
    def std_errors(self) -> dict[str, float]:
        """Square roots of the covariance's diagonal, clipped at zero, by
        parameter name; empty for a fit without the sandwich."""
        se = np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))
        return dict(zip(self.param_names, map(float, se)))

    def to_dict(self) -> dict:
        return {
            "kind": "fit_result",
            "family": self.spec.family.value,
            "params": {k: getattr(self.params, k) for k in self.spec.param_names},
            "loglik": self.loglik,
            "param_names": list(self.param_names),
            "covariance": [[float(v) for v in row] for row in self.covariance],
            "std_errors": self.std_errors,
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
            covariance=np.asarray(payload["covariance"], dtype=float),
            converged=bool(payload["converged"]),
            n_iterations=int(payload["n_iterations"]),
            n_evaluations=int(payload["n_evaluations"]),
            seed=int(payload["seed"]),
        )


def _sml_batch(
    u_from: np.ndarray,
    u_to: np.ndarray,
    params: ParamVector,
    spec: ModelSpec,
    config: LikelihoodConfig,
    eps: np.ndarray,
) -> np.ndarray:
    """Log importance weights of the simulated transition density, (..., S).

    ``u_from`` and ``u_to`` have shape (..., 2); ``eps`` holds the
    N(0, delta) draws e_m step-major, shape (M-1, 2, ..., S).  With M = 1
    it is empty, the walk takes its one step and every weight is the
    Euler density of the whole interval.

    Each draw walks the modified bridge from ``u_from`` to ``u_to``
    (:func:`nlsv.simulate.modified_bridge_walk`), so the residual of
    lattice step m about the proposal mean is exactly
    sqrt(fac_m) * Sigma_m e_m, fac_m = (M-m-1)/(M-m).  The proposal's
    quadratic form is therefore e_m'e_m / delta, and its log-determinant
    cancels the Euler one up to log(fac_m), whose sum over m is -log(M).
    The log weight of a draw is then

        -log M + sum_m e_m'e_m / (2 delta) - sum_{m<M} Q_m / 2
        - sigma * Y_{M-1} / 2 + log of the Euler normalizing constant,

    with Q_m the Euler quadratic form of step m and the last step, from
    Y_{M-1} to the endpoint, carrying the only log-determinant left.  With
    V = s^2 from the walk's one exp per step and the residuals
    r_x = dx - (a0 + a1 V) delta, r_y = dy - mu_Y(V) delta about the Euler
    mean, delta Q_m = (r_x/s - rho r_y)^2 / (1 - rho^2) + r_y^2.  Each step
    adds e_{m,x}^2, e_{m,y}^2 and -r_y^2, in this order, to one (..., S)
    buffer and (r_x/s - rho r_y)^2 to another, while its innovation slabs
    are in cache, and allocates nothing of the batch's size; a draw's value
    does not depend on the shape of its batch, as an einsum's sum would.
    """
    delta = config.delta_obs / config.aug_steps
    rho, sigma = params.rho, params.sigma
    logw, whitened, v, rx, ry, scratch = lattice_buffers(eps.shape[2:], 6)
    logw[...] = whitened[...] = 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for m, step in enumerate(modified_bridge_walk(u_from, u_to, params, eps)):
            if m < len(eps):
                logw += np.multiply(eps[m, 0], eps[m, 0], out=scratch)
                logw += np.multiply(eps[m, 1], eps[m, 1], out=scratch)
            np.multiply(step.s, step.s, out=v)
            np.multiply(v, params.a1 * delta, out=rx)
            rx += params.a0 * delta
            np.subtract(step.dx, rx, out=rx)
            variance_drift_over_v(v, params, spec, out=ry, scratch=scratch)
            ry *= -delta / sigma
            ry += step.dy
            ry += 0.5 * sigma * delta
            rx /= step.s
            rx -= np.multiply(ry, rho, out=scratch)
            whitened += np.multiply(rx, rx, out=rx)
            logw -= np.multiply(ry, ry, out=ry)
        logw -= np.multiply(whitened, 1.0 / (1.0 - rho**2), out=whitened)
        logw *= 0.5 / delta
        logw -= np.multiply(step.y, 0.5 * sigma, out=scratch)
        logw -= math.log(2.0 * math.pi * delta) + 0.5 * math.log(1.0 - rho**2) + math.log(len(eps) + 1)
        # A draw that escaped the representable state region carries zero weight.
        np.copyto(logw, -np.inf, where=~np.isfinite(logw))
    return logw


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
    eps: np.ndarray | None = None,
):
    """Full-sample log-likelihood in (x, y) coordinates.

    Sums the simulated transition log-densities over all observation
    pairs, subtracts the per-observation change-of-variable term
    sigma * Y_i and the constant N * (log B + log sigma).  Parameter
    points at which the implied-variance inversion leaves the variance
    domain, or at which every importance weight of some interval
    underflows, evaluate to -inf (with contributions None).

    :func:`nlsv.eml.map_chunks` evaluates blocks of intervals, their S
    walks step by step, so memory is bounded by ``eml.CHUNK_POINTS``
    lattice points in flight, and hands each block its slice of ``eps``,
    pre-drawn for intervals 0 .. N-1, or its own draws from
    ``rng.substream(i)``, so the value does not depend on how intervals
    are partitioned across workers.  At M = 1 there are none, and each
    interval's density is the Euler density of its one step.  ``eps`` is
    checked where a walk reads it, so not at a point that is -inf before.
    """
    try:
        x, y = series_to_lattice_coords(series, params, config.swap_tenor)
    except DomainViolation:
        return (-np.inf, None) if return_contributions else -np.inf

    n = len(x) - 1
    if n < 1:
        raise DomainViolation("series must contain at least 2 observations")
    u = np.stack([x, y], axis=-1)

    def block_logp(lo: int, hi: int, eps_blk: np.ndarray) -> np.ndarray:
        return _log_mean_weight(
            _sml_batch(u[lo:hi], u[lo + 1 : hi + 1], params, spec, config, eps_blk)
        )

    logp = eml.map_chunks(
        block_logp, np.arange(n), config.mc_draws, config.aug_steps,
        config.delta_obs / config.aug_steps, rng, eps,
    )

    if not np.all(np.isfinite(logp)):
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

#: (to unconstrained, from unconstrained, d natural / d unconstrained) of
#: each bounded parameter: sigma and b0_q are positive, |rho| < 1.  Every
#: other parameter is its own unconstrained value.
_TRANSFORMS = {
    "sigma": (math.log, math.exp, lambda value: value),
    "b0_q": (math.log, math.exp, lambda value: value),
    "rho": (math.atanh, math.tanh, lambda value: 1.0 - value**2),
}
_IDENTITY = (float, float, lambda value: 1.0)


def to_unconstrained(params: ParamVector, names: Sequence[str]) -> np.ndarray:
    return np.array([_TRANSFORMS.get(k, _IDENTITY)[0](getattr(params, k)) for k in names])


def from_unconstrained(vec: np.ndarray, names: Sequence[str], template: ParamVector) -> ParamVector:
    return replace(
        template, **{k: _TRANSFORMS.get(k, _IDENTITY)[1](value) for k, value in zip(names, vec)}
    )


def _transform_jacobian(params: ParamVector, names: Sequence[str]) -> np.ndarray:
    """Diagonal of d(natural)/d(unconstrained) at ``params``."""
    return np.array([_TRANSFORMS.get(k, _IDENTITY)[2](getattr(params, k)) for k in names])


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
    if np.any(np.abs(eta) > 50.0):
        return None
    trial = from_unconstrained(eta, OUTER, base)
    try:
        x, y = series_to_lattice_coords(series, trial, config.swap_tenor)
        vp = eml.solve_variance_drift(
            x, y, trial, spec, config.delta_obs, config.aug_steps,
            config.mc_draws, rng_eml, eps=eml_eps,
        )
        trial = trial.with_variance_coeffs(spec, vp.values())
        a0, a1 = eml.solve_stock_drift(
            x, y, trial, spec, config.delta_obs, config.aug_steps,
            config.mc_draws, rng_eml, eps=eml_eps,
        )
        return trial.with_stock_coeffs(a0, a1)
    except (DomainViolation, eml.IllConditionedSystem, FloatingPointError):
        return None


#: Cache raw innovation arrays up to this many bytes inside fit(); larger
#: budgets re-draw per evaluation to bound memory.
_EPS_CACHE_LIMIT = 1_000_000_000


def _maybe_cache_eps(series, config: LikelihoodConfig, rng_eml: RngStream, rng_sml: RngStream):
    """The innovations of the drift systems (intervals 1 .. N-1) and of the
    likelihood (0 .. N-1) that ``fit`` hands every evaluation, each None
    over ``_EPS_CACHE_LIMIT`` bytes: evaluations then draw block by block."""
    n = len(series.iv) - 1
    m, s, delta = config.aug_steps, config.mc_draws, config.delta_obs / config.aug_steps
    return tuple(
        eml.draw_bridge_eps(rng, idx, s, m, delta)
        if 8 * math.prod(eml.eps_shape(len(idx), s, m)) <= _EPS_CACHE_LIMIT else None
        for rng, idx in ((rng_eml, np.arange(1, n)), (rng_sml, np.arange(n)))
    )


def fit(
    series,
    spec: ModelSpec,
    config: LikelihoodConfig,
    init: dict[str, float] | None = None,
    errors: bool = True,
) -> FitResult:
    """Nested spread of the estimation: derivative-free outer search over
    (sigma, rho, b0_q, b1_q) with closed-form drift coefficients inside.

    The same random draws (keyed by ``config.seed``) are reused at every
    trial point so the simulated likelihood surface is smooth in the
    parameters.  Deterministic: identical (series, spec, config, init)
    give identical results.  ``errors=False`` skips the sandwich, leaving
    the covariance and ``std_errors`` empty, for callers that read neither.
    """
    if len(series.iv) < config.min_obs:
        raise DomainViolation(
            f"series has {len(series.iv)} observations, below the minimum {config.min_obs}"
        )
    rng_eml = RngStream(config.seed, STREAM_EML)
    rng_sml = RngStream(config.seed, STREAM_SML)
    base = ParamVector(sigma=1.0, rho=0.0, b0_q=0.05, b1_q=0.0)

    start = moment_init(series, config)
    if init:
        start.update(init)
    eta0 = to_unconstrained(replace(base, **{k: start[k] for k in OUTER}), OUTER)

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
    for restart in range(config.restarts):
        eta_start = eta0 if restart == 0 else eta0 + 0.1 * jitter_gen.standard_normal(len(OUTER))
        result = minimize(
            objective,
            eta_start,
            method="Nelder-Mead",
            options={
                "maxiter": config.max_iter,
                "xatol": _SEARCH_XATOL,
                "fatol": _SEARCH_FATOL,
            },
        )
        n_iterations += int(result.nit)
        if best is None or result.fun < best.fun:
            best = result
            converged = bool(result.success)

    if best is None or best.fun >= _PENALTY:
        raise DomainViolation("optimizer never found a feasible parameter point")

    # The objective is deterministic: its best value is -loglik at theta_star.
    theta_star = _profile_params(best.x, series, spec, config, base, rng_eml, eml_eps)
    cov = (sandwich_errors(series, theta_star, spec, config, sml_eps=sml_eps)
           if errors else np.empty((0, 0)))
    return FitResult(
        params=theta_star,
        spec=spec,
        loglik=float(-best.fun),
        covariance=cov,
        converged=converged,
        n_iterations=n_iterations,
        n_evaluations=evaluations,
        seed=config.seed,
    )


#: Nelder-Mead stopping tolerances of the outer search, on the
#: unconstrained parameters and on the negative log-likelihood.
_SEARCH_XATOL = 1e-5
_SEARCH_FATOL = 1e-7

#: Relative finite-difference steps of the sandwich's scores and Hessian.
_SCORE_STEP = 1e-5
_HESSIAN_STEP = 1e-3


def sandwich_errors(
    series,
    theta_star: ParamVector,
    spec: ModelSpec,
    config: LikelihoodConfig,
    sml_eps: np.ndarray | None = None,
) -> np.ndarray:
    """Huber sandwich covariance H^{-1} OPG H^{-1} / N for the full vector,
    in the order of ``spec.param_names``.

    Scores are per-observation central differences with relative step
    ``_SCORE_STEP`` in the unconstrained parameterization; the Hessian
    uses the 4-point cross scheme at the larger ``_HESSIAN_STEP``.  The
    result is mapped back to natural parameter units.  Without the
    ``sml_eps`` that ``fit`` caches, the likelihood draws block by block.
    """
    names = spec.param_names
    rng_sml = RngStream(config.seed, STREAM_SML)
    eta0 = to_unconstrained(theta_star, names)
    p = len(names)
    n_obs = len(series.iv) - 1

    def contributions(eta: np.ndarray) -> np.ndarray:
        params = from_unconstrained(eta, names, theta_star)
        total, contrib = total_loglik(
            series, params, spec, config, rng_sml, return_contributions=True, eps=sml_eps
        )
        if contrib is None:
            raise DomainViolation("likelihood not finite near the optimum")
        return contrib

    steps_s = _SCORE_STEP * np.maximum(1.0, np.abs(eta0))
    scores = np.empty((n_obs, p))
    for j in range(p):
        e = np.zeros(p)
        e[j] = steps_s[j]
        scores[:, j] = (contributions(eta0 + e) - contributions(eta0 - e)) / (2.0 * steps_s[j])
    opg = scores.T @ scores / n_obs

    steps_h = _HESSIAN_STEP * np.maximum(1.0, np.abs(eta0))
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
        raise DomainViolation(f"Hessian not invertible: {exc}") from exc
    cov_eta = h_inv @ opg @ h_inv / n_obs
    cov_eta = 0.5 * (cov_eta + cov_eta.T)
    jac = _transform_jacobian(theta_star, names)
    return cov_eta * np.outer(jac, jac)
