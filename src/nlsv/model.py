"""Model mathematics: drifts under both measures, the dampening function,
the market price of risk, the log-variance transform and the variance-swap
coefficients tying the implied-variance index to instantaneous variance.

All functions accept scalar or ndarray variance inputs and broadcast.
Conventions:

    mu_Q(V) = ( r - V/2,  b0_q + b1_q * V )
    mu_P(V) = ( a0 + a1 * V,  variance drift per family )
    f(V)    = mu_P(V) - mu_Q(V)            (excess drift)
    Sigma(V) = sqrt(V) * [[sqrt(1-rho^2), rho], [0, sigma*sqrt(V)]]
    D(V)    = exp( -c/|det Sigma| - c * (|f_1| + |f_2|) )
    Lambda  = Sigma^{-1} f, optionally multiplied by D

The approach to nonlinear real-world drifts rests on the dampening factor
D: it makes Lambda bounded so the change of measure is well defined, while
being indistinguishable from 1 at double precision on any compact variance
set for small c.  Numerical work therefore defaults to the undampened
drifts.
"""

from __future__ import annotations

import numpy as np

from .params import DomainViolation, Family, Measure, ModelSpec, ParamVector

#: Trading-day calendar constants used throughout: 262 days per year, a
#: 22-day month for the implied-variance tenor.
DAYS_PER_YEAR = 262
DAYS_PER_MONTH = 22
SWAP_TENOR_YEARS = DAYS_PER_MONTH / DAYS_PER_YEAR

#: Threshold on |b1_q * delta| below which the swap coefficients switch to
#: a Taylor series of (e^z - 1)/z to avoid catastrophic cancellation.
_SWAP_SERIES_THRESHOLD = 1e-6


def _check_variance(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
        raise DomainViolation("variance must be finite and > 0")
    return v


def price_drift(v, params: ParamVector, measure: Measure) -> np.ndarray:
    """Drift of the log price: r - V/2 under Q, a0 + a1*V under P."""
    v = _check_variance(v)
    if measure is Measure.Q:
        return params.r - 0.5 * v
    return params.a0 + params.a1 * v


def variance_drift(
    v, params: ParamVector, spec: ModelSpec | None, measure: Measure
) -> np.ndarray:
    """Drift of the instantaneous variance under the requested measure.

    ``spec`` selects the drift family under P and is ignored under Q,
    where the drift is always the affine b0_q + b1_q * V.
    """
    v = _check_variance(v)
    if measure is Measure.Q:
        return params.b0_q + params.b1_q * v
    if spec is None:
        raise DomainViolation("a model family is required under the physical measure")
    return v * variance_drift_over_v(v, params, spec)


def variance_drift_over_v(v, params: ParamVector, spec: ModelSpec):
    """Real-world variance drift divided by V: b0_q/V + b1 for LN and
    (b3/V + b0)/V + b1 + b2*V for NL.

    The one place each family's drift formula is written.  No domain
    checks: a non-finite or non-positive ``v`` propagates to the result,
    which the simulated likelihood reads as a zero weight and the drift
    solvers report after the fact.  The sum is accumulated in place, so a
    lattice-sized ``v`` costs at most two more arrays of its size.
    """
    if spec.family is Family.LN:
        out = params.b0_q / v
        out += params.b1
        return out
    if spec.family is Family.NL:
        out = params.b3 / v
        out += params.b0
        out /= v
        out += params.b1
        out += params.b2 * v
        return out
    raise DomainViolation("RW has no drift model")


def drift_q(v, params: ParamVector) -> np.ndarray:
    """Pricing-measure drift vector (price component, variance component)."""
    v = _check_variance(v)
    return np.stack(
        [price_drift(v, params, Measure.Q), variance_drift(v, params, None, Measure.Q)]
    )


def drift_p(v, params: ParamVector, spec: ModelSpec) -> np.ndarray:
    """Real-world drift vector for the LN or NL family."""
    v = _check_variance(v)
    return np.stack(
        [price_drift(v, params, Measure.P), variance_drift(v, params, spec, Measure.P)]
    )


def excess_drift_f(v, params: ParamVector, spec: ModelSpec) -> np.ndarray:
    """Excess drift f with mu_Q + f = mu_P, written in closed form.

    First component: a0 - r + (a1 + 1/2) V for both families.  Second:
    (b1 - b1_q) V for LN, and b0 - b0_q + (b1 - b1_q) V + b2 V^2 + b3 / V
    for NL.
    """
    v = _check_variance(v)
    top = params.a0 - params.r + (params.a1 + 0.5) * v
    if spec.family is Family.LN:
        bottom = (params.b1 - params.b1_q) * v
    elif spec.family is Family.NL:
        bottom = (
            params.b0
            - params.b0_q
            + (params.b1 - params.b1_q) * v
            + params.b2 * v * v
            + params.b3 / v
        )
    else:
        raise DomainViolation("RW has no drift model")
    return np.stack([np.broadcast_to(top, v.shape).astype(float), np.broadcast_to(bottom, v.shape).astype(float)])


def diffusion_matrix(v, params: ParamVector) -> np.ndarray:
    """Joint (X, V) diffusion matrix Sigma(V), shape (2, 2) + v.shape."""
    v = _check_variance(v)
    sq = np.sqrt(v)
    z = np.zeros_like(v)
    row1 = np.stack([np.sqrt(1.0 - params.rho**2) * sq, params.rho * sq])
    row2 = np.stack([z, params.sigma * v])
    return np.stack([row1, row2])


def diffusion_det(v, params: ParamVector) -> np.ndarray:
    """|det Sigma(V)| = sigma * V^{3/2} * sqrt(1 - rho^2)."""
    v = _check_variance(v)
    return params.sigma * v ** 1.5 * np.sqrt(1.0 - params.rho**2)


def dampening(v, params: ParamVector, spec: ModelSpec, c: float | None = None) -> np.ndarray:
    """Dampening factor D(V) in (0, 1].

    D = exp(-c/|det Sigma| - c * sum_j |f_j|).  A single constant c is
    shared by both penalty terms; it is configuration (default
    ``params.c``), never estimated.
    """
    v = _check_variance(v)
    cc = params.c if c is None else float(c)
    if cc <= 0.0:
        raise DomainViolation("dampening constant c must be > 0")
    f = excess_drift_f(v, params, spec)
    penalty = cc / diffusion_det(v, params) + cc * (np.abs(f[0]) + np.abs(f[1]))
    return np.exp(-penalty)


def market_price_of_risk(
    v,
    params: ParamVector,
    spec: ModelSpec,
    apply_dampening: bool = False,
    c: float | None = None,
) -> np.ndarray:
    """Market price of risk Lambda = Sigma^{-1} f, optionally dampened.

    Solved in closed form using the triangular structure of Sigma.  The
    second component is the variance risk premium; for LN without
    dampening it is the constant (b1 - b1_q) / sigma.
    """
    v = _check_variance(v)
    f = excess_drift_f(v, params, spec)
    sq = np.sqrt(v)
    lam_v = f[1] / (params.sigma * v)
    lam_x = (f[0] - params.rho * sq * lam_v) / (np.sqrt(1.0 - params.rho**2) * sq)
    lam = np.stack([lam_x, lam_v])
    if apply_dampening:
        lam = lam * dampening(v, params, spec, c=c)
    return lam


def gamma_transform(v, sigma: float) -> np.ndarray:
    """Log-variance coordinate y = log(v) / sigma; bijective on v > 0."""
    v = _check_variance(v)
    return np.log(v) / sigma


def gamma_inverse(y, sigma: float) -> np.ndarray:
    """Inverse transform v = exp(sigma * y)."""
    return np.exp(sigma * np.asarray(y, dtype=float))


def swap_coefficients(params: ParamVector, delta: float) -> tuple[float, float]:
    """Variance-swap coefficients (A, B) for tenor ``delta`` (years).

    The expected average variance over [t, t+delta] under the pricing
    measure is A + B * V_t with

        B = (exp(b1_q * delta) - 1) / (b1_q * delta)
        A = -(b0_q / b1_q) * (1 - B)

    For |b1_q * delta| <= 1e-6 both are evaluated by a 4-term Taylor
    series in z = b1_q * delta, so the pair is continuous across b1_q = 0.
    """
    if not delta > 0.0:
        raise DomainViolation(f"delta must be > 0, got {delta}")
    z = params.b1_q * delta
    if abs(z) > _SWAP_SERIES_THRESHOLD:
        b = np.expm1(z) / z
        a = -(params.b0_q / params.b1_q) * (1.0 - b)
    else:
        # (e^z - 1)/z = 1 + z/2 + z^2/6 + z^3/24 + O(z^4)
        b = 1.0 + z / 2.0 + z * z / 6.0 + z * z * z / 24.0
        # A = b0_q * delta * (B - 1)/z expanded the same way
        a = params.b0_q * delta * (0.5 + z / 6.0 + z * z / 24.0 + z * z * z / 120.0)
    return float(a), float(b)


def v_to_iv(v, params: ParamVector, delta: float = SWAP_TENOR_YEARS) -> np.ndarray:
    """Map instantaneous variance to the implied-variance proxy A + B*V."""
    v = _check_variance(v)
    a, b = swap_coefficients(params, delta)
    return a + b * v


def iv_to_v(iv, params: ParamVector, delta: float = SWAP_TENOR_YEARS) -> np.ndarray:
    """Invert the swap relation: V = (IV - A) / B.

    Raises :class:`DomainViolation` when any resulting variance is
    non-positive; callers in the likelihood treat that parameter point as
    having log-likelihood -inf rather than clamping.
    """
    iv = np.asarray(iv, dtype=float)
    if not np.all(np.isfinite(iv)):
        raise DomainViolation("implied variance must be finite")
    a, b = swap_coefficients(params, delta)
    v = (iv - a) / b
    if np.any(v <= 0.0):
        n_bad = int(np.count_nonzero(v <= 0.0))
        raise DomainViolation(
            f"(IV - A)/B non-positive for {n_bad} point(s); parameters inconsistent with data"
        )
    return v


def y_drift(y, params: ParamVector, spec: ModelSpec, measure: Measure) -> np.ndarray:
    """Drift of the log-variance coordinate Y = log(V)/sigma.

    By Ito's formula, mu_Y = (variance drift)/(sigma * V) - sigma/2 and the
    diffusion coefficient is exactly 1, which is what makes Y the natural
    simulation and estimation coordinate.
    """
    y = np.asarray(y, dtype=float)
    v = np.exp(params.sigma * y)
    return variance_drift(v, params, spec, measure) / (params.sigma * v) - 0.5 * params.sigma
