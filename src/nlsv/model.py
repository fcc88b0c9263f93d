"""Model mathematics: the real-world drifts, the log-variance transform
and the variance-swap coefficients tying the implied-variance index to
instantaneous variance.

All functions accept scalar or ndarray variance inputs and broadcast.
The dynamics are those of the physical measure P,

    mu_P(V) = ( a0 + a1 * V,  variance drift per family ),

and each family's drift is written once, in :func:`variance_drift_over_v`.
The pricing measure Q enters only through its affine variance drift
b0_q + b1_q * V: in the swap coefficients (A, B) and in the variance risk
premium.
"""

from __future__ import annotations

import numpy as np

from .params import DomainViolation, Family, ModelSpec, ParamVector

#: Trading-day calendar constants used throughout: 262 days per year, a
#: 22-day month for the implied-variance tenor.
DAYS_PER_YEAR = 262
DAYS_PER_MONTH = 22
SWAP_TENOR_YEARS = DAYS_PER_MONTH / DAYS_PER_YEAR

#: |z| below which :func:`exp_averages` switches to Taylor series: the
#: direct psi loses about 2e-16/|z| relative to cancellation, while the
#: series' truncation error stays below |z|^5/700.
_SERIES_THRESHOLD = 1e-3


def _check_variance(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
        raise DomainViolation("variance must be finite and > 0")
    return v


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


def drift_p(v, params: ParamVector, spec: ModelSpec) -> np.ndarray:
    """Real-world drift vector (a0 + a1*V, variance drift) for the LN or
    NL family, shape (2, ...)."""
    v = _check_variance(v)
    return np.stack([params.a0 + params.a1 * v, v * variance_drift_over_v(v, params, spec)])


def log_variance_drift(v, params: ParamVector, spec: ModelSpec) -> np.ndarray:
    """Real-world drift of the log-variance coordinate Y = log(V)/sigma at
    V = ``v``.

    By Ito's formula mu_Y = (variance drift)/(sigma V) - sigma/2, and the
    diffusion coefficient of Y is exactly 1, which is what makes Y the
    natural simulation and estimation coordinate.  No domain checks, as in
    :func:`variance_drift_over_v`; the terms are applied in place.
    """
    out = variance_drift_over_v(v, params, spec)
    out /= params.sigma
    out -= 0.5 * params.sigma
    return out


def gamma_transform(v, sigma: float) -> np.ndarray:
    """Log-variance coordinate y = log(v) / sigma; bijective on v > 0."""
    v = _check_variance(v)
    return np.log(v) / sigma


def exp_averages(z) -> tuple[np.ndarray, np.ndarray]:
    """phi(z) = (e^z - 1)/z and psi(z) = (e^z - 1 - z)/z^2, elementwise.

    They are the averages int_0^1 e^{zu} du and int_0^1 (1-u) e^{zu} du,
    so the affine variance drift b0 + b1*V averages, over a horizon t
    with z = b1*t, to E[V_t] = V_0 e^z + b0 t phi(z) and
    int_0^t E[V_s] ds = V_0 t phi(z) + b0 t^2 psi(z).  Where
    |z| < ``_SERIES_THRESHOLD`` both come from Taylor series, so they are
    continuous across b1 = 0.  The series powers use ``np.float_power``,
    the C library's pow that Python's ``**`` on a float calls (numpy's
    ``**`` on an array takes its own SIMD pow), so an array gets the
    values a scalar does.  Overflow gives inf with numpy's warning.
    """
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < _SERIES_THRESHOLD
    em1 = np.expm1(z)
    with np.errstate(divide="ignore", invalid="ignore"):  # z = 0 takes the series
        phi, psi = em1 / z, (em1 - z) / (z * z)
    if small.any():
        s = np.where(small, z, 0.0)
        s3, s4 = np.float_power(s, 3), np.float_power(s, 4)
        phi = np.where(small, 1.0 + s / 2.0 + s * s / 6.0 + s3 / 24.0 + s4 / 120.0, phi)
        psi = np.where(small, 0.5 + s / 6.0 + s * s / 24.0 + s3 / 120.0 + s4 / 720.0, psi)
    return phi, psi


def swap_coefficients(params: ParamVector, delta: float) -> tuple[float, float]:
    """Variance-swap coefficients (A, B) for tenor ``delta`` (years).

    The expected average variance over [t, t+delta] under the pricing
    measure is A + B * V_t, the average of the affine drift b0_q + b1_q*V
    (:func:`exp_averages` at z = b1_q * delta):

        B = phi(z) = (exp(z) - 1) / z
        A = b0_q * delta * psi(z) = -(b0_q / b1_q) * (1 - B)
    """
    if not delta > 0.0:
        raise DomainViolation(f"delta must be > 0, got {delta}")
    phi, psi = exp_averages(params.b1_q * delta)
    return float(params.b0_q * delta * psi), float(phi)


def v_to_iv(v, params: ParamVector) -> np.ndarray:
    """Map instantaneous variance to the implied-variance proxy A + B*V
    at the one-month tenor."""
    v = _check_variance(v)
    a, b = swap_coefficients(params, SWAP_TENOR_YEARS)
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
