"""Euler-scheme simulation of the joint (log price, log variance) system
and the modified-bridge fill used for data augmentation.

Simulation always runs in the log-variance coordinate Y = log(V)/sigma,
whose diffusion coefficient is exactly 1.  Positivity of V = exp(sigma*Y)
then holds by construction under any step size, with no truncation fixes.

The fill draws the auxiliary points between an observation pair
(U_0, U_M) from the modified (state-scaled) bridge recursion

    U_{m+1} = U_m + (U_M - U_m)/(M - m) + sqrt((M-m-1)/(M-m)) * n_m,

with n_m = Sigma(U_m) e_m, e_m ~ N(0, delta * I) and Sigma the local
diffusion matrix; it is the importance-sampling proposal of the simulated
likelihood.  Subtracting the linear interpolation of the endpoints turns
the recursion into a cumulative sum, so each coordinate has the closed
form

    U_k = U_0 + (k/M)(U_M - U_0)
          + (M - k) * sum_{m<k} n_m / sqrt((M-m)(M-m-1)),   k = 1 .. M-1.

Y has unit diffusion, so its column is the plain Brownian bridge of e_y;
only the X noise is scaled, by exp(sigma*Y_m/2) at the departing point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import price_drift, y_drift
from .params import DomainViolation, Measure, ModelSpec, ParamVector, State
from .rng import RngStream


@dataclass
class PathEnsemble:
    """Recorded simulation output: per-path x and v."""

    x: np.ndarray      # (n_paths, n_rec)
    v: np.ndarray      # (n_paths, n_rec)


def y_step(y, params: ParamVector, spec: ModelSpec, measure: Measure, dt: float, eps_y):
    """One Euler step of Y = log(V)/sigma (unit diffusion) on the N(0, dt)
    variance shock ``eps_y``; raises :class:`DomainViolation` when the
    departing variance is not finite and positive."""
    return y + y_drift(y, params, spec, measure) * dt + eps_y


def euler_step(
    x,
    y,
    params: ParamVector,
    spec: ModelSpec,
    measure: Measure,
    dt: float,
    eps,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance (x, y) by one Euler step of size dt.

    ``eps`` has shape (..., 2) with columns (price shock, variance shock),
    each distributed N(0, dt).  Broadcasts over leading dimensions.
    """
    if dt < 0.0:
        raise DomainViolation("dt must be >= 0")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    eps = np.asarray(eps, dtype=float)
    eps_x, eps_v = eps[..., 0], eps[..., 1]
    v = np.exp(params.sigma * y)
    y_new = y_step(y, params, spec, measure, dt, eps_v)
    sq = np.exp(0.5 * params.sigma * y)
    x_new = (
        x
        + price_drift(v, params, measure) * dt
        + sq * (params.rho * eps_v + np.sqrt(1.0 - params.rho**2) * eps_x)
    )
    return x_new, y_new


def simulate_paths(
    initial: State,
    params: ParamVector,
    spec: ModelSpec,
    measure: Measure,
    dt: float,
    n_steps: int,
    n_paths: int,
    rng: RngStream,
    record_every: int = 1,
) -> PathEnsemble:
    """Simulate an ensemble of independent Euler paths from ``initial``.

    Deterministic given ``rng``.  ``record_every`` thins the stored grid
    (it must divide n_steps); draws are consumed in step-major order so
    two calls with the same stream are bitwise identical regardless of
    the recording stride.
    """
    if n_paths < 1:
        raise DomainViolation("n_paths must be >= 1")
    if n_steps % record_every != 0:
        raise DomainViolation("record_every must divide n_steps")
    initial.validate()
    gen = rng.generator()
    sqrt_dt = np.sqrt(dt)

    x = np.full(n_paths, initial.x, dtype=float)
    y = np.full(n_paths, initial.y(params.sigma), dtype=float)
    n_rec = n_steps // record_every + 1
    xs = np.empty((n_paths, n_rec))
    vs = np.empty((n_paths, n_rec))
    xs[:, 0] = x
    vs[:, 0] = np.exp(params.sigma * y)
    for step in range(1, n_steps + 1):
        eps = gen.standard_normal((n_paths, 2)) * sqrt_dt
        x, y = euler_step(x, y, params, spec, measure, dt, eps)
        if step % record_every == 0:
            k = step // record_every
            xs[:, k] = x
            vs[:, k] = np.exp(params.sigma * y)
    return PathEnsemble(x=xs, v=vs)


def bridge_path(u0, u1, aug_steps: int, noise: np.ndarray) -> np.ndarray:
    """The M-1 auxiliary points of one bridge coordinate, in closed form.

    ``noise`` holds n_0 .. n_{M-2} along its last axis; ``u0`` and ``u1``
    broadcast against ``noise[..., 0]``.  The result has the shape of
    ``noise`` and depends on the endpoints only through their linear
    interpolation.
    """
    m = np.arange(aug_steps - 1)
    remain = aug_steps - m
    path = noise / np.sqrt(remain * (remain - 1.0))
    np.cumsum(path, axis=-1, out=path)
    path *= remain - 1
    u0 = np.asarray(u0, dtype=float)[..., None]
    u1 = np.asarray(u1, dtype=float)[..., None]
    path += u0 + (u1 - u0) * ((m + 1) / aug_steps)
    return path


def modified_bridge_fill(
    u0,
    u1,
    aug_steps: int,
    params: ParamVector,
    eps: np.ndarray,
) -> np.ndarray:
    """Bridge draw with noise premultiplied by the local diffusion matrix.

    ``u0`` and ``u1`` are (..., 2) endpoint arrays that broadcast against
    the innovations ``eps`` of shape (..., M-1, 2), N(0, delta) at lattice
    step delta.  The result has shape (..., M-1, 2), empty at M = 1, and
    the recursion's final step lands exactly on ``u1``.

    In (x, y) coordinates the diffusion matrix rows are
    (sqrt(1-rho^2)*exp(sigma*y/2), rho*exp(sigma*y/2)) and (0, 1), so the
    y fill is the plain Brownian-bridge fill :func:`bridge_path` of e_y
    while the x fill takes the noise
    exp(sigma*Y_m/2) * (sqrt(1-rho^2)*e_x + rho*e_y) at each departing
    point Y_m.  This is the importance-sampling proposal of the
    simulated-likelihood estimator.
    """
    if aug_steps < 1:
        raise DomainViolation("aug_steps must be >= 1")
    u0 = np.asarray(u0, dtype=float)
    u1 = np.asarray(u1, dtype=float)
    y = bridge_path(u0[..., 1], u1[..., 1], aug_steps, eps[..., 1])
    y_from = np.concatenate(
        [np.broadcast_to(u0[..., 1, None], y.shape[:-1] + (1,)), y[..., :-1]], axis=-1
    )
    noise = np.exp(0.5 * params.sigma * y_from) * (
        np.sqrt(1.0 - params.rho**2) * eps[..., 0] + params.rho * eps[..., 1]
    )
    x = bridge_path(u0[..., 0], u1[..., 0], aug_steps, noise)
    return np.stack([x, y], axis=-1)

