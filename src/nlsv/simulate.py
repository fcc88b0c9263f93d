"""Euler-scheme simulation of the joint (log price, log variance) system
and the modified-bridge walk used for data augmentation.

Simulation always runs in the log-variance coordinate Y = log(V)/sigma,
whose diffusion coefficient is exactly 1.  Positivity of V = exp(sigma*Y)
then holds by construction under any step size, with no truncation fixes.

The walk steps through the auxiliary points between an observation pair
(U_0, U_M) by the modified (state-scaled) bridge recursion

    U_{m+1} = U_m + (U_M - U_m)/(M - m) + sqrt((M-m-1)/(M-m)) * n_m,

with n_m = Sigma(U_m) e_m, e_m ~ N(0, delta * I) and Sigma the local
diffusion matrix; it is the importance-sampling proposal of the simulated
likelihood and the bridge of the drift systems' expectations.  In (x, y)
coordinates the rows of Sigma are (sqrt(1-rho^2)*s, rho*s) and (0, 1)
with s = exp(sigma*Y_m/2): Y has unit diffusion, so its path is the plain
Brownian bridge of e_y, and only the X noise is scaled, by the s of the
departing point.  The walk is built in two layers: the Y bridge
(:func:`y_bridge_walk`), which takes that one exp per point and hands it
on, and the X recursion on top of it (:func:`modified_bridge_walk`).  A
caller that reads only Y, s and dy, as the variance drift system does,
walks the Y bridge alone and never reads a price innovation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .model import drift_p
from .params import DomainViolation, Measure, ModelSpec, ParamVector, State
from .rng import RngStream


@dataclass
class PathEnsemble:
    """Recorded simulation output: per-path x and v."""

    x: np.ndarray      # (n_paths, n_rec)
    v: np.ndarray      # (n_paths, n_rec)


def euler_step(
    x,
    y,
    params: ParamVector,
    spec: ModelSpec,
    dt: float,
    eps,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance (x, y) by one Euler step of size dt under the real-world
    drifts of ``spec``.

    ``eps`` has shape (..., 2) with columns (price shock, variance shock),
    each distributed N(0, dt).  Broadcasts over leading dimensions; a
    departing variance that is not finite and > 0 raises DomainViolation.
    """
    if dt < 0.0:
        raise DomainViolation("dt must be >= 0")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    eps = np.asarray(eps, dtype=float)
    eps_x, eps_v = eps[..., 0], eps[..., 1]
    v = np.exp(params.sigma * y)
    mu_x, mu_v = drift_p(v, params, spec)
    # Y's drift as mu_V/(sigma V) - sigma/2 from the drift vector, not
    # model.log_variance_drift, which rounds differently: the simulated
    # series stay bitwise those of earlier versions.
    y_new = y + (mu_v / (params.sigma * v) - 0.5 * params.sigma) * dt + eps_v
    sq = np.exp(0.5 * params.sigma * y)
    x_new = x + mu_x * dt + sq * (params.rho * eps_v + np.sqrt(1.0 - params.rho**2) * eps_x)
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
    """Simulate an ensemble of independent Euler paths from ``initial``
    under the real-world drifts of ``spec``.

    ``measure`` is unread: the dynamics are those of the physical measure,
    and it stays only because the benchmark passes ``Measure.P`` here by
    position.  Deterministic given ``rng``.  ``record_every`` thins the
    stored grid (it must divide n_steps); draws are consumed in step-major
    order so two calls with the same stream are bitwise identical
    regardless of the recording stride.
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
        x, y = euler_step(x, y, params, spec, dt, eps)
        if step % record_every == 0:
            k = step // record_every
            xs[:, k] = x
            vs[:, k] = np.exp(params.sigma * y)
    return PathEnsemble(x=xs, v=vs)


class BridgeStep(NamedTuple):
    """One lattice step of the modified bridge.  The increments have the
    walk's shape (..., R); the departing y and s broadcast against them,
    and at the first step they are the endpoint's, shape (..., 1).  A step
    of the Y bridge alone has no dx.  The walk advances from these
    arrays: read them, never write."""

    y: np.ndarray           # departing point Y_m
    s: np.ndarray           # exp(sigma * Y_m / 2), so V_m = s^2
    dx: np.ndarray | None   # increments U_{m+1} - U_m; None on the Y bridge
    dy: np.ndarray


def y_bridge_walk(y0, y1, sigma: float, eps: np.ndarray) -> Iterator[BridgeStep]:
    """Walk the Y layer of the modified bridge from ``y0`` to ``y1``.

    Y has unit diffusion, so this is the plain Brownian bridge of e_y: it
    reads only the slabs ``eps[m, 1]`` of the step-major innovations
    (M-1, 2, ..., R), and its path depends on neither sigma nor rho.  Each
    step takes the one exp s = exp(sigma*Y_m/2) at its departing point and
    yields it with dy and no dx; step M-1 is the increment y1 - Y_{M-1}.
    """
    m_total = eps.shape[0] + 1
    y, y_end = y0[..., None], y1[..., None]
    for m in range(m_total - 1):
        remain = m_total - m
        s = np.multiply(0.5 * sigma, y)
        np.exp(s, out=s)
        dy = math.sqrt((remain - 1) / remain) * eps[m, 1]
        dy += (y_end - y) / remain
        yield BridgeStep(y, s, None, dy)
        y = y + dy
    yield BridgeStep(
        y, np.exp(0.5 * sigma * y), None, np.subtract(y_end, y, out=np.empty(eps.shape[2:]))
    )


def modified_bridge_walk(u0, u1, params: ParamVector, eps: np.ndarray) -> Iterator[BridgeStep]:
    """Walk the modified bridge from ``u0`` to ``u1``, one step at a time.

    ``u0`` and ``u1`` are (..., 2) endpoints in (x, y) and ``eps`` the
    N(0, delta) innovations e_0 .. e_{M-2} step-major, shape
    (M-1, 2, ..., R): step m reads the (..., R) slabs ``eps[m, 0]`` (the
    price innovation) and ``eps[m, 1]``, contiguous in a C-ordered array.
    The X recursion of the module docstring runs on top of
    :func:`y_bridge_walk`, whose departing s_m scales both the price noise
    and the caller's basis; step M-1 is the increment u1 - U_{M-1}, so
    the walk lands exactly on ``u1``.  At M = 1 there are no innovations
    and the one step is the whole interval, repeated for each of the R
    walks.
    """
    m_total = eps.shape[0] + 1
    rho = params.rho
    root = math.sqrt(1.0 - rho**2)
    x, x_end = u0[..., 0, None], u1[..., 0, None]
    steps = y_bridge_walk(u0[..., 1], u1[..., 1], params.sigma, eps)
    for m, step in zip(range(m_total - 1), steps):
        remain = m_total - m
        root_fac = math.sqrt((remain - 1) / remain)
        dx = root * eps[m, 0]
        dx += rho * eps[m, 1]
        dx *= root_fac * step.s
        dx += (x_end - x) / remain
        yield BridgeStep(step.y, step.s, dx, step.dy)
        x = x + dx
    step = next(steps)
    yield BridgeStep(step.y, step.s, np.subtract(x_end, x, out=np.empty(eps.shape[2:])), step.dy)
