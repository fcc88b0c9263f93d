"""Reference moments for checking LN forecasts.

Under P the LN variance drift b0_q + b1*V is affine, so E[V_t] and
E[X_t] have closed forms.  The simulator runs an Euler scheme in
Y = log(V)/sigma, whose means differ from the closed forms by the Euler
bias.  That bias is computed here without simulation, by propagating the
Euler chain's distribution on a fine Y grid, so a forecast can be checked
against the closed form within the bias plus a multiple of its Monte
Carlo standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.special import ndtr

#: Y-grid spacing as a share of one Euler step's standard deviation.
_GRID_PER_SD = 0.25
#: Transition kernel support in step standard deviations.
_KERNEL_SD = 8.0


def closed_form_means(params, x0: float, v0: float, t: np.ndarray):
    """Exact E[X_t] and E[V_t] of the LN diffusion under P."""
    k, c = params.b1, params.b0_q
    decay = np.exp(k * t)
    mean_v = (v0 + c / k) * decay - c / k
    int_v = (v0 + c / k) * (decay - 1.0) / k - c * t / k
    return x0 + params.a0 * t + params.a1 * int_v, mean_v


@dataclass
class EulerMoments:
    """Moments of the Euler chain at recorded steps, shape (n_rec + 1, K)
    for K starting states."""

    mean_x: np.ndarray
    mean_v: np.ndarray
    sd_x_bound: np.ndarray  # upper bound on the standard deviation of X
    sd_v: np.ndarray
    lost_mass: float  # largest probability mass that left the grid


class LnEulerChain:
    """Euler chain of Y for LN under P, as a sparse transition matrix on a
    grid covering V in [v_lo, v_hi].

    The chain moves between bin centres; rounding to a centre adds
    variance h^2/12 per step, so the kernel uses the step variance
    dt - h^2/12 (Sheppard's correction) and the binned chain keeps the
    Euler chain's variance.
    """

    def __init__(self, params, dt: float, v_lo: float = 1e-5, v_hi: float = 1e3):
        self.params = params
        self.dt = dt
        h = _GRID_PER_SD * math.sqrt(dt)
        sigma = params.sigma
        self.y = np.arange(math.log(v_lo) / sigma, math.log(v_hi) / sigma + h, h)
        self.v = np.exp(sigma * self.y)
        self.edges = np.concatenate([self.y - 0.5 * h, [self.y[-1] + 0.5 * h]])
        self.sd = math.sqrt(dt - h * h / 12.0)
        width = int(math.ceil(_KERNEL_SD / _GRID_PER_SD)) + 1
        means = self._step_means(self.y)
        centre = np.searchsorted(self.edges, means)
        cols = np.clip(centre[:, None] + np.arange(-width, width + 1), 0, len(self.y) - 1)
        lo = ndtr((self.edges[cols] - means[:, None]) / self.sd)
        hi = ndtr((self.edges[cols + 1] - means[:, None]) / self.sd)
        # Clipping repeats the edge column; keep each bin once.
        keep = np.ones_like(cols, dtype=bool)
        keep[:, 1:] = cols[:, 1:] != cols[:, :-1]
        rows = np.broadcast_to(np.arange(len(self.y))[:, None], cols.shape)
        self.kernel_t = sparse.csr_matrix(
            ((hi - lo)[keep], (cols[keep], rows[keep])), shape=(len(self.y),) * 2
        )

    def _step_means(self, y):
        p = self.params
        v = np.exp(p.sigma * y)
        drift = (p.b0_q + p.b1 * v) / (p.sigma * v) - 0.5 * p.sigma
        return y + drift * self.dt

    def moments(self, x0, v0, n_steps: int, record_every: int) -> EulerMoments:
        """Means of X and V and their spreads every ``record_every`` steps,
        for chains starting exactly at each (x0[k], v0[k])."""
        p = self.params
        x0 = np.asarray(x0, dtype=float)
        v0 = np.asarray(v0, dtype=float)
        first = self._step_means(np.log(v0) / p.sigma)
        # Distribution of Y after the first step, taken from the exact start.
        prob = np.diff(ndtr((self.edges[:, None] - first[None, :]) / self.sd), axis=0)
        # Sums over steps k < n of E[V_k] and sd(V_k), for the X moments.
        sum_v, sum_sd = v0.copy(), np.zeros_like(v0)
        n_rec = n_steps // record_every
        shape = (n_rec + 1,) + v0.shape
        mean_x, mean_v = np.empty(shape), np.empty(shape)
        sd_x, sd_v = np.zeros(shape), np.zeros(shape)
        mean_x[0], mean_v[0] = x0, v0
        for step in range(1, n_steps + 1):
            ev = self.v @ prob
            sdv = np.sqrt(np.maximum((self.v * self.v) @ prob - ev * ev, 0.0))
            if step % record_every == 0:
                k = step // record_every
                mean_x[k] = x0 + p.a0 * step * self.dt + p.a1 * self.dt * sum_v
                mean_v[k] = ev
                # Martingale part sqrt(dt * sum E[V]) plus the drift part,
                # whose spread is at most the sum of per-step spreads.
                sd_x[k] = np.sqrt(self.dt * sum_v) + abs(p.a1) * self.dt * sum_sd
                sd_v[k] = sdv
            sum_v += ev
            sum_sd += sdv
            if step < n_steps:
                prob = self.kernel_t @ prob
        lost = float(np.max(1.0 - prob.sum(axis=0)))
        return EulerMoments(mean_x, mean_v, sd_x, sd_v, lost_mass=lost)
