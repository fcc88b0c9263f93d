"""Closed-form drift estimation via bridge-expectation linear systems.

Discretizing the (x, y) dynamics at lattice spacing delta and rescaling so
the innovations are homoskedastic N(0, delta) puts both the variance and
the price equation in the common regression form

    g(U_{k+1}, U_k) = sum_l  c_l * f_l(U_k) * delta + eps_{k+1}.

The optimal coefficients given the vol and pricing-measure parameters
solve the normal equations ``gram @ c = moment`` where the Gram matrix and
moment vector accumulate conditional expectations of basis products over
the unobserved lattice points, approximated by averaging over
modified-bridge walks through each observation interval.

Each solver writes its regression once: it turns one step of the walk,
whose departing s = exp(sigma*Y/2) is the one exp per lattice point,
into design rows, the basis values f_l first, written into one buffer per
block.  :func:`assemble_system` sums the products of the rows with the
basis over the lattice, and each solver forms its own normal equations
from these sums.

The limited-information ordering estimates the variance drift first (its
equation does not involve the price, so its walk is the Y bridge alone),
then the price drift conditional on the variance residuals, which enter
the price equation's offset through the leverage correlation.  With the
variance design f_v, g_v and its coefficients c, the variance residual
is eps_v = g_v - delta*f_v'c, linear in c, so with r = sqrt(1 - rho^2)
the price offset g_x = dx/(r s) - (rho/r)*eps_v sums against the price
basis f_x as

    sum f_x g_x = sum f_x dx/(r s) - (rho/r)*(sum f_x g_v - delta*(sum f_x f_v')c):

the stock regression writes the rows f_x, dx/(r s), g_v and f_v, and c
is applied once, after the sums, so no drift is evaluated per lattice
point.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .params import DomainViolation, Family, ModelSpec, ParamVector
from .rng import RngStream
from .simulate import BridgeStep, modified_bridge_walk, y_bridge_walk

#: Condition-number threshold above which the normal equations are
#: reported as ill-conditioned instead of solved.
COND_THRESHOLD = 1e12

#: Lattice points in one chunk of intervals: the EML chunk of 128
#: intervals at the paper's S = 576 walks of M + 1 = 25 points.  A chunk's
#: innovations are twice this many floats, (M-1, 2, B, R) step-major, and
#: each array of one walk step, like each (B, R) slab of innovations it
#: reads, CHUNK_POINTS/(M+1), so it bounds the memory of assembly and of
#: the simulated likelihood at any budget.
CHUNK_POINTS = 128 * 576 * 25


class IllConditionedSystem(RuntimeError):
    """Normal equations too ill-conditioned to solve reliably."""

    def __init__(self, condition: float, message: str | None = None):
        self.condition = condition
        super().__init__(
            message or f"linear system condition estimate {condition:.3e} exceeds {COND_THRESHOLD:.0e}"
        )


@dataclass
class LinearSystem:
    """Accumulated normal equations: symmetric Gram matrix and moment vector."""

    gram: np.ndarray
    moment: np.ndarray

    def _equilibrated(self) -> tuple[np.ndarray, np.ndarray]:
        """Jacobi-scale to unit diagonal so the condition number measures
        collinearity of the basis, not its units."""
        diag = np.diag(self.gram)
        if np.any(diag <= 0.0) or not np.all(np.isfinite(diag)):
            raise IllConditionedSystem(np.inf, "Gram matrix has a non-positive diagonal")
        scale = 1.0 / np.sqrt(diag)
        return self.gram * np.outer(scale, scale), scale

    def solve(self) -> np.ndarray:
        scaled, scale = self._equilibrated()
        cond = float(np.linalg.cond(scaled))
        if not np.isfinite(cond) or cond > COND_THRESHOLD:
            raise IllConditionedSystem(cond)
        z = np.linalg.solve(scaled, scale * self.moment)
        return scale * z


def chunk_intervals(n_draws: int, aug_steps: int) -> int:
    """Intervals per chunk: as many as fit in ``CHUNK_POINTS`` lattice
    points at ``n_draws * (aug_steps + 1)`` points each, at least one."""
    return max(1, CHUNK_POINTS // (n_draws * (aug_steps + 1)))


#: Threads that walk the chunks: the CPUs this process may run on.
WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)

#: Lattice points per worker below which a call walks its chunks on the
#: calling thread: numpy keeps the interpreter lock on small arrays, so
#: small blocks contend for it.  At two workers, threads lost or tied on
#: calls of up to 432k points and won from 461k.
POOL_POINTS = 250_000


@cache
def _pool(workers: int) -> ThreadPoolExecutor:
    """The process-wide pool, created on first use."""
    return ThreadPoolExecutor(workers, thread_name_prefix="nlsv-chunks")


def map_chunks(
    block: Callable[[int, int], np.ndarray], n_intervals: int, n_draws: int, aug_steps: int
) -> list[np.ndarray]:
    """``block(lo, hi)`` over consecutive blocks of intervals 0 .. n-1, in
    index order: chunks on the calling thread, or, from ``POOL_POINTS``
    lattice points (n * n_draws * (aug_steps + 1)) per worker, blocks of
    at most a ``WORKERS``-th of a chunk and of the call on ``WORKERS``
    threads, which overlap where numpy releases the interpreter lock.
    Either way at most ``CHUNK_POINTS`` points are in flight.  ``block``
    must give each interval's part independently of its block, and set
    numpy's error state itself: pool threads do not inherit the caller's.
    """
    chunk = chunk_intervals(n_draws, aug_steps)
    if WORKERS > 1 and n_intervals * n_draws * (aug_steps + 1) >= POOL_POINTS * WORKERS:
        size = max(1, min(chunk // WORKERS, -(-n_intervals // WORKERS)))
        return list(_pool(WORKERS).map(
            lambda lo: block(lo, min(lo + size, n_intervals)), range(0, n_intervals, size)
        ))
    return [block(lo, min(lo + chunk, n_intervals)) for lo in range(0, n_intervals, chunk)]


class Regression(NamedTuple):
    """A drift regression as :func:`assemble_system` walks it:
    ``write(step, delta, rows)`` writes the design of one
    :class:`BridgeStep` into a block's (n_rows, B, R) rows, the first
    ``n_basis`` of them the basis values f_l at the departing points.
    Each row is one contiguous (B, R) slab, so no elementwise write
    strides, however few the walks."""

    n_rows: int
    n_basis: int
    write: Callable[[BridgeStep, float, np.ndarray], None]


class ProductSums(NamedTuple):
    """Products of the design rows with the basis, averaged over each
    interval's walks and summed over its steps and over the intervals."""

    gram: np.ndarray    # (n_basis, n_basis): delta * f f', exactly symmetric
    cross: np.ndarray   # (n_rows - n_basis, n_basis): each other row times f'


def assemble_system(
    x_obs: Sequence[float] | None,
    y_obs: Sequence[float],
    params: ParamVector,
    delta_obs: float,
    aug_steps: int,
    regression: Regression,
    n_bridges: int,
    rng: RngStream,
    eps: np.ndarray | None = None,
) -> ProductSums:
    """Sum the products of the design rows over intervals 1 .. N-1.

    Each chunk of B intervals is walked by the modified bridge of
    ``params`` on its N(0, delta) innovations, shape (M-1, 2, B, R), or,
    when ``x_obs`` is None, by its Y bridge alone, which reads no price
    innovation and gives steps without dx.  ``regression.write`` writes
    each :class:`BridgeStep`'s design into the block's one (K, B, R)
    buffer of rows, and one product of the rows with the basis rows gives
    each interval's products of the step, summed over its R walks; they
    are then summed over its M steps in order.  The basis block, times
    delta, and the other rows' products come back averaged over the walks
    and summed over the intervals, from which each solver forms its
    normal equations.

    The walks of an interval are drawn from the substream keyed by its
    absolute index, and per-interval sums are reduced in index order, so
    the result is independent of any processing partition.
    :func:`map_chunks` walks blocks of intervals, on ``WORKERS`` threads
    from ``POOL_POINTS`` lattice points per worker, so memory is bounded
    by ``CHUNK_POINTS`` lattice points in flight; without a pre-drawn
    ``eps`` the innovations are drawn block by block too.
    """
    y_obs = np.asarray(y_obs, dtype=float)
    n_intervals = len(y_obs) - 1
    if n_intervals < 2:
        raise DomainViolation("need at least 3 observations to assemble the system")
    if n_bridges < 1:
        raise DomainViolation("n_bridges must be >= 1")
    delta = delta_obs / aug_steps
    if x_obs is not None:
        u = np.stack([np.asarray(x_obs, dtype=float), y_obs], axis=-1)

    idx = np.arange(1, n_intervals)
    if eps is not None:
        check_eps(eps, len(idx), n_bridges, aug_steps)
    n_basis = regression.n_basis

    def block_sums(lo: int, hi: int) -> np.ndarray:
        block = idx[lo:hi]
        eps_blk = (                      # (M-1, 2, B, R)
            eps[:, :, lo:hi] if eps is not None
            else draw_bridge_eps(rng, block, n_bridges, aug_steps, delta)
        )
        walk = (
            y_bridge_walk(y_obs[block], y_obs[block + 1], params.sigma, eps_blk)
            if x_obs is None
            else modified_bridge_walk(u[block], u[block + 1], params, eps_blk)
        )
        rows = np.empty((regression.n_rows, len(block), n_bridges))
        by_interval = rows.transpose(1, 0, 2)
        basis = rows[:n_basis].transpose(1, 2, 0)
        sums = 0.0                       # (B, K, L): every row times the basis
        # Overflow of the state transform is reported below.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for step in walk:
                regression.write(step, delta, rows)
                sums = sums + by_interval @ basis
        return sums

    sums = np.concatenate(map_chunks(block_sums, len(idx), n_bridges, aug_steps))
    finite = np.isfinite(sums).all(axis=(1, 2))
    if not np.all(finite):
        raise DomainViolation(
            f"non-finite basis evaluation on interval(s) {idx[~finite][:5].tolist()}; "
            "state transform overflowed"
        )
    gram = (delta * sums[:, :n_basis] / n_bridges).sum(axis=0)
    # Exact symmetry: keep the upper triangle, mirror it down.
    gram = np.triu(gram) + np.triu(gram, k=1).T
    return ProductSums(gram=gram, cross=(sums[:, n_basis:] / n_bridges).sum(axis=0))


def draw_bridge_eps(
    rng: RngStream, interval_indices, n_draws: int, aug_steps: int, delta: float
) -> np.ndarray:
    """N(0, delta) bridge innovations for a set of intervals, step-major.

    Shape (aug_steps - 1, 2, len(indices), n_draws), so that each step of
    the walk reads two C-contiguous (intervals, draws) slabs.  Interval
    i's draws are the (n_draws, aug_steps - 1, 2) block of
    ``rng.substream(i)``, whatever its position, so any partitioning of
    intervals across workers sees identical draws.
    """
    interval_indices = np.asarray(interval_indices, dtype=int)
    out = np.empty((aug_steps - 1, 2, len(interval_indices), n_draws))
    scale = np.sqrt(delta)
    for j, n in enumerate(interval_indices):
        block = rng.substream(int(n)).generator().standard_normal((n_draws, aug_steps - 1, 2))
        np.multiply(block.transpose(1, 2, 0), scale, out=out[:, :, j])
    return out


def check_eps(eps: np.ndarray, n_intervals: int, n_draws: int, aug_steps: int) -> None:
    """Raise :class:`DomainViolation` unless pre-drawn innovations have the
    shape :func:`draw_bridge_eps` gives these intervals and budgets."""
    expected = (aug_steps - 1, 2, n_intervals, n_draws)
    if eps.shape != expected:
        raise DomainViolation(
            f"innovations have shape {eps.shape}, expected (M-1, 2, intervals, draws) = {expected}"
        )


def _variance_design(step: BridgeStep, delta: float, params: ParamVector, spec: ModelSpec,
                     f: np.ndarray, g: np.ndarray) -> None:
    """Write the variance regression's basis values ``f`` (L, B, R) and
    offset ``g`` (B, R) at one walk step; see :func:`solve_variance_drift`."""
    sigma = params.sigma
    v = step.s * step.s
    np.add(step.dy, 0.5 * sigma * delta, out=g)
    if spec.family is Family.LN:
        f[0] = 1.0 / sigma
        v *= sigma
        g -= params.b0_q * delta / v
    else:
        np.divide(1.0, np.multiply(sigma, v, out=f[0]), out=f[0])
        f[1] = 1.0 / sigma
        np.divide(v, sigma, out=f[2])
        np.divide(f[0], v, out=f[3])


def solve_variance_drift(
    x_obs,
    y_obs,
    params: ParamVector,
    spec: ModelSpec,
    delta_obs: float,
    aug_steps: int,
    n_bridges: int,
    rng: RngStream,
    eps: np.ndarray | None = None,
) -> dict[str, float]:
    """Optimal variance drift coefficients given vol and pricing parameters.

    The variance (y) equation is regressed along the Y bridge alone, the
    plain Brownian bridge of e_y (Y has unit diffusion), so ``x_obs`` is
    not read and no price innovation is.  With V = s^2 from the walk's
    one exp per lattice point, NL uses the four functions 1/(sigma V),
    1/sigma, V/sigma and 1/(sigma V^2) with free coefficients
    (b0, b1, b2, b3) and offset g = dy + sigma*delta/2.  For LN the
    intercept coefficient equals b0_q, which is known at this stage, so
    its state-dependent term b0_q*delta/(sigma V) is absorbed into the
    offset and only b1 (basis 1/sigma) is estimated.
    """
    n = len(spec.variance_names)

    def write(step: BridgeStep, delta: float, rows: np.ndarray) -> None:
        _variance_design(step, delta, params, spec, rows[:n], rows[n])

    sums = assemble_system(
        None, y_obs, params, delta_obs, aug_steps, Regression(n + 1, n, write), n_bridges, rng,
        eps,
    )
    coeffs = LinearSystem(gram=sums.gram, moment=sums.cross[0]).solve()
    return dict(zip(spec.variance_names, map(float, coeffs)))


def solve_stock_drift(
    x_obs,
    y_obs,
    params: ParamVector,
    spec: ModelSpec,
    delta_obs: float,
    aug_steps: int,
    n_bridges: int,
    rng: RngStream,
    eps: np.ndarray | None = None,
) -> tuple[float, float]:
    """Optimal price drift (a0, a1) conditional on the variance drift.

    The price (x) equation is regressed along the modified bridge of
    (x, y), whose price noise is scaled by the local diffusion matrix.
    With s = exp(sigma*y/2), the scale of the price noise and the one exp
    per lattice point, and r = sqrt(1 - rho^2), the basis is 1/(r s) and
    s/r and the offset is g = (dx - rho*s*eps_v)/(r s), where eps_v is
    the variance residual departing from V = s^2.  ``params`` must
    already hold the optimized variance coefficients c, as they define
    these residuals.  By the linearity of eps_v in c (module docstring),
    the rows are the basis, dx/(r s) and the variance design g_v and f_v,
    and the offset's moment is formed from their sums with c.
    """
    rho = params.rho
    root = np.sqrt(1.0 - rho**2)
    coeffs = np.array([getattr(params, k) for k in spec.variance_names])

    def write(step: BridgeStep, delta: float, rows: np.ndarray) -> None:
        s, inv_rs = step.s, rows[0]
        np.divide(1.0, np.multiply(root, s, out=inv_rs), out=inv_rs)
        np.divide(s, root, out=rows[1])
        np.multiply(step.dx, inv_rs, out=rows[2])
        _variance_design(step, delta, params, spec, rows[4:], rows[3])

    sums = assemble_system(
        x_obs, y_obs, params, delta_obs, aug_steps, Regression(4 + len(coeffs), 2, write),
        n_bridges, rng, eps,
    )
    dx_rs, g_v, f_v = sums.cross[0], sums.cross[1], sums.cross[2:]
    delta = delta_obs / aug_steps
    moment = dx_rs - rho / root * (g_v - delta * (coeffs @ f_v))
    a0, a1 = LinearSystem(gram=sums.gram, moment=moment).solve()
    return float(a0), float(a1)
