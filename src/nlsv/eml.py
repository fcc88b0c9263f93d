"""Closed-form drift estimation via bridge-expectation linear systems.

Discretizing the (x, y) dynamics at lattice spacing delta and rescaling so
the innovations are homoskedastic N(0, delta) puts both the variance and
the price equation in the common regression form

    g(U_{k+1}, U_k) = sum_l  c_l * f_l(U_k) * delta + eps_{k+1}.

The optimal coefficients given the vol and pricing-measure parameters
solve the normal equations ``gram @ c = moment`` where the Gram matrix and
moment vector accumulate conditional expectations of basis products over
the unobserved lattice points, approximated by averaging over
Brownian-bridge fills of each observation interval.

The limited-information ordering estimates the variance drift first (its
equation does not involve the price), then the price drift conditional on
the variance residuals, which enter the price equation's offset through
the leverage correlation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import variance_drift_over_v
from .params import DomainViolation, Family, ModelSpec, ParamVector
from .rng import RngStream
from .simulate import bridge_path, modified_bridge_fill

#: Condition-number threshold above which the normal equations are
#: reported as ill-conditioned instead of solved.
COND_THRESHOLD = 1e12

#: Lattice points in one chunk of intervals: the EML chunk of 128
#: intervals at the paper's S = 576 fills of M + 1 = 25 points.  Every
#: per-chunk array is a small multiple of this many floats, so it bounds
#: the memory of assembly and of the simulated likelihood at any budget.
CHUNK_POINTS = 128 * 576 * 25


class IllConditionedSystem(RuntimeError):
    """Normal equations too ill-conditioned to solve reliably."""

    def __init__(self, condition: float, message: str | None = None):
        self.condition = condition
        super().__init__(
            message or f"linear system condition estimate {condition:.3e} exceeds {COND_THRESHOLD:.0e}"
        )


@dataclass(frozen=True)
class BasisTable:
    """Basis functions and offset for one regression equation.

    ``functions[l]`` maps lattice coordinates (x, y) to the l-th basis
    value; ``offset`` maps (x1, y1, x0, y0, delta) to the rescaled
    increment g.  All callables must broadcast over arrays.
    """

    functions: tuple[Callable, ...]
    offset: Callable
    coeff_names: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.functions)


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

    def solve(self, cond_threshold: float = COND_THRESHOLD) -> np.ndarray:
        scaled, scale = self._equilibrated()
        cond = float(np.linalg.cond(scaled))
        if not np.isfinite(cond) or cond > cond_threshold:
            raise IllConditionedSystem(cond)
        z = np.linalg.solve(scaled, scale * self.moment)
        return scale * z


def variance_basis(params: ParamVector, spec: ModelSpec) -> BasisTable:
    """Basis and offset of the variance (y) equation for one family.

    NL uses the four functions 1/(sigma V), 1/sigma, V/sigma and
    1/(sigma V^2) with free coefficients (b0, b1, b2, b3) and offset
    g = y1 - y0 + sigma*delta/2.  For LN the intercept coefficient equals
    b0_q, which is known at this stage, so its state-dependent term
    b0_q*delta/(sigma V) is absorbed into the offset and only b1 (basis
    1/sigma) is estimated.
    """
    sigma = params.sigma

    def f_inv_v(x, y):
        return 1.0 / (sigma * np.exp(sigma * np.asarray(y)))

    def f_const(x, y):
        return np.full(np.shape(y), 1.0 / sigma)

    def f_v(x, y):
        return np.exp(sigma * np.asarray(y)) / sigma

    def f_inv_v2(x, y):
        return 1.0 / (sigma * np.exp(2.0 * sigma * np.asarray(y)))

    if spec.family is Family.NL:

        def g_nl(x1, y1, x0, y0, delta):
            return np.asarray(y1) - np.asarray(y0) + 0.5 * sigma * delta

        return BasisTable(
            functions=(f_inv_v, f_const, f_v, f_inv_v2),
            offset=g_nl,
            coeff_names=("b0", "b1", "b2", "b3"),
        )
    if spec.family is Family.LN:
        b0_q = params.b0_q

        def g_ln(x1, y1, x0, y0, delta):
            return (
                np.asarray(y1)
                - np.asarray(y0)
                + 0.5 * sigma * delta
                - b0_q * delta / (sigma * np.exp(sigma * np.asarray(y0)))
            )

        return BasisTable(functions=(f_const,), offset=g_ln, coeff_names=("b1",))
    raise DomainViolation("RW has no variance drift to estimate")


def variance_residual(
    x1, y1, x0, y0, delta: float, params: ParamVector, spec: ModelSpec
) -> np.ndarray:
    """Variance-equation innovation at the current drift coefficients.

    eps_v = y1 - y0 - mu_Y(y0) * delta with the log-variance drift
    mu_Y = (variance drift)/(sigma V) - sigma/2, distributed N(0, delta)
    when the coefficients are correct.
    """
    y0 = np.asarray(y0, dtype=float)
    return _residual_at(y1, y0, np.exp(params.sigma * y0), delta, params, spec)


def _residual_at(y1, y0, v0, delta: float, params: ParamVector, spec: ModelSpec) -> np.ndarray:
    """Variance-equation innovation departing from variance ``v0``; the
    drift term is accumulated in place, as the stock offset evaluates it
    on whole lattices."""
    sigma = params.sigma
    step = variance_drift_over_v(v0, params, spec)
    step /= sigma
    step -= 0.5 * sigma
    step *= -delta
    step += np.asarray(y1) - y0
    return step


def stock_basis(params: ParamVector, spec: ModelSpec) -> BasisTable:
    """Basis and offset of the price (x) equation.

    The offset depends on the variance-equation innovation through the
    leverage term, so the variance drift coefficients held by ``params``
    must already be the optimized ones.
    """
    sigma, rho = params.sigma, params.rho
    root = np.sqrt(1.0 - rho**2)

    def f0(x, y):
        return 1.0 / (root * np.exp(0.5 * sigma * np.asarray(y)))

    def f1(x, y):
        return np.exp(0.5 * sigma * np.asarray(y)) / root

    def g_x(x1, y1, x0, y0, delta):
        sq = np.exp(0.5 * sigma * np.asarray(y0))
        eps_v = _residual_at(y1, y0, sq * sq, delta, params, spec)
        eps_v *= -rho
        eps_v *= sq
        eps_v += np.asarray(x1) - x0
        sq *= root
        eps_v /= sq
        return eps_v

    return BasisTable(functions=(f0, f1), offset=g_x, coeff_names=("a0", "a1"))


def chunk_intervals(n_draws: int, aug_steps: int) -> int:
    """Intervals per chunk: as many as fit in ``CHUNK_POINTS`` lattice
    points at ``n_draws * (aug_steps + 1)`` points each, at least one."""
    return max(1, CHUNK_POINTS // (n_draws * (aug_steps + 1)))


def assemble_system(
    x_obs: Sequence[float],
    y_obs: Sequence[float],
    delta_obs: float,
    aug_steps: int,
    basis: BasisTable,
    n_bridges: int,
    rng: RngStream,
    params: ParamVector | None = None,
    eps: np.ndarray | None = None,
    chunk_size: int | None = None,
) -> LinearSystem:
    """Accumulate the normal equations over intervals 1 .. N-1.

    Each interval's bridge expectations average ``n_bridges`` independent
    bridge fills drawn from the substream keyed by the interval's absolute
    index, and per-interval contributions are reduced in index order, so
    the result is independent of any processing partition.  Intervals are
    processed ``chunk_size`` at a time, by default
    ``chunk_intervals(n_bridges, aug_steps)``, so memory is bounded by
    ``CHUNK_POINTS`` lattice points; without a pre-drawn ``eps`` the
    innovations are drawn chunk by chunk too.

    With ``params`` the lattice is the modified-bridge fill of (x, y),
    whose price noise is scaled by the local diffusion matrix.  Without,
    only y is filled (Y has unit diffusion, so its fill needs no
    parameters) and the basis receives None for x; ``x_obs`` is then not
    read.
    """
    y_obs = np.asarray(y_obs, dtype=float)
    n_intervals = len(y_obs) - 1
    if n_intervals < 2:
        raise DomainViolation("need at least 3 observations to assemble the system")
    if n_bridges < 1:
        raise DomainViolation("n_bridges must be >= 1")
    if chunk_size is None:
        chunk_size = chunk_intervals(n_bridges, aug_steps)
    if params is not None:
        x_obs = np.asarray(x_obs, dtype=float)
    delta = delta_obs / aug_steps
    size = basis.size

    idx = np.arange(1, n_intervals)
    gram_parts = np.empty((len(idx), size, size))
    moment_parts = np.empty((len(idx), size))
    for lo in range(0, len(idx), chunk_size):
        hi = min(lo + chunk_size, len(idx))
        block = idx[lo:hi]
        eps_blk = (                      # (B, R, M-1, 2)
            eps[lo:hi] if eps is not None
            else draw_bridge_eps(rng, block, n_bridges, aug_steps, delta)
        )
        # Lattice points m = 0..M of every fill, endpoints included.
        y = _lattice(y_obs, block, n_bridges, aug_steps)
        if params is None:
            x0 = x1 = None
            y[..., 1:-1] = bridge_path(
                y_obs[block, None], y_obs[block + 1, None], aug_steps, eps_blk[..., 1]
            )
        else:
            x = _lattice(x_obs, block, n_bridges, aug_steps)
            u0 = np.stack([x_obs[block], y_obs[block]], axis=-1)[:, None]   # (B, 1, 2)
            u1 = np.stack([x_obs[block + 1], y_obs[block + 1]], axis=-1)[:, None]
            aux = modified_bridge_fill(u0, u1, aug_steps, delta, params, eps=eps_blk)
            x[..., 1:-1] = aux[..., 0]
            y[..., 1:-1] = aux[..., 1]
            x0, x1 = x[..., :-1], x[..., 1:]
        y0, y1 = y[..., :-1], y[..., 1:]
        # Overflow of the state transform is reported just below.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            fvals = np.stack([f(x0, y0) for f in basis.functions], axis=1)   # (B, L, R, M)
            gvals = basis.offset(x1, y1, x0, y0, delta)                       # (B, R, M)
        finite = np.isfinite(fvals).all(axis=(1, 2, 3)) & np.isfinite(gvals).all(axis=(1, 2))
        if not np.all(finite):
            raise DomainViolation(
                f"non-finite basis evaluation on interval(s) {block[~finite][:5].tolist()}; "
                "state transform overflowed"
            )
        fmat = fvals.reshape(len(block), size, -1)
        gram_parts[lo:hi] = delta * (fmat @ fmat.transpose(0, 2, 1)) / n_bridges
        moment_parts[lo:hi] = (fmat @ gvals.reshape(len(block), -1, 1))[..., 0] / n_bridges

    gram = gram_parts.sum(axis=0)
    # Exact symmetry: keep the upper triangle, mirror it down.
    gram = np.triu(gram) + np.triu(gram, k=1).T
    moment = moment_parts.sum(axis=0)
    return LinearSystem(gram=gram, moment=moment)


def _lattice(obs: np.ndarray, block: np.ndarray, n_bridges: int, aug_steps: int) -> np.ndarray:
    """(B, R, M+1) lattice of one coordinate with each interval's
    observations at points 0 and M; the auxiliary points are left unset."""
    out = np.empty((len(block), n_bridges, aug_steps + 1))
    out[..., 0] = obs[block, None]
    out[..., -1] = obs[block + 1, None]
    return out


def draw_bridge_eps(
    rng: RngStream, interval_indices, n_draws: int, aug_steps: int, delta: float
) -> np.ndarray:
    """N(0, delta) bridge innovations for a set of intervals.

    Shape (len(indices), n_draws, aug_steps - 1, 2); interval i's block
    comes from ``rng.substream(i)`` regardless of its position, so any
    partitioning of intervals across workers sees identical draws.
    """
    interval_indices = np.asarray(interval_indices, dtype=int)
    out = np.empty((len(interval_indices), n_draws, max(aug_steps - 1, 0), 2))
    scale = np.sqrt(delta)
    for j, n in enumerate(interval_indices):
        out[j] = rng.substream(int(n)).generator().standard_normal(
            (n_draws, aug_steps - 1, 2)
        ) * scale
    return out


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
    """Optimal variance drift coefficients given vol and pricing parameters."""
    basis = variance_basis(params, spec)
    system = assemble_system(x_obs, y_obs, delta_obs, aug_steps, basis, n_bridges, rng, eps=eps)
    coeffs = system.solve()
    return dict(zip(basis.coeff_names, map(float, coeffs)))


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

    ``params`` must already hold the optimized variance coefficients, as
    they define the residuals entering the offset.
    """
    basis = stock_basis(params, spec)
    system = assemble_system(
        x_obs, y_obs, delta_obs, aug_steps, basis, n_bridges, rng, params=params, eps=eps
    )
    coeffs = system.solve()
    return float(coeffs[0]), float(coeffs[1])
