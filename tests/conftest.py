import numpy as np
import pytest

from nlsv import Measure, ModelSpec, ParamVector, RngStream, State, simulate_paths
from nlsv.data_io import ObservedSeries
from nlsv.model import v_to_iv
from nlsv.params import Family
from nlsv.simulate import modified_bridge_walk

# Estimated parameter values used as realistic anchors throughout the suite.
LN_PARAMS = ParamVector(
    sigma=2.2047, rho=-0.6768, b0_q=0.05817, b1_q=10.9858,
    a0=0.0748, a1=3.3370, b1=-1.7645,
)
NL_PARAMS = ParamVector(
    sigma=2.1734, rho=-0.6803, b0_q=0.0500, b1_q=11.3260,
    a0=0.0284, a1=6.0870, b0=-0.1064, b1=8.9591, b2=-180.7473, b3=0.00068,
)

LN = ModelSpec(Family.LN)
NL = ModelSpec(Family.NL)
RW = ModelSpec(Family.RW)


@pytest.fixture
def ln_params():
    return LN_PARAMS


@pytest.fixture
def nl_params():
    return NL_PARAMS


def make_series(
    params: ParamVector,
    spec: ModelSpec,
    n_obs: int,
    seed: int,
    v0: float = 0.03,
    x0: float = 5.7,
    substeps: int = 8,
) -> ObservedSeries:
    """Synthetic daily observed series: simulate under P on a fine grid,
    subsample daily, map variance to implied variance with the true
    pricing parameters."""
    dt = 1.0 / (262 * substeps)
    ens = simulate_paths(
        State(x0, v0), params, spec, Measure.P, dt,
        n_steps=(n_obs - 1) * substeps, n_paths=1,
        rng=RngStream(seed), record_every=substeps,
    )
    x, v = ens.x[0], ens.v[0]
    iv = v_to_iv(v, params)
    dates = np.busday_offset(np.datetime64("1990-01-02"), np.arange(n_obs), roll="forward")
    return ObservedSeries(dates, x, iv)


def make_xy_paths(
    params: ParamVector,
    spec: ModelSpec,
    n_obs: int,
    n_reps: int,
    seed: int,
    v0: float = 0.03,
    burn: int = 0,
    substeps: int = 2,
):
    """Replicated daily (x, y) paths in one vectorized simulation.

    Returns arrays of shape (n_reps, n_obs + 1) after discarding ``burn``
    initial daily observations per path.
    """
    ens = simulate_paths(
        State(5.7, v0), params, spec, Measure.P, 1.0 / (262 * substeps),
        n_steps=(n_obs + burn) * substeps, n_paths=n_reps,
        rng=RngStream(seed), record_every=substeps,
    )
    x = ens.x[:, burn:]
    y = np.log(ens.v[:, burn:]) / params.sigma
    return x, y


def step_major(eps) -> np.ndarray:
    """Innovations laid out per walk, shape (..., M-1, 2), in the walk's
    step-major layout (M-1, 2, ...), every value unchanged."""
    return np.moveaxis(np.asarray(eps, dtype=float), (-2, -1), (0, 1))


def bridge_points(u0, u1, params: ParamVector, eps: np.ndarray) -> np.ndarray:
    """Lattice U_0 .. U_M of one modified-bridge walk per leading index.

    ``eps`` holds the walk's innovations, shape (..., M-1, 2); the result
    has shape (..., M+1, 2), with the endpoints ``u0`` and ``u1`` at
    points 0 and M and each auxiliary point the running sum of the walk's
    increments, as the walk itself advances.
    """
    u0, u1 = np.asarray(u0, dtype=float), np.asarray(u1, dtype=float)
    eps = np.asarray(eps, dtype=float)
    shape = np.broadcast_shapes(u0.shape, u1.shape, eps.shape[:-2] + (2,))
    points = [np.broadcast_to(u0, shape)]
    for step in modified_bridge_walk(u0, u1, params, step_major(eps[..., None, :, :])):
        points.append(points[-1] + np.stack([step.dx[..., 0], step.dy[..., 0]], axis=-1))
    points[-1] = np.broadcast_to(u1, shape)
    return np.stack(points, axis=-2)
