import dataclasses
import functools
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis.extra import numpy as hnp
from hypothesis import strategies as st

import nlsv.eml
from nlsv.eml import (
    IllConditionedSystem,
    LinearSystem,
    Regression,
    assemble_system,
    draw_bridge_eps,
    solve_stock_drift,
    solve_variance_drift,
)
from nlsv.model import drift_p, gamma_transform, log_variance_drift
from nlsv.params import DomainViolation
from nlsv.rng import RngStream
from nlsv.simulate import modified_bridge_walk

from conftest import LN, LN_PARAMS, NL, NL_PARAMS, make_series, step_major

DELTA = 1 / 262


def _mu_y(y, params, spec):
    """Reference drift of Y = log(V)/sigma from the real-world drift
    vector: mu_V/(sigma V) - sigma/2 at V = exp(sigma*y)."""
    v = np.exp(params.sigma * np.asarray(y, dtype=float))
    return drift_p(v, params, spec)[1] / (params.sigma * v) - 0.5 * params.sigma


def _series_xy(params, spec, n, seed, v0=0.03):
    series = make_series(params, spec, n, seed, v0=v0)
    v = None
    x = series.x
    # invert with true parameters: exact y by construction
    from nlsv.model import iv_to_v

    y = gamma_transform(iv_to_v(series.iv, params), params.sigma)
    return x, y


class _Captured(Exception):
    pass


def _regression(solver, params, spec, aug_steps):
    """The per-step regression ``solver`` hands to ``assemble_system``."""

    def capture(x_obs, y_obs, walk_params, delta_obs, aug, regression, *rest):
        raise _Captured(regression)

    with mock.patch.object(nlsv.eml, "assemble_system", capture):
        with pytest.raises(_Captured) as got:
            solver(None, None, params, spec, DELTA, aug_steps, 1, RngStream(0))
    return got.value.args[0]


def _on_lattice(regression, params, u0, u1, eps, delta):
    """``regression`` at every step of the walks from ``u0`` to ``u1`` on
    innovations ``eps`` (B, R, M-1, 2): the basis values (B, L, R, M),
    then each other row of the design, (B, R, M), such as the offset."""
    steps = []
    for step in modified_bridge_walk(u0, u1, params, step_major(eps)):
        rows = np.empty((regression.n_rows, len(u0), eps.shape[1]))
        regression.write(step, delta, rows)
        steps.append(rows)
    rows = np.stack(steps, axis=-1)
    return (rows[: regression.n_basis].swapaxes(0, 1), *rows[regression.n_basis :])


def _system(sums):
    """The normal equations of a regression whose one row after the basis
    is its offset."""
    return LinearSystem(gram=sums.gram, moment=sums.cross[0])


def _explicit_stock(params, spec):
    """The price regression with its offset written out at every lattice
    point, g_x = (dx - rho*s*eps_v)/(r s), eps_v the variance residual
    from the drift: the reference for the stock system's offset by
    linearity."""
    rho = params.rho
    root = np.sqrt(1.0 - rho**2)

    def write(step, delta, rows):
        s = step.s
        rs = root * s
        np.divide(1.0, rs, out=rows[0])
        np.divide(s, root, out=rows[1])
        g = rows[2]
        np.multiply(step.dy - _mu_y(step.y, params, spec) * delta, -rho, out=g)
        g *= s
        g += step.dx
        g /= rs

    return Regression(3, 2, write)


def _endpoints(x, y):
    """(B, 2) interval endpoints of the walk."""
    return np.stack(np.broadcast_arrays(x, y), axis=-1)


def _variance_design(y, params):
    """The paper's NL variance basis 1/(sigma V), 1/sigma, V/sigma and
    1/(sigma V^2) at V = exp(sigma*y), one column each."""
    sigma = params.sigma
    v = np.exp(sigma * np.asarray(y))
    return np.stack([1 / (sigma * v), np.full(v.shape, 1 / sigma), v / sigma, 1 / (sigma * v**2)], -1)


# ------------------------------------------------------------ regressions


def test_variance_basis_shapes():
    # The NL basis has four functions; LN estimates only b1.
    u = _endpoints(0.0, np.array([-1.3, -1.0]))
    for spec, params, size in ((NL, NL_PARAMS, 4), (LN, LN_PARAMS, 1)):
        reg = _regression(solve_variance_drift, params, spec, 3)
        f, g = _on_lattice(reg, params, u, u, np.zeros((2, 5, 2, 2)), DELTA)
        assert f.shape == (2, size, 5, 3) and g.shape == (2, 5, 3)


def test_nl_basis_matches_y_drift():
    # sum_l c_l f_l(y) must equal the y drift plus the Ito correction.
    reg = _regression(solve_variance_drift, NL_PARAMS, NL, 1)
    y = np.linspace(-2.0, 0.5, 31)
    f, _ = _on_lattice(
        reg, NL_PARAMS, _endpoints(0.0, y), _endpoints(0.0, y + 0.1), np.zeros((31, 1, 0, 2)), DELTA
    )
    coeffs = np.array([NL_PARAMS.b0, NL_PARAMS.b1, NL_PARAMS.b2, NL_PARAMS.b3])
    total = np.einsum("l,bl->b", coeffs, f[:, :, 0, 0])
    expected = _mu_y(y, NL_PARAMS, NL) + 0.5 * NL_PARAMS.sigma
    assert np.allclose(total, expected, rtol=1e-12)
    assert np.allclose(f[:, :, 0, 0], _variance_design(y, NL_PARAMS), rtol=1e-14)


def test_ln_offset_absorbs_intercept():
    # g_LN - (y1 - y0 + sigma*delta/2) must equal -b0_q*delta/(sigma*V0),
    # and the one basis function is 1/sigma.
    reg = _regression(solve_variance_drift, LN_PARAMS, LN, 1)
    y0, y1, d = -1.3, -1.25, DELTA
    f, g = _on_lattice(
        reg, LN_PARAMS, _endpoints(0.0, [y0]), _endpoints(0.0, [y1]), np.zeros((1, 1, 0, 2)), d
    )
    base = y1 - y0 + 0.5 * LN_PARAMS.sigma * d
    expected = -LN_PARAMS.b0_q * d / (LN_PARAMS.sigma * np.exp(LN_PARAMS.sigma * y0))
    assert g[0, 0, 0] - base == pytest.approx(expected, rel=1e-12)
    assert f[0, 0, 0, 0] == 1 / LN_PARAMS.sigma


def test_stock_regression_removes_the_leverage_term():
    # Basis 1/(r s), s/r and offset (x1 - x0 - rho*s*eps_v)/(r s), with
    # s = exp(sigma*y0/2), r = sqrt(1 - rho^2) and eps_v the variance
    # innovation y1 - y0 - mu_Y(y0)*delta.  The rows hold the offset by
    # linearity: dx/(r s) - (rho/r)*(g_v - delta*f_v'c), c the variance
    # coefficients.
    reg = _regression(solve_stock_drift, NL_PARAMS, NL, 1)
    x0, x1 = np.array([5.7, 5.6]), np.array([5.71, 5.58])
    y0, y1 = np.array([-1.3, -0.9]), np.array([-1.25, -0.97])
    f, dx_rs, g_v, *f_v = _on_lattice(
        reg, NL_PARAMS, _endpoints(x0, y0), _endpoints(x1, y1), np.zeros((2, 1, 0, 2)), DELTA
    )
    coeffs = [NL_PARAMS.b0, NL_PARAMS.b1, NL_PARAMS.b2, NL_PARAMS.b3]
    drift = sum(c * f_l for c, f_l in zip(coeffs, f_v, strict=True))
    g = dx_rs - NL_PARAMS.rho / np.sqrt(1 - NL_PARAMS.rho**2) * (g_v - DELTA * drift)
    sigma, rho = NL_PARAMS.sigma, NL_PARAMS.rho
    s, r = np.exp(0.5 * sigma * y0), np.sqrt(1 - rho**2)
    eps_v = y1 - y0 - _mu_y(y0, NL_PARAMS, NL) * DELTA
    assert np.allclose(f[:, :, 0, 0], np.stack([1 / (r * s), s / r], -1), rtol=1e-14)
    assert np.allclose(g[:, 0, 0], (x1 - x0 - rho * s * eps_v) / (r * s), rtol=1e-12)


def test_variance_residual_is_centered_innovation():
    # The variance-equation innovation at the true drift, formed as the
    # simulated likelihood forms it from model.log_variance_drift.
    x, y = _series_xy(NL_PARAMS, NL, 800, 51)
    y0 = y[:-1]
    eps = np.diff(y) - log_variance_drift(np.exp(NL_PARAMS.sigma * y0), NL_PARAMS, NL) * DELTA
    # innovations are N(0, delta): mean near 0, variance near delta
    assert abs(eps.mean()) < 4 * np.sqrt(DELTA / len(eps))
    assert eps.var() == pytest.approx(DELTA, rel=0.15)


@pytest.mark.parametrize("spec, params", [(LN, LN_PARAMS), (NL, NL_PARAMS)])
@given(
    v0=st.floats(1e-3, 2.0),
    dy=st.floats(-1.0, 1.0),
    delta=st.floats(1e-5, 1e-2),
)
@settings(max_examples=60, deadline=None)
def test_variance_residual_matches_y_drift(spec, params, v0, dy, delta):
    # eps_v = y1 - y0 - mu_Y(y0) * delta term by term, to rounding of the
    # larger of the two parts.
    y0 = np.array([gamma_transform(v0, params.sigma)])
    y1 = y0 + dy
    step = _mu_y(y0, params, spec) * delta
    got = (y1 - y0) - log_variance_drift(np.exp(params.sigma * y0), params, spec) * delta
    scale = np.abs(y1 - y0) + np.abs(step)
    assert np.all(np.abs(got - (y1 - y0 - step)) <= 1e-12 * scale)


# -------------------------------------------------------- linear system


def test_m1_reduction_equals_least_squares():
    # At M = 1 the lattice is the observations, so the solution is the
    # least-squares regression of the paper's offset on its basis.
    x, y = _series_xy(NL_PARAMS, NL, 600, 7)
    sol = solve_variance_drift(x, y, NL_PARAMS, NL, DELTA, 1, 1, RngStream(1, 1))
    y0s, y1s = y[1:-1], y[2:]
    design = _variance_design(y0s, NL_PARAMS) * DELTA
    target = y1s - y0s + 0.5 * NL_PARAMS.sigma * DELTA
    oracle, *_ = np.linalg.lstsq(design, target, rcond=None)
    got = np.array([sol[k] for k in NL.variance_names])
    assert np.max(np.abs(got - oracle) / np.maximum(1.0, np.abs(oracle))) < 1e-10


@pytest.mark.parametrize("spec, params", [(LN, LN_PARAMS), (NL, NL_PARAMS)], ids=["LN", "NL"])
@given(
    x_new=hnp.arrays(np.float64, 40, elements=st.floats(allow_nan=False, allow_infinity=False)),
    rho=st.floats(-0.99, 0.99),
)
@settings(max_examples=25, deadline=None)
def test_variance_coefficients_read_y_alone(spec, params, x_new, rho):
    # The variance system walks the Y bridge alone: any finite price path
    # and any leverage give its coefficients bitwise.
    x, y = _series_xy(NL_PARAMS, NL, 40, 41)
    base = solve_variance_drift(x, y, params, spec, DELTA, 3, 4, RngStream(5, 3))
    p = dataclasses.replace(params, rho=rho)
    assert solve_variance_drift(x_new, y, p, spec, DELTA, 3, 4, RngStream(5, 3)) == base


def test_single_basis_telescoping_solution():
    # Custom regression f0 = 1 with g = dy: bridge increments telescope
    # per draw, so the solution is the trajectory-mean drift over the
    # summed range (intervals 1..N-1, dropping the first interval).
    x, y = _series_xy(LN_PARAMS, LN, 200, 13)

    def mean_drift(step, delta, rows):
        rows[0] = 1.0
        rows[1] = step.dy

    for aug in (1, 6):
        sums = assemble_system(
            x, y, LN_PARAMS, DELTA, aug, Regression(2, 1, mean_drift), 16, RngStream(2, 4)
        )
        sol = _system(sums).solve()[0]
        n_used = len(y) - 2  # intervals 1..N-1
        expected = (y[-1] - y[1]) / (n_used * DELTA)
        assert sol == pytest.approx(expected, rel=1e-10)


def test_constant_series_zero_noise_offset_sums():
    # Constant y with zero-noise fills: all lattice points equal, so the
    # moment vector reduces to the pure offset-function sums.
    n = 12
    x = np.zeros(n)
    y = np.full(n, -1.5)
    aug = 4
    reg = _regression(solve_variance_drift, NL_PARAMS, NL, aug)
    eps = step_major(np.zeros((n - 2, 3, aug - 1, 2)))
    sums = assemble_system(x, y, NL_PARAMS, DELTA, aug, reg, 3, RngStream(0), eps=eps)
    d = DELTA / aug
    g_const = 0.5 * NL_PARAMS.sigma * d
    f_vals = _variance_design(-1.5, NL_PARAMS)
    expected = (n - 2) * aug * g_const * f_vals
    assert np.allclose(_system(sums).moment, expected, rtol=1e-12)


def test_gram_matrix_exactly_symmetric():
    x, y = _series_xy(NL_PARAMS, NL, 300, 23)
    reg = _regression(solve_variance_drift, NL_PARAMS, NL, 4)
    sums = assemble_system(x, y, NL_PARAMS, DELTA, 4, reg, 8, RngStream(5, 2))
    assert np.max(np.abs(sums.gram - sums.gram.T)) == 0.0


def _chunk_points(chunk, n_bridges, aug):
    """``CHUNK_POINTS`` value that makes every chunk ``chunk`` intervals."""
    return chunk * n_bridges * (aug + 1)


_CHUNK_KW = dict(n_bridges=8, rng=RngStream(3, 9))


@functools.cache
def _unchunked_systems():
    """The series of the chunking tests and, per solver, its regression and
    system assembled in one chunk."""
    x, y = _series_xy(NL_PARAMS, NL, 150, 29)
    regs = [_regression(s, NL_PARAMS, NL, 4) for s in (solve_variance_drift, solve_stock_drift)]
    systems = [(reg, assemble_system(x, y, NL_PARAMS, DELTA, 4, reg, **_CHUNK_KW)) for reg in regs]
    return x, y, systems


@given(chunk=st.integers(1, 148))
@example(chunk=1)
@example(chunk=37)
@example(chunk=10_000)
@settings(max_examples=20, deadline=None)
def test_assembly_invariant_to_chunking(chunk):
    # Intervals draw from their own substreams and their contributions are
    # reduced in index order, so any chunk length gives the system bitwise:
    # the variance system on the Y fill and the stock system on the
    # modified-bridge fill, both on innovations drawn chunk by chunk.
    x, y, systems = _unchunked_systems()
    for reg, whole in systems:
        with mock.patch.object(nlsv.eml, "CHUNK_POINTS", _chunk_points(chunk, 8, 4)):
            assert nlsv.eml.chunk_intervals(8, 4) == chunk
            chunked = assemble_system(x, y, NL_PARAMS, DELTA, 4, reg, **_CHUNK_KW)
        assert np.array_equal(whole.gram, chunked.gram)
        assert np.array_equal(whole.cross, chunked.cross)


def test_assembly_without_eps_draws_per_chunk(monkeypatch):
    # With no pre-drawn innovations each chunk draws only its own
    # intervals, and the system equals the one built on the full array.
    x, y = _series_xy(NL_PARAMS, NL, 150, 29)
    aug, n_bridges, chunk = 4, 8, 32
    reg = _regression(solve_stock_drift, NL_PARAMS, NL, aug)
    monkeypatch.setattr(nlsv.eml, "CHUNK_POINTS", _chunk_points(chunk, n_bridges, aug))
    sizes = []

    def recorder(rng, indices, *args):
        sizes.append(len(indices))
        return draw_bridge_eps(rng, indices, *args)

    monkeypatch.setattr(nlsv.eml, "draw_bridge_eps", recorder)
    drawn = assemble_system(x, y, NL_PARAMS, DELTA, aug, reg, n_bridges, RngStream(3, 9))
    assert sizes and max(sizes) <= chunk
    eps = draw_bridge_eps(RngStream(3, 9), np.arange(1, len(y) - 1), n_bridges, aug, DELTA / aug)
    full = assemble_system(x, y, NL_PARAMS, DELTA, aug, reg, n_bridges, RngStream(3, 9), eps=eps)
    assert np.array_equal(drawn.gram, full.gram) and np.array_equal(drawn.cross, full.cross)


def test_default_chunking_matches_single_intervals(monkeypatch):
    x, y = _series_xy(NL_PARAMS, NL, 150, 29)
    reg = _regression(solve_stock_drift, NL_PARAMS, NL, 4)
    default = assemble_system(x, y, NL_PARAMS, DELTA, 4, reg, **_CHUNK_KW)
    monkeypatch.setattr(nlsv.eml, "CHUNK_POINTS", _chunk_points(1, 8, 4))
    single = assemble_system(x, y, NL_PARAMS, DELTA, 4, reg, **_CHUNK_KW)
    assert np.array_equal(default.gram, single.gram)
    assert np.array_equal(default.cross, single.cross)


def test_default_chunk_bounds_the_draws(monkeypatch):
    # The default chunk holds as many intervals as fit in CHUNK_POINTS
    # lattice points, and each chunk draws only its own intervals.
    x, y = _series_xy(NL_PARAMS, NL, 150, 29)
    aug, n_bridges = 4, 8
    monkeypatch.setattr(nlsv.eml, "CHUNK_POINTS", 17 * n_bridges * (aug + 1) + 5)
    chunk = nlsv.eml.chunk_intervals(n_bridges, aug)
    assert chunk == 17
    sizes = []

    def recorder(rng, indices, *args):
        sizes.append(len(indices))
        return draw_bridge_eps(rng, indices, *args)

    monkeypatch.setattr(nlsv.eml, "draw_bridge_eps", recorder)
    reg = _regression(solve_stock_drift, NL_PARAMS, NL, aug)
    assemble_system(x, y, NL_PARAMS, DELTA, aug, reg, n_bridges, RngStream(3, 9))
    assert len(sizes) == -(-(len(y) - 2) // chunk)
    assert max(sizes) == chunk


def _pool_on(monkeypatch, workers):
    """Map every call on ``workers`` threads, in blocks of
    37 // ``workers`` intervals at ``_CHUNK_KW``'s budget and M = 4."""
    monkeypatch.setattr(nlsv.eml, "WORKERS", workers)
    monkeypatch.setattr(nlsv.eml, "POOL_POINTS", 1)
    monkeypatch.setattr(nlsv.eml, "CHUNK_POINTS", _chunk_points(37, 8, 4))


def _on_threads(regression, names):
    """``regression`` that records the names of the threads it runs on."""

    def recorded(step, delta, rows):
        names.add(threading.current_thread().name)
        regression.write(step, delta, rows)

    return regression._replace(write=recorded)


@pytest.mark.parametrize("workers", [2, 3])
def test_assembly_on_the_pool_is_bitwise_serial(monkeypatch, workers):
    # Blocks walked on the pool threads draw from their intervals'
    # substreams and are reduced in index order, so both systems equal the
    # serial ones bitwise, on innovations drawn block by block or pre-drawn.
    x, y, systems = _unchunked_systems()
    eps = draw_bridge_eps(RngStream(3, 9), np.arange(1, len(y) - 1), 8, 4, DELTA / 4)
    _pool_on(monkeypatch, workers)
    for reg, whole in systems:
        for kw in ({}, {"eps": eps}):
            names = set()
            pooled = assemble_system(x, y, NL_PARAMS, DELTA, 4, _on_threads(reg, names),
                                     **_CHUNK_KW, **kw)
            assert np.array_equal(whole.gram, pooled.gram)
            assert np.array_equal(whole.cross, pooled.cross)
            assert names and all(n.startswith("nlsv-chunks") for n in names)


def test_one_worker_never_creates_the_pool(monkeypatch):
    def no_pool(workers):
        raise AssertionError("pool created")

    x, y, systems = _unchunked_systems()
    _pool_on(monkeypatch, 1)
    monkeypatch.setattr(nlsv.eml, "_pool", no_pool)
    for reg, whole in systems:
        names = set()
        inline = assemble_system(x, y, NL_PARAMS, DELTA, 4, _on_threads(reg, names), **_CHUNK_KW)
        assert np.array_equal(whole.gram, inline.gram)
        assert names == {threading.current_thread().name}


def test_pool_overflow_in_a_late_block_raises_and_the_pool_goes_on(monkeypatch):
    # Y = 1000 at observation 120 overflows s = exp(sigma*Y/2) in the walks
    # of intervals 119 and 120, both in the block of intervals 109 .. 126.
    # The error names them as the serial walk does, and the pool serves the
    # next call.
    x, y, systems = _unchunked_systems()
    bad = y.copy()
    bad[120] = 1e3
    for reg, _ in systems:
        with pytest.raises(DomainViolation) as serial:
            assemble_system(x, bad, NL_PARAMS, DELTA, 4, reg, **_CHUNK_KW)
        assert "interval(s) [119, 120]" in str(serial.value)
    _pool_on(monkeypatch, 2)
    for reg, whole in systems:
        with pytest.raises(DomainViolation) as pooled:
            assemble_system(x, bad, NL_PARAMS, DELTA, 4, reg, **_CHUNK_KW)
        assert str(pooled.value) == str(serial.value)
        after = assemble_system(x, y, NL_PARAMS, DELTA, 4, reg, **_CHUNK_KW)
        assert np.array_equal(whole.gram, after.gram)


def test_map_chunks_raises_the_first_failed_block_in_index_order(monkeypatch):
    # An exception raised on a pool thread propagates out of the map; of
    # several failed blocks, the earliest is raised, as inline.
    _pool_on(monkeypatch, 2)

    def block(lo, hi):
        if lo >= 36:
            raise DomainViolation(f"block {lo}")
        return np.arange(lo, hi)

    with pytest.raises(DomainViolation, match="block 36"):
        nlsv.eml.map_chunks(block, 100, 8, 4)
    parts = nlsv.eml.map_chunks(lambda lo, hi: np.arange(lo, hi), 100, 8, 4)
    assert [len(p) for p in parts] == [18] * 5 + [10]
    assert np.array_equal(np.concatenate(parts), np.arange(100))


@given(n=st.integers(2, 148), chunk=st.integers(1, 40), workers=st.sampled_from([2, 3]))
@example(n=2, chunk=1, workers=3)
@settings(max_examples=15, deadline=None)
def test_assembly_on_the_pool_is_bitwise_serial_at_any_size(n, chunk, workers):
    # Whatever the number of intervals and the blocks they fall into, both
    # systems on the pool threads equal the serial ones bitwise, on
    # innovations drawn block by block or pre-drawn.
    x, y, systems = _unchunked_systems()
    x, y = x[: n + 1], y[: n + 1]
    eps = draw_bridge_eps(RngStream(3, 9), np.arange(1, n), 8, 4, DELTA / 4)
    for reg, _ in systems:
        serial = assemble_system(x, y, NL_PARAMS, DELTA, 4, reg, **_CHUNK_KW)
        with mock.patch.multiple(
            nlsv.eml, WORKERS=workers, POOL_POINTS=1, CHUNK_POINTS=_chunk_points(chunk, 8, 4)
        ):
            for kw in ({}, {"eps": eps}):
                pooled = assemble_system(x, y, NL_PARAMS, DELTA, 4, reg, **_CHUNK_KW, **kw)
                assert np.array_equal(serial.gram, pooled.gram)
                assert np.array_equal(serial.cross, pooled.cross)


@pytest.mark.parametrize("draws", ["cached", "per-block", "pool"])
@pytest.mark.parametrize("rho", [-0.99, -0.68, 0.0, 0.68, 0.99])
@pytest.mark.parametrize("spec, params", [(LN, LN_PARAMS), (NL, NL_PARAMS)], ids=["LN", "NL"])
def test_stock_drift_matches_the_explicit_offset(monkeypatch, spec, params, rho, draws):
    # The offset by linearity, with the variance coefficients applied
    # after the sums, solves the regression whose offset evaluates the
    # variance residual at every lattice point, to rounding: on
    # pre-drawn innovations, on innovations drawn block by block, and on
    # the pool threads.
    p = dataclasses.replace(params, rho=rho)
    x, y = _series_xy(NL_PARAMS, NL, 150, 29)
    eps = None
    if draws == "cached":
        eps = draw_bridge_eps(RngStream(3, 9), np.arange(1, len(y) - 1), 8, 4, DELTA / 4)
    if draws == "pool":
        _pool_on(monkeypatch, 2)
    reference = assemble_system(x, y, p, DELTA, 4, _explicit_stock(p, spec), **_CHUNK_KW, eps=eps)
    expected = _system(reference).solve()
    got = solve_stock_drift(x, y, p, spec, DELTA, 4, 8, RngStream(3, 9), eps=eps)
    np.testing.assert_allclose(got, expected, rtol=1e-10, atol=0.0)


@given(
    subset=st.lists(st.integers(0, 39), max_size=12),
    aug=st.integers(1, 5),
    n_draws=st.integers(1, 6),
)
@settings(max_examples=30, deadline=None)
def test_draws_of_any_intervals_are_those_of_the_full_set(subset, aug, n_draws):
    # Interval i draws from its own substream, so any set of intervals, in
    # any order and with repeats, gets the full array's columns.
    full = draw_bridge_eps(RngStream(3, 9), np.arange(40), n_draws, aug, DELTA / aug)
    part = draw_bridge_eps(RngStream(3, 9), subset, n_draws, aug, DELTA / aug)
    assert np.array_equal(part, full[:, :, subset])


def test_assembly_rejects_innovations_of_another_shape():
    # Pre-drawn innovations are (M-1, 2, N-1, n_bridges).  In the per-walk
    # layout their interval count would be read as M-1, and with another
    # draw count the sums would be averaged over n_bridges all the same.
    x, y, systems = _unchunked_systems()
    reg = systems[0][0]
    eps = draw_bridge_eps(RngStream(3, 9), np.arange(1, len(y) - 1), 8, 4, DELTA / 4)
    for bad in (np.moveaxis(eps, (0, 1), (-2, -1)), eps[..., :4], eps[:, :, 1:]):
        with pytest.raises(DomainViolation, match="innovations have shape"):
            assemble_system(x, y, NL_PARAMS, DELTA, 4, reg, **_CHUNK_KW, eps=bad)


def test_duplicated_system_same_solution():
    x, y = _series_xy(NL_PARAMS, NL, 300, 31)
    reg = _regression(solve_variance_drift, NL_PARAMS, NL, 2)
    system = _system(assemble_system(x, y, NL_PARAMS, DELTA, 2, reg, 4, RngStream(8)))
    doubled = LinearSystem(gram=2.0 * system.gram, moment=2.0 * system.moment)
    assert np.allclose(system.solve(), doubled.solve(), rtol=1e-12)


def test_ill_conditioned_duplicate_basis():
    x, y = _series_xy(LN_PARAMS, LN, 100, 37)
    sigma = LN_PARAMS.sigma

    def duplicated(step, delta, rows):
        rows[0] = rows[1] = 1.0 / (sigma * np.exp(sigma * step.y))
        rows[2] = step.dy

    system = _system(
        assemble_system(x, y, LN_PARAMS, DELTA, 1, Regression(3, 2, duplicated), 1, RngStream(0))
    )
    with pytest.raises(IllConditionedSystem) as err:
        system.solve()
    assert err.value.condition > 1e12


def test_nonfinite_basis_evaluation_diagnostic():
    x = np.zeros(5)
    y = np.array([0.0, 1e6, 0.0, 0.0, 0.0])  # exp(sigma*y) overflows
    with pytest.raises(DomainViolation, match=r"interval\(s\) \[1\]"):
        solve_variance_drift(x, y, NL_PARAMS, NL, DELTA, 1, 1, RngStream(0))


# ------------------------------------------------------------- recovery


def test_variance_drift_recovery_nl():
    # Replicated estimates scatter around the truth: mean within 3
    # standard errors of the replication mean for every coefficient.
    from conftest import make_xy_paths

    xs, ys = make_xy_paths(NL_PARAMS, NL, 2500, 12, 101)
    ests = []
    for r in range(len(xs)):
        vp = solve_variance_drift(xs[r], ys[r], NL_PARAMS, NL, DELTA, 4, 16, RngStream(9, 1))
        ests.append([vp["b0"], vp["b1"], vp["b2"], vp["b3"]])
    ests = np.array(ests)
    truth = np.array([NL_PARAMS.b0, NL_PARAMS.b1, NL_PARAMS.b2, NL_PARAMS.b3])
    se = ests.std(axis=0, ddof=1) / np.sqrt(len(ests))
    assert np.all(np.abs(ests.mean(axis=0) - truth) < 3 * se)


def test_nl_fit_on_ln_data_keeps_extra_terms_null():
    # Nesting: on LN data the extra NL coefficients are statistically
    # indistinguishable from zero at the scale of one fit's sampling
    # noise (replication SD as the oracle for a single estimate's SD).
    from conftest import make_xy_paths

    xs, ys = make_xy_paths(LN_PARAMS, LN, 2000, 10, 301, v0=0.033)
    ests = []
    for r in range(len(xs)):
        vp = solve_variance_drift(xs[r], ys[r], LN_PARAMS, NL, DELTA, 2, 8, RngStream(4, 2))
        ests.append([vp["b2"], vp["b3"]])
    ests = np.array(ests)
    sd = ests.std(axis=0, ddof=1)
    within = np.abs(ests) < 3 * sd
    assert within.mean(axis=0).min() >= 0.8


def test_stock_drift_recovery():
    from conftest import make_xy_paths

    xs, ys = make_xy_paths(NL_PARAMS, NL, 2500, 12, 201)
    ests = []
    for r in range(len(xs)):
        a0, a1 = solve_stock_drift(xs[r], ys[r], NL_PARAMS, NL, DELTA, 4, 16, RngStream(9, 3))
        ests.append([a0, a1])
    ests = np.array(ests)
    truth = np.array([NL_PARAMS.a0, NL_PARAMS.a1])
    se = ests.std(axis=0, ddof=1) / np.sqrt(len(ests))
    assert np.all(np.abs(ests.mean(axis=0) - truth) < 3 * se)


def test_stock_drift_rho_zero_decouples():
    # With rho = 0 the offset no longer involves the variance residual:
    # the solution equals the standalone scaled-increment regression.
    p = dataclasses.replace(NL_PARAMS, rho=0.0)
    x, y = _series_xy(p, NL, 500, 61)
    a0, a1 = solve_stock_drift(x, y, p, NL, DELTA, 1, 1, RngStream(2, 2))
    x0s, y0s, x1s = x[1:-1], y[1:-1], x[2:]
    sq = np.exp(0.5 * p.sigma * y0s)
    design = np.stack([1.0 / sq, sq], axis=1) * DELTA  # basis 1/s, s at rho = 0
    target = (x1s - x0s) / sq  # rho = 0: plain scaled increments
    oracle, *_ = np.linalg.lstsq(design, target, rcond=None)
    assert a0 == pytest.approx(oracle[0], rel=1e-9, abs=1e-12)
    assert a1 == pytest.approx(oracle[1], rel=1e-9, abs=1e-12)


def test_zero_return_constant_variance_consistency():
    # x flat with (near-)constant v: the fitted price drift line passes
    # through zero at the observed variance level (a0 + a1*V ~ 0).  An
    # exactly constant v makes the two basis functions collinear, so a
    # vanishing jitter keeps the system solvable; rho = 0 removes the
    # leverage residual from the offset.
    n = 300
    v0 = 0.04
    p = dataclasses.replace(LN_PARAMS, rho=0.0)
    x = np.zeros(n)
    y = gamma_transform(v0, p.sigma) + 0.02 * np.sin(np.arange(n))
    a0, a1 = solve_stock_drift(x, y, p, LN, DELTA, 1, 1, RngStream(2, 7))
    assert a0 + a1 * v0 == pytest.approx(0.0, abs=1e-12)


def test_exactly_constant_variance_is_reported_singular():
    n = 100
    x = np.zeros(n)
    y = np.full(n, gamma_transform(0.04, LN_PARAMS.sigma))
    with pytest.raises(IllConditionedSystem):
        solve_stock_drift(x, y, LN_PARAMS, LN, DELTA, 1, 1, RngStream(2, 7))


def test_consistency_rate_in_sample_size():
    # Recovery error of the variance drift coefficient shrinks roughly as
    # 1/sqrt(N): log-log slope -0.5 +- 0.15, measured on the LN family
    # whose variance process mixes fast enough (time constant ~ 0.6y) for
    # the CLT rate to hold on these sample sizes.  Paths share prefixes
    # across sizes, which decorrelates the slope estimate from path luck.
    from conftest import make_xy_paths

    sizes = (1000, 2000, 4000)
    reps = 48
    xs, ys = make_xy_paths(LN_PARAMS, LN, 4000, reps, 401, v0=0.033, burn=500)
    log_rmse = []
    for n in sizes:
        errs = [
            solve_variance_drift(
                xs[r, : n + 1], ys[r, : n + 1], LN_PARAMS, LN, DELTA, 1, 1, RngStream(6, 1)
            )["b1"]
            - LN_PARAMS.b1
            for r in range(reps)
        ]
        log_rmse.append(0.5 * np.log(np.mean(np.square(errs))))
    slope = np.polyfit(np.log(sizes), log_rmse, 1)[0]
    assert -0.65 < slope < -0.35
