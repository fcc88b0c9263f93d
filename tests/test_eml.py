import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlsv.eml
from nlsv.eml import (
    BasisTable,
    IllConditionedSystem,
    LinearSystem,
    assemble_system,
    draw_bridge_eps,
    solve_stock_drift,
    solve_variance_drift,
    stock_basis,
    variance_basis,
    variance_residual,
)
from nlsv.model import gamma_transform, y_drift
from nlsv.params import DomainViolation, Measure
from nlsv.rng import RngStream

from conftest import LN, LN_PARAMS, NL, NL_PARAMS, make_series

DELTA = 1 / 262


def _series_xy(params, spec, n, seed, v0=0.03):
    series = make_series(params, spec, n, seed, v0=v0)
    v = None
    x = series.x
    # invert with true parameters: exact y by construction
    from nlsv.model import iv_to_v

    y = gamma_transform(iv_to_v(series.iv, params), params.sigma)
    return x, y


# ------------------------------------------------------------ basis tables


def test_variance_basis_shapes():
    assert variance_basis(NL_PARAMS, NL).size == 4
    assert variance_basis(LN_PARAMS, LN).size == 1  # only b1 is free for LN


def test_nl_basis_matches_y_drift():
    # sum_l c_l f_l(y) must equal the y drift plus the Ito correction.
    from nlsv.model import y_drift
    from nlsv.params import Measure

    basis = variance_basis(NL_PARAMS, NL)
    coeffs = NL_PARAMS.variance_coeffs(NL)
    y = np.linspace(-2.0, 0.5, 31)
    total = sum(c * f(None, y) for c, f in zip(coeffs, basis.functions))
    expected = y_drift(y, NL_PARAMS, NL, Measure.P) + 0.5 * NL_PARAMS.sigma
    assert np.allclose(total, expected, rtol=1e-12)


def test_ln_offset_absorbs_intercept():
    # g_LN - (y1 - y0 + sigma*delta/2) must equal -b0_q*delta/(sigma*V0).
    basis = variance_basis(LN_PARAMS, LN)
    y0, y1, d = -1.3, -1.25, DELTA
    g = basis.offset(None, y1, None, y0, d)
    base = y1 - y0 + 0.5 * LN_PARAMS.sigma * d
    expected = -LN_PARAMS.b0_q * d / (LN_PARAMS.sigma * np.exp(LN_PARAMS.sigma * y0))
    assert g - base == pytest.approx(expected, rel=1e-12)


def test_variance_residual_is_centered_innovation():
    x, y = _series_xy(NL_PARAMS, NL, 800, 51)
    eps = variance_residual(x[1:], y[1:], x[:-1], y[:-1], DELTA, NL_PARAMS, NL)
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
    step = y_drift(y0, params, spec, Measure.P) * delta
    got = variance_residual(None, y1, None, y0, delta, params, spec)
    scale = np.abs(y1 - y0) + np.abs(step)
    assert np.all(np.abs(got - (y1 - y0 - step)) <= 1e-12 * scale)


# -------------------------------------------------------- linear system


def test_m1_reduction_equals_least_squares():
    x, y = _series_xy(NL_PARAMS, NL, 600, 7)
    basis = variance_basis(NL_PARAMS, NL)
    system = assemble_system(x, y, DELTA, 1, basis, 1, RngStream(1, 1))
    sol = system.solve()
    x0s, y0s, x1s, y1s = x[1:-1], y[1:-1], x[2:], y[2:]
    design = np.stack([f(x0s, y0s) for f in basis.functions], axis=1) * DELTA
    target = basis.offset(x1s, y1s, x0s, y0s, DELTA)
    oracle, *_ = np.linalg.lstsq(design, target, rcond=None)
    assert np.max(np.abs(sol - oracle) / np.maximum(1.0, np.abs(oracle))) < 1e-10


def test_single_basis_telescoping_solution():
    # Custom basis f0 = 1 with g = y1 - y0: bridge increments telescope per
    # draw, so the solution is the trajectory-mean drift over the summed
    # range (intervals 1..N-1, dropping the first interval).
    x, y = _series_xy(LN_PARAMS, LN, 200, 13)
    table = BasisTable(
        functions=(lambda xx, yy: np.ones(np.shape(yy)),),
        offset=lambda x1, y1, x0, y0, d: np.asarray(y1) - np.asarray(y0),
        coeff_names=("mean_drift",),
    )
    for aug in (1, 6):
        system = assemble_system(x, y, DELTA, aug, table, 16, RngStream(2, 4))
        sol = system.solve()[0]
        n_used = len(y) - 2  # intervals 1..N-1
        expected = (y[-1] - y[1]) / (n_used * DELTA)
        assert sol == pytest.approx(expected, rel=1e-10)


def test_constant_series_zero_noise_offset_sums():
    # Constant y with zero-noise fills: all lattice points equal, so the
    # moment vector reduces to the pure offset-function sums.
    n = 12
    x = np.zeros(n)
    y = np.full(n, -1.5)
    basis = variance_basis(NL_PARAMS, NL)
    aug = 4
    eps = np.zeros((n - 2, 3, aug - 1, 2))
    system = assemble_system(x, y, DELTA, aug, basis, 3, RngStream(0), eps=eps)
    d = DELTA / aug
    g_const = basis.offset(0.0, -1.5, 0.0, -1.5, d)
    f_vals = np.array([f(0.0, -1.5) for f in basis.functions])
    expected = (n - 2) * aug * g_const * f_vals
    assert np.allclose(system.moment, expected, rtol=1e-12)


def test_gram_matrix_exactly_symmetric():
    x, y = _series_xy(NL_PARAMS, NL, 300, 23)
    system = assemble_system(x, y, DELTA, 4, variance_basis(NL_PARAMS, NL), 8, RngStream(5, 2))
    assert np.max(np.abs(system.gram - system.gram.T)) == 0.0


def test_assembly_invariant_to_chunking():
    x, y = _series_xy(NL_PARAMS, NL, 150, 29)
    basis = variance_basis(NL_PARAMS, NL)
    kw = dict(n_bridges=8, rng=RngStream(3, 9), params=NL_PARAMS)
    s1 = assemble_system(x, y, DELTA, 4, basis, chunk_size=1, **kw)
    s2 = assemble_system(x, y, DELTA, 4, basis, chunk_size=37, **kw)
    s3 = assemble_system(x, y, DELTA, 4, basis, chunk_size=10_000, **kw)
    assert np.array_equal(s1.gram, s2.gram) and np.array_equal(s2.gram, s3.gram)
    assert np.array_equal(s1.moment, s2.moment) and np.array_equal(s2.moment, s3.moment)


def test_assembly_without_eps_draws_per_chunk(monkeypatch):
    # With no pre-drawn innovations each chunk draws only its own
    # intervals, and the system equals the one built on the full array.
    x, y = _series_xy(NL_PARAMS, NL, 150, 29)
    basis = stock_basis(NL_PARAMS, NL)
    aug, n_bridges, chunk = 4, 8, 32
    sizes = []

    def recorder(rng, indices, *args):
        sizes.append(len(indices))
        return draw_bridge_eps(rng, indices, *args)

    monkeypatch.setattr(nlsv.eml, "draw_bridge_eps", recorder)
    kw = dict(params=NL_PARAMS, chunk_size=chunk)
    drawn = assemble_system(x, y, DELTA, aug, basis, n_bridges, RngStream(3, 9), **kw)
    assert sizes and max(sizes) <= chunk
    eps = draw_bridge_eps(RngStream(3, 9), np.arange(1, len(y) - 1), n_bridges, aug, DELTA / aug)
    full = assemble_system(x, y, DELTA, aug, basis, n_bridges, RngStream(3, 9), eps=eps, **kw)
    assert np.array_equal(drawn.gram, full.gram) and np.array_equal(drawn.moment, full.moment)


def test_default_chunking_matches_single_intervals():
    x, y = _series_xy(NL_PARAMS, NL, 150, 29)
    basis = stock_basis(NL_PARAMS, NL)
    kw = dict(n_bridges=8, rng=RngStream(3, 9), params=NL_PARAMS)
    default = assemble_system(x, y, DELTA, 4, basis, **kw)
    single = assemble_system(x, y, DELTA, 4, basis, chunk_size=1, **kw)
    assert np.array_equal(default.gram, single.gram)
    assert np.array_equal(default.moment, single.moment)


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
    basis = stock_basis(NL_PARAMS, NL)
    assemble_system(x, y, DELTA, aug, basis, n_bridges, RngStream(3, 9), params=NL_PARAMS)
    assert len(sizes) == -(-(len(y) - 2) // chunk)
    assert max(sizes) == chunk


def test_duplicated_system_same_solution():
    x, y = _series_xy(NL_PARAMS, NL, 300, 31)
    system = assemble_system(x, y, DELTA, 2, variance_basis(NL_PARAMS, NL), 4, RngStream(8))
    doubled = LinearSystem(gram=2.0 * system.gram, moment=2.0 * system.moment)
    assert np.allclose(system.solve(), doubled.solve(), rtol=1e-12)


def test_ill_conditioned_duplicate_basis():
    x, y = _series_xy(LN_PARAMS, LN, 100, 37)
    f = lambda xx, yy: 1.0 / (LN_PARAMS.sigma * np.exp(LN_PARAMS.sigma * np.asarray(yy)))
    table = BasisTable(
        functions=(f, f),
        offset=lambda x1, y1, x0, y0, d: np.asarray(y1) - np.asarray(y0),
        coeff_names=("c0", "c1"),
    )
    system = assemble_system(x, y, DELTA, 1, table, 1, RngStream(0))
    with pytest.raises(IllConditionedSystem) as err:
        system.solve()
    assert err.value.condition > 1e12


def test_nonfinite_basis_evaluation_diagnostic():
    x = np.zeros(5)
    y = np.array([0.0, 1e6, 0.0, 0.0, 0.0])  # exp(sigma*y) overflows
    with pytest.raises(DomainViolation, match="interval"):
        assemble_system(x, y, DELTA, 1, variance_basis(NL_PARAMS, NL), 1, RngStream(0))


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
    basis = stock_basis(p, NL)
    x0s, y0s, x1s, y1s = x[1:-1], y[1:-1], x[2:], y[2:]
    design = np.stack([f(x0s, y0s) for f in basis.functions], axis=1) * DELTA
    sq = np.exp(0.5 * p.sigma * y0s)
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
