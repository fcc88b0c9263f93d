"""Golden values: EML drift coefficients and the simulated log-likelihood
on a fixed 50-day series, recorded with the step-by-step bridge recursion
and the explicit Euler-over-proposal density ratio.  A kernel change that
moves a number by more than rounding fails here, with the same relative
tolerance as the benchmark checksum.

Short LN and NL fits on a fixed 300-day series pin the search path and
the sandwich, and with them the arithmetic bit for bit: the standard
errors are finite differences of the log-likelihood at relative steps
down to 1e-5, so a change that only reorders sums, moving log-likelihoods
by 1e-12, moves them by up to about 1e-5 relative, far outside their 1e-9
tolerance.  Such a change re-records them and states why."""

import pytest

from nlsv import eml
from nlsv.likelihood import (
    STREAM_EML,
    STREAM_SML,
    LikelihoodConfig,
    fit,
    series_to_lattice_coords,
    total_loglik,
)
from nlsv.rng import RngStream

from conftest import LN, LN_PARAMS, NL, NL_PARAMS, make_series

REL_TOL = 1e-9

GOLDEN = {
    ("LN", 24, 576): {
        "b1": -9.692936557104328,
        "a0": 0.10236924713974556,
        "a1": 5.687166317746726,
        "loglik": 401.74807073768585,
    },
    ("LN", 2, 8): {
        "b1": -9.664855029979947,
        "a0": 0.08243006732110539,
        "a1": 6.822313778358165,
        "loglik": 401.79004936826453,
    },
    ("NL", 24, 576): {
        "b0": -7.5640735282296845,
        "b1": 388.53927390432165,
        "b2": -6381.118924553015,
        "b3": 0.04282440211294188,
        "a0": -0.2777282107037607,
        "a1": 30.853680317448102,
        "loglik": 401.83687512790965,
    },
    ("NL", 2, 8): {
        "b0": -7.097903348148019,
        "b1": 349.10542642392767,
        "b2": -5517.840302162113,
        "b3": 0.041359768813136744,
        "a0": -0.29766103203915506,
        "a1": 31.75340701679242,
        "loglik": 401.8584260979197,
    },
}

MODELS = {"LN": (LN, LN_PARAMS), "NL": (NL, NL_PARAMS)}


@pytest.fixture(scope="module")
def series():
    return make_series(NL_PARAMS, NL, 50, 20091104)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_values(series, key):
    name, m, s = key
    spec, params = MODELS[name]
    cfg = LikelihoodConfig(aug_steps=m, mc_draws=s)
    x, y = series_to_lattice_coords(series, params, cfg.swap_tenor)
    rng = RngStream(cfg.seed, STREAM_EML)
    got = eml.solve_variance_drift(x, y, params, spec, cfg.delta_obs, m, s, rng)
    trial = params.with_variance_coeffs(spec, [got[k] for k in sorted(got)])
    got["a0"], got["a1"] = eml.solve_stock_drift(
        x, y, trial, spec, cfg.delta_obs, m, s, rng
    )
    got["loglik"] = total_loglik(series, params, spec, cfg, RngStream(cfg.seed, STREAM_SML))
    assert got == pytest.approx(GOLDEN[key], rel=REL_TOL, abs=0.0)


# Recorded with fixed chunks of 128 EML and 256 SML intervals: 3 chunks
# per EML system and 2 for the likelihood on these 299 intervals.  The
# standard errors were re-recorded when the stock system came to sum its
# offset by linearity: that reorders its sums and moves (a0, a1) by up to
# 5e-13 relative here, and the finite differences move by up to 5e-9
# (LN) and 1.4e-5 (NL) relative.  They were re-recorded again when the
# lattice kernels came to multiply by reciprocals where they divided by
# scalars and the likelihood to sum its quadratic form whitened: that
# moves (a0, a1) and the drift coefficients by up to 5e-13 relative, and
# the standard errors by up to 9.7e-8 (LN) and 3.3e-6 (NL) relative.
GOLDEN_FITS = {
    "LN": {
        "loglik": 2591.5809741804906,
        "n_evaluations": 65,
        "params": {
            "sigma": 2.919628953495997, "rho": -0.7141082932454579,
            "b0_q": 0.1470401318132758, "b1_q": 1.2182540539918199,
            "a0": -0.16848349759552608, "a1": 15.565074126293508, "b1": -9.41624360097131,
        },
        "std_errors": {
            "sigma": 0.20568118253689915, "rho": 0.030104769224948157,
            "b0_q": 0.021170321078012335, "b1_q": 2.6299866549256476,
            "a0": 0.1338446857249642, "a1": 9.661973513423574, "b1": 2.9728066773682484,
        },
    },
    "NL": {
        "loglik": 2593.5641914661637,
        "n_evaluations": 72,
        "params": {
            "sigma": 2.9644679461419634, "rho": -0.7424539443125004,
            "b0_q": 0.14275205037538963, "b1_q": 1.0623752894852343,
            "a0": -0.28207795954329107, "a1": 23.796554882469113,
            "b0": -0.3022180755416891, "b1": 18.265191541448203,
            "b2": -497.3827640112469, "b3": 0.002074065420254644,
        },
        "std_errors": {
            "sigma": 0.23698140350493882, "rho": 0.02789153744364702,
            "b0_q": 0.024098568293725576, "b1_q": 2.635089232214706,
            "a0": 0.1820880569926137, "a1": 12.780507821055854,
            "b0": 0.2405299410134887, "b1": 17.86205317684832,
            "b2": 350.2963242211151, "b3": 0.0009715439100069388,
        },
    },
}


@pytest.fixture(scope="module")
def fit_series():
    return make_series(NL_PARAMS, NL, 300, 20091104)


@pytest.mark.parametrize("name", sorted(GOLDEN_FITS))
def test_golden_fit(fit_series, name):
    golden = GOLDEN_FITS[name]
    cfg = LikelihoodConfig(aug_steps=2, mc_draws=4, max_iter=40, restarts=1, min_obs=50)
    res = fit(fit_series, MODELS[name][0], cfg)
    assert res.n_evaluations == golden["n_evaluations"]
    assert res.loglik == pytest.approx(golden["loglik"], rel=1e-12, abs=0.0)
    params = {k: getattr(res.params, k) for k in res.param_names}
    assert params == pytest.approx(golden["params"], rel=1e-12, abs=0.0)
    assert res.std_errors == pytest.approx(golden["std_errors"], rel=1e-9, abs=0.0)
