"""Golden values: EML drift coefficients and the simulated log-likelihood
on a fixed 50-day series, recorded with the step-by-step bridge recursion
and the explicit Euler-over-proposal density ratio.  A kernel change that
moves a number by more than rounding fails here, with the same relative
tolerance as the benchmark checksum.

Short LN and NL fits on a fixed 300-day series pin the search path and
the sandwich: a change that moves the optimizer's trial points shows in
the evaluation count, the optimum or the standard errors."""

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
# per EML system and 2 for the likelihood on these 299 intervals.
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
            "sigma": 0.20568118770738938, "rho": 0.030104769843949306,
            "b0_q": 0.02117032138738948, "b1_q": 2.629986822793983,
            "a0": 0.13384473009892003, "a1": 9.661979282839932, "b1": 2.972806826876393,
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
            "sigma": 0.23698009530838832, "rho": 0.02789149687031276,
            "b0_q": 0.024098382319328104, "b1_q": 2.6350622709296188,
            "a0": 0.18208789152995244, "a1": 12.780497310293136,
            "b0": 0.24052933342543845, "b1": 17.861997674345144,
            "b2": 350.29520644910826, "b3": 0.0009715419199948879,
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
