"""Golden values: EML drift coefficients and the simulated log-likelihood
on a fixed 50-day series, recorded with the step-by-step bridge recursion
and the explicit Euler-over-proposal density ratio.  A kernel change that
moves a number by more than rounding fails here, with the same relative
tolerance as the benchmark checksum."""

import pytest

from nlsv import eml
from nlsv.likelihood import (
    STREAM_EML,
    STREAM_SML,
    LikelihoodConfig,
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
