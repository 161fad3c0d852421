import math
import warnings

import mpmath
import numpy as np
import pytest

from evidunc import special
from evidunc.special import DomainError, digamma, log_gamma, trigamma
from oracles import shift_and_series_per_step

mpmath.mp.dps = 50

# Reference values frozen from a 50-digit evaluation (mpmath), re-derived
# below in test_frozen_values_match_reference.
LGAMMA_HALF = 0.5723649429247001  # ln(sqrt(pi))
DIGAMMA_1 = -0.5772156649015329  # -Euler-Mascheroni
DIGAMMA_2 = 0.4227843350984671  # digamma(1) + 1
DIGAMMA_HALF = -1.9635100260214235  # -gamma - 2 ln 2
TRIGAMMA_1 = 1.6449340668482264  # pi^2 / 6
TRIGAMMA_2 = 0.6449340668482264  # pi^2 / 6 - 1


def test_frozen_values_match_reference():
    assert LGAMMA_HALF == pytest.approx(float(mpmath.loggamma(mpmath.mpf("0.5"))), abs=1e-15)
    assert DIGAMMA_1 == pytest.approx(float(mpmath.digamma(1)), abs=1e-15)
    assert DIGAMMA_2 == pytest.approx(float(mpmath.digamma(2)), abs=1e-15)
    assert DIGAMMA_HALF == pytest.approx(float(mpmath.digamma(mpmath.mpf("0.5"))), abs=1e-15)
    assert TRIGAMMA_1 == pytest.approx(float(mpmath.polygamma(1, 1)), abs=1e-15)
    assert TRIGAMMA_2 == pytest.approx(float(mpmath.polygamma(1, 2)), abs=1e-15)


@pytest.mark.parametrize(
    "x, expected",
    [(1.0, 0.0), (2.0, 0.0), (0.5, LGAMMA_HALF)],
)
def test_log_gamma_spot_values(x, expected):
    assert log_gamma(x) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "x, expected",
    [(1.0, DIGAMMA_1), (2.0, DIGAMMA_2), (0.5, DIGAMMA_HALF)],
)
def test_digamma_spot_values(x, expected):
    assert digamma(x) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "x, expected",
    [(1.0, TRIGAMMA_1), (2.0, TRIGAMMA_2)],
)
def test_trigamma_spot_values(x, expected):
    assert trigamma(x) == pytest.approx(expected, abs=1e-10)


def test_trigamma_asymptotic_limit():
    x = 1e6
    assert trigamma(x) == pytest.approx(1.0 / x, rel=1e-6)


def _grid():
    # log-spaced sweep of the documented accuracy window, plus awkward points
    pts = np.logspace(-3, 6, 400)
    extra = np.array([1e-3, 0.49999, 0.5, 1.0 - 1e-9, 1.0, 1.5, 2.0, 6.0, 15.999, 16.0, 16.001])
    return np.concatenate([pts, extra])


def test_log_gamma_accuracy_grid():
    for x in _grid():
        ref = float(mpmath.loggamma(mpmath.mpf(float(x))))
        err = abs(log_gamma(float(x)) - ref)
        # absolute 1e-12 wherever lnGamma is small enough for float64 to hold
        # it at that resolution; ulp-level relative beyond that
        assert err <= max(1e-12, 5e-15 * abs(ref)), f"x={x} err={err}"


def test_digamma_accuracy_grid():
    for x in _grid():
        ref = float(mpmath.digamma(mpmath.mpf(float(x))))
        err = abs(digamma(float(x)) - ref)
        assert err <= max(1e-12, 5e-15 * abs(ref)), f"x={x} err={err}"


def test_trigamma_accuracy_grid():
    for x in _grid():
        ref = float(mpmath.polygamma(1, mpmath.mpf(float(x))))
        err = abs(trigamma(float(x)) - ref)
        assert err <= max(1e-10, 5e-14 * abs(ref)), f"x={x} err={err}"


def test_digamma_recurrence():
    rng = np.random.default_rng(7)
    x = rng.uniform(0.01, 100.0, size=500)
    lhs = digamma(x + 1.0) - digamma(x)
    assert np.all(np.abs(lhs - 1.0 / x) <= 1e-10)


def test_log_gamma_recurrence():
    rng = np.random.default_rng(8)
    x = rng.uniform(0.01, 100.0, size=500)
    lhs = log_gamma(x + 1.0) - log_gamma(x)
    assert np.all(np.abs(lhs - np.log(x)) <= 1e-10)


def test_trigamma_matches_digamma_finite_difference():
    rng = np.random.default_rng(9)
    x = rng.uniform(0.1, 100.0, size=200)
    h = 1e-5 * np.maximum(x, 1.0)
    fd = (digamma(x + h) - digamma(x - h)) / (2.0 * h)
    assert np.all(np.abs(fd - trigamma(x)) <= 1e-6 * np.abs(trigamma(x)))


def test_vectorized_matches_scalar():
    x = np.array([0.001, 0.5, 1.0, 3.25, 40.0, 1e5])
    for fn in (log_gamma, digamma, trigamma):
        vec = fn(x)
        assert isinstance(vec, np.ndarray)
        for xi, vi in zip(x, vec):
            assert fn(float(xi)) == vi
    assert isinstance(log_gamma(2.0), float)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("fn", [log_gamma, digamma, trigamma])
def test_domain_errors(fn, bad):
    with pytest.raises(DomainError):
        fn(bad)


def test_domain_errors_on_arrays():
    with pytest.raises(DomainError):
        digamma(np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        log_gamma(np.array([2.0, -3.0]))


# All three functions from one shift pass; the library runs two of them at most.
ALL_THREE = special._scheme(special._LOG_GAMMA, special._DIGAMMA, special._TRIGAMMA)


def _all_three(x):
    """lnGamma, digamma and trigamma of x, each in x's shape, from one
    unchecked shift pass of ``special._series``."""
    arr = np.asarray(x, dtype=np.float64)
    parts = special._series(arr.reshape(-1), ALL_THREE)
    return [part[: arr.size].reshape(arr.shape) for part in parts]


def test_gamma_terms_bitwise_equal_to_single_functions():
    rng = np.random.default_rng(10)
    x = np.exp(rng.uniform(math.log(1e-8), math.log(1e6), size=120_000)).reshape(400, 300)
    terms = _all_three(x)
    assert len(terms) == 3
    for got, fn in zip(terms, (log_gamma, digamma, trigamma)):
        want = fn(x)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_huge_arguments_raise_no_overflow_warning():
    # y*y overflows near 1.3e154; the series term then takes its limit, 0.
    x = np.array([1e200, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lg, psi, tri = _all_three(x)
    assert np.all(np.isfinite(lg))
    assert psi == pytest.approx(np.log(x), rel=1e-15)
    assert tri == pytest.approx(1.0 / x, rel=1e-15)


@pytest.mark.parametrize(
    "fn, bad, message",
    [
        (log_gamma, 0.0, "log_gamma: argument must be > 0, got 0.0"),
        (digamma, float("nan"), "digamma: argument must be finite, got nan"),
        (trigamma, np.array([1.0, -1.0]), "trigamma: argument must be > 0, got array([ 1., -1.])"),
    ],
)
def test_domain_error_messages(fn, bad, message):
    with pytest.raises(DomainError) as err:
        fn(bad)
    assert str(err.value) == message


def _wide(shape, seed=11):
    """Log-uniform arguments over [1e-8, 1e300]."""
    rng = np.random.default_rng(seed)
    return np.exp(rng.uniform(math.log(1e-8), math.log(1e300), size=shape))


def _assert_bitwise_as_per_step(x):
    want = shift_and_series_per_step(x)
    for g, w in zip([fn(x) for fn in (log_gamma, digamma, trigamma)], want):
        assert type(g) is type(w) and np.shape(g) == np.shape(w)
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
    for g, w in zip(_all_three(x), want):
        assert g.shape == np.shape(w) and g.tobytes() == np.asarray(w).tobytes()


# Blocks hold 4096 elements; a block of one element would be summed
# pairwise by numpy and change the bits, so sizes around the edges matter.
@pytest.mark.parametrize("shape", [1, 2, 3, 4095, 4096, 4097, 8193, (1, 1), (3, 1), (4097, 1),
                                   (683, 6), (32, 6), (1366, 3), (2, 4097), (0,), (0, 5)])
def test_blocks_bitwise_equal_to_per_step_loop(shape):
    _assert_bitwise_as_per_step(_wide(shape))
    _assert_bitwise_as_per_step(np.random.default_rng(12).uniform(1e-3, 40.0, size=shape))


def test_scalars_bitwise_equal_to_per_step_loop():
    for v in np.concatenate([_wide(200), np.linspace(1e-3, 40.0, 200)]):
        for x in (float(v), np.float64(v), np.array(v), np.float32(min(v, 1e30))):
            _assert_bitwise_as_per_step(x)
    for x in (1, 7, np.int64(3), [0.5, 2.0], np.asfortranarray(_wide((50, 7))), _wide((9, 8))[::2, ::3]):
        _assert_bitwise_as_per_step(x)


# The training losses call the unchecked walker directly; it must give the
# bits of the validated public functions and of the per-step reference, one
# function at a time, in every merged scheme, whether or not it shares the
# shifts' reciprocal, as in the one-function schemes.
@pytest.mark.parametrize("size", [2, 3, 192, 4095, 4096, 4097, 8193])
def test_unchecked_series_bitwise_equal_to_public_functions(size):
    x = np.random.default_rng(size).uniform(1e-3, 40.0, size=size)
    public = {"log_gamma": log_gamma(x), "digamma": digamma(x), "trigamma": trigamma(x)}
    single = {name: shift_and_series_per_step(x, [part])[0] for name, part in
              [("log_gamma", special._LOG_GAMMA), ("digamma", special._DIGAMMA),
               ("trigamma", special._TRIGAMMA)]}
    for scheme, names in [(ALL_THREE, ["log_gamma", "digamma", "trigamma"]),
                          (special._LOG_GAMMA_AND_DIGAMMA, ["log_gamma", "digamma"]),
                          (special._DIGAMMA_AND_TRIGAMMA, ["digamma", "trigamma"]),
                          (special._LOG_GAMMA_ONLY, ["log_gamma"]),
                          (special._DIGAMMA_ONLY, ["digamma"]),
                          (special._TRIGAMMA_ONLY, ["trigamma"])]:
        parts = special._series(x, scheme)
        assert len(parts) == len(names)
        for got, name in zip(parts, names):
            assert got.tobytes() == public[name].tobytes() == single[name].tobytes()


# _series owns the flattening: each part comes back in the argument's shape,
# a lone element included, with the bits of the flat call.
@pytest.mark.parametrize("shape", [(), (1,), (1, 1), (683, 6), (4097,), (3, 1500)])
def test_unchecked_series_keeps_the_argument_shape(shape):
    x = np.random.default_rng(13).uniform(1e-3, 40.0, size=shape)
    want = shift_and_series_per_step(x)
    flat = special._series(x.reshape(-1), ALL_THREE)
    for got, f, w in zip(special._series(x, ALL_THREE), flat, want):
        assert got.shape == x.shape and f.shape == (x.size,)
        assert got.tobytes() == f.tobytes() == np.asarray(w).tobytes()


def test_unchecked_series_passes_nan_through():
    x = np.array([1.5, np.nan, 2.5])
    lg, psi, tri = special._series(x, ALL_THREE)
    for got, fn in zip((lg, psi, tri), (log_gamma, digamma, trigamma)):
        assert np.isnan(got[1])
        assert got[[0, 2]].tobytes() == fn(x[[0, 2]]).tobytes()
