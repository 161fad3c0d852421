import math
import warnings

import mpmath
import numpy as np
import pytest

from evidunc.special import DomainError, digamma, gamma_terms, log_gamma, trigamma

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


def test_gamma_terms_bitwise_equal_to_single_functions():
    rng = np.random.default_rng(10)
    x = np.exp(rng.uniform(math.log(1e-8), math.log(1e6), size=120_000)).reshape(400, 300)
    terms = gamma_terms(x)
    assert len(terms) == 3
    for got, fn in zip(terms, (log_gamma, digamma, trigamma)):
        want = fn(x)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("x", [2.5, 3, np.float64(0.75), np.float32(1e-3)],
                         ids=["float", "int", "float64", "float32"])
def test_gamma_terms_scalars_come_back_as_float(x):
    terms = gamma_terms(x)
    for got, fn in zip(terms, (log_gamma, digamma, trigamma)):
        assert type(got) is float and type(fn(x)) is float
        assert got == fn(x)


def test_gamma_terms_zero_d_array_matches_single_functions():
    x = np.array(4.25)
    for got, fn in zip(gamma_terms(x), (log_gamma, digamma, trigamma)):
        want = fn(x)
        assert type(got) is type(want) and got == want


def test_huge_arguments_raise_no_overflow_warning():
    # y*y overflows near 1.3e154; the series term then takes its limit, 0.
    x = np.array([1e200, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lg, psi, tri = gamma_terms(x)
    assert np.all(np.isfinite(lg))
    assert psi == pytest.approx(np.log(x), rel=1e-15)
    assert tri == pytest.approx(1.0 / x, rel=1e-15)


@pytest.mark.parametrize(
    "fn, bad, message",
    [
        (log_gamma, 0.0, "log_gamma: argument must be > 0, got 0.0"),
        (digamma, float("nan"), "digamma: argument must be finite, got nan"),
        (trigamma, np.array([1.0, -1.0]), "trigamma: argument must be > 0, got array([ 1., -1.])"),
        (gamma_terms, float("inf"), "gamma_terms: argument must be finite, got inf"),
        (gamma_terms, np.array(-2.0), "gamma_terms: argument must be > 0, got array(-2.)"),
    ],
)
def test_domain_error_messages(fn, bad, message):
    with pytest.raises(DomainError) as err:
        fn(bad)
    assert str(err.value) == message
