"""Tests for the Fourier expansion of ln Gamma on (0, 1), its raw partial
sum, and the log-sine sum identity derived from it."""

import math
import random

import mpmath
import pytest

import malmsten
from malmsten.closed_form import malmsten_closed
from malmsten.domain import Angle, Method
from malmsten.errors import DomainError, ZeroAngleError
from malmsten.kummer import (
    derived_closed_side,
    derived_sum_identity,
    kummer_closed_eval,
    kummer_sum,
    log_sine_partial,
)
from malmsten.series import log_sine_sum
from malmsten.special_functions import EULER_GAMMA, log_gamma

IDENTITY_GRID = [-2.88 + 2.0 * 2.88 * k / 24.0 for k in range(25)]


@pytest.mark.parametrize("n_terms", [1, 2, 57, 1000])
def test_midpoint_exact_at_every_truncation(n_terms):
    # at x = 1/2 Kummer's series is the log-sine series at 2 pi x - pi = 0:
    # every term is sin 0 = 0, so each truncation is exactly 0.0 and the
    # summed series is bitwise (1/2) ln pi with no rounding dust
    assert log_sine_partial(0.0, n_terms) == 0.0
    assert kummer_sum(0.5)[0] == 0.5 * math.log(math.pi)


def test_accelerated_matches_log_gamma():
    for x in [0.05 * k for k in range(1, 20)] + [0.01, 0.99]:
        value, est = kummer_sum(x)
        assert abs(value - log_gamma(x)) <= 1e-13
        assert est <= 1e-12


@pytest.mark.parametrize("x", [2e-6, 1e-4, 1e-3, 1.0 - 1e-3])
def test_sum_near_the_endpoints(x):
    # The angles 2 pi x - pi and pi x are formed in binary64, each within
    # DELTA of the exact one: half an ulp of 2 pi (4.4e-16) plus pi - float(pi)
    # (1.2e-16).  The log-sine sum goes as -(pi/2) ln theta near theta =
    # 2 pi g, g = min(x, 1 - x), so an angle error moves ln Gamma by up to
    # DELTA / (4 pi g) through the series and DELTA / (2 pi g) through
    # ln sin(pi x); 1e-14 covers the rest.
    delta = 6e-16
    g = min(x, 1.0 - x)
    value, est = kummer_sum(x)
    with mpmath.workdps(40):
        err = float(abs(mpmath.mpf(value) - mpmath.loggamma(x)))
    assert err <= 1e-14 + 3.0 * delta / (4.0 * math.pi * g)
    assert err <= est


@pytest.mark.parametrize("x", [0.5 - 1e-8, 0.5 + 1e-8])
def test_sum_near_midpoint(x):
    # 2 pi x - pi is a ZERO angle here, summed by Euler's branch as any other
    assert abs(kummer_sum(x)[0] - log_gamma(x)) <= 1e-14


def test_unaccelerated_partial_misses():
    # the ln n / n tail decays too slowly for raw truncation at 2000 terms:
    # Kummer's series at x = 0.3 is log_sine_sum at 2 pi x - pi
    x = 0.3
    raw = log_sine_partial(2.0 * math.pi * x, 2000)
    summed = log_sine_sum(Angle(2.0 * math.pi * x - math.pi))[0]
    assert abs(raw - summed) / math.pi > 1e-5


def test_backend_name():
    # perfbench/run.py reads it into the metadata of every run
    assert malmsten.BACKEND == "python"


def test_log_sine_partial_starts_at_two():
    assert log_sine_partial(1.0, 2) == 0.5 * math.log(2.0) * math.sin(2.0)
    assert log_sine_partial(1.0, 1) == 0.0  # the empty sum


def _old_log_sine_partials(theta, n_terms, window):
    """The last `window` complex partial sums of sum (ln n / n) e^{i n theta},
    in the per-term form of the deleted complex kernel."""
    out = []
    re = im = 0.0
    for n in range(2, n_terms + 1):
        c = math.log(n) / n
        re += c * math.cos(n * theta)
        im += c * math.sin(n * theta)
        if n > n_terms - window:
            out.append(complex(re, im))
    return out


@pytest.mark.parametrize("theta, n_terms, window", [
    (1.5 * math.pi, 10_000, 1),  # verify's raw log-sine check
    (0.0, 50, 49), (math.pi - 1e-12, 2000, 1), (2.0 * math.pi * 0.37, 200, 1),
    # drawn once with random.Random(13)
    (0.43840652585825524, 878, 19), (-6.580364286585715, 519, 39), (6.972094447926084, 1131, 10),
    (-5.81068968625377, 1076, 29), (3.426502139230905, 573, 17), (-2.0196799196366513, 960, 32)])
def test_log_sine_partial_bitwise_old_form(theta, n_terms, window):
    assert log_sine_partial(theta, n_terms) == _old_log_sine_partials(theta, n_terms, window)[-1].imag


def test_endpoint_guard():
    for bad in (0.0, 1e-7, 1.0 - 1e-7, 1.0):
        with pytest.raises(DomainError):
            kummer_sum(bad)


@pytest.mark.parametrize("phi", IDENTITY_GRID)
def test_derived_sum_identity(phi):
    (series_side, series_est), (closed_side, closed_est) = derived_sum_identity(Angle(phi))
    assert abs(series_side - closed_side) <= series_est + closed_est


def test_identity_at_zero_angle():
    # every series term is sin(n pi) = 0; the closed side vanishes too
    (series_side, _), (closed_side, _) = derived_sum_identity(Angle(0.0))
    assert series_side == 0.0
    assert abs(closed_side) <= 1e-12


@pytest.mark.parametrize("phi", IDENTITY_GRID)
def test_assembly_reproduces_closed_form(phi):
    if Angle(phi).is_zero:
        return
    (series_side, _), _ = derived_sum_identity(Angle(phi))
    assembled = -(0.5 * EULER_GAMMA * phi + series_side) / math.sin(phi)
    assert abs(assembled - malmsten_closed(Angle(phi)).value) <= 1e-7


def test_reflected_form_vs_closed():
    for phi in (0.1, 0.5, math.pi / 3, math.pi / 2, 2.0, 2.9, -1.7):
        ev = kummer_closed_eval(Angle(phi))
        assert ev.method is Method.KUMMER
        assert abs(ev.value - malmsten_closed(Angle(phi)).value) <= 1e-12


@pytest.mark.parametrize("phi", IDENTITY_GRID + [1e-6, math.pi - 1e-12])
def test_closed_side_is_odd_and_kummer_even_bitwise(phi):
    # the closed side is taken at |phi| and negated for phi < 0; both
    # estimates are taken at |phi|
    if Angle(phi).is_zero:
        return
    side, est = derived_closed_side(Angle(phi))
    minus_side, minus_est = derived_closed_side(Angle(-phi))
    assert minus_side == -side
    assert minus_est == est
    ev, minus_ev = kummer_closed_eval(Angle(phi)), kummer_closed_eval(Angle(-phi))
    assert minus_ev.value == ev.value
    assert minus_ev.est_error == ev.est_error


# pi - |phi| log-uniform on [pi - BELOW_PI, 2 pi 1e-6], drawn with
# random.Random(40), and the last float below pi.  There lgamma's argument
# gamma_gap(|phi|) lies below 1e-6, outside [1e-6, 1.5], where LGAMMA_ERR
# was measured; 4 eps |pi ln Gamma| covers it.
_BELOW_PI = math.nextafter(math.pi, 0.0)
_rng = random.Random(40)
NEAR_PI = [_BELOW_PI] + [
    min(math.pi - math.exp(_rng.uniform(math.log(math.pi - _BELOW_PI),
                                        math.log(2.0 * math.pi * 1e-6))), _BELOW_PI)
    for _ in range(30)]


@pytest.mark.parametrize("phi", [s * p for p in IDENTITY_GRID + NEAR_PI for s in (1.0, -1.0)])
def test_closed_side_estimate_bounds_its_error(phi):
    value, est = derived_closed_side(Angle(phi))
    with mpmath.workdps(40):
        p = mpmath.mpf(phi)
        exact = (mpmath.pi * mpmath.loggamma(0.5 - p / (2 * mpmath.pi))
                 - p / 2 * (mpmath.euler + mpmath.log(2 * mpmath.pi))
                 - mpmath.pi / 2 * mpmath.log(mpmath.pi)
                 + mpmath.pi / 2 * mpmath.log(mpmath.cos(p / 2)))
        err = float(abs(mpmath.mpf(value) - exact))
    assert err <= est


def test_reflected_form_zero_angle():
    with pytest.raises(ZeroAngleError):
        kummer_closed_eval(Angle(0.0))
