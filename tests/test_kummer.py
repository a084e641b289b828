"""Tests for the Fourier expansion of ln Gamma on (0, 1), its raw partial
sum, and the log-sine sum identity derived from it."""

import math

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
    kummer_partial,
    kummer_sum,
    log_sine_partial,
)
from malmsten.special_functions import EULER_GAMMA, log_gamma

IDENTITY_GRID = [-2.88 + 2.0 * 2.88 * k / 24.0 for k in range(25)]


@pytest.mark.parametrize("n_terms", [1, 2, 57, 1000])
def test_midpoint_exact_at_every_truncation(n_terms):
    # every series term is sin(pi n) = 0 analytically, so the truncation
    # must be bitwise (1/2) ln pi with no rounding dust
    assert kummer_partial(0.5, n_terms) == 0.5 * math.log(math.pi)
    assert kummer_sum(0.5) == 0.5 * math.log(math.pi)


def test_accelerated_matches_log_gamma():
    for x in [0.05 * k for k in range(1, 20)] + [0.01, 0.99]:
        assert abs(kummer_sum(x) - log_gamma(x)) <= 1e-13


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
    with mpmath.workdps(40):
        err = float(abs(mpmath.mpf(kummer_sum(x)) - mpmath.loggamma(x)))
    assert err <= 1e-14 + 3.0 * delta / (4.0 * math.pi * g)


@pytest.mark.parametrize("x", [0.5 - 1e-8, 0.5 + 1e-8])
def test_sum_near_midpoint(x):
    # 2 pi x - pi is a ZERO angle here, summed by Euler's branch as any other
    assert abs(kummer_sum(x) - log_gamma(x)) <= 1e-14


def test_unaccelerated_partial_misses():
    # the ln n / n tail decays too slowly for raw truncation at 2000 terms
    err = abs(kummer_partial(0.3, 2000) - log_gamma(0.3))
    assert err > 1e-5


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
            kummer_partial(bad, 100)
        with pytest.raises(DomainError):
            kummer_sum(bad)
    with pytest.raises(DomainError):
        kummer_partial(0.3, 0)


@pytest.mark.parametrize("phi", IDENTITY_GRID)
def test_derived_sum_identity(phi):
    series_side, closed_side = derived_sum_identity(Angle(phi))
    assert abs(series_side - closed_side) <= 1e-7


def test_identity_at_zero_angle():
    # every series term is sin(n pi) = 0; the closed side vanishes too
    series_side, closed_side = derived_sum_identity(Angle(0.0))
    assert series_side == 0.0
    assert abs(closed_side) <= 1e-12


@pytest.mark.parametrize("phi", IDENTITY_GRID)
def test_assembly_reproduces_closed_form(phi):
    if abs(phi) < 1e-6:
        return
    series_side, _ = derived_sum_identity(Angle(phi))
    assembled = -(0.5 * EULER_GAMMA * phi + series_side) / math.sin(phi)
    assert abs(assembled - malmsten_closed(Angle(phi)).value) <= 1e-7


def test_reflected_form_vs_closed():
    for phi in (0.1, 0.5, math.pi / 3, math.pi / 2, 2.0, 2.9, -1.7):
        ev = kummer_closed_eval(Angle(phi))
        assert ev.method is Method.KUMMER
        assert abs(ev.value - malmsten_closed(Angle(phi)).value) <= 1e-12


@pytest.mark.parametrize("phi", IDENTITY_GRID + [1e-6, math.pi - 1e-12])
def test_closed_side_is_odd_and_kummer_even_bitwise(phi):
    # the closed side is taken at |phi| and negated for phi < 0
    if abs(phi) < 1e-6:
        return
    assert derived_closed_side(Angle(-phi)) == -derived_closed_side(Angle(phi))
    assert kummer_closed_eval(Angle(-phi)).value == kummer_closed_eval(Angle(phi)).value


def test_reflected_form_zero_angle():
    with pytest.raises(ZeroAngleError):
        kummer_closed_eval(Angle(0.0))
