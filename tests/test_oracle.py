"""Routes against a 40-digit mpmath oracle at the edges of the domain: the
ZERO-classified angles next to phi = 0, and angles within 1e-12 of +-pi;
the series route over the whole domain, where its estimate must hold
everywhere and be tight for |phi| >= 1e-3, and where its Euler-Maclaurin
branch near +-pi must keep full accuracy; the quad and quad-unit routes up
to the quadrature guard band, where their estimates must hold at the
default and at other tolerances; and the inner integrals J_n of quad_jn."""

import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malmsten import Angle, evaluate
from malmsten.quadrature import GUARD_BAND, quad_jn
from malmsten.series import EM_GAP, EULER_PHI
from malmsten.special_functions import EPS

# For 1e-3 <= |phi| < pi the series estimate may exceed the larger of its
# true error and one ulp of I by at most this factor.
F_SERIES = 1e4

# Reproducible examples, and no example database left in the checkout.
ORACLE_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def oracle(phi):
    """I(phi) at 40 digits from the gamma closed form, at the exact binary64 phi.

    The difference of the log-gammas cancels about log10(1/|phi|) digits, so
    those are added to the working precision; phi = 0 takes the exact limit.
    """
    lost = max(0, -math.floor(math.log10(abs(phi)))) if phi else 0
    with mpmath.workdps(40 + lost):
        if phi == 0.0:
            return (mpmath.log(mpmath.pi / 2) - mpmath.euler) / 2
        p = mpmath.mpf(phi)
        t = p / (2 * mpmath.pi)
        return (mpmath.pi / (2 * mpmath.sin(p))) * (
            2 * t * mpmath.log(2 * mpmath.pi)
            + mpmath.loggamma(mpmath.mpf(0.5) + t)
            - mpmath.loggamma(mpmath.mpf(0.5) - t))


def jn_oracle(n):
    """J_n = integral_0^1 x^n ln ln(1/x) dx = -(gamma + ln(n + 1))/(n + 1), at 40 digits."""
    with mpmath.workdps(40):
        return -(mpmath.euler + mpmath.log(n + 1)) / (n + 1)


def _error(value, phi):
    with mpmath.workdps(40):
        return float(abs(mpmath.mpf(value) - oracle(phi)))


@pytest.mark.parametrize("phi", [5e-7, -5e-7, 9.9e-7, -9.9e-7])
@pytest.mark.parametrize("method", ["closed", "series", "kummer"])
def test_zero_angle_reports_the_angle_and_an_honest_value(method, phi):
    ev = evaluate(Angle(phi), method)
    assert ev.phi == Angle(phi)
    assert _error(ev.value, phi) <= ev.est_error


@pytest.mark.parametrize("d", [1e-12, 1e-8, 1e-4, 1e-2])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("method", ["closed", "kummer"])
def test_closed_forms_keep_full_accuracy_near_pi(method, sign, d):
    # the small gamma argument (pi - |phi|)/(2 pi) must not be formed as
    # 1/2 - |phi|/(2 pi), which keeps only about log10(1/d) digits
    phi = sign * (math.pi - d)
    ev = evaluate(Angle(phi), method)
    err = _error(ev.value, phi)
    assert err <= ev.est_error
    assert err <= 1e-15 * abs(ev.value)


def _series_error(phi):
    """(|value - I|, est_error, |I|) of the series route at phi."""
    ev = evaluate(Angle(phi), "series")
    with mpmath.workdps(40):
        exact = oracle(phi)
        return float(abs(mpmath.mpf(ev.value) - exact)), ev.est_error, float(abs(exact))


@ORACLE_SETTINGS
@given(st.floats(min_value=1e-6, max_value=math.pi, exclude_max=True), st.sampled_from([1.0, -1.0]))
def test_series_estimate_holds_everywhere(magnitude, sign):
    err, est, _ = _series_error(sign * magnitude)
    assert err <= est


@pytest.mark.parametrize("phi", [1e-6, 2e-6, 1e-5, 1e-4, 1e-3, 3e-3, 1e-2])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_series_estimate_holds_near_zero(sign, phi):
    err, est, _ = _series_error(sign * phi)
    assert err <= est


@pytest.mark.parametrize("d", [1e-12, 1e-8, 1e-4, 1e-3, 1e-2, 0.25])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_series_estimate_holds_near_pi(sign, d):
    # at pi - 1e-8 the Euler-averaged series returned -3.8e13 where
    # I = -2.9e9, with an estimate of 3.0e13
    err, est, _ = _series_error(sign * (math.pi - d))
    assert err <= est


@ORACLE_SETTINGS
@given(st.floats(min_value=1e-3, max_value=math.nextafter(math.pi, 0.0)),
       st.sampled_from([1.0, -1.0]))
def test_series_estimate_is_tight_inside(magnitude, sign):
    err, est, exact = _series_error(sign * magnitude)
    assert err <= est <= F_SERIES * max(err, EPS * exact)


# pi - |phi| at the last float below pi, deep in the Euler-Maclaurin branch,
# at the old stride cap (0.026), on both sides of the former crossover 0.25,
# now inside the branch, and on both sides of the crossovers EM_GAP and
# |phi| = EULER_PHI
SERIES_EDGE = [math.pi - math.nextafter(math.pi, 0.0), 1e-15, 1e-12, 1e-8, 1e-4, 0.026,
               0.25 * (1.0 - 1e-9), 0.25 * (1.0 + 1e-9),
               EM_GAP * (1.0 - 1e-9), EM_GAP * (1.0 + 1e-9),
               math.pi - EULER_PHI * (1.0 + 1e-9), math.pi - EULER_PHI * (1.0 - 1e-9)]


@pytest.mark.parametrize("d", SERIES_EDGE)
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_series_estimate_is_tight_at_the_edge(sign, d):
    err, est, exact = _series_error(sign * (math.pi - d))
    assert err <= est <= F_SERIES * max(err, EPS * exact)


def test_series_keeps_full_accuracy_past_the_crossover():
    # pi - |phi| log-uniform from the last float below pi up to EM_GAP, and
    # uniform on the upper half [EM_GAP/2, EM_GAP), where the tail series
    # needs the most terms
    rng = random.Random(16)
    lo = math.log(math.pi - math.nextafter(math.pi, 0.0))
    gaps = [math.exp(lo + rng.random() * (math.log(EM_GAP) - lo)) for _ in range(200)]
    gaps += [EM_GAP * (0.5 + 0.5 * rng.random()) for _ in range(50)]
    for d in gaps:
        for sign in (1.0, -1.0):
            err, _, exact = _series_error(sign * (math.pi - d))
            assert err <= 1e-14 * exact


QUADRATURE = ["quad", "quad-unit"]
QUAD_EDGE = math.pi - GUARD_BAND


def _quad_error(method, phi, tol=None):
    """(|value - I|, est_error) of a quadrature route at phi."""
    ev = evaluate(Angle(phi), method, tol)
    return _error(ev.value, phi), ev.est_error


@ORACLE_SETTINGS
@given(st.floats(min_value=0.0, max_value=QUAD_EDGE), st.sampled_from([1.0, -1.0]),
       st.sampled_from(QUADRATURE))
def test_quadrature_estimate_holds_everywhere(magnitude, sign, method):
    err, est = _quad_error(method, sign * magnitude)
    assert err <= est


# Angles where a route's estimate once fell short of its error: with the
# rounding floor EPS * max(1, |value|), or with the numerators stored before
# the floor counted every term (2.8061223861205504).
MISSED = [
    2.7698011298506855, 2.8061223861205504, 3.12955, -3.12955, 3.13964889296543,
    -3.1403210616229793, math.pi - 1.0001e-3, -(math.pi - 1.0001e-3)]


@pytest.mark.parametrize("phi", MISSED)
@pytest.mark.parametrize("method", QUADRATURE)
def test_quadrature_estimate_holds_where_it_missed(method, phi):
    err, est = _quad_error(method, phi)
    assert err <= est


@pytest.mark.parametrize("phi", MISSED + [0.0, 1e-12])
@pytest.mark.parametrize("tol", [1e-9, 1e-15])
@pytest.mark.parametrize("method", QUADRATURE)
def test_quadrature_estimate_holds_at_other_tolerances(method, tol, phi):
    # the refinement stops at another level, and the estimate must hold there
    err, est = _quad_error(method, phi, tol)
    assert err <= est


@pytest.mark.parametrize("phi", [0.0, 1e-12, 5e-7, 1e-4, 1e-2])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("method", QUADRATURE)
def test_quadrature_estimate_holds_near_zero(method, sign, phi):
    err, est = _quad_error(method, sign * phi)
    assert err <= est


@pytest.mark.parametrize("tol", [1e-9, 1e-12, 1e-15])
@pytest.mark.parametrize("n", range(30))
def test_quad_jn_estimate_holds(n, tol):
    r = quad_jn(n, tol)
    assert r.converged
    with mpmath.workdps(40):
        err = float(abs(mpmath.mpf(r.value) - jn_oracle(n)))
    assert err <= r.est_error
