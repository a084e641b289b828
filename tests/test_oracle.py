"""Routes against a 40-digit mpmath oracle at the edges of the domain: the
ZERO-classified angles next to phi = 0, and angles within 1e-12 of +-pi;
the closed route over the whole domain, where its estimate must hold and be
tight everywhere, at its branch crossover and next to +-pi; the kummer
route over the whole domain and next to the zero threshold, where its
estimate must hold; the series route over the whole domain, where its
estimate must hold everywhere and be tight for |phi| >= 1e-3, and where its
Euler-Maclaurin branch near +-pi must keep full accuracy; the quad and
quad-unit routes up to the quadrature guard band, where their estimates
must hold at the default and at other tolerances; and the inner integrals
J_n of quad_jn."""

import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malmsten import Angle, DomainError, Method, NonConvergenceError, evaluate
from malmsten.closed_form import CLOSED_SPLIT
from malmsten.domain import ZERO_THRESHOLD
from malmsten.quadrature import GUARD_BAND, quad_jn
from malmsten.series import EULER_PHI
from malmsten.special_functions import EPS

# For 1e-3 <= |phi| < pi the series estimate may exceed the larger of its
# true error and one ulp of I by at most this factor.
F_SERIES = 1e4

# For ZERO_THRESHOLD <= |phi| < pi the closed estimate may exceed the larger
# of its true error and one ulp of I by at most this factor.  est / (eps |I|)
# reaches 99.5 just past CLOSED_SPLIT, where the closed part of the split
# branch cancels from 1.57 to 0.07; it stays below 5 on the direct branch
# and below 20 near +-pi.
F_CLOSED = 200.0

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


def _route_error(method, phi, tol=None):
    """(|value - I|, est_error, |I|) of `evaluate(Angle(phi), method, tol)`."""
    ev = evaluate(Angle(phi), method, tol)
    with mpmath.workdps(40):
        exact = oracle(phi)
        return float(abs(mpmath.mpf(ev.value) - exact)), ev.est_error, float(abs(exact))


@pytest.mark.parametrize("phi", [5e-7, -5e-7, 9.9e-7, -9.9e-7])
@pytest.mark.parametrize("method", ["closed", "series", "kummer"])
def test_zero_angle_reports_the_angle_and_an_honest_value(method, phi):
    assert evaluate(Angle(phi), method).phi == Angle(phi)
    err, est, _ = _route_error(method, phi)
    assert err <= est


@pytest.mark.parametrize("d", [1e-12, 1e-8, 1e-4, 1e-2])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("method", ["closed", "kummer"])
def test_closed_forms_keep_full_accuracy_near_pi(method, sign, d):
    # the small gamma argument (pi - |phi|)/(2 pi) must not be formed as
    # 1/2 - |phi|/(2 pi), which keeps only about log10(1/d) digits
    err, est, exact = _route_error(method, sign * (math.pi - d))
    assert err <= est
    assert err <= 1e-15 * exact


@ORACLE_SETTINGS
@given(st.floats(min_value=ZERO_THRESHOLD, max_value=math.pi, exclude_max=True),
       st.sampled_from([1.0, -1.0]))
def test_closed_estimate_holds_and_is_tight_everywhere(magnitude, sign):
    err, est, exact = _route_error("closed", sign * magnitude)
    assert err <= est <= F_CLOSED * max(err, EPS * exact)


# both sides of the crossover CLOSED_SPLIT, just above the zero threshold,
# and pi - d at the last float below pi, at 1e-15 and at 1e-12
CLOSED_EDGE = [CLOSED_SPLIT * (1.0 - 1e-9), CLOSED_SPLIT * (1.0 + 1e-9),
               ZERO_THRESHOLD * (1.0 + 1e-9), math.nextafter(math.pi, 0.0),
               math.pi - 1e-15, math.pi - 1e-12]


@pytest.mark.parametrize("phi", CLOSED_EDGE)
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_closed_estimate_is_tight_at_the_edge(sign, phi):
    err, est, exact = _route_error("closed", sign * phi)
    assert err <= est <= F_CLOSED * max(err, EPS * exact)


@ORACLE_SETTINGS
@given(st.floats(min_value=ZERO_THRESHOLD, max_value=math.pi, exclude_max=True),
       st.sampled_from([1.0, -1.0]))
def test_kummer_estimate_holds_everywhere(magnitude, sign):
    err, est, _ = _route_error("kummer", sign * magnitude)
    assert err <= est


@pytest.mark.parametrize("phi", [1e-6, 1e-5, 1e-4, 1e-3, 1e-2])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_kummer_estimate_holds_near_zero(sign, phi):
    # its closed side cancels to O(phi) and is divided by sin(phi)
    err, est, _ = _route_error("kummer", sign * phi)
    assert err <= est


@ORACLE_SETTINGS
@given(st.floats(min_value=1e-6, max_value=math.pi, exclude_max=True), st.sampled_from([1.0, -1.0]))
def test_series_estimate_holds_everywhere(magnitude, sign):
    err, est, _ = _route_error("series", sign * magnitude)
    assert err <= est


@pytest.mark.parametrize("phi", [1e-6, 2e-6, 1e-5, 1e-4, 1e-3, 3e-3, 1e-2])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_series_estimate_holds_near_zero(sign, phi):
    err, est, _ = _route_error("series", sign * phi)
    assert err <= est


@pytest.mark.parametrize("d", [1e-12, 1e-8, 1e-4, 1e-3, 1e-2, 0.25])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_series_estimate_holds_near_pi(sign, d):
    # at pi - 1e-8 the Euler-averaged series returned -3.8e13 where
    # I = -2.9e9, with an estimate of 3.0e13
    err, est, _ = _route_error("series", sign * (math.pi - d))
    assert err <= est


@ORACLE_SETTINGS
@given(st.floats(min_value=1e-3, max_value=math.nextafter(math.pi, 0.0)),
       st.sampled_from([1.0, -1.0]))
def test_series_estimate_is_tight_inside(magnitude, sign):
    err, est, exact = _route_error("series", sign * magnitude)
    assert err <= est <= F_SERIES * max(err, EPS * exact)


# pi - |phi| at the last float below pi, deep in the Euler-Maclaurin branch,
# at the old stride cap (0.026), on both sides of the former crossovers 0.25
# and 0.5, now inside the branch, and on both sides of the crossover
# |phi| = EULER_PHI
SERIES_EDGE = [math.pi - math.nextafter(math.pi, 0.0), 1e-15, 1e-12, 1e-8, 1e-4, 0.026,
               0.25 * (1.0 - 1e-9), 0.25 * (1.0 + 1e-9),
               0.5 * (1.0 - 1e-9), 0.5 * (1.0 + 1e-9),
               math.pi - EULER_PHI * (1.0 + 1e-9), math.pi - EULER_PHI * (1.0 - 1e-9)]


@pytest.mark.parametrize("d", SERIES_EDGE)
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_series_estimate_is_tight_at_the_edge(sign, d):
    err, est, exact = _route_error("series", sign * (math.pi - d))
    assert err <= est <= F_SERIES * max(err, EPS * exact)


def test_series_keeps_full_accuracy_past_the_crossover():
    # pi - |phi| log-uniform from the last float below pi up to 0.5, and
    # uniform on [0.25, 0.5), where the Euler-Maclaurin branch once ended
    rng = random.Random(16)
    lo = math.log(math.pi - math.nextafter(math.pi, 0.0))
    gaps = [math.exp(lo + rng.random() * (math.log(0.5) - lo)) for _ in range(200)]
    gaps += [0.5 * (0.5 + 0.5 * rng.random()) for _ in range(50)]
    for d in gaps:
        for sign in (1.0, -1.0):
            err, _, exact = _route_error("series", sign * (math.pi - d))
            assert err <= 1e-14 * exact


QUADRATURE = ["quad", "quad-unit"]
QUAD_EDGE = math.pi - GUARD_BAND


@ORACLE_SETTINGS
@given(st.floats(min_value=0.0, max_value=QUAD_EDGE), st.sampled_from([1.0, -1.0]),
       st.sampled_from(QUADRATURE))
def test_quadrature_estimate_holds_everywhere(magnitude, sign, method):
    err, est, _ = _route_error(method, sign * magnitude)
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
    err, est, _ = _route_error(method, phi)
    assert err <= est


@pytest.mark.parametrize("phi", MISSED + [0.0, 1e-12])
@pytest.mark.parametrize("tol", [1e-9, 1e-15])
@pytest.mark.parametrize("method", QUADRATURE)
def test_quadrature_estimate_holds_at_other_tolerances(method, tol, phi):
    # the refinement stops at another level, and the estimate must hold there
    err, est, _ = _route_error(method, phi, tol)
    assert err <= est


@ORACLE_SETTINGS
@given(st.floats(min_value=0.0, max_value=QUAD_EDGE), st.sampled_from([1.0, -1.0]),
       st.sampled_from([m.value for m in Method]), st.sampled_from([1e-9, 1e-12, 1e-15]))
def test_evaluate_meets_tol_or_raises(magnitude, sign, method, tol):
    # one rule for every route: a returned estimate is at most
    # max(tol, tol |value|) and holds; otherwise evaluate raises with a value
    phi = math.pi / 2 if method == "quad-tan" else sign * magnitude
    try:
        ev = evaluate(Angle(phi), method, tol)
    except NonConvergenceError as exc:
        assert math.isfinite(exc.best_estimate)
        return
    assert ev.est_error <= max(tol, tol * abs(ev.value))
    err, est, _ = _route_error(method, phi, tol)
    assert err <= est


@pytest.mark.parametrize("phi", [0.0, 1e-12, 5e-7, 1e-4, 1e-2])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("method", QUADRATURE)
def test_quadrature_estimate_holds_near_zero(method, sign, phi):
    err, est, _ = _route_error(method, sign * phi)
    assert err <= est


# quad-tan's est / max(err, EPS |I|) at pi/2, its one angle, scanned at tol
# None (1e-12), 1e-9, 1e-12, 1e-14 and 1e-15: 5.77e3 up to 1e-12, where 56
# nodes return the last inter-level delta, 3.46e-13, for an error of
# 7.1e-18, and 5.30 at 1e-14 and 1e-15 (112 nodes).  Tols of 1e-6 and above
# stop at 28 nodes with an F of 1.96e6 and are not gated.  F_TAN only goes
# down from here.
F_TAN = 6e3


@pytest.mark.parametrize("tol", [None, 1e-9, 1e-12, 1e-14, 1e-15])
def test_quad_tan_estimate_holds_and_is_tight(tol):
    err, est, exact = _route_error("quad-tan", math.pi / 2, tol)
    assert err <= est <= F_TAN * max(err, EPS * exact)


@pytest.mark.parametrize("tol", [1e-3, 1e-9, 1e-12, 1e-15])
@pytest.mark.parametrize("n", list(range(30)) + [34, 40, 100, 200, 1000, 10**5, 10**6,
                                                 17782794, 10**11])
def test_quad_jn_estimate_holds(n, tol):
    # y^n amplifies the rounding of y = e^{-u} n-fold: with a floor of 2 EPS
    # per term alone, the estimate missed from n = 34 on, and at 10**5 and
    # 10**6 by a factor of up to 2.  The mass of the integrand sits at
    # u ~ 1/(n + 1): when the first levels were trusted, two of them could
    # step over it and agree, and at tol 1e-3 the estimate missed at
    # n = 1000, 10**5, 17782794 (by 4.1e3) and 10**11 (by 144)
    r = quad_jn(n, tol)
    with mpmath.workdps(40):
        err = float(abs(mpmath.mpf(r.value) - jn_oracle(n)))
    assert err <= r.est_error


@pytest.mark.parametrize("tol", [1e-9, 1e-12, 1e-15])
@pytest.mark.parametrize("n", [10**12, 10**14, 10**17, 10**20])
def test_quad_jn_estimate_holds_or_refuses_at_huge_n(n, tol):
    # below 1/EPS the estimate holds (at the default tol it once missed by
    # 359 at 10**12 and by 14.6 at 10**17, and 10**20 returned 0 with an
    # estimate of 0); from 1/EPS on, y^n of a rounded y keeps no digit
    if n * EPS >= 1.0:
        with pytest.raises(DomainError):
            quad_jn(n, tol)
        return
    r = quad_jn(n, tol)
    with mpmath.workdps(40):
        err = float(abs(mpmath.mpf(r.value) - jn_oracle(n)))
    assert err <= r.est_error
