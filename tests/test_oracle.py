"""The honest-estimate gate: every route against a 40-digit mpmath oracle.

ROUTES is the one table of routes: each route's domain in |phi| and its
signs, its F, and the tols at which F applies.  At each angle and at each
tol of TOLS, `evaluate` either returns the angle with 0 < est <= max(tol,
tol |value|) and err = |value - I| <= est, tight where the table says so,
est <= F max(err, eps |I|); or, with a tol, raises NonConvergenceError
with a finite best estimate whose error its est_error bounds.  Outside its
domain a route refuses with DomainError.  One derandomized property draws
|phi| and the sign over each domain; one sorted edge list holds the angles
next to 0, the crossovers, the angles next to pi and those where a
quadrature estimate once missed, each at both signs and every tol of
TOLS.

Beside the gate: the accuracy of the closed forms next to pi and of the
series past its crossover, malmsten_closed called at ZERO angles, and the
inner integrals J_n of quad_jn.
"""

import math
import random
from collections import namedtuple

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malmsten import Angle, DomainError, NonConvergenceError, evaluate
from malmsten.closed_form import CLOSED_SPLIT, malmsten_closed
from malmsten.domain import ZERO_THRESHOLD
from malmsten.quadrature import GUARD_BAND, quad_jn
from malmsten.series import EULER_PHI
from malmsten.special_functions import EPS

BELOW_PI = math.nextafter(math.pi, 0.0)
BOTH = (1.0, -1.0)

# No tol, then the tols of the tol rule; the quadrature routes refine to
# each, and the others return the same estimate at every tol or raise.
TOLS = (None, 1e-3, 1e-6, 1e-9, 1e-12, 1e-14, 1e-15)

# est <= f max(err, eps |I|) at every angle of the domain, and, for a
# route that refines to tol, at tol <= f_tol only (no tol is its default,
# 1e-12): at a looser tol the refinement stops at its first level, whose
# estimate can lie far above the error.  f_tol is None where F applies at
# every tol: for a route that takes no tol, and for quad-tan.
# The worst est / max(err, eps |I|) over this gate's cases and 2000 angles
# of random.Random(31) (1500 uniform on 1e-6 <= |phi| <= pi - 1e-3, 500
# log-uniform on [1e-6, 1], random signs), at every tol, lies at an |phi|
# of EDGES, the same at either sign:
# - closed 94 (at 1.05), under the F it had; series 2442 (at 4.82e-6),
#   under the 2.5e3 rounded up from its former worst, 2429, before its
#   estimate counted the roundings of the assembly.  Series' F was 1e4
#   before that, and applied from |phi| = 1e-3.
# - quad-tan 5.32 at its one angle, at every tol: from level 3 on, the
#   first it trusts, it stops at 57 nodes, where its pole bound lies below
#   the rounding floor.  It was 5.77e3 while it stopped on the delta, and
#   1.96e6 when it trusted level 2 (28 nodes at tol 1e-6 and looser).
# - kummer 3.27e4 (at 8.14e-6), rounded up.  Its estimate is the closed
#   side's over |sin phi|; it was 5.8e6 while that estimate was the
#   literal 5e-13 pi/|sin phi|.
# - quad 302 (at 2.79139), rounded up to 310.  It was 808 (at 3.12986, in
#   QUAD_LOOSEST) under an F of 800 before quad read its table at a scale
#   2^-k below pi - |phi| = 0.35; its worst now lies just above 0.35, at
#   scale 0.
# - quad-unit 785 (at 1.84184), rounded up to 800.  quad and quad-unit were
#   5.7e4 (at 3.05e-4) and 4.1e4 (at 0.482) while they stopped on the delta
#   alone; the pole-rate stop ends them where the delta into an early level
#   sets the largest constant.  At tol 1e-3 to 1e-9 quad-unit's F reaches
#   3.2e4, at its first level.
# From here an F only goes down.
Route = namedtuple("Route", "lo hi signs f f_tol")
ROUTES = {
    "closed": Route(0.0, BELOW_PI, BOTH, 200.0, None),
    "series": Route(0.0, BELOW_PI, BOTH, 2.5e3, None),
    "quad": Route(0.0, math.pi - GUARD_BAND, BOTH, 310.0, 1e-12),
    "quad-unit": Route(0.0, math.pi - GUARD_BAND, BOTH, 800.0, 1e-12),
    "quad-tan": Route(math.pi / 2, math.pi / 2, (1.0,), 6.0, None),
    "kummer": Route(0.0, BELOW_PI, BOTH, 3.3e4, None),
}

# Angles where a quadrature estimate once fell short of its error: with the
# rounding floor EPS * max(1, |value|), with the numerators stored before
# the floor counted every term (2.8061223861205504), or, for quad-unit, on
# the delta into level 3 at tol 1e-3 (by 2.73 at 3.1294000426062034, also at
# 1e-6, 1.86 at 3.1391331860297096 and 1.08 at 3.1391323592640465).
MISSED = [
    2.7698011298506855, 2.8061223861205504, 3.12955, -3.12955, 3.13964889296543,
    -3.1403210616229793, math.pi - 1.0001e-3, -(math.pi - 1.0001e-3),
    3.1294000426062034, 3.1391331860297096, 3.1391323592640465]

# Where quad's pole-rate stop needs what it has.  At 2.709840213304944
# levels 0 and 1 agree to 3.0e-5 while both are 6e-4 off: a pole stop
# allowed at level 1 with a factor K = 1 fell short there by 1.9e3 at tol
# 1e-6, so the pole stop waits for level 2.  At 1.9053339588402727 a factor
# K = 1 in place of POLE_K = 100 falls short by 2.7 at tol 1e-6 and 1e-9.
POLE_EDGE = [2.709840213304944, 1.9053339588402727]

# Where the estimate fell short at tol 1e-3 while a stop was trusted from a
# level too coarse to resolve the integrand: quad on the delta from level
# 1, where levels 0 and 1 agreed within tol while level 1 was 6e-4 off (by
# 1.25, 1.45 and 1.26; by 20.3 at 2.709840213304944, in POLE_EDGE), and
# quad-unit on the delta from level 2, at 28 nodes (by 6.3 and 1.66).
LOOSE_EDGE = [2.7102871404594553, 2.7102221673351705, 2.709348735846727,
              3.0756420765104644, 2.9521544831016127]

# Where quad's F exceeded 800 at the default tol while it read its table at
# scale 0 near pi (808.3, 803.0 and 802.0).
QUAD_LOOSEST = [3.129860417962011, 3.1312061666098865, 3.129664429426434]

# pi - |phi| for series at the last float below pi, deep in the
# Euler-Maclaurin branch, at the old stride cap (0.026), on both sides of
# the former crossovers 0.25 and 0.5, now inside the branch, and on both
# sides of the crossover |phi| = EULER_PHI.
SERIES_EDGE = [math.pi - BELOW_PI, 1e-15, 1e-12, 1e-8, 1e-4, 0.026,
               0.25 * (1.0 - 1e-9), 0.25 * (1.0 + 1e-9),
               0.5 * (1.0 - 1e-9), 0.5 * (1.0 + 1e-9),
               math.pi - EULER_PHI * (1.0 + 1e-9), math.pi - EULER_PHI * (1.0 - 1e-9)]

# |phi| next to 0, where ZERO angles end; the crossovers of closed and
# series, and pi - 0.25, pi - 0.5 and pi - 0.026, where series once
# switched or capped its stride; the interior angles of the series and
# quadrature checks; pi - d next to pi, down to the last float below pi;
# MISSED; POLE_EDGE; LOOSE_EDGE; QUAD_LOOSEST; and the |phi| where the F
# of closed, series, kummer, quad and quad-unit is at its worst (quad's at
# 2.79139, and at 3.12955, in MISSED, while it read scale 0 alone;
# quad-unit's at 1.84184, and at 0.48174 while it stopped on the delta).
EDGES = sorted({
    0.0, 1e-12, 5e-7, 9.9e-7, 1e-6, ZERO_THRESHOLD * (1.0 + 1e-9), 2e-6, 1e-5, 1e-4, 1e-3,
    3e-3, 1e-2,
    CLOSED_SPLIT * (1.0 - 1e-9), CLOSED_SPLIT * (1.0 + 1e-9),
    EULER_PHI * (1.0 - 1e-9), EULER_PHI * (1.0 + 1e-9),
    *(math.pi - d for d in SERIES_EDGE),
    0.1, 0.5, math.pi / 3, math.pi / 2, 2.0, 2 * math.pi / 3, 2.36, 2.9, 3.05,
    *(math.pi - d for d in (0.25, 1e-2, 1e-3)),
    *(abs(phi) for phi in MISSED),
    1.0500351271565833, 4.822946711685607e-06, 8.143156220023098e-06, 0.00030459934857474536,
    0.4817404765022452, 1.8418429198979154, 2.7913887590796693, *POLE_EDGE, *LOOSE_EDGE,
    *QUAD_LOOSEST})

# Reproducible examples, and no example database left in the checkout.  The
# examples follow from the test's source and node id, so renaming the
# property or a route draws other angles.
ORACLE_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def oracle(phi):
    """I(phi) at 40 digits from the gamma closed form, at the exact binary64 phi.

    The difference of the log-gammas cancels about log10(1/|phi|) digits, so
    those are added to the working precision.  Below |phi| = 1e-20 it takes
    the limit I(0), which I(phi) ~ I(0) - 0.046 phi^2 matches to 40 digits.
    """
    if abs(phi) < 1e-20:
        with mpmath.workdps(40):
            return (mpmath.log(mpmath.pi / 2) - mpmath.euler) / 2
    lost = max(0, -math.floor(math.log10(abs(phi))))
    with mpmath.workdps(40 + lost):
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


def _error(value, exact):
    with mpmath.workdps(40):
        return float(abs(mpmath.mpf(value) - exact))


def _gate(route, magnitude, sign):
    """Every check of the gate on `route` at phi = sign * magnitude, at each tol of TOLS."""
    r = ROUTES[route]
    phi = sign * magnitude
    if not (r.lo <= magnitude <= r.hi and sign in r.signs):
        with pytest.raises(DomainError):
            evaluate(Angle(phi), route)
        return
    exact = oracle(phi)
    size = float(abs(exact))
    for tol in TOLS:
        try:
            ev = evaluate(Angle(phi), route, tol)
        except NonConvergenceError as exc:
            best, est = exc.best_estimate, exc.est_error
            assert tol is not None and math.isfinite(best), (route, phi, tol)
            assert est > max(tol, tol * abs(best)), (route, phi, tol)
            assert _error(best, exact) <= est, (route, phi, tol)
            continue
        est = ev.est_error
        err = _error(ev.value, exact)
        assert ev.phi == Angle(phi)
        assert tol is None or est <= max(tol, tol * abs(ev.value)), (route, phi, tol)
        assert 0.0 < est and err <= est, (route, phi, tol, err, est)
        if r.f_tol is None or (tol or 1e-12) <= r.f_tol:
            assert est <= r.f * max(err, EPS * size), (route, phi, tol, err, est)


@pytest.mark.parametrize("route", ROUTES)
@ORACLE_SETTINGS
@given(data=st.data())
def test_estimates_hold_everywhere(route, data):
    r = ROUTES[route]
    _gate(route, data.draw(st.floats(r.lo, r.hi)), data.draw(st.sampled_from(r.signs)))


@pytest.mark.parametrize("magnitude", EDGES)
@pytest.mark.parametrize("route", ROUTES)
def test_estimates_hold_at_the_edges(route, magnitude):
    for sign in BOTH:
        _gate(route, magnitude, sign)


def test_quad_estimate_holds_near_pi():
    # below pi - |phi| = 0.35 quad reads its table at a scale 2^-k: 300
    # angles with pi - |phi| log-uniform on [1.0001e-3, 0.7], which spans
    # every scale, at both signs and every tol
    rng = random.Random(43)
    lo, hi = math.log(1.0001e-3), math.log(0.7)
    for _ in range(300):
        magnitude = math.pi - math.exp(rng.uniform(lo, hi))
        for sign in BOTH:
            _gate("quad", magnitude, sign)


def _route_error(method, phi):
    """(|value - I|, |I|) of `evaluate(Angle(phi), method)`."""
    exact = oracle(phi)
    return _error(evaluate(Angle(phi), method).value, exact), float(abs(exact))


@pytest.mark.parametrize("d", [1e-12, 1e-8, 1e-4, 1e-2])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("method", ["closed", "kummer"])
def test_closed_forms_keep_full_accuracy_near_pi(method, sign, d):
    # the small gamma argument (pi - |phi|)/(2 pi) must not be formed as
    # 1/2 - |phi|/(2 pi), which keeps only about log10(1/d) digits
    err, exact = _route_error(method, sign * (math.pi - d))
    assert err <= 1e-15 * exact


def test_series_keeps_full_accuracy_past_the_crossover():
    # pi - |phi| log-uniform from the last float below pi up to 0.5, and
    # uniform on [0.25, 0.5), where the Euler-Maclaurin branch once ended
    rng = random.Random(16)
    lo = math.log(math.pi - BELOW_PI)
    gaps = [math.exp(lo + rng.random() * (math.log(0.5) - lo)) for _ in range(200)]
    gaps += [0.5 * (0.5 + 0.5 * rng.random()) for _ in range(50)]
    for d in gaps:
        for sign in (1.0, -1.0):
            err, exact = _route_error("series", sign * (math.pi - d))
            assert err <= 1e-14 * exact


def test_closed_takes_every_zero_angle():
    # called directly, not through evaluate's zero_limit: 0, the subnormal
    # and tiny angles, up to the threshold, and 300 log-uniform in between
    rng = random.Random(32)
    tiny = [5e-324, 1e-323, 1e-310, 1e-300, 1e-100, 1e-20, 1e-15, 1e-12, 1e-9, 5e-7, 9.99e-7]
    tiny += [math.exp(rng.uniform(math.log(5e-324), math.log(ZERO_THRESHOLD))) for _ in range(300)]
    for phi in [0.0] + [s * m for m in tiny for s in BOTH]:
        exact = oracle(phi)
        ev = malmsten_closed(Angle(phi))
        err = _error(ev.value, exact)
        assert err <= ev.est_error <= ROUTES["closed"].f * max(err, EPS * float(abs(exact)))


# est <= JN_F max(err, eps |J_n|) for quad_jn at tol <= 1e-12, the worst
# over test_quad_jn_estimate_holds's powers, 6979 at n = 10**6, rounded up.
# It was 1.1e4 (at n = 18) while quad_jn read scale 0 alone, with a stop
# table whose rates slowed toward 0.78 as n grew.
JN_F = 7e3


@pytest.mark.parametrize("tol", [1e-3, 1e-9, 1e-12, 1e-15])
@pytest.mark.parametrize("n", list(range(30)) + [34, 40, 100, 200, 1000, 10**5, 10**6,
                                                 17782794, 10**11]
                         + [2**m + d for m in (20, 40, 51) for d in (-1, 0)])
def test_quad_jn_estimate_holds(n, tol):
    # y^n amplifies the rounding of y = e^{-u} n-fold: with a floor of 2 EPS
    # per term alone, the estimate missed from n = 34 on, and at 10**5 and
    # 10**6 by a factor of up to 2.  The mass of the integrand sits at
    # u ~ 1/(n + 1): when the first levels were trusted, two of them could
    # step over it and agree, and at tol 1e-3 the estimate missed at
    # n = 1000, 10**5, 17782794 (by 4.1e3) and 10**11 (by 144).  quad_jn
    # reads scale k, the least with n + 1 <= 2^k: at n + 1 = 2^m and
    # 2^m + 1 the scale steps from m to m + 1
    r = quad_jn(n, tol)
    exact = jn_oracle(n)
    err = _error(r.value, exact)
    assert err <= r.est_error
    if tol <= 1e-12:
        assert r.est_error <= JN_F * max(err, EPS * float(abs(exact)))


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
    assert _error(r.value, jn_oracle(n)) <= r.est_error
