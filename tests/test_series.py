"""Tests for the Cauchy-product series route: coefficients, inner
integrals, the sawtooth series, the tables of both summation branches, and
the full evaluation."""

import bisect
import math
import random

import mpmath
import pytest

from malmsten import evaluate, series, verify
from malmsten.closed_form import malmsten_closed
from malmsten.domain import Angle, Method
from malmsten.errors import DomainError, NonConvergenceError, ZeroAngleError
from malmsten.series import (
    EM_HEAD,
    EM_ORDER,
    EULER_HEAD,
    EULER_PHI,
    j_n,
    log_sine_sum,
    sawtooth_sum,
    series_eval,
)
from malmsten.special_functions import EPS, EULER_GAMMA
from test_oracle import oracle

GRID = [s * v for s in (1.0, -1.0)
        for v in (0.1, 0.5, math.pi / 3, math.pi / 2, 2.0, 2 * math.pi / 3, 2.9)]

# GRID, 0, the ends +-3.1, seeded angles on |phi| <= 3.1, and pi - d for d
# from 1e-2 down to the last float below pi, where a capped sampling stride
# once left the sum off by up to 1.57
_RNG = random.Random(20261018)
SAWTOOTH_ANGLES = (GRID + [0.0, 3.1, -3.1] + [_RNG.uniform(-3.1, 3.1) for _ in range(60)]
                   + [s * (math.pi - d) for s in (1.0, -1.0)
                      for d in (1e-2, 1e-3, 1e-6, 1e-12, math.pi - math.nextafter(math.pi, 0.0))])


def _verify_angles():
    """The 20 angles of verify's coeffs group, drawn as it draws them."""
    rng = random.Random(20260823)
    return [rng.uniform(0.01, math.pi - 0.01) * rng.choice((1.0, -1.0))
            for _ in range(20)]


def test_coeff_witness_and_recurrence():
    # at each angle of verify's coeffs group, a_n = sin((n+1) phi)/sin phi
    # meets its definition and the Chebyshev recurrence within the group's
    # tolerances, scaled by n + 1; rounding leaves residuals above 0
    residuals = [verify._coeff_residuals(p) for p in _verify_angles()]
    assert all(brute <= 1e-12 and cheb <= 1e-11 for brute, cheb in residuals)
    assert all(brute > 0.0 and cheb > 0.0 for brute, cheb in residuals)
    records = verify.run_checks(only=["coeffs"])
    assert [r.lhs for r in records] == [max(column) for column in zip(*residuals)]


@pytest.mark.parametrize("p", _verify_angles())
def test_coeff_witness_is_its_definition(p):
    # the one-table brute force is bitwise fsum over the definition's terms,
    # so its residual at p is the definition's, exactly
    sin_p = math.sin(p)
    worst = max(abs(math.sin((n + 1) * p) / sin_p
                    - math.fsum(math.cos((n - 2 * k) * p) for k in range(n + 1))) / (n + 1)
                for n in range(201))
    assert verify._coeff_residuals(p)[0] == worst


# verify's 20 angles, and edges: near 0 and near pi, and multiples of pi/6,
# where cos(j p) or sin((n+1) p) vanish in real arithmetic
COEFF_ANGLES = _verify_angles() + [0.01, -0.01, math.pi / 2, math.pi / 3, 2 * math.pi / 3,
                                   3.0, 1e-3]


def _doubled(p):
    return [1.0] + [2.0 * math.cos(j * p) for j in range(1, 201)]


@pytest.mark.parametrize("p", COEFF_ANGLES)
def test_coeff_definitions_are_fsum_at_every_n(p):
    # every running sum of both parity chains, not only the worst residual,
    # is bitwise fsum over the definition's n + 1 cosines
    expected = [math.fsum(math.cos((n - 2 * k) * p) for k in range(n + 1)).hex()
                for n in range(201)]
    assert [s.hex() for s in verify._coeff_definitions(p)] == expected


@pytest.mark.parametrize("terms", [_doubled(p) for p in COEFF_ANGLES]
                         + [[1.0, 0.0, 3 * 2.0**-60, -(2.0**-52), -1.5, 2.0]])
def test_exact_scale_makes_every_term_an_integer(terms):
    k = verify._exact_scale(terms)
    scaled = [math.ldexp(x, k) for x in terms]
    assert all(s.is_integer() for s in scaled)
    assert [int(s) / (1 << k) for s in scaled] == terms
    assert k < 115


def test_jn_closed_values():
    assert abs(j_n(0) + EULER_GAMMA) < 1e-15
    assert abs(j_n(1) + 0.5 * (EULER_GAMMA + math.log(2.0))) < 1e-15


def test_jn_domain():
    # j_n(nan) and j_n(inf) once returned nan
    for n in (-1, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            j_n(n)


@pytest.mark.parametrize("phi", SAWTOOTH_ANGLES)
def test_sawtooth_accelerated(phi):
    value, est = sawtooth_sum(Angle(phi))
    assert abs(value - phi / 2.0) <= min(1e-13, est)


def test_sawtooth_raw_misses():
    # the raw 200-term partial sum of the conditionally convergent series
    # is nowhere near 1e-8
    raw = math.fsum((-1) ** (n + 1) * math.sin(n * math.pi / 2) / n for n in range(1, 201))
    assert abs(raw - math.pi / 4.0) > 1e-4


def test_log_sine_sum_matches_closed_assembly():
    # sum = sin(phi) I(phi) + gamma phi / 2 from the closed form
    for phi in (0.7, 2.0, -1.3):
        expected = (math.sin(phi) * malmsten_closed(Angle(phi)).value
                    + 0.5 * EULER_GAMMA * phi)
        assert abs(log_sine_sum(Angle(phi))[0] - expected) <= 1e-9


# The value of the series route, and the value and est_error of kummer, as
# float.hex at |phi|: on Euler's branch (|phi| <= EULER_PHI), on the
# Euler-Maclaurin branch, near 0 and near pi, down to the last float below
# pi.  Both routes are even, bitwise, so one row serves both signs.  A
# change that moves one of these bits must say so and freeze the rows again.
ROUTE_HEX = {
    0.1: ("-0x1.032f16508f93bp-4", "-0x1.032f16508f970p-4", "0x1.9a254215dddcep-44"),
    0.5: ("-0x1.32d5f1b233fe9p-4", "-0x1.32d5f1b23409fp-4", "0x1.7a1c85e4d359ap-46"),
    1.2: ("-0x1.391d33253876ap-3", "-0x1.391d33253876bp-3", "0x1.d612201159ce4p-47"),
    2.0: ("-0x1.1bb98c6f38cb6p-1", "-0x1.1bb98c6f38cacp-1", "0x1.35cf69ba94381p-46"),
    2.05: ("-0x1.39b552cd0482fp-1", "-0x1.39b552cd047fdp-1", "0x1.433d43c110b97p-46"),
    2.5: ("-0x1.d69ce0018b754p+0", "-0x1.d69ce0018b73dp+0", "0x1.20f409419467dp-45"),
    2.9: ("-0x1.3ecd2369460cap+3", "-0x1.3ecd2369460cap+3", "0x1.d45c3ad8c6001p-44"),
    3.1: ("-0x1.e305697eb5a90p+6", "-0x1.e305697eb5a8dp+6", "0x1.d4c27b73bcc66p-41"),
    1e-5: ("-0x1.014bda66fc0b3p-4", "-0x1.014bda68d22f9p-4", "0x1.e79716bada504p-31"),
    2e-6: ("-0x1.014bda66ae5d9p-4", "-0x1.014bda37a34aep-4", "0x1.30be46bfe37f0p-28"),
    math.pi - 1e-12: ("-0x1.3bba2373c8ae2p+45", "-0x1.3bba2373c8ae1p+45", "0x1.564cc58e4c0cap-3"),
    math.nextafter(math.pi, 0.0):
        ("-0x1.59ce3eb1ef71cp+56", "-0x1.59ce3eb1ef71bp+56", "0x1.6e95425e24229p+8"),
}


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("magnitude", ROUTE_HEX)
def test_series_and_kummer_bits(magnitude, sign):
    series_value, kummer_value, kummer_est = ROUTE_HEX[magnitude]
    phi = Angle(sign * magnitude)
    assert evaluate(phi, "series").value.hex() == series_value
    kummer = evaluate(phi, "kummer")
    assert (kummer.value.hex(), kummer.est_error.hex()) == (kummer_value, kummer_est)


@pytest.mark.parametrize("phi", GRID)
def test_series_eval_vs_closed(phi):
    ev = series_eval(Angle(phi))
    assert ev.method is Method.SERIES
    assert abs(ev.value - malmsten_closed(Angle(phi)).value) <= 1e-8


def test_series_nonconvergence_carries_best_estimate():
    with pytest.raises(NonConvergenceError) as exc_info:
        evaluate(Angle(2.0), "series", 1e-16)
    err = exc_info.value
    truth = malmsten_closed(Angle(2.0)).value
    assert abs(err.best_estimate - truth) <= 1e-7
    assert err.est_error > 1e-16


@pytest.mark.parametrize("phi", [0.5, 2.0])
def test_series_work_adapts_to_the_angle(phi):
    # a quarter of the 2000 terms that the route once always summed
    ev = series_eval(Angle(phi))
    assert ev.work <= 500


# pi - |phi| from the last float below pi up to just below pi - EULER_PHI,
# through just below the former crossovers 0.25 and 0.5
# the tail table of the log-sine Euler-Maclaurin branch
_LOG_SINE_EM_TAIL = series._LOG_SINE_EM[4]

EM_GAPS = [math.pi - math.nextafter(math.pi, 0.0), 1e-12, 1e-3, 0.02, 0.25 * 0.999,
           0.5 * 0.999, (math.pi - EULER_PHI) * 0.999]


@pytest.mark.parametrize("d", EM_GAPS)
def test_series_work_past_the_crossover(d):
    # past EULER_PHI Euler-Maclaurin sums EM_HEAD - 2 head terms, EM_ORDER
    # Bernoulli terms and 1 to 24 terms of the tail integral's series; the
    # series table is sized for theta = pi - EULER_PHI, so next to it every
    # term is used
    fixed = EM_HEAD - 2 + EM_ORDER
    works = {series_eval(Angle(phi)).work for phi in (math.pi - d, d - math.pi)}
    assert len(works) == 1
    work = works.pop()
    assert fixed < work <= fixed + len(_LOG_SINE_EM_TAIL) == 44
    if d == EM_GAPS[-1]:
        assert work == 44


def test_series_work_falls_toward_pi():
    works = [series_eval(Angle(math.pi - d)).work for d in EM_GAPS]
    assert works == sorted(works)
    assert works[0] < works[-1]


# |phi| from the zero threshold up to EULER_PHI, and just past it
EULER_ANGLES = [1e-6, 1e-3, 0.1, 0.5, 1.0, 1.5, 1.9, EULER_PHI, EULER_PHI * (1.0 + 1e-9)]


def test_euler_work_grows_with_the_angle():
    # up to EULER_PHI Euler's transformation sums the EULER_HEAD - 2 head
    # terms and K transformed terms, K = bisect_left(_EULER_STOPS, rho); K
    # grows with rho = 1/(2 cos(phi/2)) and so with |phi|, up to 39 at
    # EULER_PHI.  Past EULER_PHI Euler-Maclaurin sums its whole tail table.
    works = []
    for p in EULER_ANGLES[:-1]:
        rho = 0.5 / math.cos(0.5 * p)
        k = bisect.bisect_left(series._LOG_SINE_EULER[4], rho)
        for phi in (p, -p):
            assert series_eval(Angle(phi)).work == EULER_HEAD - 2 + k
        works.append(EULER_HEAD - 2 + k)
    assert works == sorted(works)
    assert works[0] == EULER_HEAD - 2 + 17
    assert works[-1] == EULER_HEAD - 2 + 39
    assert (series_eval(Angle(EULER_ANGLES[-1])).work
            == EM_HEAD - 2 + EM_ORDER + len(_LOG_SINE_EM_TAIL))


def test_euler_stop_table_meets_its_target():
    # for the log-sine and the sawtooth weights, each stop's truncation
    # bound A_K rho^(K+1) / (1 - rho) is within 1% of the target, and the
    # table reaches the largest rho of the branch
    for tables in (series._LOG_SINE_EULER, series._SAWTOOTH_EULER):
        _, _, _, a, stops, *_ = tables
        assert list(stops) == sorted(stops)
        assert stops[-1] >= 0.5 / math.cos(0.5 * EULER_PHI) > stops[-2]
        for k, rho in enumerate(stops):
            bound = a[k] * rho ** (k + 1) / (1.0 - rho)
            assert bound == pytest.approx(series._EULER_TRUNCATION, rel=0.01)


def _d_exact(k, h):
    """Delta^k g(0), g(j) = h(M + j): 40 digits after the cancellation."""
    m = EULER_HEAD
    with mpmath.workdps(40 + k):
        return mpmath.fsum((-1) ** (k - i) * mpmath.binomial(k, i) * h(mpmath.mpf(m + i))
                           for i in range(k + 1))


def test_euler_table_matches_mpmath():
    # for the log-sine weights, d_k is its 40-digit value rounded to the
    # nearest float; A_k is the integral of |ln t + gamma| e^{-Mt} (1 - e^{-t})^k
    # rounded up, from
    # A_k = (-1)^(k+1) d_k + 2 int_0^{e^-gamma} |ln t + gamma| e^{-Mt} (1 - e^{-t})^k dt,
    # and bounds |d_k| and every later |d_j|
    m = EULER_HEAD
    assert len(series._EULER_D) == len(series._EULER_A) == 40
    with mpmath.workdps(40):
        t0 = mpmath.exp(-mpmath.euler)
        for k, (d, a) in enumerate(zip(series._EULER_D, series._EULER_A)):
            exact = _d_exact(k, lambda x: mpmath.log(x) / x)
            assert d == float(exact)
            neg = mpmath.quad(lambda t, k=k: -(mpmath.log(t) + mpmath.euler) * mpmath.exp(-m * t)
                              * (1 - mpmath.exp(-t)) ** k, [0, t0])
            bound = (-1) ** (k + 1) * exact + 2 * neg
            assert bound <= a <= bound * (1 + 2 * EPS)
            assert all(abs(dj) <= a for dj in series._EULER_D[k:])
    # for the sawtooth weights 1/x, d_k is its 40-digit value rounded to the
    # nearest float, and A_k = |d_k| bounds every later |d_j|
    bounds = series._SAWTOOTH_EULER[3]
    assert len(series._SAWTOOTH_D) == len(bounds) == 41
    for k, (d, a) in enumerate(zip(series._SAWTOOTH_D, bounds)):
        assert d == float(_d_exact(k, lambda x: 1 / x))
        assert a == abs(d)
        assert all(abs(dj) <= a for dj in series._SAWTOOTH_D[k:])


def test_bernoulli_table_matches_mpmath():
    # every B_2k literal of the Euler-Maclaurin branch is B_2k rounded to
    # the nearest float
    assert len(series._BERNOULLI) == EM_ORDER + 1
    with mpmath.workdps(40):
        for k, b in enumerate(series._BERNOULLI, 1):
            assert b == float(mpmath.bernoulli(2 * k))


def test_series_zero_angle():
    with pytest.raises(ZeroAngleError):
        series_eval(Angle(0.0))


def _log_sine_oracle(phi):
    """S(phi) = sin(phi) I(phi) + gamma phi / 2 at 40 digits, at the exact
    binary64 phi, from the oracle of I; sin(phi) I(phi) keeps the digits the
    oracle adds for the cancellation of its log-gammas, about log10(1/|phi|)."""
    lost = max(0, -math.floor(math.log10(abs(phi))))
    with mpmath.workdps(40 + lost):
        p = mpmath.mpf(phi)
        return mpmath.sin(p) * oracle(phi) + mpmath.euler * p / 2


@pytest.mark.parametrize("phi", [s * v for s in (1.0, -1.0)
                                 for v in (1e-300, 1e-15, 1e-9, 5e-7, 9.9e-7,
                                           5e-324, 1e-323, 1e-315)])
def test_log_sine_sum_takes_a_zero_angle(phi):
    # S has no 1/sin(phi): ZERO angles are summed on Euler's branch, with an
    # honest estimate, to within a few ulps of the 40-digit value; where S is
    # subnormal, an ulp is the subnormal spacing and the estimate is not 0
    value, est = log_sine_sum(Angle(phi))
    with mpmath.workdps(40):
        exact = _log_sine_oracle(phi)
        err = abs(mpmath.mpf(value) - exact)
        assert err <= est
        assert err <= max(4e-15 * abs(exact), 4 * math.ulp(0.0))


def test_log_sine_sum_at_zero():
    # S(0) = 0, and S(5e-324) = 0.226 * 5e-324 rounds to 0 too
    assert log_sine_sum(Angle(0.0))[0] == 0.0
    assert log_sine_sum(Angle(5e-324))[0] == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tol": 0.0},
        {"tol": -1e-9},
        {"tol": -math.inf},
        {"tol": math.inf},
        {"tol": math.nan},
    ],
)
def test_evaluate_refuses_a_bad_tol(kwargs):
    # the series route takes no tol, but evaluate checks a given one
    with pytest.raises(DomainError):
        evaluate(Angle(1.0), "series", **kwargs)
