"""Tests for the Cauchy-product series route: coefficients, inner
integrals, the sawtooth series, and the extrapolated full evaluation."""

import bisect
import math
import random

import mpmath
import pytest
from test_oracle import oracle

from malmsten import kernels, series, verify
from malmsten.closed_form import malmsten_closed
from malmsten.domain import Angle, Method
from malmsten.errors import DomainError, NonConvergenceError, ZeroAngleError
from malmsten.series import (
    EM_GAP,
    EM_HEAD,
    EM_ORDER,
    EULER_HEAD,
    EULER_PHI,
    LEVIN_K,
    MAX_TERMS,
    j_n,
    log_sine_sum,
    sampling_stride,
    sawtooth_sum,
    series_eval,
)
from malmsten.special_functions import EPS, EULER_GAMMA

GRID = [s * v for s in (1.0, -1.0)
        for v in (0.1, 0.5, math.pi / 3, math.pi / 2, 2.0, 2 * math.pi / 3, 2.9)]

# GRID, 0, the ends +-3.1 and seeded angles on |phi| <= 3.1
_RNG = random.Random(20261018)
SAWTOOTH_ANGLES = GRID + [0.0, 3.1, -3.1] + [_RNG.uniform(-3.1, 3.1) for _ in range(60)]


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


def test_jn_closed_values():
    assert abs(j_n(0) + EULER_GAMMA) < 1e-15
    assert abs(j_n(1) + 0.5 * (EULER_GAMMA + math.log(2.0))) < 1e-15
    with pytest.raises(DomainError):
        j_n(-1)


@pytest.mark.parametrize("phi", SAWTOOTH_ANGLES)
def test_sawtooth_accelerated(phi):
    assert abs(sawtooth_sum(Angle(phi)) - phi / 2.0) <= 1e-13


def test_sawtooth_raw_misses():
    # the raw 200-term partial sum of the conditionally convergent series,
    # straight from the sampling kernel, is nowhere near 1e-8
    sums, _ = kernels.alternating_samples(kernels.SAWTOOTH_WEIGHTS, math.pi / 2, 199, 1)
    assert abs(-sums[-1].imag - math.pi / 4.0) > 1e-4


def test_log_sine_sum_matches_closed_assembly():
    # sum = sin(phi) I(phi) + gamma phi / 2 from the closed form
    for phi in (0.7, 2.0, -1.3):
        expected = (math.sin(phi) * malmsten_closed(Angle(phi)).value
                    + 0.5 * EULER_GAMMA * phi)
        assert abs(log_sine_sum(Angle(phi)) - expected) <= 1e-9


@pytest.mark.parametrize("phi", GRID)
def test_series_eval_vs_closed(phi):
    ev = series_eval(Angle(phi))
    assert ev.method is Method.SERIES
    assert abs(ev.value - malmsten_closed(Angle(phi)).value) <= 1e-8


def test_series_error_estimate_is_honest():
    for phi in (0.5, 2.0, 2.9):
        ev = series_eval(Angle(phi))
        truth = malmsten_closed(Angle(phi)).value
        assert abs(ev.value - truth) <= 10.0 * max(ev.est_error, 1e-15)


def test_series_band_widens_outside():
    # near pi the log-sine sum is taken by Euler-Maclaurin, which meets the
    # default tolerance there, so the route returns a value with an honest
    # error estimate rather than a hard failure
    phi = 3.05
    assert math.pi - phi < EM_GAP
    ev = series_eval(Angle(phi))
    truth = malmsten_closed(Angle(phi)).value
    assert abs(ev.value - truth) <= 10.0 * max(ev.est_error, 1e-15)


def test_series_nonconvergence_carries_best_estimate():
    with pytest.raises(NonConvergenceError) as exc_info:
        series_eval(Angle(2.0), 1e-16)
    err = exc_info.value
    truth = malmsten_closed(Angle(2.0)).value
    assert abs(err.best_estimate - truth) <= 1e-7
    assert err.est_error > 1e-16


def test_log_sine_sum_nonconvergence_carries_best_estimate():
    with pytest.raises(NonConvergenceError) as exc_info:
        log_sine_sum(Angle(2.0), 1e-16)
    err = exc_info.value
    expected = (math.sin(2.0) * malmsten_closed(Angle(2.0)).value
                + 0.5 * EULER_GAMMA * 2.0)
    assert abs(err.best_estimate - expected) <= 1e-9
    assert err.est_error > 1e-16


@pytest.mark.parametrize("phi", [0.5, 2.0])
def test_series_work_adapts_to_the_angle(phi):
    ev = series_eval(Angle(phi))
    assert ev.work <= MAX_TERMS // 4


def test_series_work_follows_the_sampling_stride():
    # between EULER_PHI and pi - EM_GAP the Levin engine sums
    # kappa (LEVIN_K + 1) + 1 terms, with kappa = 5 at the Euler-Maclaurin
    # crossover and 2 at the Euler crossover
    for d in (EM_GAP * 1.001, 0.8, math.pi - EULER_PHI * 1.001):
        for phi in (math.pi - d, d - math.pi):
            kappa = sampling_stride(phi)
            assert 2 <= kappa <= 5
            assert series_eval(Angle(phi)).work == kappa * (LEVIN_K + 1) + 1
    assert sampling_stride(math.pi - EM_GAP * 1.001) == 5
    assert sampling_stride(EULER_PHI * 1.001) == 2


# pi - |phi| from the last float below pi up to just below EM_GAP, through
# just below the former crossover 0.25
EM_GAPS = [math.pi - math.nextafter(math.pi, 0.0), 1e-12, 1e-3, 0.02, 0.25 * 0.999,
           EM_GAP * 0.999]


@pytest.mark.parametrize("d", EM_GAPS)
def test_series_work_past_the_crossover(d):
    # below EM_GAP Euler-Maclaurin sums EM_HEAD - 2 head terms, EM_ORDER
    # Bernoulli terms and 1 to 18 terms of the tail integral's series; the
    # series table is sized for theta = EM_GAP, so just below it every term
    # is used
    fixed = EM_HEAD - 2 + EM_ORDER
    works = {series_eval(Angle(phi)).work for phi in (math.pi - d, d - math.pi)}
    assert len(works) == 1
    work = works.pop()
    assert fixed < work <= fixed + len(series._EM_TAIL) == 36
    if d == EM_GAPS[-1]:
        assert work == 36


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
    # EULER_PHI.  Past EULER_PHI the Levin engine sums 2 (LEVIN_K + 1) + 1.
    works = []
    for p in EULER_ANGLES[:-1]:
        rho = 0.5 / math.cos(0.5 * p)
        k = bisect.bisect_left(series._EULER_STOPS, rho)
        for phi in (p, -p):
            assert series_eval(Angle(phi)).work == EULER_HEAD - 2 + k
        works.append(EULER_HEAD - 2 + k)
    assert works == sorted(works)
    assert works[0] == EULER_HEAD - 2 + 17
    assert works[-1] == EULER_HEAD - 2 + 39
    assert series_eval(Angle(EULER_ANGLES[-1])).work == 2 * (LEVIN_K + 1) + 1


def test_euler_stop_table_meets_its_target():
    # each stop's truncation bound A_K rho^(K+1) / (1 - rho) is within 1%
    # of the target, and the table reaches the largest rho of the branch
    stops = series._EULER_STOPS
    assert list(stops) == sorted(stops)
    assert stops[-1] >= 0.5 / math.cos(0.5 * EULER_PHI) > stops[-2]
    for k, rho in enumerate(stops):
        bound = series._EULER_A[k] * rho ** (k + 1) / (1.0 - rho)
        assert bound == pytest.approx(series._EULER_TRUNCATION, rel=0.01)


def _d_exact(k):
    """Delta^k g(0), g(j) = ln(M + j)/(M + j): 40 digits after the cancellation."""
    m = EULER_HEAD
    with mpmath.workdps(40 + k):
        return mpmath.fsum((-1) ** (k - i) * mpmath.binomial(k, i) * mpmath.log(m + i) / (m + i)
                           for i in range(k + 1))


def test_euler_table_matches_mpmath():
    # d_k is its 40-digit value rounded to the nearest float; A_k is the
    # integral of |ln t + gamma| e^{-Mt} (1 - e^{-t})^k rounded up, from
    # A_k = (-1)^(k+1) d_k + 2 int_0^{e^-gamma} |ln t + gamma| e^{-Mt} (1 - e^{-t})^k dt,
    # and bounds |d_k| and every later |d_j|
    m = EULER_HEAD
    assert len(series._EULER_D) == len(series._EULER_A) == 40
    with mpmath.workdps(40):
        t0 = mpmath.exp(-mpmath.euler)
        for k, (d, a) in enumerate(zip(series._EULER_D, series._EULER_A)):
            exact = _d_exact(k)
            assert d == float(exact)
            neg = mpmath.quad(lambda t, k=k: -(mpmath.log(t) + mpmath.euler) * mpmath.exp(-m * t)
                              * (1 - mpmath.exp(-t)) ** k, [0, t0])
            bound = (-1) ** (k + 1) * exact + 2 * neg
            assert bound <= a <= bound * (1 + 2 * EPS)
            assert all(abs(dj) <= a for dj in series._EULER_D[k:])


@pytest.mark.parametrize("phi", GRID + [2.36, -2.36])
def test_series_error_estimate_holds_against_mpmath(phi):
    # 2.36 lies in the stretch of the band where summing a fixed 2000
    # terms raised NonConvergenceError
    ev = series_eval(Angle(phi))
    with mpmath.workdps(40):
        err = abs(mpmath.mpf(ev.value) - oracle(phi))
    assert err <= ev.est_error


def test_series_zero_angle():
    with pytest.raises(ZeroAngleError):
        series_eval(Angle(0.0))


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
def test_config_validation(kwargs):
    # the tolerance is the series engine's one setting
    with pytest.raises(DomainError):
        series_eval(Angle(1.0), **kwargs)
    with pytest.raises(DomainError):
        log_sine_sum(Angle(1.0), **kwargs)
