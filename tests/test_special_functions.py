"""Tests for the self-contained log-gamma implementation and the reflection
product.

mpmath serves the tests as an independent high-precision oracle; the
package itself never imports it.
"""

import math

import mpmath
import pytest

from malmsten.errors import DomainError
from malmsten.special_functions import (
    EULER_GAMMA,
    LN_PI,
    LN_TWO_PI,
    log_gamma,
    reflection_product,
)

mpmath.mp.dps = 30

# Oracle values frozen from mpmath (30 significant digits, rounded to
# binary64) so the headline points do not depend on the oracle at runtime.
FROZEN_LOG_GAMMA = {
    0.001: 6.9071788853838536825,
    100.0: 359.13420536957539878,
    1000.0: 5905.2204232091812118,
}


def test_constants():
    assert abs(EULER_GAMMA - float(mpmath.euler)) < 1e-16
    assert abs(LN_PI - math.log(math.pi)) < 1e-16
    assert abs(LN_TWO_PI - (math.log(2.0) + LN_PI)) < 1e-15


@pytest.mark.parametrize(
    "x, expected",
    [
        (1.0, 0.0),
        (2.0, 0.0),
        (0.5, 0.5 * math.log(math.pi)),
        (5.0, math.log(24.0)),
        (11.0, math.log(3628800.0)),
    ],
)
def test_log_gamma_exact_points(x, expected):
    assert abs(log_gamma(x) - expected) < 2e-14 * max(1.0, abs(expected))


@pytest.mark.parametrize("x, expected", sorted(FROZEN_LOG_GAMMA.items()))
def test_log_gamma_frozen_oracle(x, expected):
    assert abs(log_gamma(x) - expected) <= max(1e-13, 1e-14 * abs(expected))


def test_log_gamma_against_oracle_grid():
    # 1e-13 absolute is honest up to |result| ~ a few hundred; past that the
    # limit is a few ulps of the result, hence the scaled term.
    for k in range(121):
        x = 10.0 ** (-3.0 + 6.0 * k / 120.0)
        ref = float(mpmath.loggamma(mpmath.mpf(x)))
        assert abs(log_gamma(x) - ref) <= max(1e-13, 1e-14 * abs(ref))


def test_log_gamma_recurrence():
    for k in range(50):
        x = 10.0 ** (-2.0 + 4.0 * k / 49.0)
        lhs = log_gamma(x + 1.0) - log_gamma(x)
        assert abs(lhs - math.log(x)) <= 1e-12 * max(1.0, abs(math.log(x)))


def test_reflection_product_residual():
    for k in range(100):
        t = -0.49 + 0.98 * (k + 0.5) / 100.0
        lhs, rhs = reflection_product(t)
        assert abs(lhs - rhs) <= 1e-11 * abs(rhs)


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
def test_log_gamma_domain(bad):
    with pytest.raises(DomainError):
        log_gamma(bad)


def test_log_gamma_overflow():
    with pytest.raises(OverflowError):
        log_gamma(3e305)


@pytest.mark.parametrize("bad", [0.5, -0.5, 1.0])
def test_reflection_domain(bad):
    with pytest.raises(DomainError):
        reflection_product(bad)
