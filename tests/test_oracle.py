"""Routes against a 40-digit mpmath oracle at the edges of the domain: the
ZERO-classified angles next to phi = 0, and angles within 1e-12 of +-pi."""

import math

import mpmath
import pytest

from malmsten import Angle, evaluate


def oracle(phi):
    """I(phi) at 40 digits from the gamma closed form, at the exact binary64 phi."""
    with mpmath.workdps(40):
        p = mpmath.mpf(phi)
        t = p / (2 * mpmath.pi)
        return (mpmath.pi / (2 * mpmath.sin(p))) * (
            2 * t * mpmath.log(2 * mpmath.pi)
            + mpmath.loggamma(mpmath.mpf(0.5) + t)
            - mpmath.loggamma(mpmath.mpf(0.5) - t))


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
