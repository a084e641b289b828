"""Tests for log_gamma (math.lgamma behind its domain and overflow checks),
the reflection product and the stop tables built by `stop_table`.

mpmath serves the tests as an independent high-precision oracle; the
package itself never imports it.
"""

import math
import random

import mpmath
import pytest

from malmsten import closed_form, series
from malmsten.errors import DomainError
from malmsten.special_functions import (
    EULER_GAMMA,
    LN_PI,
    LGAMMA_ERR,
    LN_TWO_PI,
    gamma_gap,
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


def test_lgamma_error_bound():
    # the measured bound behind special_value's estimate, on 2000 of the
    # 20 000 uniform draws it came from and at the x of its worst
    rng = random.Random(20000)
    xs = [rng.uniform(1e-6, 1.5) for _ in range(2000)] + [1.3886484563595898e-4]
    with mpmath.workdps(40):
        worst = max(abs(mpmath.mpf(math.lgamma(x)) - mpmath.loggamma(mpmath.mpf(x))) for x in xs)
    assert 1.7e-15 < worst <= LGAMMA_ERR


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


@pytest.mark.parametrize(
    "x",
    [
        gamma_gap(math.nextafter(math.pi, 0.0)),  # ~9.0e-17, kummer's smallest argument
        1e-10,
        0.5 - 1e-12,
        1.4616321449683622,  # the minimum of Gamma on x > 0
    ],
)
def test_log_gamma_where_the_routes_reach(x):
    ref = float(mpmath.loggamma(mpmath.mpf(x)))
    assert abs(log_gamma(x) - ref) <= 1e-15 * max(1.0, abs(ref))


@pytest.mark.parametrize("x", [5e-324, 1e-323, 1e-320, 1e-315])
def test_log_gamma_at_subnormal_x(x):
    # ln Gamma(x) = -ln x - gamma x + ..., so it needs no sin(pi x), which
    # keeps only a few bits of a subnormal x
    ref = mpmath.loggamma(mpmath.mpf(x))
    assert abs(log_gamma(x) - ref) <= 1e-15 * abs(ref)


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


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.nan])
def test_log_gamma_domain(bad):
    with pytest.raises(DomainError):
        log_gamma(bad)


def test_log_gamma_overflow():
    for x in (3e305, math.inf):
        with pytest.raises(OverflowError):
            log_gamma(x)


@pytest.mark.parametrize("bad", [0.5, -0.5, 1.0])
def test_reflection_domain(bad):
    with pytest.raises(DomainError):
        reflection_product(bad)


# The stop tables that `stop_table` builds, as float.hex: frozen from the
# builders they replace, one in each of closed_form and series, so that a
# change to the shared contraction shows here bit for bit.
FROZEN_STOPS = {
    "_DIRECT": (
        "0x1.56d2a53294cafp-30", "0x1.b6f7330b4c2f5p-21", "0x1.57846b4bab12bp-16",
        "0x1.257d717ad2bddp-13", "0x1.06bbfeec2c416p-11", "0x1.458afec3cecf7p-10",
        "0x1.40b22576f30bbp-9", "0x1.0f3eabe3071c6p-8", "0x1.9c81d1608c277p-8",
        "0x1.225c5045cd365p-7", "0x1.81d251f972182p-7", "0x1.ea7018bf2d3afp-7",
        "0x1.2d10bdf40b0b9p-6", "0x1.6784f3e6600f5p-6", "0x1.a3c6b6edbc0fcp-6"
    ),
    "_SPLIT": (
        "0x1.218eddd1631bfp-26", "0x1.5284c6e4c199dp-17", "0x1.f2427acd5ae15p-13",
        "0x1.979ee6ddc965fp-10", "0x1.617b9266d6915p-8", "0x1.ab9443908c142p-7",
        "0x1.9d6ba7754af3ep-6", "0x1.58856e80f70e9p-5", "0x1.02d72959d30bbp-4",
        "0x1.68cb617637db1p-4", "0x1.db72103f1ed34p-4", "0x1.2c0f27cbadc15p-3",
        "0x1.6e2c2c9511c79p-3", "0x1.b2fa8dd1a15a6p-3", "0x1.f98e3b1fb33b3p-3",
        "0x1.2091829ed61b6p-2"
    ),
    "_LOG_SINE_EULER": (
        "0x1.33e22cea69fd5p-54", "0x1.87b1018af6ffcp-25", "0x1.0476cee8180c3p-15",
        "0x1.7fc8b1f6490bbp-11", "0x1.2ec45bf101423p-8", "0x1.f41bfd9590b97p-7",
        "0x1.1f0c64e0bf1b3p-5", "0x1.0769f664f63f9p-4", "0x1.a1557f3b1112ap-4",
        "0x1.2aa7d8811dd96p-3", "0x1.8d49730655572p-3", "0x1.f4656285a8a77p-3",
        "0x1.2e28c74d38a43p-2", "0x1.61050922dcd3cp-2", "0x1.91a916e352b74p-2",
        "0x1.bf65301b7f126p-2", "0x1.e9f280c431f7fp-2", "0x1.08acc4d5a2385p-1",
        "0x1.1ae7dc545b129p-1", "0x1.2bcd3ac570798p-1", "0x1.3b7efa94d5951p-1",
        "0x1.4a1b16a57103bp-1", "0x1.57bad052bb04dp-1", "0x1.64734b2e2d6bcp-1",
        "0x1.70567102c2f5cp-1", "0x1.7b73bdec1f07bp-1", "0x1.85d8db71e0df7p-1",
        "0x1.8f920d9c046d8p-1", "0x1.98aa7cb076c55p-1", "0x1.a12c663d5c179p-1",
        "0x1.a9213dcdbd0c1p-1", "0x1.b091c33daf518p-1", "0x1.b78612b49afb3p-1",
        "0x1.be05b0ea0711bp-1", "0x1.c417956c0b37bp-1", "0x1.c9c23408dd01bp-1",
        "0x1.cf0b862617f44p-1", "0x1.d3f914a4d505ap-1", "0x1.d89002dfe5655p-1",
        "0x1.dcd51b428275dp-1"
    ),
    "_SAWTOOTH_EULER": (
        "0x1.cd2b297d889bbp-53", "0x1.16587ec7c9df8p-24", "0x1.2cffcc9cf3be1p-15",
        "0x1.94635540e00b0p-11", "0x1.2f147a7db4380p-8", "0x1.e4a7c4a6c4f9ep-7",
        "0x1.1006427f0a751p-5", "0x1.eb26e27635748p-5", "0x1.804b79f195c58p-4",
        "0x1.1075199ed6bc6p-3", "0x1.6802f07928fb0p-3", "0x1.c38ef6e2f490cp-3",
        "0x1.103e3704cf555p-2", "0x1.3e68ae0c99933p-2", "0x1.6b90a4fe67692p-2",
        "0x1.97391dde94d6fp-2", "0x1.c111629d22433p-2", "0x1.e8e9ef7af99abp-2",
        "0x1.0755c314798a5p-1", "0x1.19281fca09b02p-1", "0x1.29ef2567a1900p-1",
        "0x1.39b201568dd0fp-1", "0x1.487a866728268p-1", "0x1.5654212a5c736p-1",
        "0x1.634b17dd2b046p-1", "0x1.6f6c026cfa9f1p-1", "0x1.7ac36bcf14b42p-1",
        "0x1.855d9195d6f77p-1", "0x1.8f463982c8408p-1", "0x1.988896f9623a3p-1",
        "0x1.a12f3bd269896p-1", "0x1.a9441143e342ep-1", "0x1.b0d056784133cp-1",
        "0x1.b7dca31caf5abp-1", "0x1.be70ecb2625fep-1", "0x1.c4948dd5c0875p-1",
        "0x1.ca4e4f01f3988p-1", "0x1.cfa4709f56194p-1", "0x1.d49cb66bef078p-1",
        "0x1.d93c748622ec0p-1", "0x1.dd889e8566027p-1"
    ),
}


@pytest.mark.parametrize("name", sorted(FROZEN_STOPS))
def test_stop_tables_are_frozen(name):
    stops = {"_DIRECT": closed_form._DIRECT[2], "_SPLIT": closed_form._SPLIT[2],
             "_LOG_SINE_EULER": series._LOG_SINE_EULER[4],
             "_SAWTOOTH_EULER": series._SAWTOOTH_EULER[4]}[name]
    assert tuple(x.hex() for x in stops) == FROZEN_STOPS[name]

