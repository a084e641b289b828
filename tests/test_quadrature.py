"""Tests for the double-exponential quadrature oracle: both integral
representations, the tangent form, the inner integrals, and the error
estimate contract."""

import math

import pytest

from malmsten import evaluate
from malmsten.domain import Angle
from malmsten.errors import DomainError
from malmsten.quadrature import (
    GUARD_BAND,
    integrand_exp,
    integrand_tan,
    integrand_unit,
    quad_eval,
    quad_jn,
    quad_tan_form,
    quad_unit_eval,
)
from malmsten.series import j_n

FROZEN_I = {
    math.pi / 2: -0.26044280630098844554,
    2.0: -0.55414999826134329422,
    2.9: -9.962541299450457968,
}
FROZEN_TAN = -0.26044280630098844554  # same value as I(pi/2)


def test_integrand_unit_zero_crossing():
    # ln ln(1/x) vanishes at x = 1/e regardless of phi
    assert integrand_unit(1.0 / math.e, Angle(0.7)) == 0.0
    assert integrand_unit(1.0 / math.e, Angle(-2.5)) == 0.0


def test_integrand_unit_value():
    # at phi = pi/2 the denominator is 1 + x^2
    x = 0.25
    expected = math.log(math.log(1.0 / x)) / (1.0 + x * x)
    assert abs(integrand_unit(x, Angle(math.pi / 2)) - expected) < 1e-15


def test_integrand_exp_matches_unit():
    # substituting x = e^{-u} maps one integrand onto the other times e^{-u}
    for u in (0.2, 1.0, 3.0):
        x = math.exp(-u)
        lhs = integrand_exp(u, Angle(1.3))
        rhs = x * integrand_unit(x, Angle(1.3))
        assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(rhs))


def test_integrand_tan_zero_crossing():
    y = math.atan(math.e)
    assert abs(integrand_tan(y)) < 1e-13


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
def test_integrand_unit_domain(bad):
    with pytest.raises(DomainError):
        integrand_unit(bad, Angle(1.0))


def test_integrand_exp_tan_domain():
    with pytest.raises(DomainError):
        integrand_exp(0.0, Angle(1.0))
    with pytest.raises(DomainError):
        integrand_tan(math.pi / 4)
    with pytest.raises(DomainError):
        integrand_tan(math.pi / 2)


@pytest.mark.parametrize("phi, expected", sorted(FROZEN_I.items()))
def test_quad_frozen_oracle(phi, expected):
    for route in (quad_eval, quad_unit_eval):
        r = route(Angle(phi))
        assert r.converged
        assert abs(r.value - expected) <= 1e-11


def test_representations_agree():
    for k in range(10):
        p = -3.0 + 6.0 * k / 9.0
        a = Angle(p)
        delta = abs(quad_unit_eval(a).value - quad_eval(a).value)
        assert delta <= 1e-10


def test_error_estimate_is_honest():
    for p in (0.0, 0.5, 2.0, 2.9):
        r = quad_eval(Angle(p))
        refined = quad_eval(Angle(p), 1e-14)
        assert refined.converged
        assert r.est_error > 0.0
        assert abs(r.value - refined.value) <= 10.0 * r.est_error


def test_tan_form():
    r = quad_tan_form()
    assert r.converged
    assert abs(r.value - FROZEN_TAN) <= 1e-11


def test_tan_form_requires_right_angle():
    with pytest.raises(DomainError):
        evaluate(Angle(1.0), "quad-tan")
    # exactly pi/2 is accepted through the library entry point too
    r = evaluate(Angle(math.pi / 2), "quad-tan")
    assert abs(r.value - FROZEN_TAN) <= 1e-11


def test_guard_band():
    edge = math.pi - GUARD_BAND / 2.0
    with pytest.raises(DomainError):
        quad_eval(Angle(edge))
    with pytest.raises(DomainError):
        quad_eval(Angle(-edge))


@pytest.mark.parametrize("n", range(21))
def test_quad_jn_matches_closed(n):
    r = quad_jn(n)
    assert r.converged
    assert abs(r.value - j_n(n)) <= 1e-10


def test_quad_jn_domain():
    with pytest.raises(DomainError):
        quad_jn(-1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tol": 0.0},
        {"tol": -1e-12},
        {"tol": math.inf},
        {"tol": math.nan},
    ],
)
def test_config_validation(kwargs):
    # the tolerance is the quadrature's one setting, checked by every route
    with pytest.raises(DomainError):
        quad_eval(Angle(1.0), **kwargs)
    with pytest.raises(DomainError):
        quad_unit_eval(Angle(1.0), **kwargs)
    with pytest.raises(DomainError):
        quad_tan_form(**kwargs)


def test_result_metadata():
    r = quad_eval(Angle(1.0))
    assert r.nodes > 50
    assert r.converged
    assert r.est_error <= 1e-11
