"""Tests for the gamma closed form, its special values, and the zero limit.

FROZEN_I values were computed with mpmath at 40 significant digits from the
defining integral (independent oracle) and rounded to binary64.
"""

import math
import random

import pytest

from malmsten.closed_form import (
    SpecialCase,
    malmsten_closed,
    special_value,
    two_pi_over_3_forms,
    zero_limit,
)
from malmsten.domain import ZERO_THRESHOLD, Angle, Method
from malmsten.errors import DomainError, ZeroAngleError
from malmsten.kummer import kummer_closed_eval
from malmsten.series import log_sine_sum, series_eval
from malmsten.special_functions import EULER_GAMMA

FROZEN_I = {
    math.pi / 2: -0.26044280630098844554,
    math.pi / 3: -0.12632148170620903637,
    2 * math.pi / 3: -0.67171960188587454235,
    0.5: -0.074911064267552760047,
    1.234: -0.15988757381303831752,
    2.0: -0.55414999826134329422,
    2.9: -9.962541299450457968,
}
FROZEN_ZERO_LIMIT = -0.06281647980603899794


@pytest.mark.parametrize("phi, expected", sorted(FROZEN_I.items()))
def test_closed_form_frozen_oracle(phi, expected):
    ev = malmsten_closed(Angle(phi))
    assert ev.method is Method.CLOSED
    assert abs(ev.value - expected) <= 1e-12
    assert abs(ev.value - expected) <= 10.0 * ev.est_error


@pytest.mark.parametrize("case", list(SpecialCase))
def test_special_value_matches_closed(case):
    sv = special_value(case)
    cl = malmsten_closed(Angle(case.value))
    assert abs(sv.value - cl.value) <= 1e-12


def test_two_pi_over_3_printed_forms_agree():
    form_a, form_b = two_pi_over_3_forms()
    assert abs(form_a - form_b) <= 1e-12


def test_evenness():
    rng = random.Random(20260823)
    for _ in range(50):
        p = rng.uniform(1e-3, 2.95)
        lhs = malmsten_closed(Angle(p)).value
        rhs = malmsten_closed(Angle(-p)).value
        assert abs(lhs - rhs) <= 1e-12


def test_zero_limit_value():
    ev = zero_limit()
    assert abs(ev.value - FROZEN_ZERO_LIMIT) <= 1e-14
    # same constant in its (ln(pi/2) - gamma)/2 form
    alt = 0.5 * (math.log(math.pi / 2.0) - EULER_GAMMA)
    assert abs(ev.value - alt) <= 1e-14


def test_continuity_at_zero():
    # I is even; it approaches the limit quadratically (curvature ~ 0.046)
    eps = 1e-4
    gap = abs(malmsten_closed(Angle(eps)).value - zero_limit().value)
    assert gap <= 1e-8
    gap_wide = abs(malmsten_closed(Angle(10 * eps)).value - zero_limit().value)
    assert 10.0 <= gap_wide / gap <= 1000.0  # consistent with O(eps^2) decay


def test_zero_threshold_redirect():
    with pytest.raises(ZeroAngleError):
        malmsten_closed(Angle(1e-9))
    with pytest.raises(ZeroAngleError):
        malmsten_closed(Angle(0.0))
    # and the limit, which carries only the phi^2 term, serves ZERO angles alone
    with pytest.raises(DomainError):
        zero_limit(Angle(1e-6))


@pytest.mark.parametrize("route", [
    malmsten_closed, kummer_closed_eval, series_eval, log_sine_sum,
], ids=["malmsten_closed", "kummer_closed_eval", "series_eval", "log_sine_sum"])
def test_routes_dividing_by_sin_refuse_a_zero_angle(route):
    # one guard, domain.require_regular, words every refusal
    with pytest.raises(ZeroAngleError) as exc:
        route(Angle(5e-7))
    assert str(ZERO_THRESHOLD) in str(exc.value)


@pytest.mark.parametrize("bad", [math.pi, -math.pi, 3.5, -10.0, math.inf])
def test_angle_domain(bad):
    with pytest.raises(DomainError):
        Angle(bad)


def test_evaluation_metadata():
    ev = malmsten_closed(Angle(2.0))
    assert ev.est_error >= 0.0
    assert ev.work >= 1
    assert ev.phi.phi == 2.0
