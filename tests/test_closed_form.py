"""Tests for the gamma closed form, its odd-zeta tables, its special
values, and the zero limit.

FROZEN_I values were computed with mpmath at 40 significant digits from the
defining integral (independent oracle) and rounded to binary64.
"""

import bisect
import math
import random

import mpmath
import pytest

from malmsten import closed_form, evaluate
from malmsten.closed_form import (
    CLOSED_SPLIT,
    SpecialCase,
    malmsten_closed,
    special_value,
    two_pi_over_3_forms,
    zero_limit,
)
from malmsten.domain import ZERO_THRESHOLD, Angle, Method
from malmsten.errors import DomainError, ZeroAngleError
from malmsten.kummer import kummer_closed_eval
from malmsten.series import series_eval
from malmsten.special_functions import EPS, EULER_GAMMA

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


def _special_exact(case):
    """The printed right-hand side of `case` at 40 digits, at the exact angle."""
    with mpmath.workdps(40):
        ln_gamma, ln_two_pi, third = mpmath.loggamma, mpmath.log(2 * mpmath.pi), mpmath.mpf(1) / 3
        if case is SpecialCase.PI_OVER_2:
            return mpmath.pi / 2 * (ln_gamma(0.75) + ln_two_pi / 2 - ln_gamma(0.25))
        if case is SpecialCase.PI_OVER_3:
            return mpmath.pi / mpmath.sqrt(3) * (ln_gamma(2 * third) + ln_two_pi / 3
                                                 - ln_gamma(third))
        return 2 * mpmath.pi / mpmath.sqrt(3) * (5 * ln_two_pi / 6 - ln_gamma(third / 2))


@pytest.mark.parametrize("case", list(SpecialCase))
def test_special_value_estimate_holds_and_is_tight(case):
    # the estimate comes from LGAMMA_ERR and the counted roundings, not a
    # literal (1e-12 before, 1e3 to 3e3 times the error); est / max(err,
    # eps |value|) is 23.6, 8.0 and 18.3 at pi/2, pi/3 and 2pi/3
    sv = special_value(case)
    with mpmath.workdps(40):
        err = float(abs(mpmath.mpf(sv.value) - _special_exact(case)))
    assert err <= sv.est_error <= 30.0 * max(err, EPS * abs(sv.value))


@pytest.mark.parametrize("which", ["pi/2", 1.0, None])
def test_special_value_refuses_anything_but_a_special_case(which, monkeypatch):
    # refused before any log-gamma is taken
    calls = []
    monkeypatch.setattr(closed_form, "log_gamma", lambda x: calls.append(x) or 0.0)
    with pytest.raises(DomainError):
        special_value(which)
    assert calls == []


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
    # evaluate serves ZERO angles from the limit, though malmsten_closed
    # takes them too
    for phi in (0.0, 1e-9, -5e-7):
        assert evaluate(Angle(phi), "closed") == zero_limit(Angle(phi))
    # and the limit, which carries only the phi^2 term, serves ZERO angles alone
    with pytest.raises(DomainError):
        zero_limit(Angle(1e-6))


@pytest.mark.parametrize("route", [kummer_closed_eval, series_eval],
                         ids=["kummer_closed_eval", "series_eval"])
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


def test_zeta_tables_match_mpmath():
    # ln(pi/2) - gamma, every c_k = (2^s - 1) zeta(s)/s and every
    # r_k = (2^s - 1)(zeta(s) - 1 - 2^-s)/s, s = 2k + 1, is its 40-digit
    # value rounded to the nearest float
    assert len(closed_form._ZETA_C) == 16 and len(closed_form._ZETA_R) == 17
    with mpmath.workdps(40):
        assert closed_form._BRACKET_0 == float(mpmath.log(mpmath.pi / 2) - mpmath.euler)
        for k, c in enumerate(closed_form._ZETA_C, 1):
            s = 2 * k + 1
            assert c == float((2 ** s - 1) * mpmath.zeta(s) / s)
        for k, r in enumerate(closed_form._ZETA_R, 1):
            s = 2 * k + 1
            assert r == float((2 ** s - 1) * (mpmath.zeta(s) - 1 - mpmath.mpf(2) ** -s) / s)


def test_zeta_tables_shrink_geometrically():
    # the truncation bounds take c_(k+1) <= 4 c_k and r_(k+1) <= (4/9) r_k
    for table, q in ((closed_form._ZETA_C, 4.0), (closed_form._ZETA_R, 4.0 / 9.0)):
        for a, b in zip(table, table[1:]):
            assert b <= q * a


def _tail(k_terms, x, r_table):
    """sum_{k > K} of the c_k or r_k series at x = t^2, at 40 digits."""
    with mpmath.workdps(40):
        def term(k):
            s = 2 * k + 1
            z = mpmath.zeta(s) - 1 - mpmath.mpf(2) ** -s if r_table else mpmath.zeta(s)
            return (2 ** s - 1) * z / s * mpmath.mpf(x) ** k
        return mpmath.nsum(term, [k_terms + 1, mpmath.inf])


@pytest.mark.parametrize("tables, x_max, r_table", [
    (closed_form._DIRECT, (CLOSED_SPLIT / (2.0 * math.pi)) ** 2, False),
    (closed_form._SPLIT, 0.25, True),
], ids=["direct", "split"])
def test_closed_stop_table_meets_its_target(tables, x_max, r_table):
    # entry K - 1 is the x = t^2 up to which K terms suffice: there the
    # truncation bound coef_(K+1) x^(K+1) / (1 - q x) is within 1% of the
    # target, and the true rest is below the bound; the table reaches the
    # largest x of its branch
    _, coef, stops, q = tables
    assert list(stops) == sorted(stops)
    assert stops[-1] >= x_max > stops[-2]
    for k, x in enumerate(stops, 1):
        bound = coef[k] * x ** (k + 1) / (1.0 - q * x)
        assert bound == pytest.approx(closed_form._CLOSED_TRUNCATION, rel=0.01)
        assert _tail(k, x, r_table) <= bound


def test_closed_work_is_the_terms_summed():
    # work is K, from one bisect into the stop table of the branch: one or
    # two terms near the zero threshold, at most 15 on the direct branch
    # and 16 on the split one, and non-decreasing in |phi| on each
    for lo, hi, (_, _, stops, _) in ((1e-6, CLOSED_SPLIT, closed_form._DIRECT),
                                     (math.nextafter(CLOSED_SPLIT, 4.0),
                                      math.nextafter(math.pi, 0.0), closed_form._SPLIT)):
        works = []
        for i in range(201):
            p = lo + (hi - lo) * i / 200
            t = p * closed_form._INV_TWO_PI
            work = malmsten_closed(Angle(p)).work
            assert work == malmsten_closed(Angle(-p)).work
            assert work == bisect.bisect_left(stops, t * t) + 1
            works.append(work)
        assert works == sorted(works)
        assert works[-1] == len(stops)
    assert malmsten_closed(Angle(1.01e-6)).work == 1
    assert malmsten_closed(Angle(1e-3)).work == 2
    assert (malmsten_closed(Angle(CLOSED_SPLIT)).work,
            malmsten_closed(Angle(math.nextafter(math.pi, 0.0))).work) == (15, 16)
