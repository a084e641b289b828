"""Tests for the double-exponential quadrature oracle: both integral
representations, the tangent form, the inner integrals, the error
estimate contract, and the integrand tables shared by every evaluation."""

import math
import sys
import threading
from functools import partial

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malmsten import dispatch, evaluate, quadrature
from malmsten.cli import parse_phi
from malmsten.domain import Angle, Evaluation, Method, require_quad_tan_angle
from malmsten.errors import DomainError, InternalInconsistencyError, NonConvergenceError
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
from malmsten.special_functions import EPS, pi_gap
from test_oracle import jn_oracle, oracle

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


# cos(phi) < -0.5, where the denominator regroups y + cos(phi) as
# (1 + cos phi) - (1 - y); the ends +-(pi - 1e-3) of the guard band included
REGROUPED_PHI = [2.1, 2.5, -2.5, 2.9, -3.0, math.pi - 1e-3, -(math.pi - 1e-3)]


@pytest.mark.parametrize("phi", REGROUPED_PHI)
def test_integrands_on_the_regrouped_branch(phi):
    # against 40 digits at the exact binary64 arguments, with x -> 1 and
    # u -> 0, where the denominator tends to 2 (1 + cos phi) and cancels most
    with mpmath.workdps(40):
        c = mpmath.cos(mpmath.mpf(phi))
        for x in (1e-300, 1e-9, 0.01, 0.2, 0.5, 0.9, 0.999, 1.0 - 1e-9, 1.0 - 2.0 ** -53):
            xm = mpmath.mpf(x)
            exact = mpmath.log(mpmath.log(1 / xm)) / (1 + 2 * xm * c + xm * xm)
            assert abs(integrand_unit(x, Angle(phi)) - exact) <= 4e-15 * abs(exact)
        for u in (1e-300, 1e-9, 1e-3, 0.1, 0.5, 2.0, 5.0, 30.0, 700.0):
            y = mpmath.exp(-mpmath.mpf(u))
            exact = y * mpmath.log(mpmath.mpf(u)) / (1 + 2 * y * c + y * y)
            assert abs(integrand_exp(u, Angle(phi)) - exact) <= 4e-15 * abs(exact)


def test_integrand_tan_zero_crossing():
    y = math.atan(math.e)
    assert abs(integrand_tan(y)) < 1e-13


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
def test_integrand_unit_domain(bad):
    with pytest.raises(DomainError):
        integrand_unit(bad, Angle(1.0))


def test_integrand_exp_tan_domain():
    for bad in (0.0, math.inf):
        with pytest.raises(DomainError):
            integrand_exp(bad, Angle(1.0))
    with pytest.raises(DomainError):
        integrand_tan(math.pi / 4)
    with pytest.raises(DomainError):
        integrand_tan(math.pi / 2)


@pytest.mark.parametrize("phi, expected", sorted(FROZEN_I.items()))
def test_quad_frozen_oracle(phi, expected):
    for route in (quad_eval, quad_unit_eval):
        r = route(Angle(phi))
        assert abs(r.value - expected) <= 1e-11


def test_representations_agree():
    for k in range(10):
        p = -3.0 + 6.0 * k / 9.0
        a = Angle(p)
        delta = abs(quad_unit_eval(a).value - quad_eval(a).value)
        assert delta <= 1e-10


def test_tan_form():
    r = quad_tan_form()
    assert abs(r.value - FROZEN_TAN) <= 1e-11


def test_tan_form_requires_right_angle():
    with pytest.raises(DomainError):
        evaluate(Angle(1.0), "quad-tan")
    # exactly pi/2 is accepted through the library entry point too
    r = evaluate(Angle(math.pi / 2), "quad-tan")
    assert abs(r.value - FROZEN_TAN) <= 1e-11
    # Evaluation applies the same rule to a quad-tan result elsewhere
    with pytest.raises(DomainError):
        Evaluation(Angle(1.0), r.value, Method.QUAD_TAN, r.est_error, r.work)


def test_quad_tan_refuses_the_angle_before_it_integrates(monkeypatch):
    def must_not_run(**kwargs):
        raise RuntimeError("quad_tan_form ran at an angle quad-tan refuses")

    monkeypatch.setattr(dispatch, "quad_tan_form", must_not_run)
    with pytest.raises(DomainError):
        evaluate(Angle(1.0), "quad-tan")
    with pytest.raises(RuntimeError):
        evaluate(Angle(math.pi / 2), "quad-tan")


def test_quad_tan_estimate_holds_on_its_band_and_refuses_past_it():
    # quad-tan returns I(pi/2) at every angle it accepts: within 2 ulps of
    # pi/2 its estimate covers the error at the angle, and from 3 ulps out
    # the angle is refused
    r = evaluate(Angle(math.pi / 2), "quad-tan")
    # k ulps from pi/2, exactly: all lie in [1, 2), where the ulp is fixed
    ulp = math.ulp(math.pi / 2)
    for k in range(-2, 3):
        phi = math.pi / 2 + k * ulp
        ev = evaluate(Angle(phi), "quad-tan")
        assert ev.value == r.value and ev.est_error == r.est_error
        with mpmath.workdps(40):
            err = float(abs(mpmath.mpf(ev.value) - oracle(phi)))
        assert err <= ev.est_error, (k, err, ev.est_error)
    for k in (-3, 3):
        angle = Angle(math.pi / 2 + k * ulp)
        with pytest.raises(DomainError):
            evaluate(angle, "quad-tan")
        with pytest.raises(DomainError):
            Evaluation(angle, r.value, Method.QUAD_TAN, r.est_error, r.work)
    # every symbolic form N*pi/2N of pi/2 reads inside the band
    for n in range(1, 200):
        require_quad_tan_angle(Angle(parse_phi(f"{n}*pi/{2 * n}")))


def test_guard_band():
    # pi - |phi| below GUARD_BAND, the first theta of the pole tables, is
    # refused by quad and quad-unit at both signs: inside the band, and from
    # the first float past its edge fl(pi - 1e-3) = 3.1405926535897932,
    # which is accepted
    assert math.pi - GUARD_BAND == 3.1405926535897932
    for route in (quad_eval, quad_unit_eval):
        for sign in (1.0, -1.0):
            route(Angle(sign * 3.1405926535897932))
            for phi in (3.1405926535897937, math.pi - GUARD_BAND / 2.0):
                with pytest.raises(DomainError):
                    route(Angle(sign * phi))


@pytest.mark.parametrize("c, y, one_minus_y", [(-0.25, 0.25, 0.75), (-0.75, 0.75, 0.25)])
def test_a_zero_denominator_raises_a_typed_error(empty_tables, monkeypatch, c, y, one_minus_y):
    # y + c == 0 with s^2 == 0 makes a denominator exactly 0, on the plain
    # branch and on the regrouped one: a fault of the tables or the parts,
    # reported as one and not as a ZeroDivisionError.  quad_eval runs as it
    # is, on a stub of its table (the centre node alone) and impossible parts
    def node(t, scale):
        return (1.0, y, y, one_minus_y) if t == 0.0 else None

    def numerator(weight, x, dist_a, dist_b):
        return weight, x, dist_b

    monkeypatch.setitem(quadrature._TABLES, "exp", (node, numerator))
    monkeypatch.setattr(quadrature, "_denominator_parts", lambda phi_val: (c, 0.0, 1.0 + c))
    with pytest.raises(InternalInconsistencyError):
        quad_eval(Angle(1.0))


def _table_strips(table, k=0):
    """Every strip of the integrand table `table` at scale k, at every level a
    quadrature can reach."""
    return [quadrature._strip_at(table, level, k) for level in range(quadrature.MAX_LEVEL + 1)]


@pytest.mark.parametrize("table", ["exp", "unit", "tan", "jn"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(phi=st.floats(min_value=-(math.pi - GUARD_BAND), max_value=math.pi - GUARD_BAND),
       decades=st.floats(min_value=0.0, max_value=8.0), n=st.integers(0, 40))
def test_no_term_past_a_cut_exceeds_small_at(table, phi, decades, n):
    # the cut comes from phi-free envelopes and a lower bound on the
    # denominator; every term past it, computed in floats as the level driver
    # computes it, is at most small_at.  jn sums w y^n over quad's own table;
    # quad-tan sums its weighted numerators alone, as jn does at n = 0; quad
    # reads its table at scale 0 and, near pi, at scales up to 9
    rule = {"exp": quadrature._phi_terms, "unit": quadrature._phi_terms,
            "tan": lambda phi: quadrature._power_terms(0),
            "jn": lambda phi: quadrature._power_terms(n)}[table](phi)
    small_at = 1e-20 * 10.0 ** decades
    d_min, strip_terms, _ = rule
    strips = _table_strips("exp" if table == "jn" else table)
    if table == "exp":
        strips += _table_strips(table, 9)
    for strip in strips:
        past = strip[0][quadrature._cut(strip, small_at, d_min):]
        assert all(abs(term) <= small_at for term in strip_terms(past))


@pytest.mark.parametrize("n", range(21))
def test_quad_jn_matches_closed(n):
    r = quad_jn(n)
    assert abs(r.value - j_n(n)) <= 1e-10


def test_quad_jn_domain():
    # a non-finite n once ran every level and raised NonConvergenceError (nan)
    # or returned -2.2e-16 (inf), and an int past the float range raised
    # OverflowError
    for n in (-1, math.nan, math.inf, -math.inf, 10**400):
        with pytest.raises(DomainError):
            quad_jn(n)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tol": 0.0},
        {"tol": -1e-12},
        {"tol": math.inf},
        {"tol": math.nan},
        {"tol": 10**400},
    ],
)
def test_quadrature_refuses_a_bad_tol(kwargs):
    # the tolerance is the quadrature's one setting, checked by every route;
    # an int past the float range once raised OverflowError
    with pytest.raises(DomainError):
        quad_jn(3, **kwargs)
    with pytest.raises(DomainError):
        quad_eval(Angle(1.0), **kwargs)
    with pytest.raises(DomainError):
        quad_unit_eval(Angle(1.0), **kwargs)
    with pytest.raises(DomainError):
        quad_tan_form(**kwargs)


@pytest.mark.parametrize(
    "route",
    [partial(quad_eval, Angle(1.0)), partial(quad_unit_eval, Angle(1.0)), quad_tan_form,
     partial(quad_jn, 3)],
    ids=["quad_eval", "quad_unit_eval", "quad_tan_form", "quad_jn"])
def test_an_unconverged_quadrature_raises(monkeypatch, route):
    # with the first level the last, no two levels can agree: each route
    # raises itself and carries its best estimate
    monkeypatch.setattr(quadrature, "MAX_LEVEL", 0)
    with pytest.raises(NonConvergenceError) as exc_info:
        route()
    assert math.isfinite(exc_info.value.best_estimate)


def test_result_metadata():
    r = quad_eval(Angle(1.0))
    assert r.nodes > 50
    assert r.est_error <= 1e-11


def _pole_distance(theta, start):
    """d(theta) and its root: the root t of t - e^{-t} = ln theta + i pi/2
    nearest the real axis, from `start` and from two fixed starts, at 30
    digits; d is its distance from the real axis."""
    roots = []
    with mpmath.workdps(30):
        w = mpmath.log(mpmath.mpf(theta)) + 0.5j * mpmath.pi
        for t0 in (start, mpmath.mpc(-1.7, 0.25), mpmath.mpc(1.0, 1.2)):
            try:
                t = mpmath.findroot(lambda t: t - mpmath.exp(-t) - w, t0)
            except ValueError:
                continue
            if abs(t - mpmath.exp(-t) - w) < 1e-20:
                roots.append(t)
    root = min(roots, key=lambda t: abs(t.imag))
    return float(abs(root.imag)), root


def _rate_distance(rate):
    """The d of a pole rate r = e^{-2 pi d}."""
    return -math.log(rate) / (2.0 * math.pi)


def _tanh_sinh_distance(c):
    """The distance from the real t axis of the nearest root of
    tanh((pi/2) sinh t) = c, c off [-1, 1]: from each branch t = asinh(2 (atanh c
    + i pi k) / pi), k = -2..2, the roots in the strip |Im t| < pi/2, polished
    by findroot at 30 digits."""
    ds = []
    with mpmath.workdps(30):
        c = mpmath.mpc(c)
        for k in range(-2, 3):
            t0 = mpmath.asinh(2 * (mpmath.atanh(c) + 1j * mpmath.pi * k) / mpmath.pi)
            t = mpmath.findroot(lambda t: mpmath.tanh(mpmath.pi / 2 * mpmath.sinh(t)) - c, t0)
            assert abs(mpmath.tanh(mpmath.pi / 2 * mpmath.sinh(t)) - c) < 1e-20
            ds.append(float(abs(t.imag)))
    return min(ds)


def _unit_pole_distance(theta):
    """d_unit(theta): the distance from the real t axis of the nearest image
    of quad-unit's pole x = e^{i theta} (its conjugate mirrors it) under
    x = (1 + tanh((pi/2) sinh t))/2."""
    with mpmath.workdps(30):
        return _tanh_sinh_distance(2 * mpmath.expj(mpmath.mpf(theta)) - 1)


def _assert_rates_bound(table, distance):
    """At each theta of the table, and at 20 theta between each pair of
    neighbours, as pi - |phi| is formed from phi, the d that `table`'s lookup
    uses is at most distance(theta), the distance of the nearest pole."""
    thetas = quadrature._POLE_THETA
    rates = quadrature._POLE_RATE[table]
    for k, theta in enumerate(thetas):
        assert _rate_distance(rates[k]) <= distance(theta)
        for i in range(1, 21 if k + 1 < len(thetas) else 1):
            phi = math.pi - (theta + (thetas[k + 1] - theta) * i / 21)
            gap = pi_gap(phi)
            assert _rate_distance(quadrature._pole_rate(table, gap)) <= distance(gap)
    assert quadrature._pole_rate(table, pi_gap(0.0)) == rates[-1]
    # below the first theta no rate bounds d, and the route refuses the angle
    with pytest.raises(DomainError):
        quadrature._pole_gap(math.nextafter(math.pi - thetas[0], math.pi))


def test_pole_table_bounds_the_pole_distance():
    start = mpmath.mpc(-1.7, 0.25)

    def distance(theta):
        nonlocal start
        d, start = _pole_distance(theta, start)
        return d

    _assert_rates_bound("exp", distance)
    # d rises from 0.248 at theta = 1e-3 to 1.289 at pi
    for phi, pinned in ((0.5, 1.2484), (2.0, 1.0291), (2.9, 0.6850)):
        assert abs(_pole_distance(math.pi - phi, start)[0] - pinned) <= 5e-5


def test_scaled_pole_rate_bounds_the_scaled_pole_distance(monkeypatch):
    # at scale k quad's integrand has its poles at v = i (+-theta + 2 pi m) 2^k
    # in the table's own variable v = 2^k u: the nearest, +-i theta 2^k, and
    # the next, +-i (2 pi - theta) 2^k, lie at least as far from the real t
    # axis as the d behind the rate quad_eval looks up.  For each k it uses,
    # at its ends and at 20 theta between, as pi - |phi| is formed from phi
    stops = []
    monkeypatch.setattr(quadrature, "_refine_levels", lambda *args: stops.append(args[4:]))
    start = mpmath.mpc(-1.7, 0.25)

    def distance(r):
        nonlocal start
        d, start = _pole_distance(r, start)
        return d

    ends = [math.pi] + [0.7 / 2.0 ** k for k in range(1, 10)] + [GUARD_BAND]
    scales = set()
    for hi, lo in zip(ends, ends[1:]):
        for i in range(21):
            phi = math.pi - (hi + (lo - hi) * i / 21)
            quad_eval(Angle(phi))
            rate, k = stops[-1]
            theta = pi_gap(phi)
            assert 0.35 < theta * 2.0 ** k <= (0.7 if k else math.pi)
            bound = min(distance(theta * 2.0 ** k), distance((2.0 * math.pi - theta) * 2.0 ** k))
            assert _rate_distance(rate) <= bound, (phi, k)
            scales.add(k)
    assert scales == set(range(10))


def test_unit_pole_table_bounds_the_pole_distance():
    _assert_rates_bound("unit", _unit_pole_distance)
    # d_unit rises from 0.2049 at theta = 1e-3 to 1.1101 at pi
    for theta, pinned in ((1.14, 0.7492), (0.24, 0.4982), (1e-3, 0.2049)):
        assert abs(_unit_pole_distance(theta) - pinned) <= 5e-5


def test_tan_rate_bounds_the_pole_distance():
    # ln ln tan y is singular off (pi/4, pi/2) at y = k pi/2, where tan y is
    # 0 or infinite, and at y = pi/4 + k pi, where ln tan y is 0; the nearest
    # image of any of them under y = pi/4 + (pi/8)(1 + tanh((pi/2) sinh t))
    # is y = 0's, where quad-unit's x = -1 is, at theta = pi
    ys = [k * math.pi / 2 for k in (-3, -2, -1, 0, 2, 3, 4)]
    ys += [math.pi / 4 + k * math.pi for k in (-2, -1, 1, 2)]
    distances = [_tanh_sinh_distance(8.0 * y / math.pi - 3.0) for y in ys]
    assert _rate_distance(quadrature._TAN_RATE) <= min(distances) == distances[3]
    assert abs(distances[3] - _unit_pole_distance(math.pi)) <= 1e-12


def _jn_peak_slope(n):
    """ds/dt = 1 + e^{-t}, s = ln u, at the peak of quad_jn's integrand at
    power n on scale 0's map, where e^{-t} = t + ln(n + 1): there v = e^{-t}
    solves v e^v = n + 1, so ds/dt = 1 + W(n + 1), at 30 digits.  At scale k
    the peak of power n is that of power c - 1, c = (n + 1) 2^-k."""
    with mpmath.workdps(30):
        v = mpmath.lambertw(mpmath.mpf(n) + 1).real
        assert abs(mpmath.exp(-(v - mpmath.log(mpmath.mpf(n) + 1))) - v) < 1e-25 * v
        return float(1 + v)


def test_jn_rate_bounds_the_strip_distance(monkeypatch):
    # quad_jn's one rate is e^{-pi^2/2} rounded up to 4 significant digits,
    # for d = pi/4
    with mpmath.workdps(30):
        exact = float(mpmath.exp(-mpmath.pi ** 2 / 2))
    # as quad_jn reads quad's table: at n + 1 = 2^m and 2^m + 1, at 20 powers
    # between each pair of neighbours, and up to 1/EPS, c = (n + 1) 2^-k lies
    # in (1/2, 1], ds/dt at the peak is below 2, so the rate's d is at most
    # pi/4, the edge (pi/2)/2 of the strip where its integrand decays, and the
    # first level is 2
    stops = []
    monkeypatch.setattr(quadrature, "_refine_levels", lambda *args: stops.append(args[3:]))
    tops = [2.0 ** m for m in range(52)] + [1.0 / EPS]
    powers = [0.0]
    for lo, top in zip(tops, tops[1:]):
        powers += [lo] + [lo * (top / lo) ** (i / 21) - 1.0 for i in range(1, 21)] + [top - 1.0]
    powers[-1] = math.nextafter(1.0 / EPS, 0.0)
    for n in powers:
        quad_jn(n)
        level, rate, k = stops[-1]
        c = (n + 1.0) * 0.5 ** k
        assert 0.5 < c <= 1.0, n
        assert _jn_peak_slope(c - 1.0) < 2.0
        assert _rate_distance(rate) <= math.pi / 4
        assert level == 2
        assert rate == math.ceil(exact * 1e6) / 1e6
    assert {k for _, _, k in stops} == set(range(53))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_pole_stop_waits_for_level_2(monkeypatch, sign):
    # levels 0 and 1 agree there to 3.0e-5 while both are 6e-4 off: with a
    # factor of 1 a pole stop at level 1 fell short by 1.9e3; from level 2
    # even that factor holds
    monkeypatch.setattr(quadrature, "POLE_K", 1.0)
    phi = sign * 2.709840213304944
    r = quad_eval(Angle(phi), 1e-6)
    with mpmath.workdps(40):
        assert abs(mpmath.mpf(r.value) - oracle(phi)) <= r.est_error


def _falls_short(phi, r):
    with mpmath.workdps(40):
        return abs(mpmath.mpf(r.value) - oracle(phi)) > r.est_error


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_unit_pole_stop_waits_for_level_3(monkeypatch, sign):
    # with a factor of 1 a pole stop from level 2, at 29 nodes, falls short
    # there by 3.1 at tol 1e-3; from level 3, quad-unit's first, it holds
    monkeypatch.setattr(quadrature, "POLE_K", 1.0)
    phi = sign * 2.0813845523111305
    rate = quadrature._pole_rate("unit", pi_gap(phi))
    assert _falls_short(phi, quadrature._refine_levels("unit", quadrature._phi_terms(phi), 1e-3,
                                                       2, rate))
    assert not _falls_short(phi, quad_unit_eval(Angle(phi), 1e-3))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_each_route_holds_where_a_coarse_level_misled(sign):
    # a delta stop trusted one level sooner fell short there at tol 1e-3:
    # quad's from level 1, where levels 0 and 1 agree while level 1 is
    # 6e-4 off, and quad-unit's from level 2, at 28 nodes; the routes hold
    quad_phi, unit_phi = sign * 2.7102871404594553, sign * 3.0756420765104644
    assert not _falls_short(quad_phi, quad_eval(Angle(quad_phi), 1e-3))
    assert not _falls_short(unit_phi, quad_unit_eval(Angle(unit_phi), 1e-3))


def test_quad_tan_stops_from_level_3():
    # trusting level 2, it stopped at tol 1e-6 after 28 nodes with an
    # estimate of 6.8e-7 for an error of 3.5e-13.  Levels 0 to 3 sum 57
    # nodes: level 1's one cut keeps its fourth node on the + side, which
    # the - side needs
    assert quad_tan_form(1e-6).nodes == 57


# (value, est_error) as float.hex() and node count.  Every row was frozen
# again when each strip came to be cut at its phi-free envelope: the node
# counts fell, and two values moved by 1 ulp (quad at 2.9, quad-unit at 0.5).
# The quad and jn rows were frozen again when quad's table moved from the
# exp-sinh to the exp-exp transform: the node counts fell but at -3.1, and
# two values moved by 1 ulp (quad at 0.5 and -3.1, now the bits of
# quad-unit, and jn at 20).  The quad rows were frozen again when quad came
# to stop by its pole rate: every estimate moved, the node counts at 2.0
# and -3.1 fell by a level, and the value at 2.0 moved by 1 ulp, its error
# 7.4e-17 under its estimate 4.7e-16.  The quad-unit and quad-tan rows were
# frozen again when they came to stop by their pole rates: every estimate
# moved, the node counts of quad-unit at 0.5, 2.0 and 2.9 fell by a level,
# and its values moved at 0.5 by 1 ulp and at 2.0 by 5 ulps, their errors
# 1.1e-17 and 5.2e-16 under their estimates 2.0e-16 and 7.0e-14.  Every
# row was frozen again when both sides of t = 0 came to share one strip, one
# cut and one fsum per level, and the rounding floor came to sum its |terms|
# by fsum, alike on every Python version.  The one cut sums the
# faster-decaying side as far in j as the slower one, so nodes rose at 2.9
# and -3.1 (quad 125 -> 127 and 128, quad-unit 111 -> 113 and 219 -> 225)
# and for quad-tan (56 -> 57); with those terms and the new grouping of the
# sums, quad's values at 2.9 and -3.1 moved by 1 ulp, and most estimates
# in their last bits.  The jn rows were frozen again when quad_jn came to
# stop by its pole rate: every estimate moved, n = 7 and 20 took one level
# more (63 -> 126 and 126 -> 252 nodes), and the value at 20 moved by 2
# ulps, its error 1.8e-17 under its estimate 8.7e-16.  The quad rows at 2.9
# and -3.1 were frozen again when quad came to read its table at a scale 2^-k
# near pi, k = 1 and 4 there: their nodes fell from 127 to 71 and from 128 to
# 102, and both values moved by 1 ulp, their errors 3.4e-16 and 5.6e-15
# under their estimates 2.7e-13 and 5.6e-14; every row at k = 0 kept its
# bits.  The rows at +-(pi - 0.01), k = 6, and at DEEP_PHI, k = 9, came with
# the scales.  The jn rows at 7 and 20 were frozen again when quad_jn came to
# read quad's table at the scale 2^-k, k = 3 and 5 there, and to stop on one
# rate from level 2: their nodes fell from 126 to 93 and from 252 to 111, and
# their estimates from 2.9e-13 to 6.9e-16 and in their last bits at 8.7e-16,
# for errors of 3.6e-17 and 1.8e-17; both values kept their bits, and so did
# the jn row at 0, k = 0.  Each value is within its est_error of the 40-digit oracle
# (quad, quad-unit, quad-tan) or of the closed form (jn).  A result must not
# depend on the state of the tables.
DEEP_PHI = math.pi - 1.0001e-3  # just inside the guard band: the deepest tables
FROZEN_HEX = {
    ("quad", 0.5): ("-0x1.32d5f1b233fdep-4", "0x1.d6750767b0491p-53", 63),
    ("quad-unit", 0.5): ("-0x1.32d5f1b233fdfp-4", "0x1.d6b415c5ceddfp-53", 57),
    ("quad", 2.0): ("-0x1.1bb98c6f38cb6p-1", "0x1.1129428e4f0a5p-51", 63),
    ("quad-unit", 2.0): ("-0x1.1bb98c6f38cbap-1", "0x1.3a193c786b5d7p-44", 57),
    ("quad", 2.9): ("-0x1.3ecd2369460c9p+3", "0x1.2d5f0a37774d1p-42", 71),
    ("quad-unit", 2.9): ("-0x1.3ecd2369460c8p+3", "0x1.5d0662a2ae8bbp-48", 113),
    ("quad", -3.1): ("-0x1.e305697eb5a91p+6", "0x1.f6b4ec3ced227p-45", 102),
    ("quad-unit", -3.1): ("-0x1.e305697eb5a91p+6", "0x1.f6b426f85d176p-45", 225),
    ("quad-tan", None): ("-0x1.0ab184de2a327p-2", "0x1.6f3c2ad54a420p-52", 57),
    ("jn", 0): ("-0x1.2788cfc6fb619p-1", "0x1.0db82e6723350p-51", 63),
    ("jn", 7): ("-0x1.540d57e5798f9p-2", "0x1.8c46db0f05972p-51", 93),
    ("jn", 20): ("-0x1.6134a88cbe4bdp-3", "0x1.f70ed52ef6ab5p-51", 111),
    ("quad", math.pi - 0.01): ("-0x1.6a02aad5127e6p+9", "0x1.774731142fcb1p-42", 116),
    ("quad", -(math.pi - 0.01)): ("-0x1.6a02aad5127e6p+9", "0x1.774731142fcb1p-42", 116),
    ("quad", DEEP_PHI): ("-0x1.531088b070866p+13", "0x1.5f3b287ab2720p-38", 132),
}

# integrand table -> (numerator, node function, the node function's interval)
TABLES = {
    "unit": ("_unit_numerator", "_tanh_sinh_node", (0.0, 1.0)),
    "exp": ("_exp_numerator", "_exp_exp_node", ()),
    "tan": ("_tan_numerator", "_tanh_sinh_node", (math.pi / 4, math.pi / 2)),
}


def _run(route, arg):
    if route == "quad":
        return quad_eval(Angle(arg))
    if route == "quad-unit":
        return quad_unit_eval(Angle(arg))
    if route == "quad-tan":
        return quad_tan_form()
    return quad_jn(arg)


def _bits(r):
    return r.value.hex(), r.est_error.hex(), r.nodes


@pytest.fixture
def empty_tables():
    quadrature._NODES.clear()
    yield quadrature._NODES
    quadrature._NODES.clear()


def _count_calls(monkeypatch, slot, calls_of):
    """Patch slot `slot` of each entry of `_TABLES` (0: the node function,
    1: the numerator) to append the arguments of each call to calls_of(table)."""
    for table, entry in list(quadrature._TABLES.items()):
        calls = calls_of(table)

        def counted(*args, original=entry[slot], calls=calls):
            calls.append(args)
            return original(*args)

        monkeypatch.setitem(quadrature._TABLES, table,
                            entry[:slot] + (counted,) + entry[slot + 1:])


@pytest.fixture
def node_calls(monkeypatch):
    """The calls to the node functions the tables are built from."""
    calls = []
    _count_calls(monkeypatch, 0, lambda table: calls)
    return calls


@pytest.fixture
def numerator_calls(monkeypatch):
    """The calls to each table's numerator, keyed by table."""
    calls = {table: [] for table in TABLES}
    _count_calls(monkeypatch, 1, calls.__getitem__)
    return calls


@pytest.fixture
def envelope_calls(monkeypatch):
    """For each call to `_envelopes`: its strip entries, and whether the
    table lock was held."""
    calls = []
    original = quadrature._envelopes

    def counted(entries):
        calls.append((entries, quadrature._NODES_LOCK.locked()))
        return original(entries)

    monkeypatch.setattr(quadrature, "_envelopes", counted)
    return calls


def _assert_envelopes_built_once_under_the_lock(envelope_calls, tables):
    assert len(envelope_calls) == len(tables)
    assert all(locked for _, locked in envelope_calls)
    built = sorted(map(repr, (entries for entries, _ in envelope_calls)))
    assert built == sorted(map(repr, (strip[0] for strip in tables.values())))


def _numerator_counts(numerator_calls):
    return {name: len(calls) for name, calls in numerator_calls.items()}


def _spacing(level):
    # a strip's step h and stride in j: level 0 takes every j, a deeper
    # level only the odd j, the nodes the levels before it lack
    return 0.5 ** level, (1 if level == 0 else 2)


def _node(table, k=0):
    """The node function of `table` at scale k, a function of t, unpatched:
    quad's exp-exp map takes the scale 2^-k, the tanh-sinh maps none."""
    _, node_name, interval = TABLES[table]
    node = getattr(quadrature, node_name)
    if table == "exp":
        return lambda t: node(t, 0.5 ** k)
    return partial(node, *interval)


def _side(node, level, sign, k=0):
    """One side of level `level` at scale k, walked on its own: t = sign * j * h
    in order of j, up to the first None of `node` or t past _T_MAX + k ln 2;
    and whether a None ended it."""
    h, step_j = _spacing(level)
    ts = []
    j = 1
    while j * h <= quadrature._T_MAX + k * math.log(2.0):
        if node(sign * j * h) is None:
            return ts, True
        ts.append(sign * j * h)
        j += step_j
    return ts, False


def _level_ts(node, level, k=0):
    """The t of level `level`'s strip at scale k: the centre at level 0, then
    both sides interleaved."""
    return [0.0] * (level == 0) + _interleave(_side(node, level, 1.0, k)[0],
                                               _side(node, level, -1.0, k)[0])


def _interleave(plus, minus):
    """plus[0], minus[0], plus[1], minus[1], ...: each list in its order, the
    longer one's tail alone at the end."""
    out = []
    for k in range(max(len(plus), len(minus))):
        out += plus[k:k + 1] + minus[k:k + 1]
    return out


def _node_calls_behind(tables):
    # the node-function calls behind the stored strips: the centre at level
    # 0, and on each side one per entry, plus the None that ended the side
    # if it left range before its t passed the end of its scale
    calls = 0
    for table, k, level in tables:
        calls += level == 0
        for sign in (1.0, -1.0):
            ts, left_range = _side(_node(table, k), level, sign, k)
            calls += len(ts) + left_range
    return calls


def _stored_numerators(tables):
    # table -> the entries stored in its strips
    counts = dict.fromkeys(TABLES, 0)
    for (table, _, _), (entries, _, _) in tables.items():
        counts[table] += len(entries)
    return counts


@pytest.mark.parametrize("key", sorted(FROZEN_HEX, key=repr))
def test_frozen_bits(empty_tables, key):
    # cold tables, then warm tables after the deepest evaluation
    assert _bits(_run(*key)) == FROZEN_HEX[key]
    quad_eval(Angle(DEEP_PHI))
    quad_unit_eval(Angle(-DEEP_PHI))
    assert _bits(_run(*key)) == FROZEN_HEX[key]


def _exact(key):
    """The 40-digit value a frozen row stands for."""
    route, arg = key
    if route == "jn":
        return jn_oracle(arg)
    if route == "quad-tan":
        # Vardi: (pi/2) ln(Gamma(3/4) sqrt(2 pi) / Gamma(1/4))
        return mpmath.pi / 2 * mpmath.log(
            mpmath.gamma(0.75) * mpmath.sqrt(2 * mpmath.pi) / mpmath.gamma(0.25))
    return oracle(arg)


@pytest.mark.parametrize(
    "key", sorted((k for k in FROZEN_HEX if k[0] in ("quad", "quad-unit")), key=repr)
    + sorted((k for k in FROZEN_HEX if k[0] not in ("quad", "quad-unit")), key=repr))
def test_frozen_rows_hold_against_the_oracle(key):
    value, est, _ = FROZEN_HEX[key]
    with mpmath.workdps(40):
        err = abs(mpmath.mpf(float.fromhex(value)) - _exact(key))
    assert err <= float.fromhex(est)


def test_result_does_not_depend_on_evaluation_order(empty_tables):
    first = [_bits(quad_eval(Angle(0.5))), _bits(quad_unit_eval(Angle(0.5)))]
    deep = [_bits(quad_eval(Angle(DEEP_PHI))), _bits(quad_unit_eval(Angle(DEEP_PHI)))]
    again = [_bits(quad_eval(Angle(0.5))), _bits(quad_unit_eval(Angle(0.5)))]
    assert again == first
    empty_tables.clear()
    assert [_bits(quad_eval(Angle(DEEP_PHI))), _bits(quad_unit_eval(Angle(DEEP_PHI)))] == deep


def test_each_node_is_computed_once(empty_tables, node_calls, numerator_calls,
                                    envelope_calls):
    # each entry of each table is computed once, from one node-function
    # call, and each strip's envelopes once, under the lock: quad reads its
    # table at scale 1 at 2.9 and at scale 0 at 0.5, quad_jn at scale 3 at
    # n = 7, where n + 1 = 2^3
    quad_eval(Angle(2.9))
    quad_eval(Angle(0.5))
    quad_unit_eval(Angle(2.9))
    quad_jn(7)
    assert {k for table, k, _ in empty_tables if table == "exp"} == {0, 1, 3}
    computed = len(node_calls)
    assert computed == _node_calls_behind(empty_tables) > 0
    numerators = _numerator_counts(numerator_calls)
    assert numerators == _stored_numerators(empty_tables)
    assert numerators["unit"] > 0 and numerators["exp"] > 0
    # these reach no deeper level and no further along any strip, at either
    # scale
    for route in (quad_eval, quad_unit_eval):
        for p in (2.9, -2.9, 0.5, -1.0):
            route(Angle(p))
    for n in (0, 7):
        quad_jn(n)
    assert len(node_calls) == computed
    assert _numerator_counts(numerator_calls) == numerators
    # deeper evaluations add only the strips of the levels and scales they
    # reach: scale 9 at DEEP_PHI, and quad_jn's scale 5 at n = 20
    quad_eval(Angle(DEEP_PHI))
    quad_jn(20)
    assert {k for table, k, _ in empty_tables if table == "exp"} == {0, 1, 3, 5, 9}
    assert len(node_calls) == _node_calls_behind(empty_tables) > computed
    stored = _stored_numerators(empty_tables)
    assert stored["exp"] > numerators["exp"]
    for name, calls in numerator_calls.items():
        assert len(calls) == len(set(calls)) == stored[name]
    _assert_envelopes_built_once_under_the_lock(envelope_calls, empty_tables)


def test_warm_evaluations_compute_no_node(empty_tables, node_calls, numerator_calls,
                                         monkeypatch):
    # once the tables hold the strips, a node costs one denominator and one
    # divide: no node function, no numerator, no log or exp.  quad reads its
    # table at scale 9 at DEEP_PHI and at scale 0 at 0.5, and quad_jn at
    # scales 0, 2 and 5 at n = 0, 3 and 20
    routes = [partial(quad_eval, Angle(DEEP_PHI)), partial(quad_unit_eval, Angle(DEEP_PHI)),
              quad_tan_form, partial(quad_eval, Angle(0.5)), partial(quad_jn, 3),
              partial(quad_jn, 20)]
    for route in routes:
        route()
    node_calls.clear()
    for calls in numerator_calls.values():
        calls.clear()
    logs = _CountingMath()
    monkeypatch.setattr(quadrature, "math", logs)
    nodes = 0
    for route in routes + [partial(quad_eval, Angle(-DEEP_PHI)),
                           partial(quad_unit_eval, Angle(-2.0)),
                           partial(quad_unit_eval, Angle(-DEEP_PHI))]:
        nodes += route().nodes
    assert nodes > 1000
    # quad_jn reads quad's warm strips as w y^n: no log or exp at all
    for n in (0, 3, 20):
        quad_jn(n)
    assert len(node_calls) == 0
    assert not any(numerator_calls.values())
    assert logs.calls == {}


class _CountingMath:
    """The math module, counting the calls to its log and exp functions."""

    COUNTED = ("log", "log1p", "exp", "expm1")

    def __init__(self):
        self.calls = {}

    def __getattr__(self, name):
        function = getattr(math, name)
        if name not in self.COUNTED:
            return function

        def counted(*args):
            self.calls[name] = self.calls.get(name, 0) + 1
            return function(*args)

        return counted


def test_tables_shared_by_threads(empty_tables, node_calls, numerator_calls,
                                  envelope_calls):
    # threads that fill the same cold tables at once, through both routes,
    # store each entry once, from one node-function call, and each strip's
    # envelopes once, under the lock, and see the same results as one thread;
    # quad reads its table at scales 9, 1 and 0
    work = [(quad_eval, DEEP_PHI), (quad_unit_eval, 0.5), (quad_eval, -2.9),
            (quad_unit_eval, -DEEP_PHI), (quad_eval, 2.0), (quad_unit_eval, 1e-3)]
    expected = [_bits(route(Angle(p))) for route, p in work]
    n_threads = 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            empty_tables.clear()
            node_calls.clear()
            envelope_calls.clear()
            for calls in numerator_calls.values():
                calls.clear()
            start = threading.Barrier(n_threads)
            results = {}

            def run(i):
                start.wait()
                results[i] = [_bits(route(Angle(p))) for route, p in work[i:] + work[:i]]

            threads = [threading.Thread(target=run, args=(i,)) for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert not any(t.is_alive() for t in threads)
            for i in range(n_threads):
                assert results[i] == expected[i:] + expected[:i]
            assert {k for table, k, _ in empty_tables if table == "exp"} == {0, 1, 9}
            assert len(node_calls) == _node_calls_behind(empty_tables)
            assert _numerator_counts(numerator_calls) == _stored_numerators(empty_tables)
            _assert_envelopes_built_once_under_the_lock(envelope_calls, empty_tables)
    finally:
        sys.setswitchinterval(interval)


def _suffix_maxima(values):
    """-max(values[k:]) at each k, by one plain walk from the end."""
    out = []
    top = -math.inf
    for v in reversed(values):
        top = max(top, v)
        out.append(-top)
    return tuple(reversed(out))


def test_strips_are_whole(empty_tables):
    # each stored strip holds its numerator at every node of its level on
    # both sides, each side up to its first None or t past _T_MAX, not only
    # the nodes its first evaluation summed, and beside them its two
    # envelopes: the suffix maxima of |wn| and of |wn| / (1 - y)^2, negated
    quad_eval(Angle(DEEP_PHI))
    quad_eval(Angle(0.5))
    quad_unit_eval(Angle(0.5))
    quad_tan_form()
    assert {table for table, _, _ in empty_tables} == set(TABLES)
    assert {k for table, k, _ in empty_tables if table == "exp"} == {0, 9}
    for (table, k, level), (entries, neg_e1, neg_e2) in empty_tables.items():
        assert neg_e1 == _suffix_maxima([abs(wn) for wn, _, _ in entries])
        assert neg_e2 == _suffix_maxima([abs(wn) / d / d for wn, _, d in entries])
        numerator, node = getattr(quadrature, TABLES[table][0]), _node(table, k)
        assert entries == tuple(numerator(*node(t)) for t in _level_ts(node, level, k))


def _ends_early(t):
    # a stub node function whose + side leaves range at t = 1.3 and whose
    # - side runs to _T_MAX: a None ends only its own side
    return None if t > 1.3 else t


@pytest.mark.parametrize("table", sorted(TABLES) + ["stub"])
def test_level_strip_holds_each_node_once(empty_tables, table):
    # level L's strip at scale k holds t = 0 (L = 0 only), then t = +j h and
    # -j h, h = 2^-L, in order of j, + before -, each exactly once: every j
    # at level 0, the odd j past it, each side up to its own end, at most
    # _T_MAX + k ln 2; and, stored, the numerators at those t that each
    # side, walked on its own, holds.  quad's table at its scales 0 and 9
    for k in ((0, 9) if table == "exp" else (0,)):
        node = _ends_early if table == "stub" else _node(table, k)
        for level in range(quadrature.MAX_LEVEL + 1):
            ts = _level_ts(node, level, k)
            # the node function tagged with its t and scale, to read back each
            # entry's node
            tagged = quadrature._strip(lambda t, scale: None if node(t) is None else (t, scale),
                                       level, k)
            assert tagged == tuple((t, 0.5 ** k) for t in ts)
            assert len(set(ts)) == len(ts)
            if table != "stub":
                numerator = getattr(quadrature, TABLES[table][0])
                entries = quadrature._strip_at(table, level, k)[0]
                assert entries == tuple(numerator(*node(t)) for t in ts)
