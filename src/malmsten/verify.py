"""Cross-validation check registry used by the `verify` CLI subcommand.

Every check produces a flat record {name, lhs, rhs, residual, tolerance,
pass}; a check passes when residual <= tolerance (a few deliberately
inverted demonstrations encode their condition so that this still holds).
Every value of I(phi) comes from `evaluate(Angle(phi), method)` without a
tol, the route's own record, with its est_error.

A record whose two sides carry error estimates gets the budget
est_lhs + est_rhs + 2 EPS max(|lhs|, |rhs|) as its tolerance (`_agree`),
the last term for the rounding of the subtraction; no tolerance is set by
hand.  The estimates are each route's est_error, those that sawtooth_sum,
kummer_sum and derived_sum_identity return, LGAMMA_ERR for log_gamma,
4 EPS |J_n| for j_n, half a unit of the last printed digit for a printed
constant, and 0 for the exact phi/2.  These records keep a literal
tolerance:

- two_pi_over_3_printed_forms, coeff_* and
  reflection_relative_residual_max, where no side carries an estimate;
- kummer_midpoint_exact, exact, and series_raw_partial_misses_tolerance,
  a threshold to miss;
- zero_limit_continuity and zero_limit_evenness_average, until the
  c2 phi^2 term that parts their sides has a bound on its remainder.

The groups compare, lhs against rhs:

- closed_quad: closed against quad over DEFAULT_GRID;
- repr: quad-unit against quad over 30 angles on [-3, 3];
- special: the tabulated special values against closed and against quad,
  and the two printed forms at 2 pi/3 against each other;
- vardi: quad-tan against the special value and against quad at pi/2;
- series: series against closed over DEFAULT_GRID without phi = 0, and the
  raw partial sum, which must miss 1e-5 at pi/2;
- coeffs, jn, sawtooth, kummer: the coefficients a_n, the integrals J_n,
  the sawtooth series and Kummer's series for ln Gamma against their
  closed forms, and J_0 against the printed -gamma;
- identity: the two sides of the derived sum identity over _IDENTITY_GRID,
  and series against closed over that grid without phi = 0;
- reflection: the reflection formula, and kummer against closed over
  DEFAULT_GRID without phi = 0;
- zero: closed against quad at the ZERO angle 9.9e-7, where closed takes
  the limit and its c2 phi^2 term, and the limit at phi = 0 against closed
  at +-1e-4.
"""

import math
import random
from collections import namedtuple
from itertools import accumulate

from .closed_form import SpecialCase, special_value, two_pi_over_3_forms
from .dispatch import evaluate
from .domain import Angle, Record
from .kummer import derived_sum_identity, kummer_sum, log_sine_partial
from .quadrature import quad_jn
from .series import j_n, sawtooth_sum
from .special_functions import EPS, EULER_GAMMA, LGAMMA_ERR, log_gamma, reflection_product

# covers the special values, generic points, the zero limit, and +-2.9,
# where the series route sums by Euler-Maclaurin (17 points)
DEFAULT_GRID = sorted(
    [0.0]
    + [s * v for s in (1.0, -1.0)
       for v in (0.1, 0.5, math.pi / 3, 1.2, math.pi / 2, 2.0, 2 * math.pi / 3, 2.9)]
)

# DEFAULT_GRID without phi = 0, where series and kummer are served by the
# closed route's limit (16 points)
_REGULAR_GRID = [p for p in DEFAULT_GRID if not Angle(p).is_zero]

# 30 angles evenly spaced on [-3, 3], past DEFAULT_GRID's +-2.9
_REPR_GRID = [-3.0 + 6.0 * k / 29.0 for k in range(30)]

# 25 angles evenly spaced on [-2.88, 2.88], 0 included
_IDENTITY_GRID = [-2.88 + 2.0 * 2.88 * k / 24.0 for k in range(25)]

# a ZERO angle, where closed's c2 phi^2 term moves I by 4.5e-14, 37 times
# the budget of zero_limit_vs_quad
_ZERO_ANGLE = 9.9e-7


class CheckRecord(Record, namedtuple("CheckRecord", "name lhs rhs residual tolerance passed")):
    __slots__ = ()

    def as_dict(self):
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _rec(name, lhs, rhs, tol):
    residual = abs(lhs - rhs)
    return CheckRecord(name, lhs, rhs, residual, tol, residual <= tol)


def _agree(name, lhs, lhs_est, rhs, rhs_est):
    """The record `name` of lhs against rhs, each with its error estimate.

    Its tolerance is the budget lhs_est + rhs_est + 2 EPS max(|lhs|, |rhs|):
    each side lies within its estimate of the same exact value, and the last
    term bounds the rounding of the subtraction that forms the residual.
    """
    return _rec(name, lhs, rhs, lhs_est + rhs_est + 2.0 * EPS * max(abs(lhs), abs(rhs)))


def _value(phi, method):
    return evaluate(Angle(phi), method)


def _fmt(phi):
    return f"{phi:+.6f}"


def _routes(name, grid, lhs_method, rhs_method):
    """One record `name[phi=...]` per angle of `grid`: I(phi) by route
    `lhs_method` against I(phi) by route `rhs_method`, within their budget."""
    out = []
    for p in grid:
        a, b = _value(p, lhs_method), _value(p, rhs_method)
        out.append(_agree(f"{name}[phi={_fmt(p)}]", a.value, a.est_error, b.value, b.est_error))
    return out


def _checks_closed_quad():
    return _routes("closed_vs_quad", DEFAULT_GRID, "closed", "quad")


def _checks_repr():
    return _routes("quad_unit_vs_exp", _REPR_GRID, "quad-unit", "quad")


def _checks_special():
    out = []
    for case in SpecialCase:
        sv = special_value(case)
        for method in ("closed", "quad"):
            ev = _value(case.value, method)
            out.append(_agree(f"special_vs_{method}[{case.name}]",
                              sv.value, sv.est_error, ev.value, ev.est_error))
    form_a, form_b = two_pi_over_3_forms()
    # the printed forms carry no estimate of their own
    out.append(_rec("two_pi_over_3_printed_forms", form_a, form_b, 1e-12))
    return out


def _checks_vardi():
    tan = _value(math.pi / 2, "quad-tan")
    special = special_value(SpecialCase.PI_OVER_2)
    quad = _value(math.pi / 2, "quad")
    return [
        _agree("vardi_tan_vs_special", tan.value, tan.est_error, special.value, special.est_error),
        _agree("vardi_tan_vs_quad", tan.value, tan.est_error, quad.value, quad.est_error),
    ]


def _checks_series():
    out = _routes("series_vs_closed", _REGULAR_GRID, "series", "closed")
    # the unaccelerated partial sum at 10^4 terms must MISS 1e-5 at pi/2:
    # residual is (threshold - raw_error), negative when the demonstration
    # holds; its 1e-5 is the threshold it must miss, not a budget
    theta = math.pi / 2 + math.pi
    raw = log_sine_partial(theta, 10_000)
    exact = math.sin(math.pi / 2) * _value(math.pi / 2, "closed").value + EULER_GAMMA * math.pi / 4
    raw_err = abs(raw - exact)
    out.append(CheckRecord(
        name="series_raw_partial_misses_tolerance[phi=pi/2]",
        lhs=raw_err,
        rhs=1e-5,
        residual=1e-5 - raw_err,
        tolerance=0.0,
        passed=raw_err > 1e-5,
    ))
    return out


def _exact_scale(terms):
    """The k for which 2^k x is an exact integer for every double x in `terms`.

    A nonzero double x with frexp exponent e is an integer multiple of
    2^(e - 53), its last place, and so of 2^(e' - 53) for any e' <= e.  So
    k = 53 - e for the smallest nonzero |x| serves every term; ldexp(x, k)
    only shifts the exponent, exactly, while it stays finite.
    """
    return 53 - math.frexp(min(map(abs, filter(None, terms))))[1]


def _coeff_definitions(p):
    """The definition of a_n, sum_{k=0}^{n} cos((n - 2k) p), for n = 0 .. 200,
    each bitwise fsum over its n + 1 cosines.

    The definition's terms pair up as cos(j p) + cos(-j p) = 2 cos(j p) for
    j = n, n - 2, ... > 0, plus cos(0) = 1 when n is even.  (-j) p is -(j p)
    exactly, cos is even and doubling is exact, so one table d[0] = 1,
    d[j] = 2 cos(j p) serves every n: the definition at n is the exact sum
    of the parity chain d[n % 2], d[n % 2 + 2], ..., d[n].  Each chain is
    summed once, as running sums of the integers 2^k d[j], k =
    `_exact_scale(d)`; these stay finite, as |d[j]| <= 2 and no double lies
    within 2^-61 of an odd multiple of pi/2, so |d[j]| > 2^-60 and k < 115.
    Integer sums are exact, and CPython's int / int true division rounds the
    exact quotient correctly, to nearest with ties to even, as fsum rounds
    the exact sum: each sum / 2^k is bitwise fsum over the n + 1 cosines.
    """
    doubled = [1.0] + [2.0 * math.cos(j * p) for j in range(1, 201)]
    k = _exact_scale(doubled)
    scaled = [int(math.ldexp(d, k)) for d in doubled]
    one = 1 << k
    sums = [0.0] * 201
    sums[0::2] = [s / one for s in accumulate(scaled[0::2])]
    sums[1::2] = [s / one for s in accumulate(scaled[1::2])]
    return sums


def _coeff_residuals(p):
    """The worst scaled residuals over n = 0 .. 200 of a_n = sin((n+1) p)/sin p,
    the coefficient of (-1)^n x^n in 1/(1 + 2 x cos p + x^2): against its
    definition, `_coeff_definitions(p)`, and against the Chebyshev
    recurrence a_n = 2 cos(p) a_{n-1} - a_{n-2}.
    """
    sin_p = math.sin(p)
    two_cos = 2.0 * math.cos(p)
    a = [math.sin(m * p) / sin_p for m in range(1, 202)]
    worst_brute = max([abs(an - bn) / m
                       for m, an, bn in zip(range(1, 202), a, _coeff_definitions(p))])
    # a[n], a[n - 1], a[n - 2] for n = 2 .. 200, scaled by m = n + 1
    worst_cheb = max([abs(an - (two_cos * a1 - a2)) / m
                      for m, an, a1, a2 in zip(range(3, 202), a[2:], a[1:], a)])
    return worst_brute, worst_cheb


def _checks_coeffs():
    rng = random.Random(20260823)
    residuals = [_coeff_residuals(rng.uniform(0.01, math.pi - 0.01) * rng.choice((1.0, -1.0)))
                 for _ in range(20)]
    worst_brute = max(brute for brute, _ in residuals)
    worst_cheb = max(cheb for _, cheb in residuals)
    # worst scaled residuals over 20 angles: no side carries an estimate
    return [
        _rec("coeff_closed_vs_brute_max_scaled", worst_brute, 0.0, 1e-12),
        _rec("coeff_chebyshev_recurrence_max_scaled", worst_cheb, 0.0, 1e-11),
    ]


def _checks_jn():
    # j_n rounds gamma, the log, their sum and the divide: 4 EPS |j_n|; the
    # printed constant has 10 digits, within half a unit of its last, 5e-11
    j0 = j_n(0)
    out = [_agree("jn_zero_is_minus_gamma", j0, 4.0 * EPS * abs(j0), -0.5772156649, 5e-11)]
    for n in range(21):
        jn = j_n(n)
        quad = quad_jn(n)
        out.append(_agree(f"jn_closed_vs_quad[n={n}]", jn, 4.0 * EPS * abs(jn),
                          quad.value, quad.est_error))
    return out


def _checks_sawtooth():
    out = []
    for p in DEFAULT_GRID:
        s, est = sawtooth_sum(Angle(p))
        # p/2 is exact
        out.append(_agree(f"sawtooth_vs_half_phi[phi={_fmt(p)}]", s, est, p / 2.0, 0.0))
    return out


def _checks_kummer():
    out = []
    for k in range(1, 20):
        x = 0.05 * k
        value, est = kummer_sum(x)
        out.append(_agree(f"kummer_vs_log_gamma[x={x:.2f}]", value, est, log_gamma(x), LGAMMA_ERR))
    # exact: at x = 1/2 the series is log_sine_sum at 0, every term sin 0 = 0
    out.append(_rec("kummer_midpoint_exact", kummer_sum(0.5)[0], 0.5 * math.log(math.pi), 0.0))
    return out


def _checks_identity():
    out = []
    for p in _IDENTITY_GRID:
        (series_side, series_est), (closed_side, closed_est) = derived_sum_identity(Angle(p))
        out.append(_agree(f"derived_identity[phi={_fmt(p)}]",
                          series_side, series_est, closed_side, closed_est))
    regular = [p for p in _IDENTITY_GRID if not Angle(p).is_zero]
    return out + _routes("i3_assembly_vs_closed", regular, "series", "closed")


def _checks_reflection():
    worst = 0.0
    for k in range(100):
        t = -0.49 + 0.98 * (k + 0.5) / 100.0
        lhs, rhs = reflection_product(t)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    # reflection_product carries no estimate; kummer and closed do
    return ([_rec("reflection_relative_residual_max", worst, 0.0, 1e-11)]
            + _routes("reflected_form_vs_closed", _REGULAR_GRID, "kummer", "closed"))


def _checks_zero():
    limit = _value(_ZERO_ANGLE, "closed")
    quad = _value(_ZERO_ANGLE, "quad")
    z = _value(0.0, "closed")
    eps = 1e-4
    near = _value(eps, "closed").value
    avg = 0.5 * (near + _value(-eps, "closed").value)
    # the last two keep literal tolerances until the c2 phi^2 term that
    # separates their sides has a bound on its remainder
    return [
        _agree("zero_limit_vs_quad", limit.value, limit.est_error, quad.value, quad.est_error),
        _rec("zero_limit_continuity", z.value, near, 1e-8),
        # I approaches its limit quadratically with curvature ~0.046, so the
        # +-1e-4 average sits ~4.6e-10 away from the limit; 1e-9 is the
        # tightest honest tolerance here
        _rec("zero_limit_evenness_average", z.value, avg, 1e-9),
    ]


_PRODUCERS = {
    "closed_quad": _checks_closed_quad,
    "repr": _checks_repr,
    "special": _checks_special,
    "vardi": _checks_vardi,
    "series": _checks_series,
    "coeffs": _checks_coeffs,
    "jn": _checks_jn,
    "sawtooth": _checks_sawtooth,
    "kummer": _checks_kummer,
    "identity": _checks_identity,
    "reflection": _checks_reflection,
    "zero": _checks_zero,
}

GROUPS = tuple(_PRODUCERS)


def run_checks(only=None):
    """Run the named check groups (all by default); returns [CheckRecord]."""
    selected = GROUPS if not only else tuple(only)
    unknown = set(selected) - set(GROUPS)
    if unknown:
        raise ValueError(f"unknown check group(s): {sorted(unknown)}")
    records = []
    for group, produce in _PRODUCERS.items():
        if group in selected:
            records.extend(produce())
    return records


def comparison_report():
    """The closed-vs-quad grid: closed form against the quadrature oracle over
    DEFAULT_GRID, as the records of the closed_quad group."""
    return run_checks(only=["closed_quad"])
