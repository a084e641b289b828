"""Closed-form evaluation of Malmsten's integral

    I(phi) = (pi / (2 sin phi)) * ln[ (2 pi)^(phi/pi)
             Gamma(1/2 + phi/(2 pi)) / Gamma(1/2 - phi/(2 pi)) ]

on the open interval (-pi, pi), including the three classical special values
and the removable singularity at phi = 0.

The generic route takes no log-gamma.  DLMF 5.15.3 gives
psi^(2k)(1/2) = -(2k)! (2^(2k+1) - 1) zeta(2k+1), so with t = phi/(2 pi) the
bracket is the odd series of ln Gamma(1/2 + t) - ln Gamma(1/2 - t):

    I(phi) = (phi / (2 sin phi)) [ln(pi/2) - gamma - S(t)/t],
    S(t)/t = sum_{k>=1} c_k t^(2k),  c_k = (2^(2k+1) - 1) zeta(2k+1)/(2k+1).

Every c_k is positive and ln(pi/2) - gamma < 0, so the bracket never
cancels.  S(t)/t is summed one of two ways:

- for |phi| <= CLOSED_SPLIT, directly: c_(k+1)/c_k < 4, so it converges as
  (2t)^2 <= 0.102;
- past it, with zeta = 1 + 2^-s + (zeta - 1 - 2^-s), s = 2k + 1, as A&S
  6.1.33 and DLMF 5.7.3 do for ln Gamma(1 + z): the first two parts sum to
  (artanh 2|t| - artanh(|t|/2))/|t| - 3/2, and the rest,
  sum_k r_k t^(2k) with r_k = (2^(2k+1) - 1)(zeta(2k+1) - 1 - 2^-s)/(2k+1),
  converges as (2t/3)^2 < 1/9, since r_(k+1)/r_k < 4/9.  artanh 2|t| is
  (log1p 2|t| - ln(2 gamma_gap(phi)))/2, whose small argument 1 - 2|t| is
  formed without cancellation up to the last float below pi.

The special values keep the printed right-hand sides, sums of log-gammas.
"""

import enum
import math
from bisect import bisect_left

from .domain import Angle, Evaluation, Method
from .errors import DomainError, InternalInconsistencyError
from .special_functions import EPS, LN_TWO_PI, gamma_gap, log_gamma, stop_table

# Up to this |phi| S(t)/t is summed directly; past it, split.
CLOSED_SPLIT = 1.0

# ln(pi/2) - gamma, the bracket at phi = 0, rounded from its 40-digit value.
_BRACKET_0 = -0.125632959612078

# c_k = (2^(2k+1) - 1) zeta(2k+1)/(2k+1), k = 1 .. 16, rounded from their
# 40-digit values.
_ZETA_C = (
    2.80479944070572, 6.428952081888894, 18.294336889643457, 56.89180985934755,
    186.18287309751204, 630.1542419253858, 2184.5334856492714, 7710.117706772447,
    27594.105286901082, 99864.38096192811, 364722.0869603959, 1342177.280001584,
    4971026.962963615, 18512790.068965785, 69273666.06451625, 260301048.24242428,
)

# r_k = (2^(2k+1) - 1)(zeta(2k+1) - 1 - 2^(-2k-1))/(2k+1), k = 1 .. 17,
# rounded from their 40-digit values: from a float zeta(2k+1) the difference
# would cancel, losing about 7 digits at k = 20.
_ZETA_R = (
    0.17979944070572, 0.035202081888893545, 0.009738675357742716, 0.003137984347556841,
    0.0010993048984130865, 0.0004051615636849693, 0.00015435044335103415,
    6.016241127594064e-05, 2.384357223935737e-05, 9.569857723491193e-06,
    3.879334842598935e-06, 1.5852817191924876e-06, 6.521634960610151e-07,
    2.698106242720582e-07, 1.1216761794733016e-07, 4.682817689420898e-08,
    1.9622588680393966e-08,
)

# The K terms summed are the fewest whose truncation bound is below this,
# under one ulp of |ln(pi/2) - gamma - S(t)/t| >= 0.125.
_CLOSED_TRUNCATION = 1e-17

_INV_TWO_PI = 1.0 / (2.0 * math.pi)


def _closed_tables(coef, q, x_max):
    """The tables of sum_{k>=1} coef_k x^k, x = t^2, for x <= x_max, where
    coef_(k+1) <= q coef_k for every k.

    Taking the terms k <= K leaves at most coef_(K+1) x^(K+1) / (1 - q x),
    so K = bisect_left(stops, x) + 1 is the first K whose bound meets
    _CLOSED_TRUNCATION at x, with the `stop_table` of coef_2, coef_3, ...
    from the power 2; the estimate takes the bound itself.  Returns the
    coefficients highest first, for Horner's rule, the coefficients, the
    stop table and q.
    """
    return coef[::-1], coef, stop_table(coef[1:], 2, q, _CLOSED_TRUNCATION, x_max), q


# |t| <= CLOSED_SPLIT/(2 pi) on the direct branch, and |t| <= 1/2 past it:
# |phi| * _INV_TWO_PI may round up to 1/2 at the last float below pi.
_DIRECT = _closed_tables(_ZETA_C, 4.0, (CLOSED_SPLIT * _INV_TWO_PI) ** 2)
_SPLIT = _closed_tables(_ZETA_R, 4.0 / 9.0, 0.25)


class SpecialCase(enum.Enum):
    PI_OVER_2 = math.pi / 2
    PI_OVER_3 = math.pi / 3
    TWO_PI_OVER_3 = 2 * math.pi / 3


def malmsten_closed(phi):
    """I(phi) by the odd-zeta series of the bracket, at every angle.

    With a = |t| and x = a^2, the bracket is ln(pi/2) - gamma - (A + P), A
    the closed part of the split branch (0 on the direct one) and P the K
    terms of the c_k or r_k series by Horner's rule, K from the stop table;
    `work` is K.  The estimate is |phi / (2 sin phi)| times the truncation
    bound plus the rounding, in units of u = eps/2:
    - term k of P is rounded 2k times by Horner's rule, once as a literal,
      and a (by 1/(2 pi) and the product) and x move it by 5k more; since
      the terms shrink by q x or faster, sum_k k term_k <= P/(1 - q x)^2,
      so P takes (1 + 7/(1 - q x)^2) P;
    - A = (B - b)/a - 3/2 with B = artanh 2a and b = artanh(a/2): log1p,
      its argument, ln(2 gamma_gap) (the gap to 5u), the halving sum, atanh
      and its argument put at most 5u B + 2.5u into B and 5u b into b,
      and B - b, a and the divide 4u (B - b)/a more, so A takes
      (9 (B + b) + 2.5)/a, which counts the magnitudes that cancel in A
      just past CLOSED_SPLIT;
    - the literal ln(pi/2) - gamma takes u, the bracket's subtraction u,
      and sin, the divide and the product 4u of the bracket.
    """
    p = phi.phi
    ap = abs(p)
    a = ap * _INV_TWO_PI
    x = a * a
    if ap <= CLOSED_SPLIT:
        part = mag = 0.0
        rev, coef, stops, q = _DIRECT
    else:
        big = 0.5 * (math.log1p(2.0 * a) - math.log(2.0 * gamma_gap(p)))
        small = math.atanh(0.5 * a)
        part = (big - small) / a - 1.5
        mag = (9.0 * (big + small) + 2.5) / a
        rev, coef, stops, q = _SPLIT
    k = bisect_left(stops, x) + 1
    poly = 0.0
    for c in rev[-k:]:
        poly = poly * x + c
    poly *= x
    bracket = _BRACKET_0 - (part + poly)
    # p/sin(p) first, so that no subnormal p underflows; 1 at p = 0
    f = 0.5 * (p / math.sin(p)) if p else 0.5
    r = 1.0 / (1.0 - q * x)
    truncation = coef[k] * x ** (k + 1) * r
    rounding = 0.5 * EPS * (-_BRACKET_0 + 5.0 * abs(bracket) + (1.0 + 7.0 * r * r) * poly + mag)
    return Evaluation(phi, f * bracket, Method.CLOSED, abs(f) * (truncation + rounding), k)


def zero_limit(phi=Angle(0.0)):
    """I(phi) at a ZERO-classified angle: I(0) + c2 phi^2, where I(0) =
    (ln(pi/2) - gamma)/2 and c2 = I(0)/6 - c_1/(8 pi^2) ~ -0.046, c_1 =
    7 zeta(3)/3 the first coefficient of S(t)/t; I is even, so the rest is
    O(phi^4) < 1e-24."""
    if not phi.is_zero:
        raise DomainError(f"zero_limit needs a ZERO-classified angle, got {phi.phi!r}")
    limit = 0.5 * _BRACKET_0
    c2 = limit / 6.0 - _ZETA_C[0] / (8.0 * math.pi ** 2)
    return Evaluation(phi, limit + c2 * phi.phi ** 2, Method.CLOSED, 1e-15, 1)


def two_pi_over_3_forms():
    """The two printed right-hand sides at phi = 2 pi / 3, as (form_a, form_b)."""
    form_a = (2.0 * math.pi / math.sqrt(3.0)) * (
        (5.0 / 6.0) * LN_TWO_PI - log_gamma(1.0 / 6.0)
    )
    form_b = (math.pi / math.sqrt(3.0)) * (
        log_gamma(5.0 / 6.0) + (2.0 / 3.0) * LN_TWO_PI - log_gamma(1.0 / 6.0)
    )
    return form_a, form_b


def special_value(which):
    """The classically tabulated right-hand sides at phi = pi/2, pi/3, 2pi/3,
    named by a SpecialCase member; anything else is a DomainError.

    For TWO_PI_OVER_3 both printed forms are evaluated and must agree to
    1e-12, else InternalInconsistencyError.
    """
    if which is SpecialCase.PI_OVER_2:
        value = (math.pi / 2.0) * (
            log_gamma(0.75) + 0.5 * LN_TWO_PI - log_gamma(0.25)
        )
    elif which is SpecialCase.PI_OVER_3:
        value = (math.pi / math.sqrt(3.0)) * (
            log_gamma(2.0 / 3.0) + LN_TWO_PI / 3.0 - log_gamma(1.0 / 3.0)
        )
    elif which is SpecialCase.TWO_PI_OVER_3:
        form_a, form_b = two_pi_over_3_forms()
        if abs(form_a - form_b) > 1e-12:
            raise InternalInconsistencyError(
                f"the two printed forms at 2pi/3 disagree: {form_a!r} vs {form_b!r}"
            )
        value = form_a
    else:
        raise DomainError(f"special_value needs a SpecialCase member, got {which!r}")
    return Evaluation(
        phi=Angle(which.value),
        value=value,
        method=Method.CLOSED,
        est_error=1e-12,
        work=1,
    )
