"""Kummer's Fourier expansion of ln Gamma on (0, 1) and the log-sine sum
identity it yields:

  ln Gamma(x) = (1/2 - x)(gamma + ln 2) + (1 - x) ln pi - (1/2) ln sin(pi x)
                + (1/pi) sum_{n>=1} ln n sin(2 pi n x)/n

  sum_{n>=2} ln n sin(n(pi - phi))/n
      = pi ln Gamma(1/2 - phi/(2 pi)) - (phi/2)(gamma + ln 2 pi)
        - (pi/2) ln pi + (pi/2) ln cos(phi/2)

Both series are summed in their alternating form by `series.log_sine_sum`
(Euler's transformation for |phi| <= EULER_PHI, Euler-Maclaurin past it),
through the parity map (-1)^n sin(n phi) = -sin(n(pi - phi)): Kummer's
sum_{n>=1} ln n sin(2 pi n x)/n is log_sine_sum at phi = 2 pi x - pi
(`kummer_sum`), and the identity's series side is -log_sine_sum(phi).
`kummer_closed_eval` assembles I(phi) from the closed side with
`series.assemble`, as the series route does from the series side.
`log_sine_partial` is the raw partial sum, summed term by term, for
verify's raw-partial check.
"""

import math

from .domain import Angle, Method, require_regular
from .errors import DomainError
from .series import assemble, log_sine_sum
from .special_functions import EPS, EULER_GAMMA, LGAMMA_ERR, LN_PI, LN_TWO_PI, gamma_gap, log_gamma

# ln sin(pi x) dominates past these endpoints; the identity's useful range
# is interior.
ENDPOINT_GUARD = 1e-6

_LN2 = math.log(2.0)

# the closed side's constant term, -(pi/2) ln pi
_LN_PI_TERM = -0.5 * math.pi * LN_PI


def _closed_part(x):
    """The terms of Kummer's expansion of ln Gamma(x) outside the series."""
    if not ENDPOINT_GUARD < x < 1.0 - ENDPOINT_GUARD:
        raise DomainError(
            f"the Kummer expansion requires {ENDPOINT_GUARD} < x < {1 - ENDPOINT_GUARD}"
        )
    return (
        (0.5 - x) * (EULER_GAMMA + _LN2)
        + (1.0 - x) * LN_PI
        - 0.5 * math.log(math.sin(math.pi * x))
    )


def kummer_sum(x):
    """ln Gamma(x) from Kummer's expansion, its series summed by log_sine_sum:
    (value, est_error).

    The series is log_sine_sum at phi = 2 pi x - pi, 0 at x = 1/2.  For
    |x - 1/2| <= EULER_PHI / (2 pi) the sum runs on Euler's transformation,
    and past it on the Euler-Maclaurin branch.  The estimate adds:
    - the series' own estimate, over pi;
    - 4 eps (|closed part| + |series/pi|), the roundings of the closed part,
      the divide and the sum;
    - the rounding of the angles 2 pi x - pi and pi x, each within 3 eps of
      the exact one near the ends (half an ulp of the product or of the
      difference, and pi - float(pi)).  With g = min(x, 1 - x), S goes as
      -(pi/2) ln theta near theta = 2 pi g, and ln sin(pi x) as ln(pi g),
      so they move the result by up to 3 eps/(4 pi g) and 3 eps/(2 pi g):
      9 eps/(4 pi g) in all, which sets the error near the ends.
    """
    closed_part = _closed_part(x)
    series, est = log_sine_sum(Angle(2.0 * math.pi * x - math.pi))
    series /= math.pi
    angles = 9.0 * EPS / (4.0 * math.pi * min(x, 1.0 - x))
    return (closed_part + series,
            est / math.pi + 4.0 * EPS * (abs(closed_part) + abs(series)) + angles)


def log_sine_partial(theta, n_terms):
    """The raw partial sum sum_{n=2}^{n_terms} (ln n / n) sin(n theta), 0.0
    for n_terms < 2."""
    log, sin = math.log, math.sin
    total = 0.0
    for n in range(2, n_terms + 1):
        total += log(n) / n * sin(n * theta)
    return total


def derived_closed_side(phi):
    """Closed side of the log-sine sum identity, via log_gamma: (value,
    est_error).

    It is odd in phi: with t = phi/(2 pi), the sides at phi and -phi sum to
    pi ln[Gamma(1/2 - t) Gamma(1/2 + t) cos(pi t)/pi] = 0 by the reflection
    formula.  So it is taken at |phi|, where the gamma argument
    gamma_gap(|phi|) tends to 0 as |phi| -> pi, and negated for phi < 0.
    The estimate is pi LGAMMA_ERR for its one log-gamma, plus 4 eps times
    the sum of its four terms' magnitudes for the roundings of the terms and
    of their sum.
    """
    p = phi.phi
    a = abs(p)
    lg = math.pi * log_gamma(gamma_gap(a))
    linear = -0.5 * a * (EULER_GAMMA + LN_TWO_PI)
    log_cos = 0.5 * math.pi * math.log(math.cos(0.5 * a))
    side = lg + linear + _LN_PI_TERM + log_cos
    est = math.pi * LGAMMA_ERR + 4.0 * EPS * (abs(lg) + abs(linear) + abs(_LN_PI_TERM)
                                              + abs(log_cos))
    return (side if p >= 0.0 else -side), est


def derived_sum_identity(phi):
    """Both sides of the identity for sum_{n>=2} ln n sin(n(pi - phi))/n.

    Returns ((series_side, est_error), (closed_side, est_error)).  The series
    side goes through the parity map to the alternating log-sine sum of the
    series route, and keeps its estimate.
    """
    series_side, series_est = log_sine_sum(phi)
    return (-series_side, series_est), derived_closed_side(phi)


def kummer_closed_eval(phi):
    """I(phi) assembled from the identity's closed side (pre-reflection form).

    This is the route that closes the derivation: it uses a single
    log-gamma at 1/2 - |phi|/(2 pi) plus ln cos(phi/2), and must agree with
    the reflected two-gamma closed form.  Its value at -phi is bitwise its
    value at phi.  `series.assemble` takes I from the side and derives the
    estimate from the side's.
    """
    require_regular(phi)
    side, side_est = derived_closed_side(phi)
    return assemble(phi, side, side_est, Method.KUMMER, 1)
