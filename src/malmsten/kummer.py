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
`kummer_partial` is the raw truncation, its series summed term by term by
`log_sine_partial`, which verify's raw-partial check also uses.
"""

import math

from .domain import Angle, Evaluation, Method, require_regular
from .errors import DomainError
from .series import log_sine_sum
from .special_functions import EULER_GAMMA, LN_PI, LN_TWO_PI, gamma_gap, log_gamma

# ln sin(pi x) dominates past these endpoints; the identity's useful range
# is interior.
ENDPOINT_GUARD = 1e-6

_LN2 = math.log(2.0)


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
    """ln Gamma(x) from Kummer's expansion, its series summed by log_sine_sum.

    The series is log_sine_sum at phi = 2 pi x - pi, 0 at x = 1/2.  For
    |x - 1/2| <= EULER_PHI / (2 pi) the sum runs on Euler's transformation,
    and past it on the Euler-Maclaurin branch.  Near the ends the rounding
    of 2 pi x - pi, about 6e-16, moves the result by up to about
    6e-16 / (4 pi min(x, 1 - x)).
    """
    closed_part = _closed_part(x)
    series = log_sine_sum(Angle(2.0 * math.pi * x - math.pi))
    return closed_part + series / math.pi


def log_sine_partial(theta, n_terms):
    """The raw partial sum sum_{n=2}^{n_terms} (ln n / n) sin(n theta), 0.0
    for n_terms < 2."""
    log, sin = math.log, math.sin
    total = 0.0
    for n in range(2, n_terms + 1):
        total += log(n) / n * sin(n * theta)
    return total


def kummer_partial(x, n_terms):
    """Kummer's expansion of ln Gamma(x) truncated after n_terms series terms."""
    closed_part = _closed_part(x)
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    if x == 0.5:
        # every series term is sin(pi n) = 0 analytically; short-circuit so
        # the midpoint stays exactly (1/2) ln pi at every truncation instead
        # of picking up sin(n * rounded-pi) rounding dust
        return closed_part
    series = log_sine_partial(2.0 * math.pi * x, n_terms)
    return closed_part + series / math.pi


def derived_closed_side(phi):
    """Closed side of the log-sine sum identity, via log_gamma."""
    p = phi.phi
    # the gamma argument tends to 0 as phi -> pi, to 1 as phi -> -pi
    x = gamma_gap(p) if p > 0.0 else 0.5 - p / (2.0 * math.pi)
    return (
        math.pi * log_gamma(x)
        - 0.5 * p * (EULER_GAMMA + LN_TWO_PI)
        - 0.5 * math.pi * LN_PI
        + 0.5 * math.pi * math.log(math.cos(0.5 * p))
    )


def derived_sum_identity(phi):
    """Both sides of the identity for sum_{n>=2} ln n sin(n(pi - phi))/n.

    Returns (series_side, closed_side).  The series side goes through the
    parity map to the alternating log-sine sum of the series route.
    """
    return -log_sine_sum(phi), derived_closed_side(phi)


def kummer_closed_eval(phi):
    """I(phi) assembled from the identity's closed side (pre-reflection form).

    This is the route that closes the derivation: it uses a single
    log-gamma at 1/2 - phi/(2 pi) plus ln cos(phi/2), and must agree with
    the reflected two-gamma closed form.
    """
    require_regular(phi)
    p = phi.phi
    value = -(0.5 * EULER_GAMMA * p + derived_closed_side(phi)) / math.sin(p)
    est = 5e-13 * math.pi / abs(math.sin(p))
    return Evaluation(phi, value, Method.KUMMER, est, 1)
