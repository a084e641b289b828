"""Kummer's Fourier expansion of ln Gamma on (0, 1) and the log-sine sum
identity it yields:

  ln Gamma(x) = (1/2 - x)(gamma + ln 2) + (1 - x) ln pi - (1/2) ln sin(pi x)
                + (1/pi) sum_{n>=1} ln n sin(2 pi n x)/n

  sum_{n>=2} ln n sin(n(pi - phi))/n
      = pi ln Gamma(1/2 - phi/(2 pi)) - (phi/2)(gamma + ln 2 pi)
        - (pi/2) ln pi + (pi/2) ln cos(phi/2)

Both series are summed in their alternating form by `series.log_sine_sum`
(Euler's transformation for |phi| <= EULER_PHI, Euler-Maclaurin within
EM_GAP of +-pi, and the Levin engine between), through the
parity map (-1)^n sin(n phi) = -sin(n(pi - phi)): Kummer's
sum_{n>=1} ln n sin(2 pi n x)/n is log_sine_sum at phi = 2 pi x - pi
(`kummer_sum`), and the identity's series side is -log_sine_sum(phi).
`kummer_partial` is the raw truncation.
"""

import math

from . import kernels
from .domain import Angle, Evaluation, Method, require_regular
from .errors import DomainError
from .series import log_sine_sum
from .special_functions import EULER_GAMMA, LN_PI, LN_TWO_PI, gamma_gap, log_gamma

# ln sin(pi x) dominates past these endpoints; the identity's useful range
# is interior.
ENDPOINT_GUARD = 1e-6

_LN2 = math.log(2.0)


# eta'(0) = sum_{n>=2} (-1)^n ln n (Abel) = (1/2) ln(pi/2): the slope of
# log_sine_sum at phi = 0, whose next Taylor term is O(phi^3)
_HALF_LN_HALF_PI = 0.5 * math.log(0.5 * math.pi)


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

    The series is log_sine_sum at phi = 2 pi x - pi.  Where that angle is
    ZERO (x within about 1.6e-7 of 1/2, x = 1/2 itself included) it is the
    odd Taylor term eta'(0) phi instead of a ZeroAngleError.  For
    |x - 1/2| <= EULER_PHI / (2 pi) the sum runs on Euler's transformation.
    For x or 1 - x below EM_GAP / (2 pi) the angle lies within EM_GAP of
    -+pi, and the sum runs on the Euler-Maclaurin branch.  There the rounding of
    2 pi x - pi, about 6e-16, moves the result by up to about
    6e-16 / (4 pi min(x, 1 - x)).
    """
    closed_part = _closed_part(x)
    phi = Angle(2.0 * math.pi * x - math.pi)
    if phi.is_zero:
        series = _HALF_LN_HALF_PI * phi.phi
    else:
        series = log_sine_sum(phi)
    return closed_part + series / math.pi


def kummer_partial(x, n_terms):
    """Kummer's expansion of ln Gamma(x) truncated after n_terms series terms."""
    closed_part = _closed_part(x)
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    if n_terms == 1:
        return closed_part  # the n = 1 term is ln(1) = 0
    if x == 0.5:
        # every series term is sin(pi n) = 0 analytically; short-circuit so
        # the midpoint stays exactly (1/2) ln pi at every truncation instead
        # of picking up sin(n * rounded-pi) rounding dust
        return closed_part
    series = kernels.log_sine_partials(2.0 * math.pi * x, n_terms, 1)[-1].imag
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
    parity map to the alternating sum handled by the series engine; at a
    ZERO-classified phi every series term is sin(n pi) = 0 exactly.
    """
    closed_side = derived_closed_side(phi)
    if phi.is_zero:
        series_side = 0.0
    else:
        series_side = -log_sine_sum(phi)
    return series_side, closed_side


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
    return Evaluation(phi=phi, value=value, method=Method.KUMMER, est_error=est, work=1)
