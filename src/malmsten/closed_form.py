"""Closed-form evaluation of Malmsten's integral

    I(phi) = (pi / (2 sin phi)) * ln[ (2 pi)^(phi/pi)
             Gamma(1/2 + phi/(2 pi)) / Gamma(1/2 - phi/(2 pi)) ]

on the open interval (-pi, pi), including the three classical special values
and the removable singularity at phi = 0.  Everything is computed in
log-space (sums of log-gammas), never through Gamma ratios.
"""

import enum
import math

from .domain import Angle, Evaluation, Method, require_regular
from .errors import DomainError, InternalInconsistencyError
from .special_functions import LN_TWO_PI, digamma, gamma_gap, log_gamma

# Per-call log-gamma error (~1e-13 abs) enters twice and is divided by sin(phi).
_LG_ERR = 2.5e-13

_ZETA_3 = 1.2020569031595942854  # Apery's constant


class SpecialCase(enum.Enum):
    PI_OVER_2 = math.pi / 2
    PI_OVER_3 = math.pi / 3
    TWO_PI_OVER_3 = 2 * math.pi / 3


def malmsten_closed(phi):
    """Generic closed form; REGULAR angles only (use zero_limit at phi ~ 0)."""
    require_regular(phi)
    p = phi.phi
    t = p / (2.0 * math.pi)
    s = math.sin(p)
    # ln Gamma(1/2 + t) - ln Gamma(1/2 - t) is odd in t; gamma_gap(p) = 1/2 - |t|
    lg = log_gamma(0.5 + abs(t)) - log_gamma(gamma_gap(p))
    value = (math.pi / (2.0 * s)) * (2.0 * t * LN_TWO_PI + (lg if p > 0.0 else -lg))
    est = _LG_ERR * math.pi / (2.0 * abs(s))
    return Evaluation(phi=phi, value=value, method=Method.CLOSED, est_error=est, work=1)


def zero_limit(phi=Angle(0.0)):
    """I(phi) at a ZERO-classified angle: I(0) + c2 phi^2, where I(0) =
    (ln(2 pi) + psi(1/2))/2 = (ln(pi/2) - gamma)/2 and c2 = I(0)/6 -
    7 zeta(3)/(24 pi^2) ~ -0.046; I is even, so the rest is O(phi^4) < 1e-24."""
    if not phi.is_zero:
        raise DomainError(f"zero_limit needs a ZERO-classified angle, got {phi.phi!r}")
    limit = 0.5 * (LN_TWO_PI + digamma(0.5))
    c2 = limit / 6.0 - 7.0 * _ZETA_3 / (24.0 * math.pi ** 2)
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
    """The classically tabulated right-hand sides at phi = pi/2, pi/3, 2pi/3.

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
    else:
        form_a, form_b = two_pi_over_3_forms()
        if abs(form_a - form_b) > 1e-12:
            raise InternalInconsistencyError(
                f"the two printed forms at 2pi/3 disagree: {form_a!r} vs {form_b!r}"
            )
        value = form_a
    return Evaluation(
        phi=Angle(which.value),
        value=value,
        method=Method.CLOSED,
        est_error=1e-12,
        work=1,
    )
