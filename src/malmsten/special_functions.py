"""Self-contained real-argument special functions: log-gamma, the gamma
reflection product, pi - |phi| to full accuracy near pi, and the stop
tables of the closed and series routes' truncated power series.

log_gamma uses the Lanczos approximation (g = 7, 9 coefficients) with the
reflection formula below x = 0.5.  Everything is binary64; no
arbitrary-precision backend.
"""

import math

from .errors import DomainError

EULER_GAMMA = 0.5772156649015328606
PI = math.pi
LN_PI = math.log(math.pi)
LN_TWO_PI = math.log(2.0 * math.pi)

EPS = 2.3e-16  # binary64 machine epsilon 2**-52, rounded up: the error estimates' ulp

# pi - float(pi): the low half of a two-float split of pi
_PI_LO = 1.2246467991473532e-16

# Lanczos coefficients for g = 7, n = 9 (Godfrey's set, as used by Boost
# and the GSL).  Relative accuracy of the rational part is ~1e-15.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_OVERFLOW_X = 2.5e305  # (x - 0.5) * ln(x + g) would overflow past this


def _lanczos_series(x):
    s = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[k] / (x + k - 1.0)
    return s


def log_gamma(x):
    """ln Gamma(x) for real x > 0.

    Absolute error is <= 1e-13 wherever binary64 can represent the result
    that accurately; for very large x the error is a few ulps of the result.
    """
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    if x > _OVERFLOW_X:
        raise OverflowError(f"log_gamma overflows for x = {x!r}")
    if x < 0.5:
        # Reflection: ln Gamma(x) = ln pi - ln sin(pi x) - ln Gamma(1 - x).
        return LN_PI - math.log(math.sin(PI * x)) - log_gamma(1.0 - x)
    z = x - 1.0
    t = z + _LANCZOS_G + 0.5
    return 0.5 * LN_TWO_PI + (z + 0.5) * math.log(t) - t + math.log(_lanczos_series(x))


def pi_gap(phi):
    """pi - |phi|, to full relative accuracy as |phi| -> pi: PI - |phi| is
    exact there (Sterbenz), and _PI_LO restores the part of pi that the
    float PI lacks."""
    return (PI - abs(phi)) + _PI_LO


def gamma_gap(phi):
    """1/2 - |phi|/(2 pi) = (pi - |phi|)/(2 pi), to full relative accuracy as
    |phi| -> pi; 0.5 - |phi|/(2 pi) would cancel."""
    return pi_gap(phi) / (2.0 * PI)


def stop_table(bounds, first, q, tau, r_max):
    """Where a power series in r may stop: its terms past the first K sum to
    at most bounds[K] r^(first + K) / (1 - q r).

    Entry K is the r at which that bound equals tau, by three steps of the
    contraction r <- (tau (1 - q r) / bounds[K])^(1/(first + K)) from entry
    K - 1 (from 0 for entry 0).  It grows with K, so bisect_left(stops, r)
    is the first K whose bound meets tau at r, to the accuracy of the steps.
    The table ends at the first entry >= r_max.
    """
    stops = []
    r = 0.0
    for k, bound in enumerate(bounds, first):
        for _ in range(3):
            r = (tau * (1.0 - q * r) / bound) ** (1.0 / k)
        stops.append(r)
        if r >= r_max:
            break
    return tuple(stops)


def reflection_product(t):
    """Both sides of Gamma(1/2 - t) Gamma(1/2 + t) = pi / cos(pi t).

    Returns (lhs, rhs) for residual testing; |t| < 1/2 required.
    """
    if not abs(t) < 0.5:
        raise DomainError(f"reflection_product requires |t| < 1/2, got {t!r}")
    lhs = math.exp(log_gamma(0.5 - t) + log_gamma(0.5 + t))
    rhs = PI / math.cos(PI * t)
    return lhs, rhs
