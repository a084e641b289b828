"""Real-argument special functions: log-gamma, the gamma reflection
product, pi - |phi| to full accuracy near pi, and the stop tables of the
closed and series routes' truncated power series.

log_gamma is the standard library's math.lgamma behind the domain and
overflow checks of its contract.  Everything is binary64; no
arbitrary-precision backend.
"""

import math

from .errors import DomainError

EULER_GAMMA = 0.5772156649015328606
PI = math.pi
LN_PI = math.log(math.pi)
LN_TWO_PI = math.log(2.0 * math.pi)

EPS = 2.3e-16  # binary64 machine epsilon 2**-52, rounded up: the error estimates' ulp

# math.lgamma's absolute error on [1e-6, 1.5], rounded up: against 40-digit mpmath at
# 20 000 uniform x of random.Random(20000), at most 1.761e-15 (x = 1.3886e-4).
LGAMMA_ERR = 1.77e-15

# pi - float(pi): the low half of a two-float split of pi
_PI_LO = 1.2246467991473532e-16


def log_gamma(x):
    """ln Gamma(x) for real x > 0: math.lgamma(x).

    DomainError for x <= 0 and for NaN; OverflowError where the result
    overflows, which math.lgamma raises for finite x but not at x = inf.
    """
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    if x == math.inf:
        raise OverflowError(f"log_gamma overflows for x = {x!r}")
    return math.lgamma(x)


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
