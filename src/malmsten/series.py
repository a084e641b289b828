"""Series route for I(phi).

Evaluates I(phi) = (1/sin phi) [ -gamma*phi/2 + sum_{n>=2} (-1)^n ln n sin(n phi)/n ]
from the Cauchy-product expansion of the integrand.  The conditionally
convergent sums are taken strictly in increasing n and accelerated with
phase-weighted Euler averaging; (-1)^n e^{i n phi} = e^{i n (phi + pi)}, so
the oscillation factor handed to the accelerator is exp(i(phi + pi)).
"""

import cmath
import math
from dataclasses import dataclass

from . import kernels
from .acceleration import WINDOW, accelerated_limit
from .domain import Evaluation, Method, require_regular, require_tol
from .errors import DomainError, NonConvergenceError
from .special_functions import EPS, EULER_GAMMA

# |phi| band inside which series_eval advertises its default tolerance; the
# alternating structure degrades towards |phi| = pi and the error estimate
# is widened instead of failing hard.
SERIES_BAND = 2.9

# Terms summed before the first accelerated limit; N then doubles to MAX_TERMS.
FIRST_TERMS = 64
MAX_TERMS = 2000

# Default bound on the estimated error of the log-sine sum.
TOL = 1e-9


@dataclass(frozen=True)
class CoefficientWitness:
    """Closed-form and brute-force values of the power-series coefficient a_n."""

    n: int
    closed: float
    brute: float


def coeff_a(n, phi):
    """a_n = sin((n+1) phi)/sin(phi), with its brute-force trigonometric twin."""
    if n < 0:
        raise DomainError("n must be >= 0")
    require_regular(phi)
    p = phi.phi
    closed = math.sin((n + 1) * p) / math.sin(p)
    brute = math.fsum(math.cos((n - 2 * k) * p) for k in range(n + 1))
    return CoefficientWitness(n=n, closed=closed, brute=brute)


def j_n(n):
    """J_n = integral_0^1 x^n ln ln(1/x) dx = -(gamma + ln(n+1))/(n+1)."""
    if n < 0:
        raise DomainError("n must be >= 0")
    return -(EULER_GAMMA + math.log(n + 1)) / (n + 1)


def sawtooth_partial(phi, n_terms, accel=True):
    """Partial sum of sum_{n>=1} (-1)^{n+1} sin(n phi)/n (limit: phi/2).

    With accel, the Euler averaging is applied to the trailing partial sums;
    without, the raw N-term partial sum is returned.
    """
    p = phi.phi
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    theta = p + math.pi
    if not accel:
        s = kernels.recip_sine_partials(theta, n_terms, 1)[-1]
        return -s.imag
    partials = kernels.recip_sine_partials(theta, n_terms, WINDOW)
    value, _, _ = accelerated_limit(partials, cmath.exp(1j * theta))
    return -value.imag


def _accumulation_noise(n_terms):
    """Rounding noise of the raw partial sums: eps * sum_{n<=N} |ln n / n|."""
    return EPS * 0.5 * math.log(n_terms) ** 2


def _log_sine_sum_impl(phi, tol):
    """Accelerated log-sine sum with adaptive N: (value, est_error, terms).

    Starts at N = FIRST_TERMS and doubles N up to MAX_TERMS, resuming the
    partial sums where the previous N stopped, until the imaginary parts of
    two successive accelerated limits agree to within the error estimate at
    N: the accelerator's own plus the rounding noise of the partial sums.
    """
    require_regular(phi)
    require_tol(tol)
    theta = phi.phi + math.pi
    z = cmath.exp(1j * theta)
    n = FIRST_TERMS
    partials = kernels.log_sine_partials(theta, n, WINDOW)
    value, est, _ = accelerated_limit(partials, z)
    delta = 0.0
    while n < MAX_TERMS:
        last, n = n, min(2 * n, MAX_TERMS)
        # a step adds >= FIRST_TERMS >= WINDOW terms: the new partials fill the window
        partials = kernels.log_sine_partials(theta, n, WINDOW, last, partials[-1])
        prev = value
        value, est, _ = accelerated_limit(partials, z)
        delta = abs(value.imag - prev.imag)
        if delta <= est + _accumulation_noise(n):
            break
    return value.imag, max(est, delta) + _accumulation_noise(n), n


def log_sine_sum(phi, tol=TOL):
    """Accelerated value of sum_{n>=2} (-1)^n ln n sin(n phi)/n."""
    value, est, _ = _log_sine_sum_impl(phi, tol)
    if est > tol:
        raise NonConvergenceError(
            f"log-sine series did not reach tol={tol} "
            f"(estimated error {est:.3e})",
            best_estimate=value,
            est_error=est,
        )
    return value


def series_eval(phi, tol=TOL):
    """I(phi) assembled from the sawtooth constant and the log-sine series."""
    p = phi.phi
    tail, est, work = _log_sine_sum_impl(phi, tol)
    value = (-EULER_GAMMA * p / 2.0 + tail) / math.sin(p)
    est_error = est / abs(math.sin(p))
    if est > tol and abs(p) <= SERIES_BAND:
        raise NonConvergenceError(
            f"series route did not converge at phi={p!r} "
            f"(estimated error {est:.3e})",
            best_estimate=value,
            est_error=est_error,
        )
    return Evaluation(phi=phi, value=value, method=Method.SERIES,
                      est_error=est_error, work=work)
