"""Series route for I(phi).

Evaluates I(phi) = (1/sin phi) [ -gamma*phi/2 + sum_{n>=2} (-1)^n ln n sin(n phi)/n ]
from the Cauchy-product expansion of the integrand.  The conditionally
convergent log-sine sum is the imaginary part of sum_{n>=2} a_n with
a_n = (-1)^n (ln n / n) e^{i n phi}; its partial sums are sampled in
arithmetic progression, S_l = S_{m_l} at m_l = kappa (l + 1) + 1 (Sidi,
Practical Extrapolation Methods, 2003), and extrapolated with the Levin
t-transform (Levin 1973), weights omega_l = a_{m_l} and beta = 1.

The same engine sums Kummer's series for ln Gamma (`kummer.kummer_sum`) and
the sawtooth series sum_{n>=1} (-1)^{n+1} sin(n phi)/n = phi/2, the source
of the gamma*phi/2 term (`sawtooth_sum`), each with its weight table.
"""

import math

from . import kernels
from .domain import Evaluation, Method, require_regular, require_tol
from .errors import DomainError, NonConvergenceError
from .special_functions import EPS, EULER_GAMMA, pi_gap

# |phi| band inside which series_eval advertises its default tolerance;
# outside it the route returns its value with an estimate that may exceed
# the tolerance instead of failing hard.
SERIES_BAND = 2.9

# Order of the Levin transform: it extrapolates LEVIN_K + 1 sampled partial sums.
LEVIN_K = 20
MAX_TERMS = kernels.ALTERNATING_TERMS

# The terms turn by pi - |phi| each; sampled every kappa terms, the partial
# sums turn by about SAMPLE_TURN per sample.  Near the alternating turn pi
# the transform amplifies rounding little (Gamma <= 25 on |phi| <= 2.9,
# against up to 2.5e5 at a turn of 1).
SAMPLE_TURN = 2.5

# Largest sampling stride kappa: N = kappa (LEVIN_K + 1) + 1 <= MAX_TERMS.
MAX_STRIDE = (MAX_TERMS - 1) // (LEVIN_K + 1)

# Default bound on the estimated error of the log-sine sum.
TOL = 1e-9


def _levin_coefficients(k):
    """(-1)^j C(k, j) ((beta + j)/(beta + k))^(k - 1), j = 0 .. k, with beta = 1."""
    return tuple((-1) ** j * math.comb(k, j) * ((1.0 + j) / (1.0 + k)) ** (k - 1)
                 for j in range(k + 1))


_LEVIN_C = _levin_coefficients(LEVIN_K)
_LEVIN_C_PREV = _levin_coefficients(LEVIN_K - 1)


def j_n(n):
    """J_n = integral_0^1 x^n ln ln(1/x) dx = -(gamma + ln(n+1))/(n+1)."""
    if n < 0:
        raise DomainError("n must be >= 0")
    return -(EULER_GAMMA + math.log(n + 1)) / (n + 1)


def sampling_stride(phi):
    """kappa = max(1, round(SAMPLE_TURN / (pi - |phi|))), before the MAX_STRIDE cap."""
    return max(1, round(SAMPLE_TURN / pi_gap(phi)))


def levin_t(sums, terms):
    """Levin t-transforms of LEVIN_K + 1 sampled partial sums and their terms.

    Returns (L_K, L_{K-1}, Gamma): the transforms of order K over all the
    samples and of order K - 1 over all but the last, and Sidi's stability
    index Gamma = sum |c_j / omega_j| / |sum c_j / omega_j| of L_K, the
    factor by which L_K can amplify the rounding errors of the sums.
    """
    num = den = num_prev = den_prev = 0j
    spread = 0.0
    # zip stops at the K coefficients of L_{K-1}; the last sample follows
    for c, c_prev, s, a in zip(_LEVIN_C, _LEVIN_C_PREV, sums, terms):
        w = c / a
        num += w * s
        den += w
        spread += abs(w)
        w = c_prev / a
        num_prev += w * s
        den_prev += w
    w = _LEVIN_C[-1] / terms[-1]
    num += w * sums[-1]
    den += w
    spread += abs(w)
    return num / den, num_prev / den_prev, spread / abs(den)


def _levin_sum(weights, p):
    """sum_n weights[n] e^{i n p} by the engine: the stride rule, the samples, levin_t.

    Returns (L_K, L_{K-1}, Gamma, S_N, N, capped), where S_N is the last
    sampled partial sum and capped says the rule asked for a stride above
    MAX_STRIDE.
    """
    wanted = sampling_stride(p)
    stride = min(wanted, MAX_STRIDE)
    sums, terms = kernels.alternating_samples(weights, p, stride, LEVIN_K + 1)
    limit, prev, stability = levin_t(sums, terms)
    n = stride * (LEVIN_K + 1) + 1
    return limit, prev, stability, sums[-1], n, wanted > MAX_STRIDE


def sawtooth_sum(phi):
    """Extrapolated value of sum_{n>=1} (-1)^{n+1} sin(n phi)/n (limit: phi/2)."""
    return -_levin_sum(kernels.SAWTOOTH_WEIGHTS, phi.phi)[0].imag


def _log_sine_sum_impl(phi, tol):
    """Extrapolated log-sine sum: (value, est_error, terms).

    Sums N = kappa (LEVIN_K + 1) + 1 terms and extrapolates the sampled
    partial sums to L_K.  The estimate adds up:

    - the truncation |L_K - L_{K-1}|;
    - the rounding of the sums, eps (ln^2 N / 2 + |L_K|), times Gamma;
    - the rounding of the phases, times Gamma: n phi is rounded by at most
      eps n |phi| / 2, which moves term n by eps |phi| ln n / 2 and the
      sums by at most eps |phi| ln N! / 2.

    The first two are complex moduli.  When |phi| < 1/N every term is
    nearly real, and only about N |phi| of those two errors reaches the
    imaginary part, which is the sum: they are scaled by min(1, N |phi|).

    Where the rule asks for a stride above MAX_STRIDE (pi - |phi| below
    about SAMPLE_TURN / MAX_STRIDE), the estimate is instead |L_K - S_N|
    plus the bound ln(N+1)/(N+1) / cos(phi/2) on the raw tail past S_N,
    plus the rounding.  The tail bound is Abel summation: ln n / n
    decreases for n >= 3, and every partial sum of (-1)^n e^{i n phi} has
    modulus at most 1/cos(phi/2).
    """
    require_regular(phi)
    require_tol(tol)
    p = phi.phi
    limit, prev, stability, last, n, capped = _levin_sum(kernels.LOG_SINE_WEIGHTS, p)
    noise = EPS * (0.5 * math.log(n) ** 2 + abs(limit))
    phase = EPS * 0.5 * abs(p) * math.lgamma(n + 1)
    if capped:
        tail = math.log(n + 1) / (n + 1) / math.cos(0.5 * p)
        est = abs(limit - last) + tail + noise + phase
    else:
        est = (min(1.0, n * abs(p)) * (abs(limit - prev) + stability * noise)
               + stability * phase)
    return limit.imag, est, n


def log_sine_sum(phi, tol=TOL):
    """Extrapolated value of sum_{n>=2} (-1)^n ln n sin(n phi)/n."""
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
