"""Series route for I(phi).

Evaluates I(phi) = (1/sin phi) [ -gamma*phi/2 + sum_{n>=2} (-1)^n ln n sin(n phi)/n ]
from the Cauchy-product expansion of the integrand.  The conditionally
convergent log-sine sum S(phi) is the imaginary part of sum_{n>=2} a_n with
a_n = (-1)^n (ln n / n) e^{i n phi}, summed one of three ways:

- For |phi| <= EULER_PHI, by Euler's series transformation (Abramowitz &
  Stegun 3.6.27) after the terms n < EULER_HEAD = M:
  sum_{n>=M} a_n = (-1)^M e^{i M phi} sum_k d_k (-1)^k rho^(k+1) e^{i (k-1) phi/2}
  with rho = 1/(2 cos(phi/2)) and the tabulated d_k = Delta^k g(0),
  g(j) = ln(M + j)/(M + j).  It converges as rho^k A_k for rho < 1, that
  is for |phi| < 2 pi/3, and every phase is an integer multiple of phi/2.
- For pi - |phi| < EM_GAP the terms stop alternating: with
  theta = pi - |phi|, a_n = (ln n / n) e^{-+ i n theta} turns by theta
  alone.  The sum is +-Im T(theta), T(theta) = sum_{n>=2} (ln n / n) e^{i n theta},
  and T is summed by Euler-Maclaurin (DLMF 2.10.1): the terms below
  EM_HEAD, the Bernoulli corrections at EM_HEAD and the tail integral,
  whose closed form comes from the series of E_1 (DLMF 6.6.2) and of the
  incomplete gamma function (DLMF 8.7.1).
- In the band between, its partial sums are sampled in arithmetic
  progression, S_l = S_{m_l} at m_l = kappa (l + 1) + 1 (Sidi, Practical
  Extrapolation Methods, 2003), and extrapolated with the Levin
  t-transform (Levin 1973), weights omega_l = a_{m_l} and beta = 1.

Kummer's series for ln Gamma (`kummer.kummer_sum`) is S at another angle
and takes the same three branches.  The Levin engine also sums the sawtooth
series sum_{n>=1} (-1)^{n+1} sin(n phi)/n = phi/2, the source of the
gamma*phi/2 term (`sawtooth_sum`), at every angle.
"""

import math
from bisect import bisect_left
from itertools import accumulate, repeat
from operator import mul

from . import kernels
from .domain import Evaluation, Method, require_regular, require_tol
from .errors import DomainError, NonConvergenceError
from .special_functions import EPS, EULER_GAMMA, pi_gap

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

# Up to this |phi| the log-sine sum is summed by Euler's transformation,
# where rho = 1/(2 cos(phi/2)) <= 0.93 and it needs at most 39 terms.
EULER_PHI = 2.0

# Euler's transformation sums the terms n < EULER_HEAD and transforms the rest.
EULER_HEAD = 20

# d_k = Delta^k g(0), g(j) = ln(M + j)/(M + j), M = EULER_HEAD, rounded from
# their 40-digit values.
_EULER_D = (
    0.14978661367769955, -0.004809354738488931, 0.00033402549738357796,
    -3.479047920306989e-05, 4.723806598052679e-06, -7.762053222100033e-07,
    1.4731802277328732e-07, -3.12523151620107e-08, 7.2237360554782055e-09,
    -1.7791194943092795e-09, 4.564176711928247e-10, -1.1855364807952264e-10,
    2.975711015928645e-11, -6.4523563261307245e-12, 6.692609151280862e-13,
    4.9774402483324e-13, -5.439625777308019e-13, 3.877739887465229e-13,
    -2.446141688169584e-13, 1.469680433487057e-13, -8.653943562180236e-14,
    5.062418042504971e-14, -2.963363760339793e-14, 1.7428480773991285e-14,
    -1.0323012390477727e-14, 6.16626510242726e-15, -3.717434569968014e-15,
    2.2627850468417417e-15, -1.39088333985732e-15, 8.633479251703267e-16,
    -5.411083818102411e-16, 3.423830324595713e-16, -2.1866399685796828e-16,
    1.4092085540144463e-16, -9.162106453663148e-17, 6.007908123428248e-17,
    -3.972317742502916e-17, 2.647542762857619e-17, -1.7783108477931322e-17,
    1.2034499734155246e-17,
)

# A_k = integral_0^inf |ln t + gamma| e^{-M t} (1 - e^{-t})^k dt, rounded up.
# d_k = (-1)^(k+1) integral_0^inf (ln t + gamma) e^{-M t} (1 - e^{-t})^k dt,
# since ln x / x = integral_0^inf (-ln t - gamma) e^{-x t} dt, so
# |d_j| <= A_j <= A_k for every j >= k.
_EULER_A = (
    0.1497867229162483, 0.004809407268957644, 0.00033405088369858497,
    3.4802812559896494e-05, 4.729832253518166e-06, 7.791669085032818e-07,
    1.4878291061168678e-07, 3.198179498418932e-08, 7.589604791340291e-09,
    1.9640115679929636e-09, 5.506005673863348e-10, 1.6693367435744036e-10,
    5.482843979730405e-11, 1.956461120927209e-11, 7.592820806481638e-12,
    3.194460115836519e-12, 1.4452637366326024e-12, 6.952703332341097e-13,
    3.5142392801656944e-13, 1.846581461987453e-13, 1.0002534272312087e-13,
    5.5509367963632984e-14, 3.1422768990437296e-14, 1.809017579009036e-14,
    1.0569895952009092e-14, 6.259111990889181e-15, 3.752603128297667e-15,
    2.276193120885618e-15, 1.396025559741813e-15, 8.653307534756182e-16,
    5.418767569958488e-16, 3.426821493628102e-16, 2.1878092868276608e-16,
    1.4096674454287527e-16, 9.163913828564363e-17, 6.008622349836672e-17,
    3.97260086353475e-17, 2.6476553181242484e-17, 1.77835571555163e-17,
    1.2034679043416011e-17,
)

# Euler's transformation takes K terms, the fewest whose truncation bound
# A_K rho^(K+1) / (1 - rho) is below this: under one ulp of
# |sin(phi) I(phi)| >= 0.1 on 1 <= |phi| <= EULER_PHI.
_EULER_TRUNCATION = 1e-17

# Below this pi - |phi| the log-sine sum is summed by Euler-Maclaurin.  At
# and above it the Levin stride is at most round(SAMPLE_TURN / EM_GAP) = 5
# (N <= 106 terms).
EM_GAP = 0.5

# Euler-Maclaurin sums the terms n < EM_HEAD and corrects the tail integral
# from EM_HEAD with the Bernoulli terms B_2 .. B_{2 EM_ORDER}.
EM_HEAD = 8
EM_ORDER = 12

# B_2, B_4, ..., B_{2 EM_ORDER + 2} (DLMF Table 24.2.1); the last sizes the remainder.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
              -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138,
              -236364091 / 2730, 8553103 / 6)

# The tail integral's series stops after its first term below this; every
# log-sine sum within EM_GAP of +-pi exceeds 0.6 in modulus.
_TAIL_CUT = 1e-20

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

    Returns (L_K, L_{K-1}, Gamma, N).  The stride is capped at MAX_STRIDE,
    which only the sawtooth series reaches: the log-sine sum leaves the
    engine at EM_GAP.
    """
    stride = min(sampling_stride(p), MAX_STRIDE)
    sums, terms = kernels.alternating_samples(weights, p, stride, LEVIN_K + 1)
    limit, prev, stability = levin_t(sums, terms)
    return limit, prev, stability, stride * (LEVIN_K + 1) + 1


def sawtooth_sum(phi):
    """Extrapolated value of sum_{n>=1} (-1)^{n+1} sin(n phi)/n (limit: phi/2)."""
    return -_levin_sum(kernels.SAWTOOTH_WEIGHTS, phi.phi)[0].imag


# (-1)^n ln n / n and the multiple 2n of phi/2 for the head n < M; (-1)^(M+k) d_k
# and the multiple 2M - 1 + k of phi/2 for the transformed terms
_EULER_HEAD_PAIRS = tuple(((-1.0 if n & 1 else 1.0) * math.log(n) / n, 2.0 * n)
                          for n in range(2, EULER_HEAD))
_EULER_TAIL_D = tuple((-1.0 if (EULER_HEAD + k) & 1 else 1.0) * d
                      for k, d in enumerate(_EULER_D))
_EULER_TAIL_M = tuple(2.0 * EULER_HEAD - 1.0 + k for k in range(len(_EULER_D)))


def _euler_tables():
    """The stop table of Euler's transformation and its rounding constants.

    Taking the terms k < K of the transformed series leaves at most
    A_K rho^(K+1) / (1 - rho), since |d_k| <= A_K for k >= K.  Entry K of the
    stop table is the rho at which that equals _EULER_TRUNCATION, by three
    steps of the contraction rho <- (tau (1 - rho) / A_K)^(1/(K+1)) from
    entry K - 1.  It grows with K, so K = bisect_left(table, rho) is the
    first K whose bound meets the target at rho, to the accuracy of the
    steps; the estimate takes the bound itself.

    The rounding constants bound the first-order rounding of the terms
    c sin(m phi/2), in units of eps/2, with c = (-1)^n ln n / n and m = 2n
    for the head, c = d_k rho^(k+1) and m = 2M - 1 + k for the tail, at
    the largest rho = 1/(2 cos(EULER_PHI/2)):
    - the phase m (phi/2), rounded by eps/2, moves sin by (eps/2) m |phi/2|;
    - ln, the divide, sin and the product add 6 roundings to a head term;
      rho (2 by cos and 1 by the divide), rho^(k+1) (k more) and d_k, the
      two products and sin add 4k + 9 to a tail term;
    and |sin x| <= min(1, |x|).  Returned with the table are eps/2 times
    sum |c| m, sum |c| f and sum |c| f m, f the roundings of a term, where
    sum_{n<M} (ln n / n) 2n = 2 ln (M-1)!.
    """
    rho_max = 0.5 / math.cos(0.5 * EULER_PHI)
    stops = []
    rho = 0.0
    for k, a in enumerate(_EULER_A, 1):
        for _ in range(3):
            rho = (_EULER_TRUNCATION * (1.0 - rho) / a) ** (1.0 / k)
        stops.append(rho)
        if rho >= rho_max:
            break
    log_head = 2.0 * math.lgamma(EULER_HEAD)
    phase = log_head
    ops = 6.0 * sum(abs(w) for w, _ in _EULER_HEAD_PAIRS)
    ops_slope = 6.0 * log_head
    c, m, f = rho_max, 2 * EULER_HEAD - 1, 9
    for d in _EULER_D:
        c_d = c * abs(d)
        phase += c_d * m
        ops += c_d * f
        ops_slope += c_d * f * m
        c *= rho_max
        m += 1
        f += 4
    return tuple(stops), 0.5 * EPS * phase, 0.5 * EPS * ops, 0.5 * EPS * ops_slope


_EULER_STOPS, _EULER_PHASE, _EULER_OPS, _EULER_OPS_SLOPE = _euler_tables()


def _euler_sum(p):
    """S(p) for 0 < |p| <= EULER_PHI by Euler's transformation: (value, est_error, terms).

    The value is the fsum of the head sum_{n<M} (-1)^n (ln n / n) sin(n p)
    and of the K transformed terms (-1)^(M+k) d_k rho^(k+1) sin((2M-1+k) p/2),
    k < K, with K from the stop table.  The estimate adds the truncation
    A_K rho^(K+1) / (1 - rho), times min(1, |p/2| (2M - 1 + K + rho/(1 - rho)))
    since |sin((2M-1+k) p/2)| <= (2M-1+k) |p/2|; the rounding of the terms,
    |p/2| phase + min(ops, |p/2| ops_slope) with the constants of
    `_euler_tables`; and half an ulp of the correctly rounded fsum.  Each bound is
    proportional to |p| as p -> 0, as S is.
    """
    h = 0.5 * p
    rho = 0.5 / math.cos(h)
    k = bisect_left(_EULER_STOPS, rho)
    sin = math.sin
    terms = [w * sin(m * h) for w, m in _EULER_HEAD_PAIRS]
    terms += [d * r * sin(m * h)
              for d, r, m in zip(_EULER_TAIL_D, accumulate(repeat(rho, k), mul), _EULER_TAIL_M)]
    value = math.fsum(terms)
    ah = abs(h)
    ratio = rho / (1.0 - rho)
    truncation = (_EULER_A[k] * rho ** k * ratio
                  * min(1.0, ah * (2 * EULER_HEAD - 1 + k + ratio)))
    rounding = (ah * _EULER_PHASE + min(_EULER_OPS, ah * _EULER_OPS_SLOPE)
                + 0.5 * EPS * abs(value))
    return value, truncation + rounding, EULER_HEAD - 2 + k


def _euler_maclaurin_tables():
    """The coefficients of the Euler-Maclaurin sum and its truncation bound.

    With h(x) = ln x / x, M = EM_HEAD, P = EM_ORDER and w = i theta, the
    correction g(M)/2 - sum_{k<=P} B_2k/(2k)! g^(2k-1)(M) of
    g(x) = h(x) e^{i theta x} is e^{i theta M} Q(w), by the binomial rule
    g^(j) = e^{i theta x} sum_m C(j, m) h^(m) w^(j-m) and
    h^(m)(M) = (-1)^m m! M^(-m-1) (ln M - H_m).  Q is returned as
    Re Q = sum_j re[j] theta^2j and Im Q = theta sum_j im[j] theta^2j.

    The tail integral is ln M E_1(z) + G(z) with z = -i theta M, where
    G(z) = (1/2)(gamma + ln z)^2 + pi^2/12 + sum_k (-z)^k/(k^2 k!) is the
    nu-derivative at 0 of z^-nu Gamma(nu, z).  With
    E_1(z) = -gamma - ln z - sum_k (-z)^k/(k k!) and ln z = ln(theta M) - i pi/2,
    its imaginary part is -(pi/2)(gamma + ln theta) plus the odd powers
    theta sum_j tail[j] theta^2j of M^k (1 - k ln M)/(k^2 k!) w^k.  The
    table ends at the first term below _TAIL_CUT at theta = EM_GAP.

    The bound adds, for every theta < EM_GAP:
    - the remainder: twice the first omitted Bernoulli term's bound
      |B_{2P+2}|/(2P+2)! sum_m C(2P+1, m) |h^(m)(M)| theta^(2P+1-m), taken
      at EM_GAP, where it is largest.  Against 40-digit sums at M = 8,
      P = 12 and theta from 0.01 to 0.5 the remainder stayed below 0.007
      of that term;
    - the tail series past its first term below _TAIL_CUT: on theta <=
      EM_GAP the odd terms shrink by at least the factor rho below, so the
      rest is below _TAIL_CUT rho / (1 - rho).
    """
    m, p = EM_HEAD, EM_ORDER
    ln_m = math.log(m)
    harmonic = [0.0]
    for j in range(1, 2 * p + 2):
        harmonic.append(harmonic[-1] + 1.0 / j)
    dh = [(-1) ** j * math.factorial(j) * m ** (-j - 1) * (ln_m - harmonic[j])
          for j in range(2 * p + 2)]
    bern = [b / math.factorial(2 * k) for k, b in enumerate(_BERNOULLI, 1)]
    # Q(w) = sum_r c[r] w^r, and w^r = i^r theta^r
    c = [0.5 * dh[0]] + [0.0] * (2 * p - 1)
    for k in range(1, p + 1):
        for r in range(2 * k):
            c[r] -= bern[k - 1] * math.comb(2 * k - 1, r) * dh[2 * k - 1 - r]
    re = tuple((-1) ** j * c[2 * j] for j in range(p))
    im = tuple((-1) ** j * c[2 * j + 1] for j in range(p))

    tail = []
    while not tail or abs(tail[-1]) * EM_GAP ** (2 * len(tail) - 1) >= _TAIL_CUT:
        k = 2 * len(tail) + 1
        tail.append((-1) ** len(tail) * m ** k * (1.0 - k * ln_m) / (k * k * math.factorial(k)))
    k = 2 * len(tail) + 1
    beyond = m ** k * (k * ln_m - 1.0) / (k * k * math.factorial(k))
    rho = EM_GAP ** 2 * max(abs(b / a) for a, b in zip(tail, tail[1:] + [beyond]))

    j = 2 * p + 1
    remainder = (abs(bern[p]) * sum(math.comb(j, i) * abs(dh[i]) * EM_GAP ** (j - i)
                                    for i in range(j + 1)))
    return re[::-1], im[::-1], tuple(tail), 2.0 * remainder + _TAIL_CUT * rho / (1.0 - rho)


# Q's coefficients highest first, for Horner's rule
_EM_RE, _EM_IM, _EM_TAIL, _EM_TRUNCATION = _euler_maclaurin_tables()
_EM_WEIGHTS = tuple((n, math.log(n) / n) for n in range(2, EM_HEAD))
# ln (EM_HEAD - 1)!: sum of n w_n over the head, its phases' sensitivity to theta
_EM_HEAD_SLOPE = math.lgamma(EM_HEAD)
_EM_FIXED_TERMS = len(_EM_WEIGHTS) + EM_ORDER
_HALF_PI = 0.5 * math.pi


def _euler_maclaurin_sum(theta):
    """Im T(theta) for 0 < theta < EM_GAP, T(theta) = sum_{n>=2} (ln n / n) e^{i n theta}.

    Returns (value, est_error, terms).  The value adds the head
    sum_{n<EM_HEAD} (ln n / n) sin(n theta), Im e^{i theta M} Q(i theta)
    and the tail integral (see `_euler_maclaurin_tables`).  The estimate
    adds the truncation bound _EM_TRUNCATION and the rounding: eps times
    the number of terms times the summed magnitudes, plus the phases'
    share, eps theta (ln (M-1)! + M |Q|), since theta (from `pi_gap`) and
    each n theta are rounded by half an ulp, and (pi/2) eps for ln theta.
    """
    sin = math.sin
    head = mag = 0.0
    for n, w in _EM_WEIGHTS:
        t = w * sin(n * theta)
        head += t
        mag += abs(t)
    tt = theta * theta
    re_q = im_q = re_mag = im_mag = 0.0
    for a, b in zip(_EM_RE, _EM_IM):
        re_q = re_q * tt + a
        im_q = im_q * tt + b
        re_mag = re_mag * tt + abs(a)
        im_mag = im_mag * tt + abs(b)
    im_q *= theta
    im_mag *= theta
    x = EM_HEAD * theta
    correction = sin(x) * re_q + math.cos(x) * im_q
    tail = 0.0
    power = theta
    used = 0
    for a in _EM_TAIL:
        t = a * power
        tail += t
        mag += abs(t)
        used += 1
        if abs(t) < _TAIL_CUT:
            break
        power *= tt
    log_part = -_HALF_PI * (EULER_GAMMA + math.log(theta))
    value = head + correction + tail + log_part
    terms = _EM_FIXED_TERMS + used
    mag += re_mag + im_mag + abs(log_part)
    rounding = EPS * (terms * mag + theta * (_EM_HEAD_SLOPE + EM_HEAD * (re_mag + im_mag))
                      + _HALF_PI)
    return value, _EM_TRUNCATION + rounding, terms


def _log_sine_sum_impl(phi, tol):
    """The log-sine sum S(phi): (value, est_error, terms).

    For |phi| <= EULER_PHI it is `_euler_sum`, and for pi - |phi| < EM_GAP
    it is -+Im T(pi - |phi|) by `_euler_maclaurin_sum`.  In the band between
    it sums N = kappa (LEVIN_K + 1) + 1 terms and extrapolates the sampled
    partial sums to L_K.  The estimate then adds up:

    - the truncation |L_K - L_{K-1}|;
    - the rounding of the sums, eps (ln^2 N / 2 + |L_K|), times Gamma;
    - the rounding of the phases, times Gamma: n phi is rounded by at most
      eps n |phi| / 2, which moves term n by eps |phi| ln n / 2 and the
      sums by at most eps |phi| ln N! / 2.
    """
    require_regular(phi)
    require_tol(tol)
    p = phi.phi
    if abs(p) <= EULER_PHI:
        return _euler_sum(p)
    theta = pi_gap(p)
    if theta < EM_GAP:
        # (-1)^n e^{i n phi} = e^{-+ i n theta} for phi = +-(pi - theta)
        value, est, n = _euler_maclaurin_sum(theta)
        return (-value if p > 0.0 else value), est, n
    limit, prev, stability, n = _levin_sum(kernels.LOG_SINE_WEIGHTS, p)
    noise = EPS * (0.5 * math.log(n) ** 2 + abs(limit))
    phase = EPS * 0.5 * abs(p) * math.lgamma(n + 1)
    est = abs(limit - prev) + stability * noise + stability * phase
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
    if est > tol:
        raise NonConvergenceError(
            f"series route did not converge at phi={p!r} "
            f"(estimated error {est:.3e})",
            best_estimate=value,
            est_error=est_error,
        )
    return Evaluation(phi=phi, value=value, method=Method.SERIES,
                      est_error=est_error, work=work)
