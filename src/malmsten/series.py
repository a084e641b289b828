"""Series route for I(phi).

Evaluates I(phi) = (1/sin phi) [ -gamma*phi/2 + sum_{n>=2} (-1)^n ln n sin(n phi)/n ]
from the Cauchy-product expansion of the integrand.  The conditionally
convergent log-sine sum S(phi) is the imaginary part of sum_{n>=2} a_n with
a_n = (-1)^n h(n) e^{i n phi}, h(x) = ln x / x, summed one of two ways:

- For |phi| <= EULER_PHI, by Euler's series transformation (Abramowitz &
  Stegun 3.6.27) after the terms n < EULER_HEAD = M:
  sum_{n>=M} a_n = (-1)^M e^{i M phi} sum_k d_k (-1)^k rho^(k+1) e^{i (k-1) phi/2}
  with rho = 1/(2 cos(phi/2)) and the tabulated d_k = Delta^k g(0),
  g(j) = h(M + j).  It converges as rho^k A_k for rho < 1, that is for
  |phi| < 2 pi/3, and every phase is an integer multiple of phi/2.
- For |phi| > EULER_PHI the terms alternate less and less: with
  theta = pi - |phi|, a_n = h(n) e^{-+ i n theta} turns by theta alone.
  The sum is +-Im T(theta), T(theta) = sum_{n>=2} h(n) e^{i n theta}, and T
  is summed by Euler-Maclaurin (DLMF 2.10.1): the terms below EM_HEAD, the
  Bernoulli corrections at EM_HEAD and the tail integral, whose closed form
  comes from the series of E_1 (DLMF 6.6.2) and of the incomplete gamma
  function (DLMF 8.7.1).  Its tables are sized for theta = pi - EULER_PHI.

The sawtooth series sum_{n>=1} (-1)^{n+1} sin(n phi)/n = phi/2, the source
of the gamma*phi/2 term (`sawtooth_sum`), takes the same two branches with
h(x) = 1/x: d_k = (-1)^k k! (M-1)!/(M+k)!, and the tail integral E_1, whose
imaginary part is pi/2 - Si(theta M).  Each branch takes the tables of a
family of weights as data.  Kummer's series for ln Gamma
(`kummer.kummer_sum`) is S at another angle.

`assemble` takes I(phi) = -(gamma phi/2 + side)/sin phi from either side
of the log-sine sum identity, side = sum_{n>=2} ln n sin(n(pi - phi))/n:
the series route passes -S(phi), kummer the closed side.  Its estimate
adds the roundings of that step to the side's estimate over |sin phi|.
"""

import math
from bisect import bisect_left
from itertools import accumulate, repeat
from operator import mul

from .domain import Evaluation, Method, require_power, require_regular
from .special_functions import EPS, EULER_GAMMA, pi_gap, stop_table

# Up to this |phi| a series is summed by Euler's transformation, where
# rho = 1/(2 cos(phi/2)) <= 0.93 and the log-sine sum needs at most 39
# transformed terms; past it, by Euler-Maclaurin.
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
# |sin(phi) I(phi)| >= 0.1 and of |phi/2| >= 0.5 on 1 <= |phi| <= EULER_PHI.
_EULER_TRUNCATION = 1e-17

# Euler-Maclaurin sums the terms n < EM_HEAD and corrects the tail integral
# from EM_HEAD with the Bernoulli terms B_2 .. B_{2 EM_ORDER}.
EM_HEAD = 6
EM_ORDER = 16

# The largest theta = pi - |phi| that Euler-Maclaurin takes.
_EM_THETA = math.pi - EULER_PHI

# B_2, B_4, ..., B_{2 EM_ORDER + 2} (DLMF Table 24.2.1); the last sizes the remainder.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
              -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138,
              -236364091 / 2730, 8553103 / 6, -23749461029 / 870,
              8615841276005 / 14322, -7709321041217 / 510, 2577687858367 / 6)

# The tail integral's series stops after its first term below this, far
# under one ulp of |sin(phi) I(phi)| >= 0.503 (least at |phi| = EULER_PHI)
# and of |phi/2| >= 1 on |phi| >= EULER_PHI.
_TAIL_CUT = 1e-20


def j_n(n):
    """J_n = integral_0^1 x^n ln ln(1/x) dx = -(gamma + ln(n+1))/(n+1)."""
    require_power(n)
    return -(EULER_GAMMA + math.log(n + 1)) / (n + 1)


def _euler_tables(first, h, d, a):
    """Euler's transformation of sum_{n>=first} (-1)^n h(n) e^{i n phi}.

    Takes d_k = Delta^k g(0), g(j) = h(M + j), M = EULER_HEAD, and A_k, a
    bound on every |d_j| with j >= k.  Returns the head pairs
    ((-1)^n h(n), 2n) for first <= n < M, the tail's (-1)^(M+k) d_k and
    phase multiples 2M - 1 + k, the A_k, the stop table and the rounding
    constants.

    Taking the terms k < K of the transformed series leaves at most
    A_K rho^(K+1) / (1 - rho), since |d_k| <= A_K for k >= K, so
    K = bisect_left(stops, rho) is the first K whose bound meets
    _EULER_TRUNCATION at rho, with the `stop_table` of the A_K from the
    power 1; the estimate takes the bound itself.  The table ends at the
    largest rho = 1/(2 cos(EULER_PHI/2)).

    The rounding constants bound the first-order rounding of the terms
    c sin(m phi/2), in units of eps/2, with c = (-1)^n h(n) and m = 2n for
    the head, c = d_k rho^(k+1) and m = 2M - 1 + k for the tail, at that
    largest rho:
    - the phase m (phi/2), rounded by eps/2, moves sin by (eps/2) m |phi/2|;
    - h, sin and the product add at most 6 roundings to a head term;
      rho (2 by cos and 1 by the divide), rho^(k+1) (k more) and d_k, the
      two products and sin add 4k + 9 to a tail term;
    and |sin x| <= min(1, |x|).  Returned are eps/2 times sum |c| m,
    sum |c| f and sum |c| f m, f the roundings of a term.
    """
    head = tuple(((-1.0 if n & 1 else 1.0) * h(n), 2.0 * n) for n in range(first, EULER_HEAD))
    rho_max = 0.5 / math.cos(0.5 * EULER_PHI)
    stops = stop_table(a, 1, 1.0, _EULER_TRUNCATION, rho_max)
    tail_d = tuple((-1.0 if (EULER_HEAD + k) & 1 else 1.0) * dk for k, dk in enumerate(d))
    tail_m = tuple(2.0 * EULER_HEAD - 1.0 + k for k in range(len(d)))
    phase = sum(abs(w) * m for w, m in head)
    ops = 6.0 * sum(abs(w) for w, _ in head)
    ops_slope = 6.0 * phase
    c, f = rho_max, 9
    for dk, m in zip(d, tail_m):
        c_d = c * abs(dk)
        phase += c_d * m
        ops += c_d * f
        ops_slope += c_d * f * m
        c *= rho_max
        f += 4
    return (head, tail_d, tail_m, a, stops,
            0.5 * EPS * phase, 0.5 * EPS * ops, 0.5 * EPS * ops_slope)


def _log_sine_weight(x):
    """h(x) = ln x / x, the weight of the log-sine series."""
    return math.log(x) / x


def _sawtooth_weight(x):
    """h(x) = 1/x, the weight of the sawtooth series."""
    return 1.0 / x


# d_k = (-1)^k k! (M-1)! / (M+k)!, correctly rounded; |d_k| falls with k, so
# A_k = |d_k|.  K reaches 40 at EULER_PHI.
_SAWTOOTH_D = tuple((-1) ** k * math.factorial(k) * math.factorial(EULER_HEAD - 1)
                    / math.factorial(EULER_HEAD + k) for k in range(41))

_LOG_SINE_EULER = _euler_tables(2, _log_sine_weight, _EULER_D, _EULER_A)
_SAWTOOTH_EULER = _euler_tables(1, _sawtooth_weight, _SAWTOOTH_D, tuple(map(abs, _SAWTOOTH_D)))


def _euler_sum(p, tables):
    """Im sum_n (-1)^n h(n) e^{i n p} for |p| <= EULER_PHI by Euler's transformation.

    Returns (value, est_error, terms), with the `_euler_tables` of h.  The
    value is the fsum of the head sum_{n<M} (-1)^n h(n) sin(n p) and of the
    K transformed terms (-1)^(M+k) d_k rho^(k+1) sin((2M-1+k) p/2), k < K,
    with K from the stop table.  The estimate adds the truncation
    A_K rho^(K+1) / (1 - rho), times min(1, |p/2| (2M - 1 + K + rho/(1 - rho)))
    since |sin((2M-1+k) p/2)| <= (2M-1+k) |p/2|; the rounding of the terms,
    |p/2| phase + min(ops, |p/2| ops_slope); half an ulp of the
    correctly rounded fsum; and one subnormal spacing, 5e-324, per summed
    term.  The last covers the roundings whose results are subnormal, each
    up to half a spacing however small the result: every term's last
    product, the fsum, and p/2, which moves the sum by at most half a
    spacing since |dS/d(p/2)| <= 1 near 0; at least 18 terms are summed.
    The other bounds are proportional to |p| as p -> 0, as the sum is.
    """
    head, tail_d, tail_m, a, stops, phase, ops, ops_slope = tables
    h = 0.5 * p
    rho = 0.5 / math.cos(h)
    k = bisect_left(stops, rho)
    sin = math.sin
    terms = [w * sin(m * h) for w, m in head]
    terms += [d * r * sin(m * h) for d, r, m in zip(tail_d, accumulate(repeat(rho, k), mul), tail_m)]
    value = math.fsum(terms)
    ah = abs(h)
    ratio = rho / (1.0 - rho)
    truncation = a[k] * rho ** k * ratio * min(1.0, ah * (2 * EULER_HEAD - 1 + k + ratio))
    n = len(head) + k
    rounding = ah * phase + min(ops, ah * ops_slope) + 0.5 * EPS * abs(value) + n * 5e-324
    return value, truncation + rounding, n


def _euler_maclaurin_tables(first, h, dh, tail_coef, log_const, log_coef):
    """Euler-Maclaurin for Im sum_{n>=first} h(n) e^{i n theta}, theta <= pi - EULER_PHI.

    Takes h, its derivatives dh[m] = h^(m)(M), m <= 2P + 1, with M = EM_HEAD
    and P = EM_ORDER, and the tail integral's imaginary part
    log_const + log_coef ln theta + sum_j (-1)^j tail_coef(k) theta^k,
    k = 2j + 1.  Returns the head pairs (n, h(n)) for first <= n < M, Q's
    coefficients re[j] + i im[j] highest first, for Horner's rule, the
    bound's coefficients mag0 and mag1 below, the tail table, the
    truncation bound, sum n h(n) over the head (its phases' sensitivity to
    theta), the number of head and Bernoulli terms, and log_const and
    log_coef.

    With w = i theta, the correction g(M)/2 - sum_{k<=P} B_2k/(2k)! g^(2k-1)(M)
    of g(x) = h(x) e^{i theta x} is e^{i theta M} Q(w), by the binomial rule
    g^(j) = e^{i theta x} sum_m C(j, m) h^(m) w^(j-m).  Q is returned as
    Re Q = sum_j re[j] theta^2j and Im Q = theta sum_j im[j] theta^2j.  Since
    theta^2j <= theta^2 _EM_THETA^(2j-2) for j >= 1, the summed magnitudes
    sum_j |re[j]| theta^2j and sum_j |im[j]| theta^2j are at most the parts
    of mag0 + theta^2 mag1, with mag0 = |re[0]| + i |im[0]| and mag1 the sum
    over j >= 1 of (|re[j]| + i |im[j]|) _EM_THETA^(2j-2); the bound is within
    1e-4 of the sums on 0 < theta <= _EM_THETA.  The tail table ends at the
    first term below _TAIL_CUT at theta = _EM_THETA.

    The bound adds, for every theta <= _EM_THETA:
    - the remainder: twice the first omitted Bernoulli term's bound
      |B_{2P+2}|/(2P+2)! sum_m C(2P+1, m) |h^(m)(M)| theta^(2P+1-m), taken
      at _EM_THETA, where it is largest.  Against a 40-digit oracle on
      3000 angles with 0.4 <= theta < _EM_THETA, the error of the
      log-sine sum stayed below 0.013 of the whole estimate;
    - the tail series past its first term below _TAIL_CUT: the ratios
      |tail_coef(k + 2) / tail_coef(k)| fall with k, and term j is under
      the cut only for theta below some theta_j, so every later term
      shrinks by at least rho = max_j min(_EM_THETA, theta_j)^2 times that
      ratio, and the rest is below _TAIL_CUT rho / (1 - rho).
    """
    p = EM_ORDER
    bern = [b / math.factorial(2 * k) for k, b in enumerate(_BERNOULLI, 1)]
    # Q(w) = sum_r c[r] w^r, and w^r = i^r theta^r
    c = [0.5 * dh[0]] + [0.0] * (2 * p - 1)
    comb = math.comb
    for b, n in zip(bern, range(1, 2 * p, 2)):
        for r in range(n + 1):
            c[r] -= b * comb(n, r) * dh[n - r]
    q = [complex((-1) ** j * c[2 * j], (-1) ** j * c[2 * j + 1]) for j in range(p)]
    mag = [complex(abs(a.real), abs(a.imag)) for a in q]
    mag1 = sum(a * _EM_THETA ** (2 * j - 2) for j, a in enumerate(mag) if j)

    # the tail coefficients, and one past the last, for the ratios
    coef = [tail_coef(1)]
    while abs(coef[-1]) * _EM_THETA ** (2 * len(coef) - 1) >= _TAIL_CUT:
        coef.append(tail_coef(2 * len(coef) + 1))
    coef.append(tail_coef(2 * len(coef) + 1))
    tail = [(-1) ** j * a for j, a in enumerate(coef[:-1])]
    rho = max(min(_EM_THETA, (_TAIL_CUT / abs(a)) ** (1.0 / (2 * j + 1))) ** 2
              * abs(b / a) for j, (a, b) in enumerate(zip(coef, coef[1:])))

    j = 2 * p + 1
    remainder = (abs(bern[p]) * sum(math.comb(j, i) * abs(dh[i]) * _EM_THETA ** (j - i)
                                    for i in range(j + 1)))
    head = tuple((n, h(n)) for n in range(first, EM_HEAD))
    return (head, tuple(q[::-1]), mag[0], mag1, tuple(tail),
            2.0 * remainder + _TAIL_CUT * rho / (1.0 - rho),
            sum(n * w for n, w in head), len(head) + p, log_const, log_coef)


def _log_sine_em_tables():
    """h(x) = ln x / x: h^(m)(M) = (-1)^m m! M^(-m-1) (ln M - H_m), and the
    tail integral is ln M E_1(z) + G(z) with z = -i theta M, where
    G(z) = (1/2)(gamma + ln z)^2 + pi^2/12 + sum_k (-z)^k/(k^2 k!) is the
    nu-derivative at 0 of z^-nu Gamma(nu, z).  With
    E_1(z) = -gamma - ln z - sum_k (-z)^k/(k k!) and ln z = ln(theta M) - i pi/2,
    its imaginary part is -(pi/2)(gamma + ln theta) plus the odd powers of
    M^k (1 - k ln M)/(k^2 k!) w^k."""
    m = EM_HEAD
    ln_m = math.log(m)
    harmonic = [0.0]
    for j in range(1, 2 * EM_ORDER + 2):
        harmonic.append(harmonic[-1] + 1.0 / j)
    dh = [(-1) ** j * math.factorial(j) * m ** (-j - 1) * (ln_m - harmonic[j])
          for j in range(2 * EM_ORDER + 2)]
    return _euler_maclaurin_tables(
        2, _log_sine_weight, dh, lambda k: m ** k * (1.0 - k * ln_m) / (k * k * math.factorial(k)),
        -0.5 * math.pi * EULER_GAMMA, -0.5 * math.pi)


def _sawtooth_em_tables():
    """h(x) = 1/x: h^(m)(M) = (-1)^m m! M^(-m-1), and the tail integral is
    E_1(z), z = -i theta M, whose imaginary part is
    pi/2 - Si(theta M) = pi/2 - sum_j (-1)^j (theta M)^k/(k k!), k = 2j + 1."""
    m = EM_HEAD
    dh = [(-1) ** j * math.factorial(j) * m ** (-j - 1) for j in range(2 * EM_ORDER + 2)]
    return _euler_maclaurin_tables(
        1, _sawtooth_weight, dh, lambda k: -m ** k / (k * math.factorial(k)), 0.5 * math.pi, 0.0)


_LOG_SINE_EM = _log_sine_em_tables()
_SAWTOOTH_EM = _sawtooth_em_tables()


def _euler_maclaurin_sum(theta, tables):
    """Im sum_n h(n) e^{i n theta} for 0 < theta <= pi - EULER_PHI by Euler-Maclaurin.

    Returns (value, est_error, terms), with the `_euler_maclaurin_tables`
    of h.  The value adds the head sum_{n<EM_HEAD} h(n) sin(n theta),
    Im e^{i theta M} Q(i theta) and the tail integral.  The estimate adds
    the truncation bound and the rounding: eps times the number of terms
    times the summed magnitudes, plus the phases' share,
    eps theta (sum n h(n) + M |Q|), since theta (from `pi_gap`) and each
    n theta are rounded by half an ulp, and eps |log_coef| for ln theta.
    """
    head, q_c, mag0, mag1, tail_c, truncation, head_slope, fixed, log_const, log_coef = tables
    sin = math.sin
    value = mag = 0.0
    for n, w in head:
        t = w * sin(n * theta)
        value += t
        mag += abs(t)
    tt = theta * theta
    # Re Q and Im Q / theta by one complex Horner's rule: q * tt scales each
    # part by the float tt, bitwise as two real Horner's rules would
    q = 0j
    for a in q_c:
        q = q * tt + a
    x = EM_HEAD * theta
    value += sin(x) * q.real + math.cos(x) * (q.imag * theta)
    power = theta
    used = 0
    for a in tail_c:
        t = a * power
        value += t
        mag += abs(t)
        used += 1
        if abs(t) < _TAIL_CUT:
            break
        power *= tt
    log_part = log_const + log_coef * math.log(theta)
    value += log_part
    terms = fixed + used
    m = mag0 + tt * mag1
    q_mag = m.real + m.imag * theta
    mag += q_mag + abs(log_part)
    rounding = EPS * (terms * mag + theta * (head_slope + EM_HEAD * q_mag)
                      + abs(log_coef))
    return value, truncation + rounding, terms


def _alternating_sum(p, euler, em):
    """Im sum_n (-1)^n h(n) e^{i n p} with the tables of h: (value, est_error, terms).

    For |p| <= EULER_PHI it is `_euler_sum`.  Past it, with theta = pi - |p|
    from `pi_gap`, (-1)^n e^{i n p} = e^{-+ i n theta} for p = +-(pi - theta),
    and it is -+ `_euler_maclaurin_sum`.
    """
    if abs(p) <= EULER_PHI:
        return _euler_sum(p, euler)
    value, est, n = _euler_maclaurin_sum(pi_gap(p), em)
    return (-value if p > 0.0 else value), est, n


def sawtooth_sum(phi):
    """sum_{n>=1} (-1)^{n+1} sin(n phi)/n (limit: phi/2), summed as the log-sine
    sum is: (value, est_error)."""
    value, est, _ = _alternating_sum(phi.phi, _SAWTOOTH_EULER, _SAWTOOTH_EM)
    return -value, est


def log_sine_sum(phi):
    """sum_{n>=2} (-1)^n ln n sin(n phi)/n, summed in closed form: (value, est_error).

    S has no 1/sin(phi), so it takes every angle, 0 and ZERO ones included:
    S(0) = 0, and near 0 Euler's branch gives its slope (1/2) ln(pi/2).
    """
    return _alternating_sum(phi.phi, _LOG_SINE_EULER, _LOG_SINE_EM)[:2]


def assemble(phi, side, side_est, method, work):
    """The `Evaluation` of I(phi) = -(gamma phi/2 + side)/sin phi.

    `side` is sum_{n>=2} ln n sin(n(pi - phi))/n, from either side of the
    log-sine sum identity, within `side_est`.  The estimate is
    (side_est + eps gamma |phi|)/|sin phi| + 3 eps |value|: eps gamma |phi|
    = 2 eps |gamma phi/2| covers the product gamma phi/2 and its sum with
    the side, and 3 eps |value| that sum, the sine and the divide.
    """
    p = phi.phi
    sin_p = math.sin(p)
    value = -(0.5 * EULER_GAMMA * p + side) / sin_p
    est = (side_est + EPS * EULER_GAMMA * abs(p)) / abs(sin_p) + 3.0 * EPS * abs(value)
    return Evaluation(phi, value, method, est, work)


def series_eval(phi):
    """I(phi) assembled from the log-sine series: the identity's series side
    is -S(phi)."""
    require_regular(phi)
    tail, est, work = _alternating_sum(phi.phi, _LOG_SINE_EULER, _LOG_SINE_EM)
    return assemble(phi, -tail, est, Method.SERIES, work)
