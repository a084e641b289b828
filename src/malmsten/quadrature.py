"""Independent quadrature oracle for every integral representation.

Primary scheme: double-exponential quadrature.  `quad_eval` integrates
e^{-u} ln u / (1 + 2 e^{-u} cos phi + e^{-2u}) over (0, inf) as one
exp-exp piece, u = exp(t - e^{-t}) (Takahasi & Mori 1974; Mori &
Sugihara, J. Comput. Appl. Math. 127, 2001), whose nodes cluster double
exponentially at u = 0 (the ln u endpoint singularity) and spread single
exponentially toward infinity, where e^{-u} finishes the decay.
`quad_unit_eval` applies tanh-sinh straight to ln ln(1/x) on (0, 1) as
a structurally different second oracle.  Node count doubles per level.
Every route has one stop rule, the pole bound of `_refine_levels`, from a
rate in a literal table, trusted from the route's first level, the first
that resolves its integrand; the bound is its est_error.  quad and
quad-unit refuse |phi| within GUARD_BAND of pi, where no rate holds.
Past MAX_LEVEL a route raises NonConvergenceError with its best estimate,
so a returned result has converged.  est_error is at least a rounding floor, `ulps` EPS per
term, ulps EPS h sum|terms|, which also covers cancellation in the node
sum: ulps is 2, or 2 + n for the w y^n of `quad_jn`, where y^n carries
the rounding of y n-fold.
`dispatch.evaluate` checks est_error against the caller's `tol`, as it
does every route's.  Node sums use math.fsum (compensated accumulation):
one per level's strip, and one over the strip sums so far.  The floor's
sum|terms| is an fsum too, so that it rounds alike on every Python
version: the builtin sum of floats is compensated from 3.12 on.

Integrand tables.  The abscissae and weights do not depend on phi, and neither
does the numerator of either integrand: only the denominator
(y + cos phi)^2 + sin^2 phi does.  So each integrand's numerator is
computed once per node per process and kept in `_NODES`, one strip per
level: under (table, level) sits the centre node (level 0 only), then that
level's entries at t = +j h and -j h, interleaved in order of j, + before
-, each side up to where the transform leaves representable range or t
passes _T_MAX.  `_TABLES` names the tables and gives each its node
function of t and its numerator: "unit" for quad-unit on (0, 1), "exp"
for quad on (0, inf), and "tan" for quad-tan on (pi/4, pi/2).  Their entries are the phi-free triples (weight * numerator,
y, 1 - y): y = x with numerator ln ln(1/x) for quad-unit, y = e^{-u} with
numerator e^{-u} ln u for quad, and y = 0 for quad-tan.  A term rule turns
entries into terms and bounds their rounding, one rule per kind:
`_phi_terms` divides by the denominator at an angle, for quad, quad-unit
and the pointwise integrands; `_power_terms(n)` gives (weight *
numerator) y^n over a denominator of 1, for `quad_jn` on quad's table
and, with n = 0, for quad-tan.
A warm node so costs one denominator and one divide, with no log or exp.
The first evaluation to reach a strip builds all of it, under a lock, so
no entry is computed twice and no reader sees a part-built strip.

Where a strip is cut.  Beside its entries each strip keeps two phi-free
envelopes, the suffix maxima of |wn| and of |wn| / (1 - y)^2.  On
0 <= y <= 1 the denominator is at least (1 - y)^2 and at least sin^2 phi,
and at least 1 where cos phi >= 0.  So one bisect into each envelope finds,
before any term is computed, where every further term stays below
1e-20 times the last level's total, and an evaluation sums each strip up
to that cut with one list comprehension and one fsum.  Every angle, route
and tolerance reads the same tables, and a stored strip does not depend on
which evaluation stored it, so neither does a result.  Both sides share
one cut, so the side whose terms decay faster is summed as far in j as the
slower one: a few more terms, for one cut, one slice and one fsum a level.
"""

import math
import threading
from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import starmap

from .domain import Record, require_power, require_tol
from .errors import DomainError, InternalInconsistencyError, NonConvergenceError
from .special_functions import EPS, pi_gap

# The integral diverges at |phi| = pi.  quad and quad-unit refuse pi - |phi|
# below GUARD_BAND, the first theta of _POLE_THETA, where no rate holds.
GUARD_BAND = 1e-3

# Default tolerance, and the halvings of the step h after the first level.
TOL = 1e-12
MAX_LEVEL = 10

# Pole-rate stops.  The trapezoid error of step h decays like e^{-2 pi d / h},
# d the distance from the real t axis of the integrand's nearest pole in t
# (Trefethen & Weideman, SIAM Rev. 56, 2014; Tanaka, Sugihara, Murota &
# Mori, Numer. Math. 111, 2009): like r^(2^j) at level j, r = e^{-2 pi d}.
# Both integrands' denominators vanish where y = -e^{+-i phi}, with theta =
# pi - |phi|: quad's at u = +-i theta, and farther out at +-i (2 pi k +-
# theta), whose nearest images under u = exp(t - e^{-t}) sit where t - e^{-t}
# = ln theta +- i pi/2; quad-unit's at x = e^{+-i theta}, whose nearest
# images under x = (1 + tanh((pi/2) sinh t))/2 sit at t = asinh(2 s / pi),
# tanh s = 2x - 1.  Each distance, d(theta) and d_unit(theta), rises with
# theta.  _POLE_RATE[table][k] is e^{-2 pi d}, d = d(_POLE_THETA[k]) rounded
# down to 4 decimals, itself rounded up to 4 significant digits: so its d is
# a lower bound on d from theta = _POLE_THETA[k] on.  d is 0.248 at theta =
# 1e-3, 1.029 at pi - 2 and 1.289 at pi, and d_unit 0.2049, 0.7495 and 1.1101
# there; the maps' own singularities cap both at pi/2.  Past its ends quad-tan's
# integrand ln ln tan y is singular only on the real line, nearest at y = 0,
# which its map sends where quad-unit's sends x = -1: its one rate is
# quad-unit's at theta = pi.  The estimate is POLE_K times the largest
# constant the deltas imply: with a factor of 1 it fell short by 2.7 at
# |phi| = 1.9053 (quad, tol 1e-6).
POLE_K = 100.0
_POLE_THETA = (GUARD_BAND, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 1.3, 1.6,
               2.0, 2.5, 3.0, math.pi)
_POLE_RATE = {
    "exp": (0.2106, 0.1804, 0.1402, 0.1106, 0.08265, 0.05032, 0.0308, 0.01649, 0.0106,
            0.005524, 0.003395, 0.001936, 0.001254, 0.0008836, 0.0006099, 0.0004269,
            0.0003248, 0.0003041),
    "unit": (0.2762, 0.2464, 0.2053, 0.1737, 0.1421, 0.1019, 0.074, 0.04947, 0.03712,
             0.02399, 0.01693, 0.01089, 0.007375, 0.005149, 0.003273, 0.001893,
             0.001095, 0.0009351),
}
_TAN_RATE = _POLE_RATE["unit"][-1]

_T_MAX = 6.5
_Q_MIN = 1e-280

# (table, level) -> strip
_NODES = {}
_NODES_LOCK = threading.Lock()


class QuadResult(Record, namedtuple("QuadResult", "value est_error nodes")):
    __slots__ = ()


def _strip(node, level):
    """node(t) at t = 0 (level 0 only), then at t = +j h and -j h, h = 2^-level,
    interleaved in order of j, + before -: j = 1, 1 + step_j, ... while
    j * h <= _T_MAX, each side up to its own first None; level 0 takes every
    j, a deeper level only the odd j the levels before it lack."""
    h = 0.5 ** level
    step_j = 1 if level == 0 else 2
    strip = [node(0.0)] if level == 0 else []
    signs = (1.0, -1.0)
    j = 1
    while signs and j * h <= _T_MAX:
        live = []
        for sign in signs:
            entry = node(sign * j * h)
            if entry is not None:
                strip.append(entry)
                live.append(sign)
        signs = live
        j += step_j
    return tuple(strip)


def _envelopes(entries):
    """The phi-free suffix maxima of a strip, negated so that they ascend for
    bisect: at each k, -max_{i>=k} |wn_i| and -max_{i>=k} |wn_i| / (1 - y_i)^2."""
    # one walk from the end: cheaper than accumulate(..., max), whose calls
    # to the builtin max cost more than the compares
    neg_e1, neg_e2 = [], []
    e1 = e2 = 0.0
    for wn, _, one_minus_y in reversed(entries):
        a = abs(wn)
        if a > e1:
            e1 = a
        a = a / one_minus_y / one_minus_y
        if a > e2:
            e2 = a
        neg_e1.append(-e1)
        neg_e2.append(-e2)
    return tuple(reversed(neg_e1)), tuple(reversed(neg_e2))


def _strip_at(table, level):
    """The strip stored under (table, level) as (entries, *_envelopes(entries)),
    built from `_TABLES[table]` on first use."""
    name = (table, level)
    strip = _NODES.get(name)
    if strip is None:
        with _NODES_LOCK:
            strip = _NODES.get(name)
            if strip is None:
                node, numerator = _TABLES[table]
                entries = tuple(starmap(numerator, _strip(node, level)))
                strip = _NODES[name] = (entries, *_envelopes(entries))
    return strip


def _cut(strip, small_at, d_min):
    """How many leading entries of `strip` to sum: past them every term is
    at most small_at, for a term wn / den with den >= d_min and
    den >= (1 - y)^2.  The margin of 1/2 covers the rounding of den and of
    the divide."""
    _, neg_e1, neg_e2 = strip
    return min(bisect_left(neg_e1, -0.5 * small_at * d_min), bisect_left(neg_e2, -0.5 * small_at))


def _phi_terms(phi_val):
    """The term rule (d_min, terms, ulps) at the angle phi_val: terms(entries)
    is the list of wn / den, den = 1 + 2 y cos(phi) + y^2 from
    `_denominator_parts`, with d_min <= den and (1 - y)^2 <= den; d_min is
    sin^2 phi, or 1 where cos phi >= 0.  Each term carries at most ulps = 2
    EPS of relative rounding."""
    c, s2, one_plus_c = _denominator_parts(phi_val)
    if c < -0.5:
        return s2, lambda entries: [wn / ((yc := one_plus_c - one_minus_y) * yc + s2)
                                    for wn, _, one_minus_y in entries], 2.0
    return (1.0 if c >= 0.0 else s2), lambda entries: [wn / ((yc := y + c) * yc + s2)
                                                       for wn, y, _ in entries], 2.0


def _power_terms(n):
    """The term rule (d_min, terms, ulps) of wn y^n over a denominator of 1.

    A stored y is within 1 ulp, EPS relative, of its exact value, and y^n
    carries that rounding n-fold: each term carries at most ulps = 2 + n
    times EPS of relative rounding, the 2 of every term and n for y^n."""
    return 1.0, lambda entries: [wn * y ** n for wn, y, _ in entries], 2.0 + n


def _refine_levels(table, rule, tol, first_level, rate):
    """Shared level driver: trapezoid in t, node doubling per level.

    `_strip_at(table, level)` gives the strip of one level, both sides of the
    centre interleaved, whose entries are the phi-free (weight * numerator,
    y, 1 - y) triples; the term rule (d_min, terms, ulps) makes their terms.
    Each strip is summed up to its `_cut`, past which no term on either side
    exceeds 1e-20 times the last level's total (or 1e-20), and each level's
    total is the fsum of the strip sums so far.

    The pole rate r = e^{-2 pi d}, d a lower bound on the distance from the
    real t axis of the nearest point where the integrand stops being
    analytic or stops decaying, sets the error of level j to about C r^(2^j),
    so the delta into level i, about the error of level i - 1, implies a
    constant C_i = delta_i / r^(2^(i-1)).  From level 1 on
    M_j = max(M_{j-1}, delta_j) r_j, with r_1 = r and r_j = r_{j-1}^2, is
    the largest C_i r^(2^j) over i <= j, so one small delta cannot shrink
    it; the estimate is POLE_K M_j, with no confirming level.  The
    refinement stops at the first level from `first_level` on whose
    estimate meets `tol`, and returns it, or the rounding floor if larger.
    Coarser levels can agree by chance, far from the value: at |phi| =
    2.7098 quad's levels 0 and 1 agree to 3.0e-5 while both are 6e-4 off,
    at 3.0756 quad-unit's levels 1 and 2 to 2.7e-3 while both are 2e-2 off.
    Raises NonConvergenceError if no level up to MAX_LEVEL meets `tol`.
    """
    require_tol(tol)
    d_min, strip_terms, ulps = rule
    terms = []  # every term summed, for the node count and the rounding floor
    sums = []  # one fsum per level
    total = 0.0
    value = math.inf
    bound = 0.0  # M_j
    for level in range(MAX_LEVEL + 1):
        small_at = 1e-20 * max(abs(total), 1.0)
        strip = _strip_at(table, level)
        try:
            new = strip_terms(strip[0][:_cut(strip, small_at, d_min)])
        except ZeroDivisionError:
            raise InternalInconsistencyError(
                f"zero integrand denominator at level {level}") from None
        sums.append(math.fsum(new))
        terms += new
        total = math.fsum(sums)
        h = 0.5 ** level
        new_value = h * total
        est = abs(new_value - value)
        value = new_value
        if level >= 1:
            bound = max(bound, est) * rate
            rate *= rate
            est = POLE_K * bound
        if level >= first_level and est <= max(tol, tol * abs(value)):
            # each term carries `ulps` EPS of rounding, and the node sum
            # can cancel: a floor of ulps EPS per term bounds both, where the
            # pole bound (which can be 0) does not
            est = max(est, ulps * EPS * h * math.fsum(map(abs, terms)))
            return QuadResult(value, est, len(terms))
    raise NonConvergenceError(
        f"quadrature did not converge (best estimate {value!r})",
        best_estimate=value,
        est_error=est,
    )


def _tanh_sinh_node(a, b, t):
    width = b - a
    g = 0.5 * math.pi * math.sinh(abs(t))
    if g > 320.0:
        return None
    q = math.exp(-2.0 * g)
    if q < _Q_MIN:
        return None
    w = 0.5 * math.pi * math.cosh(t) * 4.0 * q / ((1.0 + q) * (1.0 + q))
    near = width * q / (1.0 + q)
    far = width - near
    if t >= 0.0:
        return 0.5 * width * w, b - near, far, near
    return 0.5 * width * w, a + near, near, far


def _exp_exp_node(t):
    # u = exp(t - e^{-t}), du/dt = u (1 + e^{-t})
    e = math.exp(-t)
    g = t - e
    if g > 690.0:
        return None
    u = math.exp(g)
    if u < _Q_MIN:
        return None
    return u * (1.0 + e), u, u, None


def _denominator_parts(phi_val):
    """cos(phi), sin(phi)^2 and 1 + cos(phi), for both integrands.

    Both write 1 + 2 y cos(phi) + y^2 as (y + cos phi)^2 + sin^2 phi, with
    y = x or e^{-u}.  Where cos(phi) < -0.5, y + cos(phi) loses digits, so
    each regroups it as (1 + cos phi) - (1 - y), with 1 + cos(phi) formed
    here from the half angle and 1 - y stored beside y, from its own
    endpoint distance.
    """
    return math.cos(phi_val), math.sin(phi_val) ** 2, 2.0 * math.cos(0.5 * phi_val) ** 2


def _unit_numerator(weight, x, da, db):
    """(weight * ln ln(1/x), x, 1 - x) at a node of (0, 1)."""
    # ln(1/x) near x = 1 via log1p of the endpoint distance
    inner = -math.log1p(-db) if x > 0.5 else -math.log(da)
    return weight * math.log(inner), x, db


def _exp_numerator(weight, u, da, db):
    """(weight * e^{-u} ln u, e^{-u}, 1 - e^{-u}) at a node u > 0."""
    e = math.exp(-u)
    return weight * (e * math.log(u)), e, -math.expm1(-u)


def _tan_numerator(weight, y, da, db):
    """(weight * ln ln tan y, 0, 1) at a node of (pi/4, pi/2): da = y - pi/4,
    db = pi/2 - y."""
    # tan(y) = (1 + tan da)/(1 - tan da) = cot(db)
    if da <= math.pi / 8:
        td = math.tan(da)
        lntan = math.log1p(td) - math.log1p(-td)
    else:
        lntan = -math.log(math.tan(db))
    return weight * math.log(lntan), 0.0, 1.0


# table -> (node function of t: (weight, x, dist_a, dist_b) or None, numerator)
_TABLES = {
    "unit": (lambda t: _tanh_sinh_node(0.0, 1.0, t), _unit_numerator),
    "exp": (_exp_exp_node, _exp_numerator),
    "tan": (lambda t: _tanh_sinh_node(math.pi / 4, math.pi / 2, t), _tan_numerator),
}


def integrand_unit(x, phi):
    """ln ln(1/x) / (1 + 2 x cos phi + x^2), pointwise."""
    if not 0.0 < x < 1.0:
        raise DomainError(f"x must lie strictly in (0, 1), got {x!r}")
    _, terms, _ = _phi_terms(phi.phi)
    return terms([_unit_numerator(1.0, x, x, 1.0 - x)])[0]


def integrand_exp(u, phi):
    """e^{-u} ln u / (1 + 2 e^{-u} cos phi + e^{-2u}), pointwise."""
    if not 0.0 < u < math.inf:
        raise DomainError(f"u must be positive and finite, got {u!r}")
    _, terms, _ = _phi_terms(phi.phi)
    return terms([_exp_numerator(1.0, u, u, None)])[0]


def integrand_tan(y):
    """ln ln tan y on (pi/4, pi/2), pointwise (zero crossing at y = arctan e)."""
    if not math.pi / 4 < y < math.pi / 2:
        raise DomainError(f"y must lie strictly in (pi/4, pi/2), got {y!r}")
    return _tan_numerator(1.0, y, y - math.pi / 4, math.pi / 2 - y)[0]


def _pole_rate(table, phi_val):
    """The pole rate r = e^{-2 pi d} of `table`'s integrand at the angle phi_val,
    d a lower bound on the distance of its poles from the real t axis; raises
    DomainError below GUARD_BAND, the first theta of `_POLE_THETA`."""
    k = bisect_right(_POLE_THETA, pi_gap(phi_val)) - 1
    if k < 0:
        raise DomainError(f"quadrature guard band: |phi| must be <= pi - {GUARD_BAND}, "
                          f"got {phi_val!r}")
    return _POLE_RATE[table][k]


def quad_eval(phi, tol=TOL):
    """I(phi) by exp-exp quadrature on (0, inf), stopped by its pole rate from level 2."""
    return _refine_levels("exp", _phi_terms(phi.phi), tol, 2, _pole_rate("exp", phi.phi))


def quad_unit_eval(phi, tol=TOL):
    """I(phi) by tanh-sinh on (0, 1), stopped by its pole rate from level 3."""
    return _refine_levels("unit", _phi_terms(phi.phi), tol, 3, _pole_rate("unit", phi.phi))


def quad_tan_form(tol=TOL):
    """Vardi's tangent form: integral_{pi/4}^{pi/2} ln ln tan y dy, from level 3
    stopped by its one pole rate."""
    # no phi: y^0 = 1, so each term is wn, bitwise wn / 1.0
    return _refine_levels("tan", _power_terms(0), tol, 3, _TAN_RATE)


# `quad_jn`'s (first level, pole rate) at power n is _JN_STOP[k], k the least
# with n + 1 <= e^k.  e^{-(n+1)u} ln u is entire in t but decays only for
# |Im s| < pi/2, s = ln u.  Its mass sits at u ~ 1/(n+1), in a peak about one
# unit wide in s, where on the exp-exp map ds/dt = 1 + e^{-t}, with e^{-t} =
# t + ln(n+1) and t < 0.57, is below 2 + ln(n+1) <= 2 + k.  So the strip's
# edge lies at d >= (pi/2)/(2 + k) from the real t axis, and the rate
# e^{-pi^2/(2 + k)} is rounded up to 4 digits.  The first level is the least
# L >= 2 with 2^L >= 2 + k: its step is at most 1 in s, so the levels
# resolve the peak, which coarser ones can step over.  k <= 37 below 1/EPS.
_JN_STOP = ((2, 0.007192), (2, 0.03726), (2, 0.08481), (3, 0.139), (3, 0.1931), (3, 0.2442),
            (3, 0.2913), (4, 0.334), (4, 0.3728), (4, 0.4077), (4, 0.4394), (4, 0.4681),
            (4, 0.4942), (4, 0.5179), (4, 0.5397), (5, 0.5596), (5, 0.578), (5, 0.5949),
            (5, 0.6105), (5, 0.6251), (5, 0.6386), (5, 0.6511), (5, 0.6629), (5, 0.6739),
            (5, 0.6842), (5, 0.6939), (5, 0.703), (5, 0.7116), (5, 0.7197), (5, 0.7274),
            (5, 0.7347), (6, 0.7416), (6, 0.7481), (6, 0.7543), (6, 0.7603), (6, 0.7659),
            (6, 0.7713), (6, 0.7765))
_JN_AT = tuple(map(math.exp, range(len(_JN_STOP))))


def quad_jn(n, tol=TOL):
    """J_n = integral_0^1 x^n ln ln(1/x) dx, via the e^{-(n+1)u} ln u form.

    Its terms are w y^n from quad's own strips, whose entries are
    (w, y) = (weight * e^{-u} ln u, e^{-u}): no log or exp once they are stored.
    Raises DomainError from n = 1/EPS on, where the rounding of y, carried
    n-fold by y^n, leaves no correct digit.
    """
    require_power(n)
    if n * EPS >= 1.0:
        raise DomainError(f"n must be below 1/EPS = {1.0 / EPS:.4g} for quad_jn, got {n!r}")
    return _refine_levels("exp", _power_terms(n), tol, *_JN_STOP[bisect_left(_JN_AT, n + 1)])
