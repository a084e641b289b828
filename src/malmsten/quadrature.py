"""Independent quadrature oracle for every integral representation.

Primary scheme: double-exponential (tanh-sinh) quadrature.  `quad_eval`
integrates e^{-u} ln u / (1 + 2 e^{-u} cos phi + e^{-2u}) split at u = 1
into a tanh-sinh piece on [0, 1] (ln u endpoint singularity) and an
exp-sinh piece on [1, inf) (exponential decay).  `quad_unit_eval` applies
tanh-sinh straight to ln ln(1/x) on (0, 1) as a structurally different
second oracle.  Node count doubles per level; termination when two
successive levels agree within `tol` (absolute or relative), est_error =
last inter-level delta.  Node sums use math.fsum (compensated accumulation).

Node tables.  The abscissae and weights do not depend on phi, so each node
is computed once per process and kept in `_NODES`, keyed by transform and
interval: ("ts", a, b) for tanh-sinh on (a, b), ("es", a) for exp-sinh on
(a, inf).  Under that key sits the centre node; under (key, level, sign)
sits one whole strip, that level's nodes for the sign of t as a tuple of
(weight, x, dist_a, dist_b) in order of j, up to where the transform leaves
representable range or t passes _T_MAX.  The first evaluation to reach a
strip builds all of it, under a lock, so no node is computed twice and no
reader sees a part-built strip; an evaluation then walks only as far along
it as its terms stay large.  Every angle, route and tolerance reads the
same tables, and a node's value does not depend on which evaluation stored
it, so neither does a result.
"""

import math
import threading
from dataclasses import dataclass
from functools import partial

from .domain import require_tol
from .errors import DomainError, InternalInconsistencyError
from .special_functions import EPS

# The integral diverges at |phi| = pi; accuracy claims stop at this band.
GUARD_BAND = 1e-3

# Default tolerance, and the halvings of the step h after the first level.
TOL = 1e-12
MAX_LEVEL = 10

_T_MAX = 6.5
_Q_MIN = 1e-280

# key -> centre node, (key, level, sign) -> strip
_NODES = {}
_NODES_LOCK = threading.Lock()


@dataclass(frozen=True)
class QuadResult:
    value: float
    est_error: float
    nodes: int
    converged: bool


def _build_once(name, build, *args):
    """The entry stored under `name`, built as build(*args) on first use."""
    entry = _NODES.get(name)
    if entry is None:
        with _NODES_LOCK:
            entry = _NODES.get(name)
            if entry is None:
                entry = _NODES[name] = build(*args)
    return entry


def _strip(node, sign, h, step_j):
    """The nodes at t = sign * j * h, j = 1, 1 + step_j, ..., while j * h <=
    _T_MAX, up to the first None."""
    strip = []
    j = 1
    while j * h <= _T_MAX:
        entry = node(sign * j * h)
        if entry is None:
            break
        strip.append(entry)
        j += step_j
    return tuple(strip)


def _refine_levels(key, node, f, tol):
    """Shared level driver: trapezoid in t, node doubling per level.

    node(t) returns the phi-free (weight, x, dist_a, dist_b) at abscissa t,
    or None once the transform has pushed the node past representable
    range; each node's term is weight * f(x, dist_a, dist_b).  The nodes
    are read from the tables stored under `key`, built there on first use.
    """
    require_tol(tol)
    weight, x, da, db = _build_once(key, node, 0.0)
    terms = [weight * f(x, da, db)]

    def add_strip(level, h, step_j, total):
        scale = max(abs(total), 1.0)
        for sign in (1.0, -1.0):
            strip = _build_once((key, level, sign), _strip, node, sign, h, step_j)
            small = 0
            for weight, x, da, db in strip:
                v = weight * f(x, da, db)
                terms.append(v)
                if abs(v) <= 1e-20 * scale:
                    small += 1
                    if small >= 2:
                        break
                else:
                    small = 0

    # one fsum per level serves both that level's value and the next scale
    h = 1.0
    add_strip(0, h, 1, terms[0])
    total = math.fsum(terms)
    value = h * total
    est = math.inf
    for level in range(1, MAX_LEVEL + 1):
        h *= 0.5
        add_strip(level, h, 2, total)
        total = math.fsum(terms)
        new_value = h * total
        est = abs(new_value - value)
        value = new_value
        if est <= max(tol, tol * abs(value)):
            # never report below ~1 ulp of the value; deeper refinement can
            # still move the last bit even when the inter-level delta is 0
            est = max(est, EPS * max(1.0, abs(value)))
            return QuadResult(value, est, len(terms), True)
    return QuadResult(value, est, len(terms), False)


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


def _tanh_sinh(f, a, b, tol):
    """Tanh-sinh on (a, b); f is called as f(x, dist_a, dist_b)."""
    return _refine_levels(("ts", a, b), partial(_tanh_sinh_node, a, b), f, tol)


def _exp_sinh_node(a, t):
    g = 0.5 * math.pi * math.sinh(t)
    if g > 690.0:
        return None
    eg = math.exp(g)
    if eg < _Q_MIN:
        return None
    return 0.5 * math.pi * math.cosh(t) * eg, a + eg, eg, None


def _exp_sinh(f, a, tol):
    """Exp-sinh on (a, inf); f is called as f(x, dist_a, None)."""
    return _refine_levels(("es", a), partial(_exp_sinh_node, a), f, tol)


def _denominator_parts(phi_val):
    """cos(phi), sin(phi)^2 and 1 + cos(phi), for both integrands.

    Both write 1 + 2 y cos(phi) + y^2 as (y + cos phi)^2 + sin^2 phi, with
    y = x or e^{-u}.  Where cos(phi) < -0.5, y + cos(phi) loses digits, so
    each regroups it as (1 + cos phi) - (1 - y), with 1 + cos(phi) formed
    here from the half angle and 1 - y from its own endpoint distance.  The
    denominator stays inline in each integrand: it runs once per node.
    """
    return math.cos(phi_val), math.sin(phi_val) ** 2, 2.0 * math.cos(0.5 * phi_val) ** 2


def _denominator_error(den, at):
    return InternalInconsistencyError(f"integrand denominator {den!r} at {at}")


def _unit_f(phi_val):
    c, s2, one_plus_c = _denominator_parts(phi_val)

    def f(x, da, db):
        # ln(1/x) near x = 1 via log1p of the endpoint distance
        inner = -math.log1p(-db) if x > 0.5 else -math.log(da)
        xc = one_plus_c - db if c < -0.5 else x + c
        den = xc * xc + s2
        if not den > 0.0:
            raise _denominator_error(den, f"x = {x!r}")
        return math.log(inner) / den

    return f


def _exp_f(phi_val):
    c, s2, one_plus_c = _denominator_parts(phi_val)

    def f(u, da, db):
        e = math.exp(-u)
        ec = math.expm1(-u) + one_plus_c if c < -0.5 else e + c
        den = ec * ec + s2
        if not den > 0.0:
            raise _denominator_error(den, f"u = {u!r}")
        return e * math.log(u) / den

    return f


def integrand_unit(x, phi):
    """ln ln(1/x) / (1 + 2 x cos phi + x^2), pointwise."""
    if not 0.0 < x < 1.0:
        raise DomainError(f"x must lie strictly in (0, 1), got {x!r}")
    return _unit_f(phi.phi)(x, x, 1.0 - x)


def integrand_exp(u, phi):
    """e^{-u} ln u / (1 + 2 e^{-u} cos phi + e^{-2u}), pointwise."""
    if not u > 0.0:
        raise DomainError(f"u must be positive, got {u!r}")
    return _exp_f(phi.phi)(u, u, None)


def _check_guard_band(p):
    if abs(p) > math.pi - GUARD_BAND:
        raise DomainError(
            f"quadrature guard band: |phi| must be <= pi - {GUARD_BAND}, got {p!r}"
        )


def _split_at_one(f, tol):
    """Integral of f over (0, inf): tanh-sinh on [0, 1], exp-sinh on [1, inf)."""
    # half the tolerance per piece, so the combined estimate still honours tol
    left = _tanh_sinh(f, 0.0, 1.0, 0.5 * tol)
    right = _exp_sinh(f, 1.0, 0.5 * tol)
    return QuadResult(
        value=left.value + right.value,
        est_error=left.est_error + right.est_error,
        nodes=left.nodes + right.nodes,
        converged=left.converged and right.converged,
    )


def quad_eval(phi, tol=TOL):
    """I(phi) by the exp-substituted representation on (0, inf)."""
    _check_guard_band(phi.phi)
    return _split_at_one(_exp_f(phi.phi), tol)


def quad_unit_eval(phi, tol=TOL):
    """I(phi) by tanh-sinh straight on the unit-interval representation."""
    _check_guard_band(phi.phi)
    return _tanh_sinh(_unit_f(phi.phi), 0.0, 1.0, tol)


def _tan_f(y, da, db):
    # da = y - pi/4, db = pi/2 - y; tan(y) = (1 + tan da)/(1 - tan da) = cot(db)
    if da <= math.pi / 8:
        td = math.tan(da)
        lntan = math.log1p(td) - math.log1p(-td)
    else:
        lntan = -math.log(math.tan(db))
    return math.log(lntan)


def integrand_tan(y):
    """ln ln tan y on (pi/4, pi/2), pointwise (zero crossing at y = arctan e)."""
    if not math.pi / 4 < y < math.pi / 2:
        raise DomainError(f"y must lie strictly in (pi/4, pi/2), got {y!r}")
    return _tan_f(y, y - math.pi / 4, math.pi / 2 - y)


def quad_tan_form(tol=TOL):
    """Vardi's tangent form: integral_{pi/4}^{pi/2} ln ln tan y dy."""
    return _tanh_sinh(_tan_f, math.pi / 4, math.pi / 2, tol)


def quad_jn(n, tol=TOL):
    """J_n = integral_0^1 x^n ln ln(1/x) dx, via the e^{-(n+1)u} ln u form."""
    if n < 0:
        raise DomainError("n must be >= 0")
    k = n + 1

    def f(u, da, db):
        return math.exp(-k * u) * math.log(u)

    return _split_at_one(f, tol)
