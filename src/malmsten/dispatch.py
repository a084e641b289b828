"""The library entry point: I(phi) by any route, named by its `Method` value."""

from .closed_form import malmsten_closed, zero_limit
from .domain import Evaluation, Method, require_quad_tan_angle, require_tol
from .errors import DomainError, NonConvergenceError
from .kummer import kummer_closed_eval
from .quadrature import quad_eval, quad_tan_form, quad_unit_eval
from .series import series_eval


def _quad_to_evaluation(angle, result, method):
    return Evaluation(angle, result.value, method, result.est_error, result.nodes)


def evaluate(angle, method, tol=None):
    """I(phi) at `angle` by the route named `method`, e.g. "quad-unit".

    With a `tol`, the returned est_error is at most max(tol, tol |value|),
    for every route; otherwise NonConvergenceError carries the value and its
    est_error.  The quadrature routes also refine to that `tol`.  ZERO
    angles route to zero_limit for the non-quadrature methods.
    """
    given = {}
    if tol is not None:
        require_tol(tol)
        given["tol"] = tol
    if method == "quad":
        ev = _quad_to_evaluation(angle, quad_eval(angle, **given), Method.QUAD)
    elif method == "quad-unit":
        ev = _quad_to_evaluation(angle, quad_unit_eval(angle, **given), Method.QUAD_UNIT)
    elif method == "quad-tan":
        require_quad_tan_angle(angle)
        ev = _quad_to_evaluation(angle, quad_tan_form(**given), Method.QUAD_TAN)
    elif method not in ("closed", "series", "kummer"):
        raise DomainError(f"unknown method {method!r}")
    elif angle.is_zero:
        ev = zero_limit(angle)
    elif method == "closed":
        ev = malmsten_closed(angle)
    elif method == "series":
        ev = series_eval(angle)
    else:
        ev = kummer_closed_eval(angle)
    if tol is not None and ev.est_error > max(tol, tol * abs(ev.value)):
        raise NonConvergenceError(
            f"{method} route did not reach tol={tol} at phi={angle.phi!r} "
            f"(estimated error {ev.est_error:.3e})",
            best_estimate=ev.value,
            est_error=ev.est_error,
        )
    return ev
