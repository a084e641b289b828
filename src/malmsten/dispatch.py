"""The library entry point: I(phi) by any route, named by its `Method` value."""

from .closed_form import malmsten_closed, zero_limit
from .domain import Evaluation, Method, require_quad_tan_angle, require_tol
from .errors import DomainError
from .kummer import kummer_closed_eval
from .quadrature import quad_eval, quad_tan_form, quad_unit_eval
from .series import series_eval


def _quad_to_evaluation(angle, result, method):
    return Evaluation(angle, result.value, method, result.est_error, result.nodes)


def evaluate(angle, method, tol=None):
    """I(phi) at `angle` by the route named `method`, e.g. "quad-unit"; `tol`, if
    given, replaces the series or quadrature route's tolerance, and is checked
    whatever the route.  ZERO angles route to zero_limit for the
    non-quadrature methods."""
    given = {}
    if tol is not None:
        require_tol(tol)
        given["tol"] = tol
    if method == "quad":
        return _quad_to_evaluation(angle, quad_eval(angle, **given), Method.QUAD)
    if method == "quad-unit":
        return _quad_to_evaluation(angle, quad_unit_eval(angle, **given), Method.QUAD_UNIT)
    if method == "quad-tan":
        require_quad_tan_angle(angle)
        return _quad_to_evaluation(angle, quad_tan_form(**given), Method.QUAD_TAN)
    if method not in ("closed", "series", "kummer"):
        raise DomainError(f"unknown method {method!r}")
    if angle.is_zero:
        return zero_limit(angle)
    if method == "closed":
        return malmsten_closed(angle)
    if method == "series":
        return series_eval(angle, **given)
    return kummer_closed_eval(angle)
