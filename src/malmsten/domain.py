"""Domain types: evaluation angles and tagged numeric results."""

import enum
import math
from dataclasses import dataclass

from .errors import DomainError, ZeroAngleError

# Below this |phi| the kummer route, whose log-gamma difference cancels, keeps
# fewer than 10 digits (relative error 9.5e-10 at 1.01e-6); such angles are
# classified ZERO and served by zero_limit.
ZERO_THRESHOLD = 1e-6


def require_tol(tol):
    """Reject a tolerance that is not finite and positive."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be finite and > 0, got {tol!r}")


def require_regular(angle):
    """Reject a ZERO angle, where a route divides by sin(phi)."""
    if angle.is_zero:
        raise ZeroAngleError(
            f"|phi| is below the zero threshold {ZERO_THRESHOLD}; call zero_limit() instead"
        )


def require_quad_tan_angle(angle):
    """Reject any angle but pi/2 for quad-tan, whose tangent form is I(pi/2) alone."""
    if abs(angle.phi - math.pi / 2) > 1e-12:
        raise DomainError("method quad-tan is only defined at phi = pi/2")


class Method(enum.Enum):
    """The evaluation routes, valued by their README and command-line names."""

    CLOSED = "closed"
    SERIES = "series"
    QUAD = "quad"
    QUAD_UNIT = "quad-unit"
    QUAD_TAN = "quad-tan"
    KUMMER = "kummer"


@dataclass(frozen=True)
class Angle:
    """An evaluation point phi, strictly inside the open interval (-pi, pi)."""

    phi: float

    def __post_init__(self):
        if not abs(self.phi) < math.pi:
            raise DomainError(
                f"phi must lie strictly in (-pi, pi), got {self.phi!r}"
            )

    @property
    def is_zero(self):
        return abs(self.phi) < ZERO_THRESHOLD


@dataclass(frozen=True)
class Evaluation:
    """One numeric result: value, method tag, error estimate, work count."""

    phi: Angle
    value: float
    method: Method
    est_error: float
    work: int

    def __post_init__(self):
        if self.est_error < 0.0:
            raise ValueError("est_error must be nonnegative")
        if self.work < 1:
            raise ValueError("work must be >= 1")
        if self.method is Method.QUAD_TAN:
            require_quad_tan_angle(self.phi)
