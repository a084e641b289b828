"""Domain types: evaluation angles and tagged numeric results."""

import enum
import math
import sys
from collections import namedtuple

from .errors import DomainError, ZeroAngleError

# Below this |phi| the kummer route, whose log-gamma difference cancels, keeps
# fewer than 8 digits (relative error 9.6e-9 at 1.01e-6 and 1.6e-8 at
# -1.01e-6, against 40-digit mpmath); such angles are classified ZERO and
# served by zero_limit.
ZERO_THRESHOLD = 1e-6

# quad-tan returns I(pi/2) at every angle it accepts.  dI/dphi is -0.41 at
# pi/2, so an angle d from pi/2 adds 0.41 |d| to the error, which the route's
# estimate of 3.2e-16 covers out to 3 ulps of pi/2 and not at 4.  The band
# is 2 ulps wide on each side; parse_phi reads every n*pi/(2n), n < 200,
# within 1 ulp of pi/2.
QUAD_TAN_BAND = 4.5e-16


# The largest finite float.  The bound rejects NaN and the infinities, and an
# int past the float range too, where math.isfinite would raise OverflowError.
_FLOAT_MAX = sys.float_info.max


def require_tol(tol):
    """Reject a tolerance that is not finite and positive."""
    if not 0.0 < tol <= _FLOAT_MAX:
        raise DomainError(f"tol must be finite and > 0, got {tol!r}")


def require_power(n):
    """Reject a power n of J_n that is not finite and >= 0."""
    if not 0 <= n <= _FLOAT_MAX:
        raise DomainError(f"n must be finite and >= 0, got {n!r}")


def require_regular(angle):
    """Reject a ZERO angle, where a route divides by sin(phi)."""
    if angle.is_zero:
        raise ZeroAngleError(
            f"|phi| is below the zero threshold {ZERO_THRESHOLD}; call zero_limit() instead"
        )


def require_quad_tan_angle(angle):
    """Reject any angle but pi/2 for quad-tan, whose tangent form is I(pi/2) alone."""
    if abs(angle.phi - math.pi / 2) > QUAD_TAN_BAND:
        raise DomainError("method quad-tan is only defined at phi = pi/2")


class Method(enum.Enum):
    """The evaluation routes, valued by their README and command-line names."""

    CLOSED = "closed"
    SERIES = "series"
    QUAD = "quad"
    QUAD_UNIT = "quad-unit"
    QUAD_TAN = "quad-tan"
    KUMMER = "kummer"


class Record:
    """Mixin for a read-only record on a namedtuple: it equals and hashes by
    its fields, and only records of its own type, never a plain tuple.
    Subclasses declare `__slots__ = ()`, so no attribute can be set."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        # a plain tuple's own __eq__ would compare fields, so answer for it
        return False if isinstance(other, tuple) else NotImplemented

    # object's: the negation of __eq__, where tuple's own compares fields
    __ne__ = object.__ne__

    __hash__ = tuple.__hash__

    @classmethod
    def _make(cls, iterable):
        # through __new__, so that _replace validates too
        return cls(*iterable)


class Angle(Record, namedtuple("Angle", "phi")):
    """An evaluation point phi, strictly inside the open interval (-pi, pi)."""

    __slots__ = ()

    def __new__(cls, phi):
        if not abs(phi) < math.pi:
            raise DomainError(f"phi must lie strictly in (-pi, pi), got {phi!r}")
        return tuple.__new__(cls, (phi,))

    @property
    def is_zero(self):
        return abs(self.phi) < ZERO_THRESHOLD


class Evaluation(Record, namedtuple("Evaluation", "phi value method est_error work")):
    """One numeric result: value, method tag, error estimate, work count."""

    __slots__ = ()

    def __new__(cls, phi, value, method, est_error, work):
        # `not x >= bound` rejects NaN too
        if not est_error >= 0.0:
            raise ValueError(f"est_error must be nonnegative, got {est_error!r}")
        if not work >= 1:
            raise ValueError(f"work must be >= 1, got {work!r}")
        if method is Method.QUAD_TAN:
            require_quad_tan_angle(phi)
        return tuple.__new__(cls, (phi, value, method, est_error, work))
