"""Multi-method numerical verification workbench for Malmsten's integral

    I(phi) = integral_0^1 ln ln(1/x) / (1 + 2 x cos phi + x^2) dx,
    -pi < phi < pi.

Six routes are implemented and cross-validated: the gamma closed form
(closed); the Cauchy-product series, summed by Euler's transformation and
by Euler-Maclaurin (series); the assembly through Kummer's Fourier
expansion of ln Gamma (kummer); and double-exponential quadrature of two
integral representations (quad, quad-unit) and of the tangent form at
pi/2 (quad-tan).
"""

from .closed_form import SpecialCase, malmsten_closed, special_value, zero_limit
from .dispatch import evaluate
from .domain import Angle, Evaluation, Method
from .errors import (
    DomainError,
    InternalInconsistencyError,
    MalmstenError,
    NonConvergenceError,
    ZeroAngleError,
)
from .kummer import derived_sum_identity, kummer_closed_eval, kummer_sum
from .quadrature import (
    QuadResult,
    integrand_exp,
    integrand_tan,
    integrand_unit,
    quad_eval,
    quad_jn,
    quad_tan_form,
    quad_unit_eval,
)
from .series import (
    j_n,
    log_sine_sum,
    sawtooth_sum,
    series_eval,
)
from .special_functions import EULER_GAMMA, log_gamma, reflection_product

__version__ = "0.1.0"

# read into the metadata of benchmark runs: the library is plain Python
BACKEND = "python"
