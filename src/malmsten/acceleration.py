"""Depth policy and error budget for the phase-weighted Euler averaging.

The averaging step S'_k = (S_{k+1} - z S_k)/(1 - z) removes one power of the
tail's oscillation factor z per application, at the price of amplifying
rounding noise by up to 2/|1 - z| per application.  The depth is therefore
capped so the total amplification stays below AMP_LIMIT, and the reported
error estimate includes the corresponding rounding budget.  Near |1 - z| -> 0
(phi approaching +-pi in the alternating forms) the cap shrinks and the
estimate widens honestly.
"""

import math

from . import kernels
from .special_functions import EPS

AMP_LIMIT = 1e6

# Averaging steps requested of every accelerated sum, and the trailing
# partial sums its callers keep for it.
DEPTH = 16
WINDOW = DEPTH + 24


def effective_depth(z, n_partials):
    gap = abs(1.0 - z)
    cap = DEPTH
    if gap > 0.0 and gap < 2.0:
        ratio = 2.0 / gap
        cap = int(math.log(AMP_LIMIT) / math.log(ratio))
    elif gap == 0.0:
        cap = 0
    return max(1, min(DEPTH, cap, n_partials - 2))


def accelerated_limit(partials, z):
    """Accelerate a windowed partial-sum sequence with oscillation factor z.

    Returns (complex limit, est_error, depth_used); est_error combines the
    last averaging delta with the rounding-amplification budget.
    """
    depth = effective_depth(z, len(partials))
    value, est = kernels.weighted_average_limit(partials, z, depth)
    gap = abs(1.0 - z)
    amp = (2.0 / gap) ** depth if 0.0 < gap < 2.0 else 1.0
    rounding = amp * EPS * max(1.0, abs(value))
    return value, est + rounding, depth
