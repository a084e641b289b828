"""Seeded inputs, the mpmath oracle and the output check of the benchmark.

The benchmark reaches the program only through `malmsten.cli.evaluate` with
the README method names, so these helpers know nothing of the route modules.
"""

import math
import random

# README method names and the metric prefix each one reports under.
ROUTES = (
    ("closed", "closed"),
    ("kummer", "kummer"),
    ("series", "series"),
    ("quad", "quad"),
    ("quad-unit", "quad_unit"),
)

WORKLOADS = ("sweep-band", "sweep-edge")

POINTS_PER_SWEEP = 1000  # enough for ten angles beyond the 99th percentile
BATCH = 100  # angles per batch in the sweeps; every route evaluates a batch in turn
SERIES_BAND = 2.9


def _strata(rng, n):
    """n uniforms on (0, 1), one in each of n equal strata, in slot order.

    The slots form n // k runs, one per batch of the k batches; batch b
    takes strata b, b + k, b + 2k, ..., so every batch spans (0, 1) evenly.
    The share of angles in any region, and with it the failure share, then
    barely moves from seed to seed or pass to pass.
    """
    k = POINTS_PER_SWEEP // BATCH
    return [(b + j * k + rng.random()) / n for b in range(k) for j in range(n // k)]


def _alternate_signs(xs):
    """Negate every other stratum of a list in `_strata` slot order.

    Stratum b + j * k sits at slot b * (n // k) + j and keeps its sign when
    b + j is even, so neighbouring strata, and neighbouring slots of a
    batch, have opposite signs. Failures near 0 and near pi depend on the
    sign of the angle; seeded signs would move the failure share from seed
    to seed by more than the angles within the strata do.
    """
    per = len(xs) // (POINTS_PER_SWEEP // BATCH)
    return [x if (i // per + i % per) % 2 == 0 else -x for i, x in enumerate(xs)]


def _log_uniform(u, lo, hi):
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def make_points(workload, seed, pass_no):
    """The angles of one pass, a pure function of (workload, seed, pass_no).

    Slot i draws from the same stratum of the workload's range, with the
    same sign, in every pass, so a slot's times from pass to
    pass measure like work; but its angle is new in each pass, so that no
    result the program could keep from an earlier evaluation applies.
    Slots [b * BATCH, (b + 1) * BATCH) form batch b.
    """
    rng = random.Random(f"{workload}:{seed}:{pass_no}")
    if workload == "sweep-band":
        return [-SERIES_BAND + 2.0 * SERIES_BAND * u for u in _strata(rng, POINTS_PER_SWEEP)]
    if workload != "sweep-edge":
        raise ValueError(f"unknown workload {workload!r}")
    half = POINTS_PER_SWEEP // 2
    near_zero = _alternate_signs([_log_uniform(u, 1e-9, 3e-2) for u in _strata(rng, half)])
    near_pi = _alternate_signs(
        [math.pi - _log_uniform(u, 1e-12, 0.25) for u in _strata(rng, half)])
    per = half * BATCH // POINTS_PER_SWEEP
    points = []
    for b in range(0, half, per):
        points.extend(near_zero[b:b + per] + near_pi[b:b + per])
    return points


def oracle(phi):
    """I(phi) at 40 digits as a (hi, lo) pair of floats, hi + lo ~ I(phi).

    Uses the gamma closed form evaluated by mpmath at the exact binary64
    angle, and the exact limit (ln(pi/2) - gamma)/2 at phi = 0.
    """
    import mpmath

    with mpmath.workdps(40):
        if phi == 0.0:
            value = (mpmath.log(mpmath.pi / 2) - mpmath.euler) / 2
        else:
            p = mpmath.mpf(phi)
            t = p / (2 * mpmath.pi)
            value = (mpmath.pi / (2 * mpmath.sin(p))) * (
                2 * t * mpmath.log(2 * mpmath.pi)
                + mpmath.loggamma(mpmath.mpf(0.5) + t)
                - mpmath.loggamma(mpmath.mpf(0.5) - t)
            )
        hi = float(value)
        lo = float(value - hi)
    return hi, lo


class RouteTally:
    """Outcome counts of one route's evaluations against the oracle."""

    def __init__(self):
        self.attempted = 0
        self.raised = 0
        self.est_violations = 0
        self.malformed = 0
        self.err_over_est_max = 0.0

    @property
    def failed(self):
        return self.raised + self.est_violations + self.malformed

    def add(self, outcome, ref):
        """Count one outcome: an Evaluation or the exception it raised."""
        self.attempted += 1
        if isinstance(outcome, BaseException):
            self.raised += 1
            return
        value, est = outcome.value, outcome.est_error
        if not (math.isfinite(value) and math.isfinite(est)):
            self.malformed += 1
            return
        hi, lo = ref
        err = abs((value - hi) - lo)
        ratio = err / est if est > 0.0 else math.inf
        self.err_over_est_max = max(self.err_over_est_max, ratio)
        if err > est:
            self.est_violations += 1
