"""Tests for the summation kernels: window semantics of the partial sums,
the partial-sum kernel bitwise against its earlier per-term form, and the
phase-weighted averaging (kept for the benchmark's fixed-size kernel
timings) on sums with known limits."""

import cmath
import math

import pytest

from malmsten import kernels
from malmsten.kernels import BACKEND


def test_backend_name():
    assert BACKEND == "python"


def test_averaging_alternating_harmonic():
    # sum (-1)^{n+1}/n = ln 2; oscillation factor z = -1 recovers the
    # classic Euler averaging
    partials = []
    s = 0.0
    for n in range(1, 201):
        s += (-1.0) ** (n + 1) / n
        partials.append(complex(s, 0.0))
    value, est = kernels.weighted_average_limit(partials[-40:], -1.0 + 0.0j, 12)
    assert abs(value.real - math.log(2.0)) <= 1e-12
    assert abs(value.imag) <= 1e-15


def test_raw_partial_sums_converge_slowly():
    # the raw 200-term partial sum of the same series is off by ~1/400
    partials = []
    s = 0.0
    for n in range(1, 201):
        s += (-1.0) ** (n + 1) / n
        partials.append(complex(s, 0.0))
    assert abs(partials[-1].real - math.log(2.0)) > 1e-3


def test_window_semantics():
    full = kernels.log_sine_partials(1.0, 50, 49)
    assert kernels.log_sine_partials(1.0, 50, 5) == full[-5:]
    assert kernels.log_sine_partials(1.0, 50, 1) == [full[-1]]


def test_log_sine_partials_start_at_two():
    assert kernels.log_sine_partials(1.0, 2, 40) == [complex(0.5 * math.log(2.0) * math.cos(2.0),
                                                          0.5 * math.log(2.0) * math.sin(2.0))]
    with pytest.raises(ValueError):
        kernels.log_sine_partials(1.0, 1, 40)


def _old_log_sine_partials(theta, n_terms, window):
    """log_sine_partials with its earlier terms, summed part by part."""
    out = []
    re = im = 0.0
    for n in range(2, n_terms + 1):
        c = math.log(n) / n
        re += c * math.cos(n * theta)
        im += c * math.sin(n * theta)
        if n > n_terms - window:
            out.append(complex(re, im))
    return out


@pytest.mark.parametrize("theta, n_terms, window", [
    (1.5 * math.pi, 10_000, 1),  # verify's raw log-sine check
    (0.0, 50, 49), (math.pi - 1e-12, 2000, 1), (2.0 * math.pi * 0.37, 200, 1),
    # drawn once with random.Random(13)
    (0.43840652585825524, 878, 19), (-6.580364286585715, 519, 39), (6.972094447926084, 1131, 10),
    (-5.81068968625377, 1076, 29), (3.426502139230905, 573, 17), (-2.0196799196366513, 960, 32)])
def test_log_sine_partials_bitwise_old_form(theta, n_terms, window):
    assert (kernels.log_sine_partials(theta, n_terms, window)
            == _old_log_sine_partials(theta, n_terms, window))


@pytest.mark.parametrize("depth", [0, 1, 6, 16, 38, 60])
def test_averaging_matches_the_full_triangle(depth):
    # reference: average every partial sum of the window at every step
    theta = 2.3 + math.pi
    z = cmath.exp(1j * theta)
    partials = kernels.log_sine_partials(theta, 500, 40)
    cur = list(partials)
    for _ in range(depth):
        if len(cur) < 2:
            break
        cur = [(cur[k + 1] - z * cur[k]) / (1.0 - z) for k in range(len(cur) - 1)]
    est = abs(cur[-1] - cur[-2]) if len(cur) >= 2 else abs(cur[-1])
    assert kernels.weighted_average_limit(partials, z, depth) == (cur[-1], est)
