"""Tests for the summation kernels: window semantics of the partial sums,
the sampled alternating partial sums against math.fsum, and the
phase-weighted averaging on sums with known limits."""

import cmath
import math

import pytest

from malmsten import kernels
from malmsten.acceleration import DEPTH, accelerated_limit, effective_depth
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


def test_effective_depth_caps_near_unit_gap():
    # as z -> 1 the averaging amplifies noise and the depth must collapse
    deep = effective_depth(cmath.exp(1j * (math.pi / 2)), 100)
    shallow = effective_depth(cmath.exp(1j * 0.01), 100)
    assert deep == DEPTH == 16
    assert shallow < 4
    assert effective_depth(1.0 + 0.0j, 100) == 1


def test_accelerated_limit_reports_wider_error_near_gap():
    theta = 0.05  # z close to 1: little acceleration is possible
    partials = kernels.log_sine_partials(theta, 2000, 40)
    _, est_narrow, depth = accelerated_limit(partials, cmath.exp(1j * theta))
    assert depth < DEPTH
    assert est_narrow > 1e-10


def test_window_semantics():
    for partial_sums in (kernels.log_sine_partials, kernels.recip_sine_partials):
        full = partial_sums(1.0, 50, 49)
        tail = partial_sums(1.0, 50, 5)
        assert tail == full[-5:]
        single = partial_sums(1.0, 50, 1)
        assert single == [full[-1]]


def test_recip_sine_needs_one_term():
    assert kernels.recip_sine_partials(1.0, 1, 40) == [complex(math.cos(1.0), math.sin(1.0))]
    with pytest.raises(ValueError):
        kernels.recip_sine_partials(1.0, 0, 40)


def test_log_sine_partials_start_at_two():
    assert kernels.log_sine_partials(1.0, 2, 40) == [complex(0.5 * math.log(2.0) * math.cos(2.0),
                                                          0.5 * math.log(2.0) * math.sin(2.0))]
    with pytest.raises(ValueError):
        kernels.log_sine_partials(1.0, 1, 40)


@pytest.mark.parametrize("phi, stride, count", [
    (0.5, 1, 21), (-2.0, 2, 21), (2.9, 10, 21), (-3.1, 95, 21), (1e-6, 3, 7)])
def test_alternating_samples_match_fsum_partial_sums(phi, stride, count):
    sums, terms = kernels.alternating_log_sine_samples(phi, stride, count)
    assert len(sums) == len(terms) == count

    def term(n):
        c = (-1) ** n * math.log(n) / n
        return c * math.cos(n * phi), c * math.sin(n * phi)

    # the terms are formed as the kernel forms them; each of its additions
    # rounds by at most 2**-53 of each part of the running sum, so the sum
    # after m terms is within 2**-52 sum_{n <= m} |S_n| of the exact one
    parts = []
    running = 0j
    bound = 0.0
    samples = iter(zip(sums, terms))
    for n in range(2, stride * count + 2):
        parts.append(term(n))
        running += complex(*parts[-1])
        bound += 2.0 ** -52 * abs(running)
        if (n - 1) % stride == 0:
            s, a = next(samples)
            exact = complex(math.fsum(x for x, _ in parts), math.fsum(y for _, y in parts))
            assert abs(s - exact) <= bound
            assert a == complex(*parts[-1])


def test_alternating_samples_refuse_bad_sizes():
    for stride, count in ((0, 5), (1, 0), (100, 20)):
        with pytest.raises(ValueError):
            kernels.alternating_log_sine_samples(1.0, stride, count)
    assert len(kernels.alternating_log_sine_samples(1.0, 1, kernels.ALTERNATING_TERMS - 1)[0]) == (
        kernels.ALTERNATING_TERMS - 1)


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
