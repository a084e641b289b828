"""Tests for the summation kernels: window semantics of the partial sums,
the sampled alternating partial sums of both weight tables against
math.fsum, both kernels bitwise against their earlier per-term forms, and
the phase-weighted averaging (kept for the benchmark's fixed-size kernel
timings) on sums with known limits."""

import cmath
import math
import random

import pytest

from malmsten import kernels, series
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


# each weight table with the formula of its weights
WEIGHTS = ((kernels.LOG_SINE_WEIGHTS, lambda n: (-1) ** n * math.log(n) / n),
           (kernels.SAWTOOTH_WEIGHTS, lambda n: (-1) ** n / n))


@pytest.mark.parametrize("phi, stride, count", [
    (0.5, 1, 21), (-2.0, 2, 21), (2.9, 10, 21), (-3.1, 95, 21), (1e-6, 3, 7)])
def test_alternating_samples_match_fsum_partial_sums(phi, stride, count):
    for weights, weight in WEIGHTS:
        sums, terms = kernels.alternating_samples(weights, phi, stride, count)
        assert len(sums) == len(terms) == count

        def term(n):
            c = weight(n)
            return c * math.cos(n * phi), c * math.sin(n * phi)

        # the terms are formed as the kernel forms them; each of its additions
        # rounds by at most 2**-53 of each part of the running sum, so the sum
        # after m terms is within 2**-52 sum_{n <= m} |S_n| of the exact one
        parts = []
        running = 0j
        bound = 0.0
        samples = iter(zip(sums, terms))
        for n in range(1, stride * count + 2):
            parts.append(term(n))
            running += complex(*parts[-1])
            bound += 2.0 ** -52 * abs(running)
            if n > 1 and (n - 1) % stride == 0:
                s, a = next(samples)
                exact = complex(math.fsum(x for x, _ in parts), math.fsum(y for _, y in parts))
                assert abs(s - exact) <= bound
                assert a == complex(*parts[-1])


def _old_alternating_samples(weights, phi, stride, count):
    """alternating_samples with its earlier term w_n * exp(1j * n phi)."""
    sums = []
    terms = []
    total = 0j
    for n in range(1, stride * count + 2):
        a = weights[n] * cmath.exp(1j * (n * phi))
        total += a
        if n > 1 and (n - 1) % stride == 0:
            sums.append(total)
            terms.append(a)
    return sums, terms


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


_RNG = random.Random(13)
# pi - 1e-12 and 3.13 are past the stride cap, where the engine sums the most terms
SEEDED_PHI = ([math.pi - 1e-12, -(math.pi - 1e-12), 3.13, -3.13, 1e-9]
              + [_RNG.uniform(-math.pi, math.pi) for _ in range(10)])


@pytest.mark.parametrize("phi", SEEDED_PHI)
def test_alternating_samples_bitwise_old_form(phi):
    count = series.LEVIN_K + 1
    strides = {1, 2, 10, min(series.sampling_stride(phi), series.MAX_STRIDE), series.MAX_STRIDE}
    for weights, _ in WEIGHTS:
        for stride in sorted(strides):
            assert (kernels.alternating_samples(weights, phi, stride, count)
                    == _old_alternating_samples(weights, phi, stride, count))


def test_alternating_samples_at_zero_differ_in_signs_of_zero_only():
    # At phi = 0 the term of a negative weight is rect(w, 0) = (w, -0.0),
    # and w * exp(0j) = (w, +0.0): the signs of zero in the terms differ,
    # which == does not see.  The sums start at +0 and stay +0 or nonzero.
    for weights, _ in WEIGHTS:
        sums, terms = kernels.alternating_samples(weights, 0.0, 1, 30)
        old_sums, old_terms = _old_alternating_samples(weights, 0.0, 1, 30)
        assert sums == old_sums and terms == old_terms
        assert [math.copysign(1.0, s.imag) for s in sums] == [1.0] * 30
        assert [math.copysign(1.0, a.imag) for a in terms] == [math.copysign(1.0, weights[n])
                                                              for n in range(2, 32)]
        assert [math.copysign(1.0, a.imag) for a in old_terms] == [1.0] * 30


@pytest.mark.parametrize("theta, n_terms, window", [
    (1.5 * math.pi, 10_000, 1),  # verify's raw log-sine check
    (0.0, 50, 49), (math.pi - 1e-12, 2000, 1), (2.0 * math.pi * 0.37, 200, 1)]
    + [(_RNG.uniform(-7.0, 7.0), _RNG.randint(2, 3000), _RNG.randint(1, 40)) for _ in range(6)])
def test_log_sine_partials_bitwise_old_form(theta, n_terms, window):
    assert (kernels.log_sine_partials(theta, n_terms, window)
            == _old_log_sine_partials(theta, n_terms, window))


def test_alternating_samples_refuse_bad_sizes():
    for weights, _ in WEIGHTS:
        for stride, count in ((0, 5), (1, 0), (100, 20)):
            with pytest.raises(ValueError):
                kernels.alternating_samples(weights, 1.0, stride, count)
        sums, _ = kernels.alternating_samples(weights, 1.0, 1, kernels.ALTERNATING_TERMS - 1)
        assert len(sums) == kernels.ALTERNATING_TERMS - 1


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
