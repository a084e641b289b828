"""Summation kernels: the hot loops behind the series and Kummer routes.

  log_sine_partials(theta, n_terms, window)
      last `window` partial sums of  sum_{n=2}^{m} (ln n / n) e^{i n theta}

  alternating_samples(weights, phi, stride, count)
      the partial sums S_m of  sum_{n=1}^{m} w_n e^{i n phi}  and the terms
      a_m at m = stride (l + 1) + 1, l = 0 .. count - 1, as two lists, for
      one of the import-time weight tables (m <= ALTERNATING_TERMS):
        LOG_SINE_WEIGHTS  w_n = (-1)^n ln n / n  (w_1 = 0)
        SAWTOOTH_WEIGHTS  w_n = (-1)^n / n
      The phase is n phi and the sign the parity of n, so no rounding of
      phi + pi enters the phase.

  weighted_average_limit(partials, z, depth)
      iterated phase-weighted averaging S'_k = (S_{k+1} - z S_k) / (1 - z)
      applied `depth` times; returns (limit, |last - previous| estimate).
      For z = -1 this is exactly classical Euler averaging of an
      alternating series.

The two partial-sum kernels form each term as cmath.rect(w, x) =
(w cos x, w sin x), one C call, and add it to one complex running sum.  Each
term is bitwise w cos x and w sin x formed one by one, and w * exp(1j * x):
exp(+-0 + i x) is exactly (cos x, sin x), and the real-times-complex product
only adds signed zeros to w cos x and w sin x.  That can flip the sign of a
zero part of a term (as at x = 0) but not of a partial sum, which starts at
+0 and has +0 + -0 = +0.  tests/test_kernels.py pins both kernels to those
forms with ==.

No library code calls weighted_average_limit, and every caller asks
log_sine_partials for a window of 1.  Both stay as they are because the
benchmark's fixed-size kernel timings (perfbench/run.py, kernel_micro_us)
call them, with a window of 40; they can go at the benchmark's next edit.
"""

import cmath
import math

# kept for the metadata of benchmark runs; the kernels are plain Python
BACKEND = "python"

# The largest n that alternating_samples sums, and its weight tables for
# n <= ALTERNATING_TERMS, computed once at import.
ALTERNATING_TERMS = 2000
LOG_SINE_WEIGHTS = [0.0, 0.0] + [(-1.0 if n & 1 else 1.0) * (math.log(n) / n)
                                 for n in range(2, ALTERNATING_TERMS + 1)]
SAWTOOTH_WEIGHTS = [0.0] + [(-1.0 if n & 1 else 1.0) / n
                            for n in range(1, ALTERNATING_TERMS + 1)]


def log_sine_partials(theta, n_terms, window):
    if n_terms < 2:
        raise ValueError("n_terms must be >= 2")
    window = min(window, n_terms - 1)
    first_kept = n_terms - window + 1
    log = math.log
    rect = cmath.rect
    out = []
    total = 0j
    for n in range(2, n_terms + 1):
        total += rect(log(n) / n, n * theta)
        if n >= first_kept:
            out.append(total)
    return out


def alternating_samples(weights, phi, stride, count):
    last = stride * count + 1
    if stride < 1 or count < 1 or last > ALTERNATING_TERMS:
        raise ValueError(
            f"need stride, count >= 1 and stride * count + 1 <= {ALTERNATING_TERMS}")
    rect = cmath.rect
    sums = []
    terms = []
    total = 0j
    sample = stride + 1
    for n in range(1, last + 1):
        a = rect(weights[n], n * phi)
        total += a
        if n == sample:
            sums.append(total)
            terms.append(a)
            sample += stride
    return sums, terms


def weighted_average_limit(partials, z, depth):
    if len(partials) < 2:
        raise ValueError("need at least two partial sums")
    # the last two averages after `depth` steps depend on the last depth + 2
    # partial sums alone; averaging the earlier ones would be discarded work
    cur = list(partials[-(depth + 2):])
    denom = 1.0 - z
    for _ in range(depth):
        if len(cur) < 2:
            break
        cur = [(b - z * a) / denom for a, b in zip(cur, cur[1:])]
    if len(cur) >= 2:
        est = abs(cur[-1] - cur[-2])
    else:
        est = abs(cur[-1])
    return cur[-1], est
