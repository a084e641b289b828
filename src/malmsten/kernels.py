"""Summation kernels: the raw partial sums behind `kummer_partial` and
verify's raw-partial check.

The series route sums its series in closed form (`series`: Euler's
transformation and Euler-Maclaurin) and uses none of these kernels.

  log_sine_partials(theta, n_terms, window)
      last `window` partial sums of  sum_{n=2}^{m} (ln n / n) e^{i n theta}

  weighted_average_limit(partials, z, depth)
      iterated phase-weighted averaging S'_k = (S_{k+1} - z S_k) / (1 - z)
      applied `depth` times; returns (limit, |last - previous| estimate).
      For z = -1 this is exactly classical Euler averaging of an
      alternating series.

log_sine_partials forms each term as cmath.rect(w, x) = (w cos x, w sin x),
one C call, and adds it to one complex running sum.  Each term is bitwise
w cos x and w sin x formed one by one, and w * exp(1j * x) but for the sign
of a zero part (as at x = 0), which cannot reach a partial sum: the sum
starts at +0 and has +0 + -0 = +0.  tests/test_kernels.py pins the kernel
to the part-by-part form with ==.

No library code calls weighted_average_limit, and every caller asks
log_sine_partials for a window of 1.  Both stay as they are because the
benchmark's fixed-size kernel timings (perfbench/run.py, kernel_micro_us)
call them, with a window of 40; they can go at the benchmark's next edit.
"""

import cmath
import math

# kept for the metadata of benchmark runs; the kernels are plain Python
BACKEND = "python"


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
