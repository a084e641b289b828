"""Summation kernels: the hot loops behind the series and Kummer routes.

  log_sine_partials(theta, n_terms, window, last=1, total=0j)
      last `window` partial sums of  sum_{n=2}^{m} (ln n / n) e^{i n theta};
      resumes after index `last` from its running sum `total` (a previous
      call's final partial sum), summing only n = last+1 .. n_terms

  recip_sine_partials(theta, n_terms, window)
      last `window` partial sums of  sum_{n=1}^{m} (1/n) e^{i n theta}

  weighted_average_limit(partials, z, depth)
      iterated phase-weighted averaging S'_k = (S_{k+1} - z S_k) / (1 - z)
      applied `depth` times; returns (limit, |last - previous| estimate).
      For z = -1 this is exactly classical Euler averaging of an
      alternating series.
"""

import math

# kept for the metadata of benchmark runs; the kernels are plain Python
BACKEND = "python"


def log_sine_partials(theta, n_terms, window, last=1, total=0j):
    if n_terms < last + 1:
        raise ValueError(f"n_terms must be >= {last + 1}")
    window = min(window, n_terms - last)
    first_kept = n_terms - window + 1
    out = []
    re = total.real
    im = total.imag
    for n in range(last + 1, n_terms + 1):
        c = math.log(n) / n
        nt = n * theta
        re += c * math.cos(nt)
        im += c * math.sin(nt)
        if n >= first_kept:
            out.append(complex(re, im))
    return out


def recip_sine_partials(theta, n_terms, window):
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    window = min(window, n_terms)
    first_kept = n_terms - window + 1
    out = []
    re = 0.0
    im = 0.0
    for n in range(1, n_terms + 1):
        c = 1.0 / n
        nt = n * theta
        re += c * math.cos(nt)
        im += c * math.sin(nt)
        if n >= first_kept:
            out.append(complex(re, im))
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
