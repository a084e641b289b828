# cython: cdivision=True
"""Cython summation kernels; same contract as _kernels_py."""

from libc.math cimport cos, log, sin


def log_sine_partials(double theta, int n_terms, int window,
                      int last=1, double complex total=0j):
    if n_terms < last + 1:
        raise ValueError(f"n_terms must be >= {last + 1}")
    if window > n_terms - last:
        window = n_terms - last
    cdef int first_kept = n_terms - window + 1
    cdef double re = total.real, im = total.imag, c, nt
    cdef int n
    out = []
    for n in range(last + 1, n_terms + 1):
        c = log(n) / n
        nt = n * theta
        re += c * cos(nt)
        im += c * sin(nt)
        if n >= first_kept:
            out.append(complex(re, im))
    return out


def recip_sine_partials(double theta, int n_terms, int window):
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    if window > n_terms:
        window = n_terms
    cdef int first_kept = n_terms - window + 1
    cdef double re = 0.0, im = 0.0, c, nt
    cdef int n
    out = []
    for n in range(1, n_terms + 1):
        c = 1.0 / n
        nt = n * theta
        re += c * cos(nt)
        im += c * sin(nt)
        if n >= first_kept:
            out.append(complex(re, im))
    return out


def weighted_average_limit(partials, double complex z, int depth):
    if len(partials) < 2:
        raise ValueError("need at least two partial sums")
    # the last two averages after `depth` steps depend on the last depth + 2
    # partial sums alone
    cdef list cur = list(partials[-(depth + 2):])
    cdef double complex denom = 1.0 - z
    cdef double complex a, b
    cdef int d, k, m
    for d in range(depth):
        m = len(cur)
        if m < 2:
            break
        nxt = []
        for k in range(m - 1):
            a = cur[k]
            b = cur[k + 1]
            nxt.append((b - z * a) / denom)
        cur = nxt
    cdef double est
    if len(cur) >= 2:
        est = abs(cur[-1] - cur[-2])
    else:
        est = abs(cur[-1])
    return cur[-1], est
