#!/usr/bin/env python3
"""Benchmark the summation kernels, the series engine, the quadrature
routes with cold and warm integrand tables, and each verify check group.

Times the hot loop that generates complex partial sums (the raw partial
sums of `kummer_partial` and of verify's series check).  Then times the
series engine at a few angles with each of its weight tables, the log-sine
series of the series and Kummer routes and the sawtooth series: the
sampled alternating partial sums plus the Levin t-transform, with the
terms N it sums and the transform's stability index Gamma.  Then the two
sums that replace the engine for the log-sine series, each with the terms
it sums: Euler's transformation for |phi| <= EULER_PHI, and
Euler-Maclaurin within EM_GAP of +-pi.  Then times
quad_eval and quad_unit_eval per point, and quad_jn at n = 0, 7 and 20:
with every table emptied before each call (cold: each node and its
numerator computed), and with every table filled (warm: one denominator,
or one power for J_n, and one divide per node, plus the level driver).
Each point also prints the nodes its evaluation used and the entries a
cold call left stored in each integrand table: a strip is stored whole
the first time an evaluation reaches it, so the tables hold more nodes
than it used.  Last, times each `verify` check group,
`run_checks(only=[group])`, in this process, and all of them together.

Usage: python benchmarks/bench_kernels.py [--terms N] [--repeat R]
"""

import argparse
import math
import timeit

from malmsten import kernels, quadrature, series, verify
from malmsten.domain import Angle
from malmsten.special_functions import pi_gap


def bench(label, fn, repeat):
    best = min(timeit.repeat(fn, number=1, repeat=repeat))
    print(f"  {label:<28} {best * 1e3:9.3f} ms")


def bench_series(repeat):
    print("series engine: best time per call of the sampled partial sums plus the\n"
          "Levin transform, the terms N summed and the stability index Gamma,\n"
          "for each weight table; the log-sine series takes it only between\n"
          "EULER_PHI and pi - EM_GAP, the sawtooth series at every angle")
    count = series.LEVIN_K + 1
    for table in ("LOG_SINE_WEIGHTS", "SAWTOOTH_WEIGHTS"):
        weights = getattr(kernels, table)
        # 2.6 is the last of these below the Euler-Maclaurin crossover
        for phi in (0.5, 2.0, 2.3, 2.6):
            stride = series.sampling_stride(phi)

            def engine(phi=phi, stride=stride, weights=weights):
                return series.levin_t(*kernels.alternating_samples(weights, phi, stride, count))

            best = min(timeit.repeat(engine, number=1, repeat=repeat))
            gamma = engine()[2]
            print(f"  {table:<16} phi={phi:<4} N={stride * count + 1:<5} Gamma={gamma:<8.3g}"
                  f" {best * 1e6:8.1f} us")
    print("log-sine sum by Euler's transformation (|phi| <= EULER_PHI): best time\n"
          "per call and the terms it sums (head and transformed terms)")
    for phi in (0.5, 1.5, series.EULER_PHI):
        best = min(timeit.repeat(lambda phi=phi: series._euler_sum(phi),
                                 number=1, repeat=repeat))
        work = series._euler_sum(phi)[2]
        print(f"  phi={phi!r:<20} work={work:<3} {best * 1e6:8.1f} us")
    print("log-sine sum by Euler-Maclaurin (pi - |phi| < EM_GAP): best time per\n"
          "call and the terms it sums (head, Bernoulli and tail-series terms)")
    for phi in (2.7, 2.9, 3.13, math.nextafter(math.pi, 0.0)):
        theta = pi_gap(phi)
        best = min(timeit.repeat(lambda theta=theta: series._euler_maclaurin_sum(theta),
                                 number=1, repeat=repeat))
        work = series._euler_maclaurin_sum(theta)[2]
        print(f"  phi={phi!r:<20} work={work:<3} {best * 1e6:8.1f} us")


def _stored():
    """Entries stored per integrand table."""
    stored = {}
    for (table, _, _), strip in quadrature._NODES.items():
        stored[table] = stored.get(table, 0) + len(strip)
    return stored


def bench_quadrature(repeat):
    print("quadrature: us per point with empty tables (cold) and with every\n"
          "table filled (warm); the nodes used, and the entries one cold call\n"
          "left stored in each integrand table")
    points = [(f"{name:<15} phi={phi:<4}", route, Angle(phi))
              for name, route in (("quad_eval", quadrature.quad_eval),
                                  ("quad_unit_eval", quadrature.quad_unit_eval))
              for phi in (0.5, 2.0, 2.9)]
    points += [(f"{'quad_jn':<15} n={n:<6}", quadrature.quad_jn, n) for n in (0, 7, 20)]
    for label, route, arg in points:

        def cold(route=route, arg=arg):
            quadrature._NODES.clear()
            route(arg)

        t_cold = min(timeit.repeat(cold, number=1, repeat=repeat))
        stored = _stored()
        t_warm = min(timeit.repeat(lambda: route(arg), number=1, repeat=repeat))
        nodes = route(arg).nodes
        print(f"  {label} nodes={nodes:<4} cold {t_cold * 1e6:8.1f} us"
              f"  warm {t_warm * 1e6:8.1f} us")
        print("    stored: " + ", ".join(f"{table} {n}" for table, n in stored.items()))


def bench_verify(repeat):
    print("verify: best time per run of each check group, run_checks(only=[group])")
    total = 0.0
    for group in verify.GROUPS:
        best = min(timeit.repeat(lambda: verify.run_checks(only=[group]),
                                 number=1, repeat=repeat))
        total += best
        print(f"  {group:<12} {best * 1e3:9.3f} ms")
    print(f"  {'sum':<12} {total * 1e3:9.3f} ms")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--terms", type=int, default=200_000)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    theta = math.pi / 2 + math.pi
    window = 40

    print("summation kernels: best time per call")
    bench(
        f"log_sine_partials(N={args.terms})",
        lambda: kernels.log_sine_partials(theta, args.terms, window),
        args.repeat,
    )

    bench_series(args.repeat)
    bench_quadrature(args.repeat)
    bench_verify(args.repeat)


if __name__ == "__main__":
    main()
