#!/usr/bin/env python3
"""Benchmark the raw partial log-sine sum, the closed route, the two branches of
the series route, the quadrature routes with cold and warm integrand
tables, and each verify check group.

Times `kummer.log_sine_partial`, the real running sum
sum_{n=2}^{N} (ln n / n) sin(n theta) behind verify's raw-partial check,
series_raw_partial_misses_tolerance.  Then times
`malmsten_closed` per call, with the terms K of the odd-zeta series it
sums (its `work`), on both sides of CLOSED_SPLIT.  Then times
`special_functions.log_gamma` per call, and `kummer_closed_eval`, which
calls it once, per call.  Then times the two
branches that sum the series route's series, for each family of weights,
the log-sine series of the series and Kummer routes and the sawtooth
series, with the terms each sums: Euler's transformation for
|phi| <= EULER_PHI, and Euler-Maclaurin past it.  Then times
quad_eval and quad_unit_eval per point, both also at
pi - 1.0001e-3, just inside the guard band, where they need the most
nodes, quad_tan_form, and quad_jn at n = 0, 7, 20 and 100, where y^n moves the mass of
the integrand toward u = 0 and the nodes with it: with every table
emptied before each call (cold: each node and its numerator computed,
and each strip's envelopes), and with every table filled (warm: one
denominator and one divide per node, or one power and one multiply for
J_n, plus the level driver).
Each point also prints the refinement level it stopped at (the deepest
level a cold call stored), the nodes its evaluation used and the entries a
cold call left stored in each integrand table: a strip is stored whole
the first time an evaluation reaches it, so the tables hold more nodes
than it used.  Then times one `evaluate` of each method at a fixed phi
(quad-tan at pi/2) three ways: with tol=None, with a tol the route meets
there, and as the bare route call, with no dispatch and no tolerance
rule.  Then times each `verify` check group,
`run_checks(only=[group])`, in this process, with its share of the
groups' sum, and all of them together.
Last, times the construction of the records every evaluation builds,
`Angle(phi)` and `Evaluation(...)` by position and by keyword, and a cold
`import malmsten.cli` in a fresh child interpreter (`python -I`).

Usage: python benchmarks/bench_kernels.py [--terms N] [--repeat R]
"""

import argparse
import math
import subprocess
import sys
import timeit
from pathlib import Path

from malmsten import closed_form, evaluate, kummer, quadrature, series, special_functions, verify
from malmsten.domain import Angle, Evaluation, Method
from malmsten.special_functions import pi_gap


def bench(label, fn, repeat):
    best = min(timeit.repeat(fn, number=1, repeat=repeat))
    print(f"  {label:<28} {best * 1e3:9.3f} ms")


def bench_closed(repeat):
    print(f"closed route (direct for |phi| <= CLOSED_SPLIT = {closed_form.CLOSED_SPLIT}, split past\n"
          "it): best time per call and the terms K it sums")
    for phi in (1.01e-6, 0.5, 1.0, 1.0001, 2.0, 2.9, math.pi - 1e-12):
        angle = Angle(phi)
        best = min(timeit.repeat(lambda angle=angle: closed_form.malmsten_closed(angle),
                                 number=100, repeat=repeat)) / 100
        work = closed_form.malmsten_closed(angle).work
        print(f"  phi={phi!r:<20} work={work:<3} {best * 1e6:8.2f} us")


def bench_log_gamma(repeat):
    print("log_gamma (math.lgamma behind its checks), and the kummer route,\n"
          "which calls it once: best time per call")
    number = 1000
    for x in (1e-6, 0.25, 0.75, 1.2):
        best = min(timeit.repeat(lambda x=x: special_functions.log_gamma(x),
                                 number=number, repeat=repeat)) / number
        print(f"  log_gamma x={x!r:<18} {best * 1e9:8.0f} ns")
    for phi in (0.1, 1.0, 2.9):
        angle = Angle(phi)
        best = min(timeit.repeat(lambda angle=angle: kummer.kummer_closed_eval(angle),
                                 number=number, repeat=repeat)) / number
        print(f"  kummer_closed_eval phi={phi!r:<7} {best * 1e6:8.2f} us")


def bench_series(repeat):
    families = (("log-sine", series._LOG_SINE_EULER, series._LOG_SINE_EM),
                ("sawtooth", series._SAWTOOTH_EULER, series._SAWTOOTH_EM))
    print("Euler's transformation (|phi| <= EULER_PHI): best time per call and\n"
          "the terms it sums (head and transformed terms)")
    for name, euler, _ in families:
        for phi in (0.5, 1.5, series.EULER_PHI):
            best = min(timeit.repeat(lambda phi=phi, euler=euler: series._euler_sum(phi, euler),
                                     number=1, repeat=repeat))
            work = series._euler_sum(phi, euler)[2]
            print(f"  {name:<8} phi={phi!r:<20} work={work:<3} {best * 1e6:8.1f} us")
    print("Euler-Maclaurin (|phi| > EULER_PHI): best time per call and the terms\n"
          "it sums (head, Bernoulli and tail-series terms)")
    for name, _, em in families:
        for phi in (2.05, 2.3, 2.6, 2.9, 3.13, math.nextafter(math.pi, 0.0)):
            theta = pi_gap(phi)
            best = min(timeit.repeat(lambda theta=theta, em=em: series._euler_maclaurin_sum(theta, em),
                                     number=1, repeat=repeat))
            work = series._euler_maclaurin_sum(theta, em)[2]
            print(f"  {name:<8} phi={phi!r:<20} work={work:<3} {best * 1e6:8.1f} us")


def _stored():
    """Entries stored per integrand table, and the deepest level stored."""
    stored = {}
    for (table, _), (entries, _, _) in quadrature._NODES.items():
        stored[table] = stored.get(table, 0) + len(entries)
    return stored, max(level for _, level in quadrature._NODES)


def bench_quadrature(repeat):
    print("quadrature: us per point with empty tables (cold) and with every\n"
          "table filled (warm); the level it stopped at and the nodes used, and\n"
          "the entries one cold call left stored in each integrand table")
    points = [(f"{name:<15} phi={phi:<15}", route, Angle(phi))
              for name, route in (("quad_eval", quadrature.quad_eval),
                                  ("quad_unit_eval", quadrature.quad_unit_eval))
              for phi in (0.5, 2.0, 2.9)]
    points += [(f"{name:<15} phi={'pi-1.0001e-3':<15}", route, Angle(math.pi - 1.0001e-3))
               for name, route in (("quad_eval", quadrature.quad_eval),
                                   ("quad_unit_eval", quadrature.quad_unit_eval))]
    points.append((f"{'quad_tan_form':<15} phi={'pi/2':<15}",
                   lambda _: quadrature.quad_tan_form(), None))
    points += [(f"{'quad_jn':<15} n={n:<17}", quadrature.quad_jn, n) for n in (0, 7, 20, 100)]
    for label, route, arg in points:

        def cold(route=route, arg=arg):
            quadrature._NODES.clear()
            route(arg)

        t_cold = min(timeit.repeat(cold, number=1, repeat=repeat))
        stored, level = _stored()
        t_warm = min(timeit.repeat(lambda: route(arg), number=1, repeat=repeat))
        nodes = route(arg).nodes
        print(f"  {label} level={level:<2} nodes={nodes:<4} cold {t_cold * 1e6:8.1f} us"
              f"  warm {t_warm * 1e6:8.1f} us")
        print("    stored: " + ", ".join(f"{table} {n}" for table, n in stored.items()))


# The bare route call behind each method, at its angle.
_ROUTES = {
    Method.CLOSED: closed_form.malmsten_closed,
    Method.SERIES: series.series_eval,
    Method.KUMMER: kummer.kummer_closed_eval,
    Method.QUAD: quadrature.quad_eval,
    Method.QUAD_UNIT: quadrature.quad_unit_eval,
    Method.QUAD_TAN: lambda angle: quadrature.quad_tan_form(),
}


def bench_evaluate(repeat):
    tol = 1e-9
    print(f"evaluate: best time per call of each method at phi = 2 (quad-tan at\n"
          f"pi/2), with tol=None, with tol={tol} (every route meets it there, with\n"
          f"the record of tol=None) and as the bare route call")
    number = 200
    for method, route in _ROUTES.items():
        angle = Angle(math.pi / 2 if method is Method.QUAD_TAN else 2.0)
        ways = (("tol=None", lambda: evaluate(angle, method.value)),
                (f"tol={tol}", lambda: evaluate(angle, method.value, tol)),
                ("route", lambda: route(angle)))
        cells = []
        for label, fn in ways:
            best = min(timeit.repeat(fn, number=number, repeat=repeat)) / number
            cells.append(f"{label} {best * 1e6:7.2f} us")
        work = evaluate(angle, method.value, tol).work
        print(f"  {method.value:<9} work={work:<4} " + "  ".join(cells))


def bench_verify(repeat):
    print("verify: best time per run of each check group, run_checks(only=[group]),\n"
          "and its share of the groups' sum")
    best = {group: min(timeit.repeat(lambda group=group: verify.run_checks(only=[group]),
                                     number=1, repeat=repeat))
            for group in verify.GROUPS}
    total = sum(best.values())
    for group, t in best.items():
        print(f"  {group:<12} {t * 1e3:9.3f} ms {t / total:6.1%}")
    print(f"  {'sum':<12} {total * 1e3:9.3f} ms")


def bench_records(repeat):
    print("records: best time per construction, and per cold import in a child\n"
          "interpreter")
    angle = Angle(1.0)
    number = 20_000
    for label, fn in (
        ("Angle(phi)", lambda: Angle(1.0)),
        ("Evaluation, by position", lambda: Evaluation(angle, 0.1, Method.CLOSED, 1e-16, 3)),
        ("Evaluation, by keyword", lambda: Evaluation(phi=angle, value=0.1, method=Method.CLOSED,
                                                      est_error=1e-16, work=3)),
    ):
        best = min(timeit.repeat(fn, number=number, repeat=repeat)) / number
        print(f"  {label:<28} {best * 1e9:9.0f} ns")
    src = Path(verify.__file__).resolve().parents[1]
    code = ("import sys, time; t0 = time.perf_counter(); "
            f"sys.path.insert(0, {str(src)!r}); import malmsten.cli; "
            "print(time.perf_counter() - t0)")

    def cold_import():
        return float(subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                                    text=True, check=True, timeout=60).stdout)

    best = min(cold_import() for _ in range(repeat))
    print(f"  {'import malmsten.cli (cold)':<28} {best * 1e3:9.3f} ms")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--terms", type=int, default=200_000)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    theta = math.pi / 2 + math.pi
    print("raw partial sum: best time per call")
    bench(f"log_sine_partial(N={args.terms})",
          lambda: kummer.log_sine_partial(theta, args.terms), args.repeat)

    bench_closed(args.repeat)
    bench_log_gamma(args.repeat)
    bench_series(args.repeat)
    bench_quadrature(args.repeat)
    bench_evaluate(args.repeat)
    bench_verify(args.repeat)
    bench_records(args.repeat)


if __name__ == "__main__":
    main()
