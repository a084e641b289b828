"""Acceptance gate: the twelve headline criteria for the workbench, each at
its contractual tolerance.  Every test prints one PASS/FAIL line (straight
to the terminal, bypassing capture) before asserting, so a full run always
shows the per-criterion verdicts.
"""

import json
import math
import random
import time

from malmsten import evaluate, verify
from malmsten.cli import main as cli_main
from malmsten.closed_form import (
    SpecialCase,
    malmsten_closed,
    special_value,
    two_pi_over_3_forms,
    zero_limit,
)
from malmsten.domain import Angle
from malmsten.kummer import (
    derived_sum_identity,
    kummer_closed_eval,
    kummer_sum,
    log_sine_partial,
)
from malmsten.quadrature import quad_eval, quad_jn, quad_tan_form
from malmsten.series import j_n, sawtooth_sum, series_eval
from malmsten.special_functions import EULER_GAMMA, log_gamma, reflection_product
from malmsten.verify import DEFAULT_GRID, run_checks

SPECIALS = {
    SpecialCase.PI_OVER_2: math.pi / 2,
    SpecialCase.PI_OVER_3: math.pi / 3,
    SpecialCase.TWO_PI_OVER_3: 2 * math.pi / 3,
}


def _report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"[acceptance] criterion {number:2d}: "
              f"{'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def _closed(phi):
    return evaluate(Angle(phi), "closed").value


def test_criterion_01_closed_vs_quad_grid(capsys):
    t0 = time.perf_counter()
    worst = max(abs(_closed(p) - quad_eval(Angle(p)).value) for p in DEFAULT_GRID)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed <= 5.0
    _report(capsys, 1, ok,
            f"closed vs quad on {len(DEFAULT_GRID)} grid points: "
            f"max delta {worst:.2e} (tol 1e-10), {elapsed:.2f}s (limit 5s)")


def test_criterion_02_special_values(capsys):
    worst_closed = worst_quad = 0.0
    for case, p in SPECIALS.items():
        sv = special_value(case).value
        worst_closed = max(worst_closed, abs(sv - malmsten_closed(Angle(p)).value))
        worst_quad = max(worst_quad, abs(sv - quad_eval(Angle(p)).value))
    form_gap = abs(two_pi_over_3_forms()[0] - two_pi_over_3_forms()[1])
    ok = worst_closed <= 1e-12 and worst_quad <= 1e-10 and form_gap <= 1e-12
    _report(capsys, 2, ok,
            f"special values: vs closed {worst_closed:.2e} (tol 1e-12), "
            f"vs quad {worst_quad:.2e} (tol 1e-10), "
            f"printed forms {form_gap:.2e} (tol 1e-12)")


def test_criterion_03_tangent_form(capsys):
    delta = abs(quad_tan_form().value - special_value(SpecialCase.PI_OVER_2).value)
    _report(capsys, 3, delta <= 1e-9,
            f"tangent form vs special value: delta {delta:.2e} (tol 1e-9)")


def test_criterion_04_series_route(capsys):
    band = [p for p in DEFAULT_GRID if not Angle(p).is_zero and abs(p) <= 2.9]
    worst = max(abs(series_eval(Angle(p)).value - _closed(p)) for p in band)
    theta = math.pi / 2 + math.pi
    raw = log_sine_partial(theta, 10_000)
    exact = (math.sin(math.pi / 2) * _closed(math.pi / 2)
             + EULER_GAMMA * math.pi / 4)
    raw_err = abs(raw - exact)
    ok = worst <= 1e-8 and raw_err > 1e-5
    _report(capsys, 4, ok,
            f"series route: max delta {worst:.2e} (tol 1e-8); "
            f"raw 10^4-term error {raw_err:.2e} (must exceed 1e-5)")


def test_criterion_05_coefficient_identity(capsys):
    # a_n = sin((n+1) phi)/sin phi against its definition, the n + 1 cosines
    # cos((n - 2k) phi), k = 0 .. n, and against the Chebyshev recurrence
    rng = random.Random(20260823)
    worst_witness = worst_cheb = 0.0
    for _ in range(20):
        p = rng.uniform(0.01, math.pi - 0.01) * rng.choice((1.0, -1.0))
        two_cos = 2.0 * math.cos(p)
        prev2 = prev1 = None
        for n in range(201):
            closed = math.sin((n + 1) * p) / math.sin(p)
            brute = math.fsum(math.cos((n - 2 * k) * p) for k in range(n + 1))
            worst_witness = max(worst_witness, abs(closed - brute) / (n + 1))
            if n >= 2:
                worst_cheb = max(
                    worst_cheb, abs(closed - (two_cos * prev1 - prev2)) / (n + 1)
                )
            prev2, prev1 = prev1, closed
    same = [r.lhs for r in run_checks(only=["coeffs"])] == [worst_witness, worst_cheb]
    ok = worst_witness <= 1e-12 and worst_cheb <= 1e-11 and same
    _report(capsys, 5, ok,
            f"coefficients (20 angles, n <= 200): brute-force witness "
            f"{worst_witness:.2e} (tol 1e-12/(n+1)), recurrence "
            f"{worst_cheb:.2e} (tol 1e-11/(n+1)); verify's coeffs records "
            f"equal these: {same}")


def test_criterion_06_inner_integrals(capsys):
    worst = max(abs(j_n(n) - quad_jn(n).value) for n in range(21))
    gamma_gap = abs(j_n(0) + 0.5772156649)
    ok = worst <= 1e-10 and gamma_gap <= 5e-11
    _report(capsys, 6, ok,
            f"inner integrals n=0..20: max delta {worst:.2e} (tol 1e-10); "
            f"-J_0 matches gamma to {gamma_gap:.2e}")


def test_criterion_07_sawtooth(capsys):
    band = [p for p in DEFAULT_GRID if abs(p) <= 2.9]
    worst = max(
        abs(sawtooth_sum(Angle(p))[0] - p / 2.0) for p in band
    )
    _report(capsys, 7, worst <= 1e-8,
            f"sawtooth series: max |S - phi/2| "
            f"{worst:.2e} (tol 1e-8)")


def test_criterion_08_fourier_log_gamma(capsys):
    worst = max(
        abs(kummer_sum(0.05 * k)[0] - log_gamma(0.05 * k))
        for k in range(1, 20)
    )
    exact_mid = kummer_sum(0.5)[0] == 0.5 * math.log(math.pi)
    ok = worst <= 1e-7 and exact_mid
    _report(capsys, 8, ok,
            f"Fourier expansion vs log-gamma on x=0.05..0.95: max delta "
            f"{worst:.2e} (tol 1e-7); midpoint exact: {exact_mid}")


def test_criterion_09_derived_identity(capsys):
    grid = [-2.88 + 2.0 * 2.88 * k / 24.0 for k in range(25)]
    worst_id = worst_asm = 0.0
    for p in grid:
        (series_side, _), (closed_side, _) = derived_sum_identity(Angle(p))
        worst_id = max(worst_id, abs(series_side - closed_side))
        if not Angle(p).is_zero:
            assembled = -(0.5 * EULER_GAMMA * p + series_side) / math.sin(p)
            worst_asm = max(worst_asm, abs(assembled - _closed(p)))
    ok = worst_id <= 1e-7 and worst_asm <= 1e-7
    _report(capsys, 9, ok,
            f"derived sum identity on 25 points: residual {worst_id:.2e}, "
            f"assembled vs closed {worst_asm:.2e} (tol 1e-7)")


def test_criterion_10_reflection(capsys):
    worst_rel = 0.0
    for k in range(100):
        t = -0.49 + 0.98 * (k + 0.5) / 100.0
        lhs, rhs = reflection_product(t)
        worst_rel = max(worst_rel, abs(lhs - rhs) / abs(rhs))
    worst_var = max(
        abs(kummer_closed_eval(Angle(p)).value - malmsten_closed(Angle(p)).value)
        for p in DEFAULT_GRID if not Angle(p).is_zero
    )
    ok = worst_rel <= 1e-11 and worst_var <= 1e-12
    _report(capsys, 10, ok,
            f"reflection formula: relative residual {worst_rel:.2e} "
            f"(tol 1e-11); reflected closed form {worst_var:.2e} (tol 1e-12)")


def test_criterion_11_zero_limit(capsys):
    delta = abs(zero_limit().value - quad_eval(Angle(0.0)).value)
    _report(capsys, 11, delta <= 1e-10,
            f"zero limit vs quadrature: delta {delta:.2e} (tol 1e-10)")


def test_criterion_12_verify_exit_codes(capsys, monkeypatch):
    rc_default = cli_main(["verify"])
    # quad off by 1e-12 of itself, far outside the budget of its estimate
    route = verify.evaluate

    def perturbed(angle, method, tol=None):
        ev = route(angle, method, tol)
        return ev._replace(value=ev.value * (1.0 + 1e-12)) if method == "quad" else ev

    monkeypatch.setattr(verify, "evaluate", perturbed)
    rc_strict = cli_main(["verify", "--json"])
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    structured = (report["pass"] is False
                  and any(not c["pass"] for c in report["checks"]))
    ok = rc_default == 0 and rc_strict == 1 and structured
    _report(capsys, 12, ok,
            f"verify exit codes: default {rc_default} (want 0), "
            f"quad perturbed by 1e-12 {rc_strict} (want 1), "
            f"structured failure report: {structured}")
