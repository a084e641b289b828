"""In-process tests of the command-line front end: argument parsing, the
exit-code contract, and the CSV/JSON report formats."""

import csv
import json
import math
import os
import stat

import pytest

from malmsten import (
    Angle,
    Evaluation,
    Method,
    SpecialCase,
    evaluate,
    kummer_closed_eval,
    malmsten_closed,
    quadrature,
    series_eval,
    verify,
)
from malmsten.cli import main, parse_phi
from malmsten.errors import DomainError, NonConvergenceError
from malmsten.special_functions import EPS
from malmsten.verify import run_checks

FROZEN_PI_OVER_2 = -0.26044280630098844554
FROZEN_ZERO_LIMIT = -0.06281647980603899794


@pytest.mark.parametrize(
    "expr, expected",
    [
        ("pi", math.pi),
        ("pi/2", math.pi / 2),
        ("-pi/3", -math.pi / 3),
        ("2*pi/3", 2 * math.pi / 3),
        ("-2*pi/3", -2 * math.pi / 3),
        ("0.5", 0.5),
        ("-2.9", -2.9),
        ("1e-3", 1e-3),
        (" pi / 4 ", math.pi / 4),
    ],
)
def test_parse_phi(expr, expected):
    assert parse_phi(expr) == pytest.approx(expected, abs=0.0)


@pytest.mark.parametrize("bad", ["pi/0", "phi", "2pi", "pi/2/3", ""])
def test_parse_phi_rejects(bad):
    with pytest.raises(DomainError):
        parse_phi(bad)


@pytest.mark.parametrize("method", ["closed", "series", "quad", "quad-unit", "quad-tan", "kummer"])
def test_eval_json(capsys, method):
    assert main(["eval", "--phi", "pi/2", "--method", method, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["method"] == method
    assert abs(out["value"] - FROZEN_PI_OVER_2) <= 1e-12
    assert out["est_error"] >= 0.0
    assert out["work"] >= 1


def test_eval_text(capsys):
    assert main(["eval", "--phi", "2.0", "--method", "quad"]) == 0
    line = capsys.readouterr().out
    assert "method=quad " in line
    assert "value=-0.554149998261343" in line


@pytest.mark.parametrize("method", ["closed", "series", "kummer"])
def test_eval_zero_angle_falls_back_to_limit(capsys, method):
    assert main(["eval", "--phi", "0", "--method", method, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["value"] - FROZEN_ZERO_LIMIT) <= 1e-13


def test_evaluate_rejects_unknown_method_at_zero_angle():
    with pytest.raises(DomainError):
        evaluate(Angle(0.0), "bogus")


def test_evaluate_series_at_zero_angle_returns_the_limit():
    ev = evaluate(Angle(0.0), "series")
    assert ev.method is Method.CLOSED
    assert abs(ev.value - FROZEN_ZERO_LIMIT) <= 1e-13


def test_eval_negative_angle_expression(capsys):
    assert main(["eval", "--phi", "-pi/3", "--json"]) == 0
    pos = json.loads(capsys.readouterr().out)
    assert main(["eval", "--phi", "pi/3", "--json"]) == 0
    neg = json.loads(capsys.readouterr().out)
    assert pos["value"] == neg["value"]


def test_eval_quad_tan(capsys):
    assert main(["eval", "--phi", "pi/2", "--method", "quad-tan", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["value"] - FROZEN_PI_OVER_2) <= 1e-11
    assert main(["eval", "--phi", "pi/3", "--method", "quad-tan"]) == 2
    # pi/2 + 3.55e-15, 16 ulps out: quad-tan's I(pi/2) would miss I there by
    # 4.5 times its estimate
    assert main(["eval", "--phi", "1.5707963267949", "--method", "quad-tan"]) == 2


@pytest.mark.parametrize("argv", [
    ["eval", "--phi", "pi"],          # endpoint excluded
    ["eval", "--phi", "nonsense"],
    ["eval", "--phi", "3.2"],
])
def test_eval_domain_errors_exit_2(capsys, argv):
    assert main(argv) == 2


@pytest.mark.parametrize("tol", ["0", "-1e-9", "inf", "nan"])
@pytest.mark.parametrize("method", ["series", "quad", "quad-unit"])
def test_eval_rejects_a_tol_that_is_not_finite_and_positive(capsys, method, tol):
    assert main(["eval", "--phi", "1", "--method", method, f"--tol={tol}"]) == 2
    err = capsys.readouterr().err
    assert "tol must be finite and > 0" in err
    assert f"got {float(tol)!r}" in err
    with pytest.raises(DomainError):
        evaluate(Angle(1.0), method, float(tol))


@pytest.mark.parametrize("tol", ["0", "inf", "nan"])
@pytest.mark.parametrize("method", ["closed", "series", "kummer"])
def test_eval_rejects_a_bad_tol_at_a_zero_angle(capsys, method, tol):
    # a ZERO angle is served by zero_limit, but the tolerance is still checked
    assert main(["eval", "--phi", "0", "--method", method, f"--tol={tol}"]) == 2
    assert "tol must be finite and > 0" in capsys.readouterr().err
    with pytest.raises(DomainError):
        evaluate(Angle(0.0), method, float(tol))


def test_eval_nonconvergence_exit_3(capsys):
    assert main(["eval", "--phi", "2.0", "--method", "series",
                 "--tol", "1e-16"]) == 3


# Estimates that miss max(tol, tol |value|): each route computes its value
# as it would without the tol (quadrature refines to it, and its rounding
# floor stays), and evaluate refuses the result.
@pytest.mark.parametrize("method, phi, tol", [
    ("kummer", "1e-4", 1e-12),     # est 8.87e-11
    ("closed", "1", 1e-17),        # est 1.3e-16
    ("quad", "1", 1e-30),          # est 2.3e-16, the rounding floor
    ("quad-unit", "1", 1e-30),
    ("quad-tan", "pi/2", 1e-30),   # est 3.2e-16
    ("series", "2", 1e-16),        # est 1.4e-14
])
def test_evaluate_refuses_an_estimate_above_tol(capsys, method, phi, tol):
    with pytest.raises(NonConvergenceError) as exc_info:
        evaluate(Angle(parse_phi(phi)), method, tol)
    exc = exc_info.value
    assert math.isfinite(exc.best_estimate)
    assert exc.est_error > max(tol, tol * abs(exc.best_estimate))
    assert str(exc) == (f"{method} route did not reach tol={tol} at phi={parse_phi(phi)!r} "
                        f"(estimated error {exc.est_error:.3e})")
    assert main(["eval", "--phi", phi, "--method", method, "--tol", repr(tol)]) == 3
    assert "error: nonconvergence" in capsys.readouterr().err


# Each method's route function, called without evaluate.
ROUTES = {
    "closed": malmsten_closed,
    "series": series_eval,
    "kummer": kummer_closed_eval,
    "quad": quadrature.quad_eval,
    "quad-unit": quadrature.quad_unit_eval,
    "quad-tan": lambda angle: quadrature.quad_tan_form(),
}


@pytest.mark.parametrize("method", list(ROUTES))
def test_evaluate_without_tol_returns_the_route_record(method):
    angle = Angle(math.pi / 2 if method == "quad-tan" else 2.0)
    expected = ROUTES[method](angle)
    if isinstance(expected, quadrature.QuadResult):
        expected = Evaluation(angle, expected.value, Method(method), expected.est_error,
                              expected.nodes)
    ev = evaluate(angle, method)
    assert [(type(f), f) for f in ev] == [(type(f), f) for f in expected]


def test_verify_default_passes(capsys):
    assert main(["verify", "--only", "jn,zero"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_only_skips_the_closed_quad_grid(capsys):
    assert main(["verify", "--only", "jn", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["max_grid_delta"] is None
    assert main(["verify", "--only", "jn"]) == 0
    assert "grid delta" not in capsys.readouterr().out


def test_verify_takes_the_grid_delta_from_its_records(capsys, monkeypatch):
    # verify evaluates the closed-vs-quad grid once, in the closed_quad group
    expected = max(r.residual for r in run_checks(only=["closed_quad"]))
    grid_passes = []
    checks_closed_quad = verify._checks_closed_quad

    def counted():
        grid_passes.append(None)
        return checks_closed_quad()

    monkeypatch.setitem(verify._PRODUCERS, "closed_quad", counted)
    assert main(["verify", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert report["max_grid_delta"] == expected
    assert len(grid_passes) == 1


def test_comparison_report_is_the_closed_quad_group():
    assert verify.comparison_report() == run_checks(only=["closed_quad"])


# records per check group, in verify's order: 203 in all
GROUP_SIZES = {
    "closed_quad": 17, "repr": 30, "special": 7, "vardi": 2, "series": 17, "coeffs": 2,
    "jn": 22, "sawtooth": 17, "kummer": 20, "identity": 49, "reflection": 17, "zero": 3,
}


def test_run_checks_gives_the_203_records_of_the_verify_contract():
    records = run_checks()
    assert len(records) == sum(GROUP_SIZES.values()) == 203
    assert all(r.passed for r in records)
    assert tuple(GROUP_SIZES) == verify.GROUPS
    per_group = {group: run_checks(only=[group]) for group in verify.GROUPS}
    assert {group: len(rs) for group, rs in per_group.items()} == GROUP_SIZES
    assert [r for rs in per_group.values() for r in rs] == records


# the fixed tolerance that each family of derived budgets replaced
FIXED_TOLERANCES = {
    "closed_vs_quad": 1e-10, "quad_unit_vs_exp": 1e-10, "special_vs_quad": 1e-10,
    "zero_limit_vs_quad": 1e-10, "series_vs_closed": 1e-8, "sawtooth_vs_half_phi": 1e-8,
    "kummer_vs_log_gamma": 1e-7, "derived_identity": 1e-7, "i3_assembly_vs_closed": 1e-7,
    "special_vs_closed": 1e-12, "vardi_tan_vs_special": 1e-9, "vardi_tan_vs_quad": 1e-9,
    "jn_closed_vs_quad": 1e-10, "reflected_form_vs_closed": 1e-12, "jn_zero_is_minus_gamma": 1e-10,
}


def test_every_budget_is_within_the_fixed_tolerance_it_replaced():
    records = run_checks()
    assert len(records) == 203
    assert all(r.passed for r in records)
    derived = [r for r in records if r.name.split("[")[0] in FIXED_TOLERANCES]
    # the other 8 keep a literal tolerance, each with its reason in verify
    assert len(derived) == 195
    for r in derived:
        assert 0.0 < r.tolerance <= FIXED_TOLERANCES[r.name.split("[")[0]], r.name


# the groups that compare two routes over a grid: the prefix of their
# records' names, the grid, and the lhs and rhs routes; values compare by
# their bits, through float.hex
ROUTE_PAIR_GROUPS = {
    "closed_quad": ("closed_vs_quad", verify.DEFAULT_GRID, "closed", "quad"),
    "repr": ("quad_unit_vs_exp", verify._REPR_GRID, "quad-unit", "quad"),
    "series": ("series_vs_closed", verify._REGULAR_GRID, "series", "closed"),
    "reflection": ("reflected_form_vs_closed", verify._REGULAR_GRID, "kummer", "closed"),
    "identity": ("i3_assembly_vs_closed",
                 [p for p in verify._IDENTITY_GRID if not Angle(p).is_zero], "series", "closed"),
}


@pytest.mark.parametrize("group", ROUTE_PAIR_GROUPS)
def test_route_pair_records_are_the_values_of_evaluate(group):
    prefix, grid, lhs, rhs = ROUTE_PAIR_GROUPS[group]
    records = [r for r in run_checks(only=[group]) if r.name.startswith(prefix + "[")]
    assert [r.name for r in records] == [f"{prefix}[phi={p:+.6f}]" for p in grid]
    for r, p in zip(records, grid):
        a, b = evaluate(Angle(p), lhs), evaluate(Angle(p), rhs)
        assert r.lhs.hex() == a.value.hex()
        assert r.rhs.hex() == b.value.hex()
        budget = a.est_error + b.est_error + 2.0 * EPS * max(abs(a.value), abs(b.value))
        assert r.tolerance == budget


def test_special_and_vardi_records_take_their_routes_from_evaluate():
    records = {r.name: r for r in run_checks(only=["special", "vardi"])}
    for case in SpecialCase:
        angle = Angle(case.value)
        assert (records[f"special_vs_closed[{case.name}]"].rhs.hex()
                == evaluate(angle, "closed").value.hex())
        assert (records[f"special_vs_quad[{case.name}]"].rhs.hex()
                == evaluate(angle, "quad").value.hex())
    half_pi = Angle(math.pi / 2)
    tan = records["vardi_tan_vs_quad"]
    assert tan.lhs.hex() == evaluate(half_pi, "quad-tan").value.hex()
    assert tan.rhs.hex() == evaluate(half_pi, "quad").value.hex()


def test_verify_without_tolerance_flags_gives_the_records_of_run_checks(capsys):
    assert main(["verify", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checks"] == [r.as_dict() for r in run_checks()]


def test_verify_unconverged_grid_point_exit_3(capsys, monkeypatch):
    # no level past the first: every quadrature ends unconverged
    monkeypatch.setattr(quadrature, "MAX_LEVEL", 0)
    assert main(["verify", "--only", "closed_quad", "--json"]) == 3
    assert "nonconvergence" in capsys.readouterr().err


def _perturb_quad(monkeypatch):
    """Move every quad value that verify takes by 1e-12 of itself: inside the
    fixed 1e-10 that once bounded quad against closed, far outside the budget
    of their estimates."""
    route = verify.evaluate

    def evaluate(angle, method, tol=None):
        ev = route(angle, method, tol)
        return ev._replace(value=ev.value * (1.0 + 1e-12)) if method == "quad" else ev

    monkeypatch.setattr(verify, "evaluate", evaluate)


def test_verify_impossible_tolerance_fails(capsys, monkeypatch):
    _perturb_quad(monkeypatch)
    assert main(["verify", "--only", "closed_quad", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is False
    assert report["num_checks"] == len(report["checks"])
    failed = [c for c in report["checks"] if not c["pass"]]
    assert failed
    assert set(failed[0]) == {"name", "lhs", "rhs", "residual", "tolerance", "pass"}


def test_verify_jn_records_catch_a_quad_jn_moved_by_1e_14(monkeypatch):
    # quad_jn's estimates are tight enough that a value 1e-14 of itself off
    # leaves its budget against the closed form at every n; with a loose
    # estimate n = 7 to 19 once passed with that move
    route = verify.quad_jn

    def moved(n):
        r = route(n)
        return r._replace(value=r.value * (1.0 + 1e-14))

    monkeypatch.setattr(verify, "quad_jn", moved)
    records = [r for r in run_checks(only=["jn"]) if r.name.startswith("jn_closed_vs_quad[")]
    assert [r.name for r in records] == [f"jn_closed_vs_quad[n={n}]" for n in range(21)]
    assert not any(r.passed for r in records)


@pytest.mark.parametrize("flag", ["closed-quad", "series", "kummer"])
def test_verify_takes_no_tolerance_flag(capsys, flag):
    # every record's tolerance comes from its sides' estimates
    assert main(["verify", "--only", "jn", f"--tol-{flag}", "1e-8"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_unknown_group(capsys):
    assert main(["verify", "--only", "no_such_group"]) == 2


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_sweep_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--from", "-2.0", "--to", "2.0", "--step", "0.5",
            "--methods", "closed,quad", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    rows = _read_csv(out)
    assert len(rows) == 9 * 2  # 9 grid points x 2 methods
    assert list(rows[0]) == ["phi", "method", "value", "est_error", "work"]
    # evenness of the tabulated values straight from the file
    by_key = {(r["phi"], r["method"]): float(r["value"]) for r in rows}
    for p in ("0.5", "1", "1.5", "2"):
        assert abs(by_key[(p, "closed")] - by_key[("-" + p, "closed")]) <= 1e-12
    # byte-identical on rerun
    assert main(argv) == 0
    assert out.read_bytes() == first


def test_sweep_json(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--from", "0.5", "--to", "1.5", "--step", "0.5",
                 "--methods", "closed,series,quad", "--json",
                 "--out", str(out)]) == 0
    records = json.loads(out.read_text())
    assert len(records) == 3
    rec = records[0]
    assert set(rec) == {"phi", "methods", "deltas"}
    assert set(rec["methods"]) == {"closed", "quad", "series"}
    assert rec["deltas"]["closed|quad"] <= 1e-10
    assert rec["deltas"]["closed|series"] <= 1e-8


@pytest.mark.parametrize("start, stop, step, count", [
    # 0.1 + 2 * 0.1 = 0.30000000000000004 lies past --to
    ("0.1", "0.3", "0.1", 3),
    # the last point rounds to float pi, outside the domain, without the clamp
    ("-1.4828500648290064", "3.1415926535897927", "0.18497770873675198", 26),
])
def test_sweep_stops_at_its_end(tmp_path, capsys, start, stop, step, count):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--from", start, "--to", stop, "--step", step,
                 "--methods", "closed,series", "--out", str(out)]) == 0
    phis = [float(r["phi"]) for r in _read_csv(out)[::2]]
    assert len(phis) == count
    assert max(phis) == phis[-1] == float(stop)


@pytest.mark.parametrize("argv", [
    ["sweep", "--from", "1.0", "--to", "0.5", "--step", "0.1", "--out", "x.csv"],
    ["sweep", "--from", "0.0", "--to", "1.0", "--step", "-0.1", "--out", "x.csv"],
    ["sweep", "--from", "0.0", "--to", "1.0", "--step", "0.1",
     "--methods", "sorcery", "--out", "x.csv"],
])
def test_sweep_bad_usage_exit_2(capsys, argv):
    assert main(argv) == 2


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["umask022", "umask027"])
def test_sweep_file_mode_follows_the_umask(tmp_path, capsys, umask):
    fresh, existing = tmp_path / "fresh.csv", tmp_path / "existing.csv"
    existing.write_text("")
    os.chmod(existing, 0o644)
    old = os.umask(umask)
    try:
        for out in (fresh, existing):
            assert main(["sweep", "--from", "0.5", "--to", "1.0", "--step", "0.5",
                         "--out", str(out)]) == 0
    finally:
        os.umask(old)
    for out in (fresh, existing):
        assert stat.S_IMODE(os.stat(out).st_mode) == 0o666 & ~umask


def test_sweep_rejects_too_many_points_before_writing(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--from", "-3", "--to", "3", "--step", "1e-12",
                 "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("where", ["missing_dir", "existing_dir"])
def test_sweep_unwritable_out_exit_2(tmp_path, capsys, where):
    # mkstemp finds no directory to write in, or os.replace cannot put the
    # file over a directory: a usage error, not a failed numeric check
    out = tmp_path / "no_such_dir" / "x.csv" if where == "missing_dir" else tmp_path / "x.csv"
    if where == "existing_dir":
        out.mkdir()
    assert main(["sweep", "--from", "0.5", "--to", "1.0", "--step", "0.5",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    # the message names the --out path given, not the temporary file
    assert repr(str(out)) in err and ".sweep-" not in err
    assert not list(tmp_path.rglob(".sweep-*"))


def test_table_text(capsys):
    assert main(["table"]) == 0
    out = capsys.readouterr().out
    assert "pi/3" in out and "pi/2" in out and "2*pi/3" in out
    assert "both printed forms at 2*pi/3 agree" in out
    assert "FAILED" not in out


def test_table_json(capsys):
    assert main(["table", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["phi"] for r in rows] == ["pi/3", "pi/2", "2*pi/3"]
    for row in rows:
        assert abs(row["tabulated_rhs"] - row["closed"]) <= 1e-12
        assert row["closed_minus_quad"] <= 1e-10
    assert rows[2]["printed_forms_delta"] <= 1e-12


def test_usage_error_exit_code(capsys):
    assert main(["eval"]) == 2        # missing --phi
    assert main(["no-such-command"]) == 2
